//! Virtual time for the discrete-event simulation.
//!
//! All simulated experiments in this workspace run on a deterministic
//! virtual clock. Time is represented as an integer number of
//! nanoseconds ([`Nanos`]) so that event ordering is exact and
//! reproducible — floating-point time would make tie-breaking depend on
//! accumulated rounding.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in virtual time, or a duration, in nanoseconds.
///
/// `Nanos` is deliberately a single type for both instants and
/// durations: the simulation kernel only ever compares and adds times,
/// and a separate `Instant`/`Duration` pair would double the API surface
/// for no safety gain at this scale.
///
/// # Examples
///
/// ```
/// use menos_sim::Nanos;
///
/// let t = Nanos::from_millis(1_500);
/// assert_eq!(t.as_secs_f64(), 1.5);
/// assert_eq!(t + Nanos::from_secs_f64(0.5), Nanos::from_secs_f64(2.0));
/// ```
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
pub struct Nanos(pub u64);

impl Nanos {
    /// The zero time (simulation epoch).
    pub const ZERO: Nanos = Nanos(0);
    /// The maximum representable time.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Creates a time from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a time from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a time from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Creates a time from fractional seconds, saturating at zero for
    /// negative inputs and at [`Nanos::MAX`] for overly large inputs.
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_nan() || s <= 0.0 {
            return Nanos::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            Nanos::MAX
        } else {
            Nanos(ns.round() as u64)
        }
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This time expressed as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction: returns zero instead of wrapping.
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition: `None` on overflow.
    pub fn checked_add(self, rhs: Nanos) -> Option<Nanos> {
        self.0.checked_add(rhs.0).map(Nanos)
    }

    /// The larger of two times.
    pub fn max(self, rhs: Nanos) -> Nanos {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }

    /// The smaller of two times.
    pub fn min(self, rhs: Nanos) -> Nanos {
        if self <= rhs {
            self
        } else {
            rhs
        }
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs > self`; use
    /// [`Nanos::saturating_sub`] when the ordering is not guaranteed.
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s >= 1.0 {
            write!(f, "{s:.3}s")
        } else if s >= 1e-3 {
            write!(f, "{:.3}ms", s * 1e3)
        } else if s >= 1e-6 {
            write!(f, "{:.3}us", s * 1e6)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// Time taken to move `bytes` over a link of `bytes_per_sec` throughput.
///
/// Returns [`Nanos::ZERO`] when the rate is non-positive (treated as an
/// infinitely fast resource), which keeps cost models composable.
pub fn transfer_time(bytes: u64, bytes_per_sec: f64) -> Nanos {
    if bytes_per_sec <= 0.0 {
        return Nanos::ZERO;
    }
    Nanos::from_secs_f64(bytes as f64 / bytes_per_sec)
}

/// Time taken to execute `flops` floating-point operations on a device
/// sustaining `flops_per_sec`.
pub fn compute_time(flops: f64, flops_per_sec: f64) -> Nanos {
    if flops_per_sec <= 0.0 {
        return Nanos::ZERO;
    }
    Nanos::from_secs_f64(flops / flops_per_sec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Nanos::from_secs(2), Nanos::from_millis(2_000));
        assert_eq!(Nanos::from_millis(3), Nanos::from_micros(3_000));
        assert_eq!(Nanos::from_micros(5), Nanos::from_nanos(5_000));
    }

    #[test]
    fn secs_f64_round_trip() {
        let t = Nanos::from_secs_f64(1.25);
        assert_eq!(t.as_nanos(), 1_250_000_000);
        assert!((t.as_secs_f64() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn from_secs_f64_clamps() {
        assert_eq!(Nanos::from_secs_f64(-1.0), Nanos::ZERO);
        assert_eq!(Nanos::from_secs_f64(f64::NAN), Nanos::ZERO);
        assert_eq!(Nanos::from_secs_f64(f64::INFINITY), Nanos::MAX);
        assert_eq!(Nanos::from_secs_f64(1e30), Nanos::MAX);
    }

    #[test]
    fn arithmetic() {
        let a = Nanos::from_secs(1);
        let b = Nanos::from_millis(500);
        assert_eq!(a + b, Nanos::from_millis(1500));
        assert_eq!(a - b, Nanos::from_millis(500));
        assert_eq!(b * 4, Nanos::from_secs(2));
        assert_eq!(a / 4, Nanos::from_millis(250));
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
    }

    #[test]
    fn sum_and_minmax() {
        let total: Nanos = [Nanos::from_secs(1), Nanos::from_secs(2)].into_iter().sum();
        assert_eq!(total, Nanos::from_secs(3));
        assert_eq!(
            Nanos::from_secs(1).max(Nanos::from_secs(2)),
            Nanos::from_secs(2)
        );
        assert_eq!(
            Nanos::from_secs(1).min(Nanos::from_secs(2)),
            Nanos::from_secs(1)
        );
    }

    #[test]
    fn display_units() {
        assert_eq!(Nanos::from_secs_f64(1.5).to_string(), "1.500s");
        assert_eq!(Nanos::from_millis(12).to_string(), "12.000ms");
        assert_eq!(Nanos::from_micros(7).to_string(), "7.000us");
        assert_eq!(Nanos::from_nanos(42).to_string(), "42ns");
    }

    #[test]
    fn transfer_and_compute_time() {
        // 4 MB at 4 MB/s is one second.
        assert_eq!(transfer_time(4_000_000, 4e6), Nanos::from_secs(1));
        // Zero-rate resources are free.
        assert_eq!(transfer_time(1, 0.0), Nanos::ZERO);
        assert_eq!(compute_time(14e12, 14e12), Nanos::from_secs(1));
        assert_eq!(compute_time(1.0, -1.0), Nanos::ZERO);
    }
}
