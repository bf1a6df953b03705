//! Small statistics accumulators used by the experiment harnesses.

use crate::time::Nanos;

/// Streaming summary of a series of samples (running mean plus
/// retained samples for exact percentiles).
///
/// # Examples
///
/// ```
/// use menos_sim::Summary;
///
/// let mut s = Summary::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.add(x);
/// }
/// assert_eq!(s.count(), 4);
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 4.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Summary {
    samples: Vec<f64>,
    mean: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            samples: Vec::new(),
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn add(&mut self, x: f64) {
        self.samples.push(x);
        let n = self.samples.len() as f64;
        let d = x - self.mean;
        self.mean += d / n;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Adds a duration sample in seconds.
    pub fn add_time(&mut self, t: Nanos) {
        self.add(t.as_secs_f64());
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Arithmetic mean; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest sample; zero when empty.
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample; zero when empty.
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.max
        }
    }

    /// Exact percentile by nearest-rank (`p` in `[0, 100]`); zero when
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]` or NaN.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
        sorted[rank]
    }

    /// Sum of all samples.
    pub fn total(&self) -> f64 {
        self.samples.iter().sum()
    }
}

/// Tracks the running maximum of a quantity over time — used for peak
/// GPU memory reporting.
///
/// # Examples
///
/// ```
/// use menos_sim::PeakTracker;
///
/// let mut p = PeakTracker::new();
/// p.record(10);
/// p.record(3);
/// assert_eq!(p.peak(), 10);
/// assert_eq!(p.current(), 3);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeakTracker {
    current: u64,
    peak: u64,
}

impl PeakTracker {
    /// Creates a tracker at zero.
    pub fn new() -> Self {
        PeakTracker::default()
    }

    /// Sets the current value, updating the peak.
    pub fn record(&mut self, value: u64) {
        self.current = value;
        if value > self.peak {
            self.peak = value;
        }
    }

    /// Adds to the current value, updating the peak.
    pub fn add(&mut self, delta: u64) {
        self.record(self.current + delta);
    }

    /// Subtracts from the current value (saturating).
    pub fn sub(&mut self, delta: u64) {
        self.current = self.current.saturating_sub(delta);
    }

    /// Current value.
    pub fn current(&self) -> u64 {
        self.current
    }

    /// Highest value ever recorded.
    pub fn peak(&self) -> u64 {
        self.peak
    }
}

/// Formats a byte count with binary units, matching how the paper
/// reports GPU memory (GB).
///
/// # Examples
///
/// ```
/// assert_eq!(menos_sim::format_bytes(24 * (1 << 30)), "24.00 GiB");
/// assert_eq!(menos_sim::format_bytes(512), "512 B");
/// ```
pub fn format_bytes(bytes: u64) -> String {
    const KIB: f64 = 1024.0;
    let b = bytes as f64;
    if b >= KIB * KIB * KIB {
        format!("{:.2} GiB", b / (KIB * KIB * KIB))
    } else if b >= KIB * KIB {
        format!("{:.2} MiB", b / (KIB * KIB))
    } else if b >= KIB {
        format!("{:.2} KiB", b / KIB)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 8);
        assert!((s.total() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_is_zero() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.percentile(50.0), 0.0);
    }

    #[test]
    fn summary_percentiles() {
        let mut s = Summary::new();
        for x in 1..=100 {
            s.add(x as f64);
        }
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 100.0);
        let med = s.percentile(50.0);
        assert!((50.0..=51.0).contains(&med));
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_rejects_out_of_range() {
        Summary::new().percentile(101.0);
    }

    #[test]
    fn summary_time_samples() {
        let mut s = Summary::new();
        s.add_time(Nanos::from_millis(1500));
        assert!((s.mean() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn peak_tracker() {
        let mut p = PeakTracker::new();
        p.add(100);
        p.add(50);
        p.sub(120);
        assert_eq!(p.current(), 30);
        assert_eq!(p.peak(), 150);
        p.sub(100);
        assert_eq!(p.current(), 0);
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(format_bytes(0), "0 B");
        assert_eq!(format_bytes(2048), "2.00 KiB");
        assert_eq!(format_bytes(3 * 1024 * 1024), "3.00 MiB");
    }
}
