//! The arithmetic every later claim rests on: percentiles, medians,
//! and the rate of a run cut into segments.

/// Nearest-rank percentile of a nonempty sample: the smallest value
/// with at least `p` percent of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty sample or a non-finite value.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let rank = (p / 100.0 * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Median: the middle value, or the mean of the two middle values.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(xs,
/// n=4)` gives them (the "exclusive" method), so the spread printed
/// here is the one the driver computes.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two values");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let n = s.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// One completed wave of the closed loop: how long it took and how
/// many steps it completed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wave {
    pub seconds: f64,
    pub steps: u64,
}

/// Steps per second over a set of waves.
pub fn rate(waves: &[Wave]) -> f64 {
    let steps: u64 = waves.iter().map(|w| w.steps).sum();
    let seconds: f64 = waves.iter().map(|w| w.seconds).sum();
    steps as f64 / seconds
}

/// Cuts `items` into `parts` runs of (nearly) equal length. Fewer
/// items than `parts` gives one run per item.
pub fn segments<T>(items: &[T], parts: usize) -> impl Iterator<Item = &[T]> {
    let parts = parts.min(items.len());
    (0..parts).map(move |k| &items[k * items.len() / parts..(k + 1) * items.len() / parts])
}

/// The percentile of per-step wave times that anchors "quiet", and how
/// far above it a wave may lie and still count.
const QUIET_BASE_PCT: f64 = 10.0;
const QUIET_SLACK: f64 = 1.10;

/// Marks the waves that ran undisturbed.
///
/// Every wave of a run does the same work, so on a quiet host their
/// times differ by a few percent. On the shared hosts this benchmark
/// runs on they do not: for seconds at a time, whatever the guest does,
/// both processes run up to 1.6x slower (a neighbour on the same
/// cores), and a ten-second run often holds more slow waves than fast
/// ones. No median over steps, segments or set-ups removes that; in
/// ten runs of one commit `steps_per_s` spread by 10 to 30 %.
///
/// Disturbance only ever adds time, so the fast waves are the ones
/// that show the code's own speed. A wave is quiet when its time per
/// step is within [`QUIET_SLACK`] of the run's 10th-percentile wave;
/// timings are reported over quiet waves only, which brought the same
/// ten-run spread to 1 to 4 %. The price: a change that makes only
/// some waves slow (a periodic stall) moves the share of quiet waves
/// and the all-waves numbers in the detail file, not the gated metric.
pub fn quiet(waves: &[Wave]) -> Vec<bool> {
    let per_step: Vec<f64> = waves.iter().map(|w| w.seconds / w.steps as f64).collect();
    let limit = quiet_limit(&per_step);
    per_step.iter().map(|t| *t <= limit).collect()
}

/// The longest a timing may be and still count as quiet among `times`.
fn quiet_limit(times: &[f64]) -> f64 {
    QUIET_SLACK * percentile(times, QUIET_BASE_PCT)
}

/// Mean of the quiet ones among repeated timings of one piece of work,
/// by the same rule as [`quiet`].
pub fn quiet_mean(times: &[f64]) -> f64 {
    let limit = quiet_limit(times);
    let kept: Vec<f64> = times.iter().copied().filter(|t| *t <= limit).collect();
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// `items` whose flag in `keep` is set.
pub fn select<T: Clone>(items: &[T], keep: &[bool]) -> Vec<T> {
    items
        .iter()
        .zip(keep)
        .filter(|(_, k)| **k)
        .map(|(x, _)| x.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 91.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // Order of the sample does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
    }

    #[test]
    fn p90_leaves_a_tenth_of_the_sample_beyond_it() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let p90 = percentile(&xs, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > p90).count(), 20);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), (1.5, 12.0));
    }

    fn waves(seconds: &[f64], steps: u64) -> Vec<Wave> {
        seconds
            .iter()
            .map(|&seconds| Wave { seconds, steps })
            .collect()
    }

    #[test]
    fn median_of_segments_ignores_one_slow_segment() {
        // Ten waves of four steps; the waves of the fourth segment
        // take five times as long.
        let w = waves(&[0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.5, 0.5, 0.1, 0.1], 4);
        let rates: Vec<f64> = segments(&w, 5).map(rate).collect();
        assert_eq!(rates.len(), 5);
        assert!((rates[0] - 40.0).abs() < 1e-9);
        assert!((rates[3] - 8.0).abs() < 1e-9);
        assert!((median(&rates) - 40.0).abs() < 1e-9);
        // The whole-run rate is dragged down; the median is not.
        assert!(rate(&w) < 25.0);
    }

    #[test]
    fn segments_cover_every_wave_once() {
        let w = waves(&[1.0; 7], 3);
        let groups: Vec<&[Wave]> = segments(&w, 5).collect();
        assert_eq!(groups.len(), 5);
        assert_eq!(groups.iter().map(|g| g.len()).sum::<usize>(), 7);
        // Uniform waves give a uniform rate whatever the grouping.
        assert!(groups.iter().all(|g| (rate(g) - 3.0).abs() < 1e-9));
        assert_eq!(segments(&w[..3], 5).count(), 3);
    }

    #[test]
    fn quiet_waves_are_the_fast_cluster() {
        // Twelve quiet waves with 3 % of jitter, eight disturbed ones.
        let mut seconds = vec![0.100, 0.101, 0.102, 0.103, 0.100, 0.101];
        seconds.extend([0.102, 0.103, 0.100, 0.101, 0.102, 0.103]);
        seconds.extend([0.150, 0.160, 0.155, 0.112, 0.150, 0.160, 0.158, 0.149]);
        let w = waves(&seconds, 2);
        let q = quiet(&w);
        assert_eq!(q.iter().filter(|k| **k).count(), 12);
        assert!(q[..12].iter().all(|k| *k) && q[12..].iter().all(|k| !*k));
        let fast = select(&w, &q);
        assert!((rate(&fast) - 2.0 / 0.1015).abs() < 0.05);
        // The all-waves rate is a sixth lower.
        assert!(rate(&w) < 0.85 * rate(&fast));
    }

    #[test]
    fn quiet_mean_ignores_the_disturbed_timings() {
        let times = [1.0, 1.02, 1.04, 1.0, 1.02, 1.6, 1.5, 1.04, 1.7, 1.0];
        // Seven timings lie within a tenth of the fastest.
        assert!((quiet_mean(&times) - 7.12 / 7.0).abs() < 1e-12);
        assert_eq!(quiet_mean(&[2.0]), 2.0);
    }

    #[test]
    fn a_wholly_quiet_run_keeps_nearly_every_wave() {
        let seconds: Vec<f64> = (0..50).map(|i| 0.1 + 0.0001 * f64::from(i % 7)).collect();
        let q = quiet(&waves(&seconds, 1));
        assert!(q.iter().all(|k| *k));
    }

    #[test]
    fn quiet_compares_time_per_step_not_per_wave() {
        // A wave that lost a session does less work in less time.
        let mut w = waves(&[0.4, 0.4, 0.4, 0.4], 4);
        w.push(Wave {
            seconds: 0.3,
            steps: 3,
        });
        assert!(quiet(&w).iter().all(|k| *k));
    }
}
