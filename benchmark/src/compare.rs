//! `compare A.json B.json`: one row per (workload, end-to-end metric)
//! of two result files the suite wrote, judged against the bounds.

use crate::json::Json;
use crate::metrics::{EndToEnd, END_TO_END};
use crate::workloads::WORKLOADS;

/// What a pairing of workload and metric came to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Worse,
    /// Within one of the runs the quiet rate itself spread over the
    /// segments by more than the bound, so the difference cannot be
    /// told from noise.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of `a` the metric got worse going from `a` to `b`
/// (negative when it got better).
pub fn worsening(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    if metric.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Judges one pairing. `spread` is the wider of the two runs' segment
/// spreads and applies to timings only; counts and memory repeat.
pub fn judge(metric: &EndToEnd, a: f64, b: f64, spread: f64) -> Verdict {
    let timing = matches!(metric.unit, "steps/s" | "ms");
    let noise = if timing { spread } else { 0.0 };
    let worse_by = worsening(metric, a, b);
    if worse_by > metric.bound && worse_by > noise {
        Verdict::Worse
    } else if noise > metric.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the comparison; `Ok(true)` when no pairing is `worse`.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!(
        "A = {path_a}\nB = {path_b}\nratio = B / A; bound = share of A by which B may be worse"
    );
    println!(
        "{:<22} {:<20} {:>12} {:>12} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "ratio", "bound"
    );
    let mut all_ok = true;
    for w in &WORKLOADS {
        let row = |doc: &Json| doc.get("workloads").and_then(|ws| ws.get(w.name)).cloned();
        let (Some(ra), Some(rb)) = (row(&a), row(&b)) else {
            println!("{:<22} missing from one of the files", w.name);
            continue;
        };
        // A run too disturbed to have a spread can resolve nothing.
        let spread = |r: &Json| {
            r.get("detail")
                .and_then(|d| d.get("segment_spread"))
                .and_then(Json::num)
                .unwrap_or(f64::INFINITY)
        };
        let spread = spread(&ra).max(spread(&rb));
        for metric in &END_TO_END {
            let value = |r: &Json| {
                r.get("end_to_end")
                    .and_then(|e| e.get(metric.name))
                    .and_then(Json::num)
                    .ok_or_else(|| format!("{}: no {}", w.name, metric.name))
            };
            let (va, vb) = (value(&ra)?, value(&rb)?);
            let verdict = judge(metric, va, vb, spread);
            all_ok &= verdict != Verdict::Worse;
            println!(
                "{:<22} {:<20} {:>12.4} {:>12.4} {:>8.4} {:>6.1}%  {}",
                w.name,
                metric.name,
                va,
                vb,
                vb / va,
                metric.bound * 100.0,
                verdict.word()
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn direction_follows_the_metric() {
        let rate = metric("steps_per_s");
        let (inside, beyond) = (0.5 * rate.bound, 1.5 * rate.bound);
        assert_eq!(
            judge(rate, 100.0, 100.0 * (1.0 - inside), 0.01),
            Verdict::Ok
        );
        assert_eq!(
            judge(rate, 100.0, 100.0 * (1.0 - beyond), 0.01),
            Verdict::Worse
        );
        assert_eq!(judge(rate, 100.0, 150.0, 0.01), Verdict::Ok);
        let p50 = metric("step_ms_p50");
        let (inside, beyond) = (0.5 * p50.bound, 1.5 * p50.bound);
        assert_eq!(judge(p50, 10.0, 10.0 * (1.0 + inside), 0.01), Verdict::Ok);
        assert_eq!(
            judge(p50, 10.0, 10.0 * (1.0 + beyond), 0.01),
            Verdict::Worse
        );
        assert_eq!(judge(p50, 10.0, 5.0, 0.01), Verdict::Ok);
    }

    #[test]
    fn a_noisy_run_is_unresolved_not_unchanged() {
        let rate = metric("steps_per_s");
        // Spread wider than the bound: nothing inside it can be told.
        let noise = 2.0 * rate.bound;
        assert_eq!(judge(rate, 100.0, 99.0, noise), Verdict::Unresolved);
        let lost = 100.0 * (1.0 - 1.5 * rate.bound);
        assert_eq!(judge(rate, 100.0, lost, noise), Verdict::Unresolved);
        // A loss larger than the noise itself is still a loss.
        let lost = 100.0 * (1.0 - 3.0 * rate.bound);
        assert_eq!(judge(rate, 100.0, lost, noise), Verdict::Worse);
        // A run too disturbed to have a spread resolves nothing.
        assert_eq!(judge(rate, 100.0, 99.0, f64::INFINITY), Verdict::Unresolved);
    }

    #[test]
    fn counts_ignore_timing_noise_and_must_match() {
        let wire = metric("wire_bytes_per_step");
        assert_eq!(judge(wire, 33032.0, 33032.0, 0.5), Verdict::Ok);
        assert_eq!(judge(wire, 33032.0, 33100.0, 0.5), Verdict::Worse);
        assert_eq!(judge(wire, 33032.0, 8000.0, 0.5), Verdict::Ok);
    }
}
