//! The correctness gate: what a run must have computed, checked after
//! the clock has stopped.
//!
//! The TCP run is held against an in-process stepwise reference built
//! from the same seed: same client, same server-side session, every
//! message through the same codec, no sockets and no event loop. Split
//! fine-tuning here is deterministic, so "correct" means bit-identical.

use menos_split::{run_split_steps, ForwardMode};

use crate::generator::{Finished, Measured};
use crate::server::ServerReport;
use crate::workloads::{hash_params, Inputs};

/// Replays session `k` in-process for `steps` steps and compares loss
/// curve, final server-side adapter weights and re-forward count.
fn check_session(
    inputs: &Inputs,
    k: usize,
    tcp: &Finished,
    server_hash: Option<u64>,
    failures: &mut Vec<String>,
) {
    let w = inputs.workload;
    let steps = tcp.client.steps_completed();
    let mut client = inputs.client(k);
    client.adopt_codec(w.codec);
    let mut session = inputs.reference_session(k);
    let reference = run_split_steps(&mut client, &mut session, w.mode, steps);

    let got = tcp.client.curve().points();
    let want = reference.points();
    if got.len() != want.len() {
        failures.push(format!(
            "session {k}: loss curve has {} points, reference {}",
            got.len(),
            want.len()
        ));
    } else if let Some(i) = (0..got.len()).find(|&i| got[i].1.to_bits() != want[i].1.to_bits()) {
        failures.push(format!(
            "session {k}: loss at step {i} is {:?} over TCP, {:?} in the reference",
            got[i].1, want[i].1
        ));
    }
    match server_hash {
        None => failures.push(format!("session {k}: server reported no adapter hash")),
        Some(h) if h != hash_params(session.adapter_params()) => failures.push(format!(
            "session {k}: server-side adapter weights differ from the reference after {steps} steps"
        )),
        Some(_) => {}
    }
    let want_reforwards = match w.mode {
        ForwardMode::NoGradReforward => steps as u64,
        ForwardMode::Cached => 0,
    };
    if session.reforward_count() != want_reforwards {
        failures.push(format!(
            "session {k}: reference re-forwarded {} times in {steps} steps, expected {want_reforwards}",
            session.reforward_count()
        ));
    }
}

/// Every check of the gate; returns what failed, in words.
pub fn check(
    inputs: &Inputs,
    sessions: &[Finished],
    measured: &Measured,
    report: &ServerReport,
) -> Vec<String> {
    let w = inputs.workload;
    let mut failures = Vec::new();
    for (k, s) in sessions.iter().enumerate() {
        match &s.failure {
            Some(why) => failures.push(format!("session {k} failed: {why}")),
            None => {
                let hash = report
                    .adapter_hashes
                    .iter()
                    .find(|(c, _)| *c == k as u64)
                    .map(|(_, h)| *h);
                check_session(inputs, k, s, hash, &mut failures);
            }
        }
    }
    for (name, value) in [
        ("conn_errors", report.conn_errors),
        ("evicted", report.evicted),
        ("shed", report.shed),
        ("snapshot_errors", report.snapshot_errors),
    ] {
        if value != 0 {
            failures.push(format!("event loop counted {value} {name}, expected 0"));
        }
    }
    if report.served != w.sessions as u64 {
        failures.push(format!(
            "event loop served {} clean disconnects, expected {}",
            report.served, w.sessions
        ));
    }
    if w.snapshots != (report.snapshots > 0) {
        failures.push(format!(
            "event loop wrote {} snapshots on a workload with snapshots {}",
            report.snapshots,
            if w.snapshots { "on" } else { "off" }
        ));
    }
    if w.sessions == 1 && report.max_batch != 1 {
        failures.push(format!(
            "one session, yet the largest batch had {} members",
            report.max_batch
        ));
    }
    let want_wire = measured.timed_steps() * w.wire_bytes_per_step();
    if measured.failed == 0 && measured.wire_bytes != want_wire {
        failures.push(format!(
            "{} wire bytes over {} steps, expected {want_wire}",
            measured.wire_bytes,
            measured.timed_steps()
        ));
    }
    failures
}
