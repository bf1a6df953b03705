//! One run of one workload: set up, drive, shut down, check, and turn
//! what was measured into the metrics `BENCHMARK.json` names.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::gate;
use crate::generator::{drive, Fleet, Measured};
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::server::{Call, ServerReport, ServerSpan};
use crate::stats::{median, percentile, quartiles, quiet, rate, segments, select};
use crate::stepwise;
use crate::trace::{closure_pct, uncovered_ns, Clock, Span, Tracer, GEN_LAYERS, RECV_WAIT, WAVE};
use crate::workloads::{out_dir, Inputs, Workload};

/// Set-ups timed back to back at each of three moments of an untraced
/// run: before the timed part, after it, and after the reference
/// replay. Slow phases of the host last seconds, so three moments
/// several seconds apart rarely all fall into one.
const SETUPS_PER_MOMENT: usize = 3;
/// `setup_s` is this percentile of the nine: the slowest set-up of the
/// quietest moment.
const SETUP_PCT: f64 = 25.0;
/// Segments the timed part is cut into, to show whether the quiet
/// waves agree with each other over the length of the run.
const SEGMENTS: usize = 5;
/// A run in which fewer waves than this share were quiet is flagged
/// `noisy`: the host was disturbed for most of it.
const NOISY_BELOW_QUIET_SHARE: f64 = 0.25;
/// Share of `--seconds` a traced run spends on the TCP loop; the rest
/// goes to the stepwise in-process measurements.
const TRACED_TCP_SHARE: f64 = 0.5;
/// The seven generator spans must cover this much of every wave.
const MIN_CLOSURE_PCT: f64 = 95.0;

pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run produced. Everything else worth keeping (segments,
/// sample counts, every wave as measured, which checks failed) is in
/// the detail file, `out/run-<workload>-t<trace>.json`.
pub struct RunResult {
    pub correct: bool,
    /// `{"correct", "attempted", "failed", "metrics"}`, nothing else.
    pub line: Json,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn nums(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|x| Json::from(*x)).collect())
}

/// The end-to-end metrics of an untraced run, and the detail beside
/// them: sample counts, the spread of the quiet rate over the run, the
/// same numbers over all waves, and every wave and step as measured.
fn end_to_end(
    m: &Measured,
    report: &ServerReport,
    setups: &[f64],
) -> Result<(BTreeMap<&'static str, f64>, Json), String> {
    if m.waves.len() < 2 {
        return Err(format!(
            "only {} timed waves completed; too few to tell a rate from its spread",
            m.waves.len()
        ));
    }
    let is_quiet = quiet(&m.waves);
    let quiet_waves = select(&m.waves, &is_quiet);
    let quiet_ms: Vec<f64> = select(&m.step_ms, &is_quiet).concat();
    let all_ms = m.step_ms.concat();
    let metrics = BTreeMap::from([
        ("steps_per_s", rate(&quiet_waves)),
        ("step_ms_p50", percentile(&quiet_ms, 50.0)),
        ("step_ms_p90", percentile(&quiet_ms, 90.0)),
        ("server_peak_rss_mb", report.peak_rss_mb),
        (
            "wire_bytes_per_step",
            m.wire_bytes as f64 / m.timed_steps() as f64,
        ),
        ("setup_s", percentile(setups, SETUP_PCT)),
    ]);

    // Does the quiet rate hold over the length of the run? The rate of
    // each segment's quiet waves; a segment without any has no say.
    let segment_rates: Vec<f64> = segments(&m.waves, SEGMENTS)
        .zip(segments(&is_quiet, SEGMENTS))
        .map(|(segment, keep)| select(segment, keep))
        .filter(|quiet_part| !quiet_part.is_empty())
        .map(|quiet_part| rate(&quiet_part))
        .collect();
    let segment_spread = if segment_rates.len() < 2 {
        Json::Null
    } else {
        let (q1, q3) = quartiles(&segment_rates);
        Json::from((q3 - q1) / median(&segment_rates))
    };
    let quiet_share = quiet_waves.len() as f64 / m.waves.len() as f64;
    let wave_s: Vec<f64> = m.waves.iter().map(|w| w.seconds).collect();
    let detail = Json::obj([
        ("timed_steps", Json::from(m.timed_steps())),
        ("timed_waves", Json::from(m.waves.len())),
        ("warmup_waves", Json::from(m.warmup_waves)),
        ("quiet_waves", Json::from(quiet_waves.len())),
        ("quiet_share", Json::from(quiet_share)),
        ("noisy", Json::from(quiet_share < NOISY_BELOW_QUIET_SHARE)),
        ("latency_samples", Json::from(quiet_ms.len())),
        (
            "samples_beyond_p90",
            Json::from(quiet_ms.len() - (0.9 * quiet_ms.len() as f64).ceil() as usize),
        ),
        (
            "step_ms_p99_ungated",
            Json::from(percentile(&quiet_ms, 99.0)),
        ),
        ("segment_quiet_steps_per_s", nums(&segment_rates)),
        ("segment_spread", segment_spread),
        (
            "all_waves",
            Json::obj([
                ("steps_per_s", Json::from(rate(&m.waves))),
                ("step_ms_p50", Json::from(percentile(&all_ms, 50.0))),
                ("step_ms_p90", Json::from(percentile(&all_ms, 90.0))),
                ("step_ms_p99", Json::from(percentile(&all_ms, 99.0))),
                ("latency_samples", Json::from(all_ms.len())),
                ("setup_s_median", Json::from(median(setups))),
            ]),
        ),
        ("setup_s_each", nums(setups)),
        ("wave_s", nums(&wave_s)),
        (
            "step_ms_by_wave",
            Json::Arr(m.step_ms.iter().map(|w| nums(w)).collect()),
        ),
    ]);
    Ok((metrics, detail))
}

/// The per-layer metrics of a traced run, from the generator's spans,
/// the server's spans and its counters, over the quiet waves of the
/// timed part. `failures` gains an entry if the trace does not account
/// for the waves' wall time.
fn per_layer(
    m: &Measured,
    report: &ServerReport,
    spans: &[Span],
    failures: &mut Vec<String>,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let is_quiet = quiet(&m.waves);
    let quiet_waves = select(&m.waves, &is_quiet);
    let steps = quiet_waves.iter().map(|w| w.steps).sum::<u64>() as f64;
    // Waves are numbered from the first warm-up wave on.
    let counts = |wave: usize| wave >= m.warmup_waves && is_quiet[wave - m.warmup_waves];
    let quiet_spans: Vec<Span> = spans.iter().filter(|s| counts(s.wave)).cloned().collect();
    let wave_spans: Vec<&Span> = quiet_spans.iter().filter(|s| s.name == WAVE).collect();
    let mut out = BTreeMap::new();

    // Generator side: each layer's time per step, and closure.
    let leaves = |name: &'static str| quiet_spans.iter().filter(move |s| s.name == name);
    for layer in GEN_LAYERS {
        let def = PER_LAYER
            .iter()
            .find(|p| p.name.strip_suffix("_ms") == Some(layer))
            .ok_or_else(|| format!("no per-layer metric for span {layer}"))?;
        let ns: u64 = leaves(layer).map(Span::ns).sum();
        out.insert(def.name, ns_to_ms(ns) / steps);
    }
    let closure = closure_pct(&quiet_spans);
    let mean_closure = closure.iter().sum::<f64>() / closure.len() as f64;
    if mean_closure < MIN_CLOSURE_PCT {
        failures.push(format!(
            "the seven generator spans cover {mean_closure:.1}% of wave wall time, under {MIN_CLOSURE_PCT}%"
        ));
    }
    out.insert("trace.closure_pct", mean_closure);
    out.insert("trace.steps_per_s", rate(&quiet_waves));

    // Server side: the handler wrapper's spans inside quiet waves. The
    // loop is closed, so a dispatch lies inside the wave it serves.
    let served = report.spans.iter().filter(|s| {
        wave_spans
            .iter()
            .any(|w| w.start_ns <= s.start_ns && s.end_ns <= w.end_ns)
    });
    let (mut fwd_ns, mut fwd_n, mut bwd_ns, mut bwd_n) = (0, 0, 0, 0);
    let (mut batch_ns, mut batches, mut members, mut mixed, mut max_batch) = (0, 0, 0, 0, 0);
    let (mut snap_ns, mut snaps, mut snap_bytes) = (0, 0, 0);
    for s in served {
        match s.call {
            Call::Batch { acts, grads } => {
                batch_ns += s.ns();
                batches += 1;
                members += acts + grads;
                max_batch = max_batch.max(acts + grads);
                match (acts, grads) {
                    (_, 0) => {
                        fwd_ns += s.ns();
                        fwd_n += acts;
                    }
                    (0, _) => {
                        bwd_ns += s.ns();
                        bwd_n += grads;
                    }
                    _ => mixed += acts + grads,
                }
            }
            Call::Snapshot { bytes } => {
                snap_ns += s.ns();
                snaps += 1;
                snap_bytes += bytes;
            }
        }
    }
    out.insert("core.server.fwd_ms", ratio(ns_to_ms(fwd_ns), fwd_n as f64));
    out.insert("core.server.bwd_ms", ratio(ns_to_ms(bwd_ns), bwd_n as f64));
    out.insert("core.server.handler_ms", ns_to_ms(batch_ns) / steps);
    out.insert(
        "core.server.batch_mean",
        ratio(members as f64, batches as f64),
    );
    out.insert("core.server.batch_max", max_batch as f64);
    out.insert(
        "core.server.mixed_batch_share",
        ratio(mixed as f64, members as f64),
    );
    let wave_ns: u64 = wave_spans.iter().map(|w| w.ns()).sum();
    out.insert(
        "core.server.busy_share",
        (batch_ns + snap_ns) as f64 / wave_ns as f64,
    );
    out.insert("core.state.snapshot_ms", ns_to_ms(snap_ns) / steps);
    out.insert(
        "core.state.snapshot_kb",
        ratio(snap_bytes as f64 / 1024.0, snaps as f64),
    );
    out.insert("split.event_loop.snapshots_per_step", snaps as f64 / steps);
    out.insert("split.event_loop.batches_per_step", batches as f64 / steps);
    out.insert(
        "core.scheduler.reserved_mb",
        report.reserved_bytes as f64 / (1u64 << 20) as f64,
    );

    // Counts do not care how fast the host ran: these are over the
    // whole timed part (pool) and the server's whole life (sweeps; the
    // loop reports its counters only when it ends).
    let timed_start = spans
        .iter()
        .find(|s| s.name == WAVE && s.wave == m.warmup_waves)
        .ok_or("traced run recorded no timed wave")?
        .start_ns;
    let (before, during): (Vec<&ServerSpan>, Vec<&ServerSpan>) =
        report.spans.iter().partition(|s| s.end_ns <= timed_start);
    let (Some(a), Some(b)) = (before.last(), during.last()) else {
        return Err("server recorded no span in the warm-up or none in the timed part".into());
    };
    // Pool counters stand as they were when each span ended.
    let (hits, misses) = (b.pool_hits - a.pool_hits, b.pool_misses - a.pool_misses);
    out.insert(
        "tensor.pool.hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
    );
    out.insert(
        "tensor.pool.bytes_copied_per_step",
        (b.pool_copied - a.pool_copied) as f64 / m.timed_steps() as f64,
    );
    out.insert(
        "split.event_loop.sweeps_per_step",
        report.sweeps as f64 / (m.attempted - m.failed) as f64,
    );

    // The residual: blocked in recv while no handler call was running.
    let busy: Vec<(u64, u64)> = report
        .spans
        .iter()
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let waits: Vec<(u64, u64)> = leaves(RECV_WAIT).map(|s| (s.start_ns, s.end_ns)).collect();
    out.insert(
        "split.event_loop.wait_ms",
        ns_to_ms(uncovered_ns(&waits, &busy)) / steps,
    );
    Ok(out)
}

fn write_trace(workload: &Workload, spans: &[Span], report: &ServerReport) -> Result<(), String> {
    // A server span's parent is the wave it fell into.
    let waves: Vec<(usize, &Span)> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == WAVE)
        .collect();
    let server_spans = report.spans.iter().map(|s| {
        let parent = waves
            .iter()
            .find(|(_, w)| w.start_ns <= s.start_ns && s.start_ns <= w.end_ns);
        let (name, call) = match s.call {
            Call::Batch { acts, grads } => (
                "core.server.handle_batch",
                Json::obj([("acts", Json::from(acts)), ("grads", Json::from(grads))]),
            ),
            Call::Snapshot { bytes } => (
                "core.state.snapshot_bytes",
                Json::obj([("bytes", Json::from(bytes))]),
            ),
        };
        Json::obj([
            ("name", Json::from(name)),
            ("process", Json::from("server")),
            ("start_ns", Json::from(s.start_ns)),
            ("end_ns", Json::from(s.end_ns)),
            ("parent", parent.map_or(Json::Null, |(i, _)| Json::from(*i))),
            (
                "wave",
                parent.map_or(Json::Null, |(_, w)| Json::from(w.wave)),
            ),
            ("call", call),
        ])
    });
    let all: Vec<Json> = spans
        .iter()
        .map(|s| s.to_json("generator"))
        .chain(server_spans)
        .collect();
    let doc = Json::obj([
        ("workload", Json::from(workload.name)),
        (
            "note",
            Json::from("parent is an index into spans; times are ns on the run's shared timeline"),
        ),
        ("spans", Json::Arr(all)),
    ]);
    write_out(&format!("trace-{}.json", workload.name), &doc)
}

fn write_out(file: &str, doc: &Json) -> Result<(), String> {
    let path = out_dir().join(file);
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, format!("{doc}\n")))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Sets up `SETUPS_PER_MOMENT` times back to back, timing each, and
/// tears every set-up but the last down again, untimed. The first is
/// timed from `since`. Returns the last, still up.
fn time_setups(
    args: &RunArgs,
    clock: &Clock,
    mut since: Instant,
    times: &mut Vec<f64>,
) -> Result<(Inputs, Fleet), String> {
    for _ in 1..SETUPS_PER_MOMENT {
        let (_, fleet) = Fleet::set_up(args.workload, args.seed, args.trace, clock)?;
        times.push(since.elapsed().as_secs_f64());
        fleet.shut_down()?;
        since = Instant::now();
    }
    let ready = Fleet::set_up(args.workload, args.seed, args.trace, clock)?;
    times.push(since.elapsed().as_secs_f64());
    Ok(ready)
}

/// Runs one workload once. `started` is when this process began, so
/// the first set-up is timed from generator start.
pub fn run(args: &RunArgs, started: Instant) -> Result<RunResult, String> {
    menos_tensor::set_threads(1);
    let w = args.workload;
    let clock = Clock::new();

    // A traced run reports no `setup_s` and sets up once.
    let mut setups = Vec::new();
    let (inputs, mut fleet) = if args.trace {
        Fleet::set_up(w, args.seed, args.trace, &clock)?
    } else {
        time_setups(args, &clock, started, &mut setups)?
    };

    let tcp_seconds = if args.trace {
        args.seconds * TRACED_TCP_SHARE
    } else {
        args.seconds
    };
    let mut tracer = Tracer::new(args.trace, clock);
    let measured = drive(&mut fleet.sessions, tcp_seconds, &mut tracer);
    let (sessions, report) = fleet.shut_down()?;
    if !args.trace {
        time_setups(args, &clock, Instant::now(), &mut setups)?
            .1
            .shut_down()?;
    }
    let mut failures = gate::check(&inputs, &sessions, &measured, &report);
    if !args.trace {
        time_setups(args, &clock, Instant::now(), &mut setups)?
            .1
            .shut_down()?;
    }

    let defs: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|p| (p.name, p.unit)).collect()
    } else {
        END_TO_END.iter().map(|e| (e.name, e.unit)).collect()
    };
    let (values, mut detail) = if args.trace {
        let mut values = per_layer(&measured, &report, &tracer.spans, &mut failures)?;
        let budget = Duration::from_secs_f64(args.seconds - tcp_seconds);
        values.extend(stepwise::measure(&inputs, budget));
        write_trace(w, &tracer.spans, &report)?;
        let quiet_waves = quiet(&measured.waves).iter().filter(|k| **k).count();
        let detail = Json::obj([
            ("timed_steps", Json::from(measured.timed_steps())),
            ("timed_waves", Json::from(measured.waves.len())),
            ("quiet_waves", Json::from(quiet_waves)),
        ]);
        (values, detail)
    } else {
        end_to_end(&measured, &report, &setups)?
    };

    let mut metrics = BTreeMap::new();
    for (name, unit) in defs {
        let value = *values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        let entry = Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]);
        metrics.insert(name.to_string(), entry);
    }
    let metrics = Json::Obj(metrics);
    let correct = failures.is_empty() && measured.failed == 0;
    let line = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(measured.attempted)),
        ("failed", Json::from(measured.failed)),
        ("metrics", metrics.clone()),
    ]);
    if let Json::Obj(d) = &mut detail {
        d.insert("workload".into(), Json::from(w.name));
        d.insert("seed".into(), Json::from(args.seed));
        d.insert("seconds".into(), Json::from(args.seconds));
        d.insert("trace".into(), Json::from(args.trace));
        d.insert("correct".into(), Json::from(correct));
        d.insert("attempted".into(), Json::from(measured.attempted));
        d.insert("failed".into(), Json::from(measured.failed));
        d.insert(
            "failures".into(),
            Json::Arr(failures.iter().map(|f| Json::from(f.as_str())).collect()),
        );
        d.insert("metrics".into(), metrics);
    }
    write_out(
        &format!("run-{}-t{}.json", w.name, u8::from(args.trace)),
        &detail,
    )?;
    for f in &failures {
        eprintln!("check failed: {f}");
    }
    Ok(RunResult { correct, line })
}
