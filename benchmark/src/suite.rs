//! The whole benchmark in one command: every workload, untraced then
//! traced, each run in a fresh pair of processes, with the tables a
//! person reads and the result file `compare` reads.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::{out_dir, Workload, WORKLOADS};

/// Tracing may cost this much of `steps_per_s` before the trace is
/// said to disturb what it measures.
const MAX_TRACE_OVERHEAD_PCT: f64 = 5.0;

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    /// One tenth of the time per run: a smoke test, not a measurement.
    pub quick: bool,
    /// Only this workload.
    pub only: Option<&'static Workload>,
    pub out: Option<PathBuf>,
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// What the numbers depend on besides the code: written into every row
/// so results from different hosts are never compared unknowingly.
fn host() -> Json {
    let features: Vec<&str> = [
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ]
    .iter()
    .filter_map(|(name, on)| on.then_some(*name))
    .collect();
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    Json::obj([
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, |n| n.get())),
        ),
        ("tensor_threads_per_process", Json::from(1usize)),
        ("busy_threads", Json::from(2usize)),
        ("rustc", Json::from(tool_line("rustc", &["-V"]))),
        ("target_features", Json::from(features.join(","))),
        (
            "commit",
            Json::from(tool_line(
                "git",
                &["-C", &repo.to_string_lossy(), "rev-parse", "HEAD"],
            )),
        ),
    ])
}

/// Runs one workload once in a child process and returns the detail
/// file it wrote.
fn run_child(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let flag = if trace { "1" } else { "0" };
    let path = out_dir().join(format!("run-{}-t{flag}.json", w.name));
    // Whatever detail file is read below must be this run's.
    let _ = std::fs::remove_file(&path);
    let status = Command::new(exe)
        .args(["--workload", w.name, "--trace", flag])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawn run: {e}"))?;
    // A failed gate exits non-zero but still leaves its detail file;
    // a run that broke down leaves none.
    std::fs::read_to_string(&path)
        .map_err(|e| {
            format!(
                "{} (trace {flag}) ended with {status}: {}: {e}",
                w.name,
                path.display()
            )
        })
        .and_then(|t| Json::parse(&t))
}

fn values(detail: &Json) -> Json {
    let metrics = match detail.get("metrics") {
        Some(Json::Obj(m)) => m.clone(),
        _ => Default::default(),
    };
    Json::Obj(
        metrics
            .into_iter()
            .map(|(k, v)| (k, v.get("value").cloned().unwrap_or(Json::Null)))
            .collect(),
    )
}

fn get(row: &Json, group: &str, name: &str) -> f64 {
    row.get(group)
        .and_then(|g| g.get(name))
        .and_then(Json::num)
        .unwrap_or(f64::NAN)
}

fn print_tables(rows: &[(&Workload, Json)]) {
    println!("\n== End to end (untraced run) ==");
    print!("{:<22}", "workload");
    for m in &END_TO_END {
        print!(" {:>19}", m.name);
    }
    println!(" {:>8} {:>6}  flags", "samples", "trace%");
    print!("{:<22}", "");
    for m in &END_TO_END {
        print!(" {:>19}", m.unit);
    }
    println!();
    for (w, row) in rows {
        print!("{:<22}", w.name);
        for m in &END_TO_END {
            print!(" {:>19.4}", get(row, "end_to_end", m.name));
        }
        let detail = |k: &str| get(row, "detail", k);
        let mut flags = Vec::new();
        if row.get("noisy").and_then(Json::bool) == Some(true) {
            flags.push("noisy");
        }
        if row.get("correct").and_then(Json::bool) != Some(true) {
            flags.push("INCORRECT");
        }
        println!(
            " {:>8} {:>6.2}  {}",
            detail("latency_samples"),
            row.get("trace_overhead_pct")
                .and_then(Json::num)
                .unwrap_or(f64::NAN),
            flags.join(",")
        );
        let all = |k: &str| {
            row.get("detail")
                .and_then(|d| d.get("all_waves"))
                .and_then(|a| a.get(k))
                .and_then(Json::num)
                .unwrap_or(f64::NAN)
        };
        println!(
            "{:<22} quiet waves {} of {} ({} beyond p90, p99 {:.3} ms ungated), quiet rate over segments spreads {:.1}%; \
             all waves: {:.2} steps/s, p50 {:.3} ms, p90 {:.3} ms; attempted {} failed {}",
            "",
            detail("quiet_waves"),
            detail("timed_waves"),
            detail("samples_beyond_p90"),
            detail("step_ms_p99_ungated"),
            100.0 * detail("segment_spread"),
            all("steps_per_s"),
            all("step_ms_p50"),
            all("step_ms_p90"),
            detail("attempted"),
            detail("failed"),
        );
    }
    println!("\n== Per layer (traced run) ==");
    print!("{:<38} {:>8} {:>7}", "metric", "unit", "better");
    for (w, _) in rows {
        print!(" {:>20}", w.name);
    }
    println!();
    for p in &PER_LAYER {
        let better = if p.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        print!("{:<38} {:>8} {:>7}", p.name, p.unit, better);
        for (_, row) in rows {
            print!(" {:>20.5}", get(row, "per_layer", p.name));
        }
        println!();
    }
}

/// Runs the suite; `Ok(true)` when every run passed its gate.
pub fn run_suite(args: &SuiteArgs) -> Result<bool, String> {
    let seconds = if args.quick {
        args.seconds / 10.0
    } else {
        args.seconds
    };
    let host = host();
    let mut rows = Vec::new();
    let mut all_correct = true;
    for w in WORKLOADS
        .iter()
        .filter(|w| args.only.is_none_or(|o| o.name == w.name))
    {
        eprintln!("-- {} ({seconds} s untraced, then traced)", w.name);
        let plain = run_child(w, args.seed, seconds, false)?;
        let traced = run_child(w, args.seed, seconds, true)?;
        let correct = [&plain, &traced]
            .iter()
            .all(|d| d.get("correct").and_then(Json::bool) == Some(true));
        all_correct &= correct;
        let end_to_end = values(&plain);
        let per_layer = values(&traced);
        let untraced_rate = end_to_end.num_at("steps_per_s")?;
        let traced_rate = per_layer.num_at("trace.steps_per_s")?;
        let overhead = 100.0 * (untraced_rate - traced_rate) / untraced_rate;
        if overhead > MAX_TRACE_OVERHEAD_PCT {
            eprintln!(
                "note: {}: traced run {overhead:.1}% slower than untraced (over {MAX_TRACE_OVERHEAD_PCT}%)",
                w.name
            );
        }
        let failures: Vec<Json> = [&plain, &traced]
            .iter()
            .flat_map(|d| {
                d.get("failures")
                    .map(Json::arr)
                    .unwrap_or_default()
                    .to_vec()
            })
            .collect();
        let row = Json::obj([
            ("why", Json::from(w.why)),
            ("host", host.clone()),
            ("seed", Json::from(args.seed)),
            ("seconds", Json::from(seconds)),
            ("quick", Json::from(args.quick)),
            ("correct", Json::from(correct)),
            ("failures", Json::Arr(failures)),
            ("noisy", plain.get("noisy").cloned().unwrap_or(Json::Null)),
            ("trace_overhead_pct", Json::from(overhead)),
            ("end_to_end", end_to_end),
            ("per_layer", per_layer),
            ("detail", plain),
        ]);
        rows.push((w, row));
    }
    print_tables(&rows);
    if args.quick {
        println!("\n(--quick: a smoke test at one tenth of the run time; not a measurement)");
    }
    let doc = Json::obj([
        ("host", host),
        ("seed", Json::from(args.seed)),
        ("quick", Json::from(args.quick)),
        (
            "workloads",
            Json::obj(rows.into_iter().map(|(w, row)| (w.name, row))),
        ),
    ]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("results-seed{}.json", args.seed)));
    std::fs::write(&path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nresults: {}", path.display());
    Ok(all_correct)
}
