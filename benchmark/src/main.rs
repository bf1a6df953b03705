//! The Menos benchmark. Three ways in:
//!
//! * `--workload W --seed S --seconds T --trace 0|1` — one run of one
//!   workload (what `BENCHMARK.json`'s command is given); the last line
//!   of standard output is the result as one JSON object.
//! * no `--trace` — the suite: every workload (or `--workload W`),
//!   untraced then traced, tables and `out/results-seed<S>.json`.
//! * `compare A.json B.json` — two suite results, row by row.
//!
//! `--role server` is the generator's own child and not for people.

mod compare;
mod gate;
mod generator;
mod json;
mod metrics;
mod run;
mod server;
mod stats;
mod stepwise;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use workloads::Workload;

/// Seconds one run measures unless `--seconds` says otherwise; equal
/// to `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str = "usage:
  menos-benchmark [--seed N] [--seconds T] [--workload NAME] [--quick] [--out FILE]
  menos-benchmark --workload NAME --seed N --seconds T --trace 0|1
  menos-benchmark compare A.json B.json";

#[derive(Default)]
struct Args {
    role: Option<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    out: Option<PathBuf>,
    epoch_ns: Option<u128>,
    snapshot_dir: Option<PathBuf>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let bad = |v: &str| format!("{flag}: cannot read {v:?}\n{USAGE}");
        match flag.as_str() {
            "--role" => args.role = Some(value()?.clone()),
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                args.seed = Some(v.parse().map_err(|_| bad(v))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(v))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {v}"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                });
            }
            "--epoch-ns" => {
                let v = value()?;
                args.epoch_ns = Some(v.parse().map_err(|_| bad(v))?);
            }
            "--snapshot-dir" => args.snapshot_dir = Some(PathBuf::from(value()?)),
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn workload(name: &str) -> Result<&'static Workload, String> {
    Workload::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })
}

/// Runs the command line; `Ok(false)` is a run that finished but whose
/// outputs were wrong (or a comparison with a `worse` row).
fn real_main(started: Instant) -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = &argv[..] else {
            return Err(USAGE.into());
        };
        return compare::compare(a, b);
    }
    let args = parse(&argv)?;
    let only = args.workload.as_deref().map(workload).transpose()?;
    let seed = args.seed.unwrap_or(1);
    match (args.role.as_deref(), args.trace) {
        (Some("server"), Some(trace)) => {
            server::run_server(&server::ServerArgs {
                workload: only.ok_or("--role server needs --workload")?,
                seed,
                trace,
                epoch_unix_ns: args.epoch_ns.ok_or("--role server needs --epoch-ns")?,
                snapshot_dir: args.snapshot_dir,
            })?;
            Ok(true)
        }
        (Some(role), _) => Err(format!("unknown or incomplete role {role:?}\n{USAGE}")),
        (None, Some(trace)) => {
            let result = run::run(
                &run::RunArgs {
                    workload: only.ok_or("--trace needs --workload")?,
                    seed,
                    seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
                    trace,
                },
                started,
            )?;
            println!("{}", result.line);
            Ok(result.correct)
        }
        (None, None) => suite::run_suite(&suite::SuiteArgs {
            seed,
            seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
            quick: args.quick,
            only,
            out: args.out,
        }),
    }
}

fn main() -> ExitCode {
    match real_main(Instant::now()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("menos-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
