//! The `menos` command-line tool: run a split fine-tuning server or
//! client over TCP.
//!
//! ```bash
//! # Terminal 1 — the model owner's server (serves 2 connections):
//! cargo run --release --bin menos -- server --port 7700 --accept-limit 2
//!
//! # Terminals 2..n — data owners' clients:
//! cargo run --release --bin menos -- client --addr 127.0.0.1:7700 --steps 20 --seed 1
//! ```
//!
//! Both sides derive the same tiny Llama-style base model from
//! `--model-seed`, standing in for "the provider distributes the client
//! sections of the pretrained model" (the server never sees client
//! data; the client never runs the server blocks).

use std::sync::{Arc, Mutex};
use std::time::Duration;

use menos::adapters::FineTuneConfig;
use menos::core::{MenosServer, ServerMode, ServerSpec, ServerState};
use menos::data::{wiki_corpus, TokenDataset, Vocab};
use menos::fleet::{BackendSpec, FleetCoordinator, FleetOptions, PlacementPolicy};
use menos::models::{CausalLm, ModelConfig};
use menos::sim::seeded_rng;
use menos::split::{
    run_tcp_client, ClientId, EventLoopOptions, ForwardMode, RetryPolicy, SnapshotPolicy,
    SplitClient, SplitSpec, TcpEventServer, TcpOptions,
};

const USAGE: &str = "\
usage:
  menos server [--port P] [--accept-limit N] [--capacity N] [--model-seed S]
               [--client-timeout MS] [--max-session-idle MS]
               [--max-write-buffer BYTES] [--retry-after-ms MS]
               [--snapshot-dir DIR]
               [--micro-model] [--cached]
  menos client --addr HOST:PORT [--steps N] [--seed S] [--model-seed S]
               [--retries R] [--backoff-ms MS] [--codec C] [--micro-model]
  menos fleet  [--port P] [--servers N] [--policy round-robin|memory-aware]
               [--heartbeat-ms MS] [--max-missed N] [--capacity N]
               [--model-seed S] [--snapshot-root DIR] [--duration-secs T]
               [--micro-model]

An unknown or repeated flag, or a flag missing its value, exits with status 2.

options:
  --port P          listen port (default 7700)
  --accept-limit N  serve N connections then exit (default 1). A lifetime
                    accept budget, not a concurrency cap — that is --capacity
  --capacity N      live-session admission cap: a Connect/Resume past it is
                    shed with a Busy retry hint instead of queued (default:
                    unlimited; PROTOCOL.md §8)
  --retry-after-ms MS
                    the reconnect hint carried by capacity sheds (default 100)
  --max-write-buffer BYTES
                    evict a consumer stalled with more than BYTES of queued
                    replies; its session is quarantined for resumption
                    (default: unbounded)
  --model-seed S    base-model derivation seed shared by both sides (default 21)
  --client-timeout MS
                    evict a connection silent for MS milliseconds; its session
                    is quarantined for resumption (default: never)
  --max-session-idle MS
                    drop a quarantined (disconnected but resumable) session
                    after MS milliseconds (default: never)
  --snapshot-dir DIR
                    persist the server's durable state (sessions, adapters,
                    optimizer moments, cached replies) to DIR/server.snap with
                    atomic tmp-file+rename writes, and restore from it on
                    start if it exists; clients re-attach through the Resume
                    handshake with zero training divergence. A snapshot lands
                    before every reply is released, which is what makes
                    kill -9 recovery bit-identical
  --micro-model     derive a deliberately tiny base model (2 layers, 32-dim)
                    — fast enough for debug-profile restart tests; both sides
                    must pass it
  --cached          serve with the vanilla cached-forward path instead of
                    Menos' no-grad + re-forward policy
  --addr A          server or fleet-coordinator address to connect to; a
                    coordinator answers with a Redirect to a backend, which
                    the client follows at no retry cost (PROTOCOL.md §9)
  --steps N         fine-tuning iterations to run (default 10)
  --seed S          client data/adapter seed (default 0)
  --retries R       reconnect-and-resume up to R times per fault (default 0:
                    fail on the first fault)
  --codec C         advertise a tensor codec for the cut tensors
                    (f32-raw | f16 | bf16 | topk8, PROTOCOL.md §7;
                    default f32-raw — the server picks from what is
                    advertised, so raw peers interoperate unchanged)
  --backoff-ms MS   base reconnect backoff, doubled per consecutive failure
                    with +/-50% jitter (default 50)
  --servers N       fleet: backend server processes to spawn (default 2)
  --policy P        fleet: session placement — round-robin | memory-aware
                    (default round-robin)
  --heartbeat-ms MS fleet: gap between health probes; a backend missing
                    --max-missed in a row is ruled dead and its sessions
                    are migrated from its snapshot (default 250)
  --max-missed N    fleet: consecutive missed probes before failover
                    (default 3)
  --snapshot-root DIR
                    fleet: parent directory for per-backend snapshot dirs
                    (default: a fresh directory under the system temp dir)
  --duration-secs T fleet: run for T seconds then shut down; without it the
                    fleet runs until stdin reaches end-of-file";

/// The flags each subcommand accepts, with whether each takes a value.
const SERVER_FLAGS: &[(&str, bool)] = &[
    ("--port", true),
    ("--accept-limit", true),
    ("--capacity", true),
    ("--model-seed", true),
    ("--client-timeout", true),
    ("--max-session-idle", true),
    ("--max-write-buffer", true),
    ("--retry-after-ms", true),
    ("--snapshot-dir", true),
    ("--micro-model", false),
    ("--cached", false),
];
const CLIENT_FLAGS: &[(&str, bool)] = &[
    ("--addr", true),
    ("--steps", true),
    ("--seed", true),
    ("--model-seed", true),
    ("--retries", true),
    ("--backoff-ms", true),
    ("--codec", true),
    ("--micro-model", false),
];
const FLEET_FLAGS: &[(&str, bool)] = &[
    ("--port", true),
    ("--servers", true),
    ("--policy", true),
    ("--heartbeat-ms", true),
    ("--max-missed", true),
    ("--capacity", true),
    ("--model-seed", true),
    ("--snapshot-root", true),
    ("--duration-secs", true),
    ("--micro-model", false),
];

/// Checks a subcommand's arguments (after its name) against its flag
/// list: every argument is a known flag given at most once, and every
/// flag that takes a value has one that is not itself a flag.
fn check_flags(args: &[String], known: &[(&str, bool)]) -> Result<(), String> {
    let mut seen = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let Some(&(_, takes_value)) = known.iter().find(|(name, _)| name == arg) else {
            return Err(format!("unknown flag {arg}"));
        };
        if seen.contains(&arg) {
            return Err(format!("{arg} given more than once"));
        }
        seen.push(arg);
        if takes_value && rest.next().is_none_or(|v| v.starts_with("--")) {
            return Err(format!("{arg} needs a value"));
        }
    }
    Ok(())
}

/// [`check_flags`] on `args[1..]`, exiting with status 2 and the usage
/// text on a violation.
fn require_known_flags(args: &[String], known: &[(&str, bool)]) {
    if let Err(e) = check_flags(&args[1..], known) {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    }
}

fn parse_flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn shared_model(model_seed: u64, micro: bool) -> (Vocab, ModelConfig) {
    let text = wiki_corpus(model_seed, if micro { 3_000 } else { 20_000 });
    let vocab = Vocab::from_text(&text);
    let config = if micro {
        // Mirrors the chaos-soak micro setup: the restart tests
        // exercise the session layer, not the math, and must fit a
        // debug-profile CI budget.
        let mut config = ModelConfig::tiny_opt(vocab.size());
        config.hidden = 32;
        config.layers = 2;
        config.heads = 2;
        config.intermediate = 64;
        config
    } else {
        ModelConfig::tiny_llama(vocab.size())
    };
    (vocab, config)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("server") => run_server(&args),
        Some("client") => run_client(&args),
        Some("fleet") => run_fleet(&args),
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

fn run_server(args: &[String]) {
    require_known_flags(args, SERVER_FLAGS);
    let port: u16 = parse_flag(args, "--port")
        .map(|v| v.parse().expect("--port must be a number"))
        .unwrap_or(7700);
    let clients: usize = parse_flag(args, "--accept-limit")
        .map(|v| v.parse().expect("--accept-limit must be a number"))
        .unwrap_or(1);
    let capacity: usize = parse_flag(args, "--capacity")
        .map(|v| v.parse().expect("--capacity must be a number"))
        .unwrap_or(usize::MAX);
    let retry_after_ms: u64 = parse_flag(args, "--retry-after-ms")
        .map(|v| v.parse().expect("--retry-after-ms must be milliseconds"))
        .unwrap_or(100);
    let max_write_buffer: Option<u64> = parse_flag(args, "--max-write-buffer")
        .map(|v| v.parse().expect("--max-write-buffer must be bytes"));
    let model_seed: u64 = parse_flag(args, "--model-seed")
        .map(|v| v.parse().expect("--model-seed must be a number"))
        .unwrap_or(21);
    let mode = if args.iter().any(|a| a == "--cached") {
        ForwardMode::Cached
    } else {
        ForwardMode::NoGradReforward
    };
    let micro = args.iter().any(|a| a == "--micro-model");
    let client_timeout = parse_flag(args, "--client-timeout")
        .map(|v| Duration::from_millis(v.parse().expect("--client-timeout must be milliseconds")));
    let max_session_idle = parse_flag(args, "--max-session-idle").map(|v| {
        Duration::from_millis(v.parse().expect("--max-session-idle must be milliseconds"))
    });
    let snapshot_dir = parse_flag(args, "--snapshot-dir");

    let (_, config) = shared_model(model_seed, micro);
    println!(
        "loaded base model {} ({} params) — ONE shared copy for all clients",
        config.name,
        config.total_params()
    );
    // The full Menos façade (shared-base registry + admission control),
    // derived from the same model seed the clients use.
    let mut menos_server =
        MenosServer::new(config, ServerSpec::v100(ServerMode::menos()), model_seed);
    menos_server.set_forward_mode(mode);
    // Restore-on-start: if a snapshot exists, rebuild every session
    // (adapters, optimizer moments, counters, cached replies) from it;
    // clients re-attach through the Resume handshake. The snapshot's
    // forward mode wins over the flag — resumed training must continue
    // under the policy it was captured under.
    if let Some(dir) = &snapshot_dir {
        if let Some(bytes) = SnapshotPolicy::read(dir) {
            let restored = ServerState::from_bytes(&bytes)
                .and_then(|state| menos_server.restore(state))
                .unwrap_or_else(|e| {
                    eprintln!("snapshot restore from {dir} failed: {e}");
                    std::process::exit(1);
                });
            println!("restored {restored} session(s) from snapshot in {dir}");
        }
    }
    let handler = Arc::new(Mutex::new(menos_server));
    let policy = match mode {
        ForwardMode::Cached => "cached forward (vanilla)",
        ForwardMode::NoGradReforward => "no-grad + re-forward (Menos)",
    };
    let options = EventLoopOptions {
        accept_limit: clients,
        capacity,
        busy_retry_after: Duration::from_millis(retry_after_ms),
        max_write_buffer,
        io_timeout: client_timeout,
        max_session_idle,
    };
    let server = match &snapshot_dir {
        Some(dir) => TcpEventServer::spawn_with_snapshots(
            ("0.0.0.0", port),
            handler,
            options,
            TcpOptions::default(),
            SnapshotPolicy::durable(dir),
        ),
        None => TcpEventServer::spawn(("0.0.0.0", port), handler, options, TcpOptions::default()),
    }
    .expect("bind server port");
    println!(
        "menos event-loop server on {} serving up to {clients} client(s), policy: {policy}",
        server.addr(),
    );
    if let Some((_, stats)) = server.join() {
        println!(
            "served {} session(s): {} tensor messages in {} dispatches (largest ready-set: {})",
            stats.served, stats.batched_messages, stats.batches, stats.max_batch
        );
    }
    println!("all clients served; bye");
}

fn run_client(args: &[String]) {
    require_known_flags(args, CLIENT_FLAGS);
    let addr = parse_flag(args, "--addr").unwrap_or_else(|| {
        eprintln!("client needs --addr HOST:PORT\n{USAGE}");
        std::process::exit(2);
    });
    let steps: usize = parse_flag(args, "--steps")
        .map(|v| v.parse().expect("--steps must be a number"))
        .unwrap_or(10);
    let seed: u64 = parse_flag(args, "--seed")
        .map(|v| v.parse().expect("--seed must be a number"))
        .unwrap_or(0);
    let model_seed: u64 = parse_flag(args, "--model-seed")
        .map(|v| v.parse().expect("--model-seed must be a number"))
        .unwrap_or(21);
    let retries: u32 = parse_flag(args, "--retries")
        .map(|v| v.parse().expect("--retries must be a number"))
        .unwrap_or(0);
    let backoff_ms: u64 = parse_flag(args, "--backoff-ms")
        .map(|v| v.parse().expect("--backoff-ms must be milliseconds"))
        .unwrap_or(50);
    let micro = args.iter().any(|a| a == "--micro-model");
    let codec = parse_flag(args, "--codec")
        .map(|v| {
            menos::net::Codec::parse(&v).unwrap_or_else(|| {
                eprintln!("unknown --codec {v} (want f32-raw | f16 | bf16 | topk8)");
                std::process::exit(2);
            })
        })
        .unwrap_or(menos::net::Codec::F32Raw);

    let (vocab, config) = shared_model(model_seed, micro);
    // The client's PRIVATE corpus — never leaves this process; only
    // activations and gradients cross the socket.
    let private_text = wiki_corpus(1000 + seed, if micro { 3_000 } else { 20_000 });
    let mut ft = FineTuneConfig::paper(&config);
    if micro {
        ft.batch_size = 1;
        ft.seq_len = 8;
    } else {
        ft.batch_size = 4;
        ft.seq_len = 32;
    }
    let ds = TokenDataset::new(vocab.encode(&private_text), ft.seq_len, seed);
    let mut rng = seeded_rng(model_seed, "base-model");
    let base = menos::models::init_params(&config, &mut rng);
    let mut client = SplitClient::new(
        ClientId(seed),
        CausalLm::bind(&config, &base),
        SplitSpec::paper(),
        ft,
        ds,
        seed,
    );
    if codec != menos::net::Codec::F32Raw {
        client.set_advertised_codecs(codec.flag());
    }

    println!("connecting to {addr} for {steps} split fine-tuning steps ({codec} advertised)...");
    let policy = RetryPolicy {
        retries,
        backoff: Duration::from_millis(backoff_ms),
        seed,
        ..RetryPolicy::default()
    };
    let curve = run_tcp_client(addr.as_str(), &mut client, steps, &policy).unwrap_or_else(|e| {
        eprintln!("training failed: {e}");
        std::process::exit(1);
    });
    for (step, loss) in curve.points().iter().step_by((steps / 5).max(1)) {
        println!("  step {step:>3}: loss {loss:.4}");
    }
    println!(
        "done: loss {:.4} -> {:.4}",
        curve.points()[0].1,
        curve.final_loss().unwrap()
    );
}

/// A supervised backend child: the `menos server` subprocess plus the
/// metadata the coordinator needs to probe and migrate it.
struct BackendProc {
    child: std::process::Child,
    spec: BackendSpec,
}

/// Spawns one `menos server` child on an ephemeral port with a durable
/// snapshot (the migration source of truth) and parses its banner for
/// the bound address.
fn spawn_backend(
    index: usize,
    model_seed: u64,
    micro: bool,
    snapshot_dir: &std::path::Path,
) -> BackendProc {
    use std::io::BufRead;
    use std::process::{Command, Stdio};

    let exe = std::env::current_exe().expect("locate the menos binary");
    let mut cmd = Command::new(exe);
    cmd.arg("server")
        .args(["--port", "0"])
        // Heartbeat probes and migration imports each cost one accept;
        // the budget must outlive any realistic fleet run.
        .args(["--accept-limit", "1000000"])
        .arg("--snapshot-dir")
        .arg(snapshot_dir)
        .args(["--model-seed", &model_seed.to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if micro {
        cmd.arg("--micro-model");
    }
    let mut child = cmd.spawn().expect("spawn backend server");
    let stdout = child.stdout.take().expect("backend stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("backend exited before its banner")
            .expect("read backend banner");
        println!("[backend {index}] {line}");
        if let Some(rest) = line.split("server on ").nth(1) {
            break rest
                .split_whitespace()
                .next()
                .expect("banner address")
                .replace("0.0.0.0", "127.0.0.1");
        }
    };
    // Keep draining so the child never blocks on a full stdout pipe.
    std::thread::spawn(move || {
        for line in lines.map_while(Result::ok) {
            println!("[backend {index}] {line}");
        }
    });
    BackendProc {
        child,
        spec: BackendSpec {
            addr,
            snapshot_dir: snapshot_dir.to_path_buf(),
        },
    }
}

fn run_fleet(args: &[String]) {
    require_known_flags(args, FLEET_FLAGS);
    let port: u16 = parse_flag(args, "--port")
        .map(|v| v.parse().expect("--port must be a number"))
        .unwrap_or(7800);
    let servers: usize = parse_flag(args, "--servers")
        .map(|v| v.parse().expect("--servers must be a number"))
        .unwrap_or(2);
    let policy = match parse_flag(args, "--policy").as_deref() {
        None | Some("round-robin") => PlacementPolicy::RoundRobin,
        Some("memory-aware") => PlacementPolicy::MemoryAware,
        Some(other) => {
            eprintln!("unknown --policy {other} (want round-robin | memory-aware)");
            std::process::exit(2);
        }
    };
    let heartbeat_ms: u64 = parse_flag(args, "--heartbeat-ms")
        .map(|v| v.parse().expect("--heartbeat-ms must be milliseconds"))
        .unwrap_or(250);
    let max_missed: u32 = parse_flag(args, "--max-missed")
        .map(|v| v.parse().expect("--max-missed must be a number"))
        .unwrap_or(3);
    let capacity: usize = parse_flag(args, "--capacity")
        .map(|v| v.parse().expect("--capacity must be a number"))
        .unwrap_or(64);
    let model_seed: u64 = parse_flag(args, "--model-seed")
        .map(|v| v.parse().expect("--model-seed must be a number"))
        .unwrap_or(21);
    let micro = args.iter().any(|a| a == "--micro-model");
    let duration = parse_flag(args, "--duration-secs")
        .map(|v| Duration::from_secs(v.parse().expect("--duration-secs must be seconds")));
    let snapshot_root = parse_flag(args, "--snapshot-root")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("menos-fleet-{}", std::process::id()))
        });

    if servers == 0 {
        eprintln!("a fleet needs at least one server");
        std::process::exit(2);
    }
    println!(
        "spawning {servers} backend server(s) under {}",
        snapshot_root.display()
    );
    let mut backends = Vec::with_capacity(servers);
    for i in 0..servers {
        let dir = snapshot_root.join(format!("server-{i}"));
        std::fs::create_dir_all(&dir).expect("create snapshot dir");
        backends.push(spawn_backend(i, model_seed, micro, &dir));
    }
    let specs: Vec<BackendSpec> = backends.iter().map(|b| b.spec.clone()).collect();
    let options = FleetOptions {
        policy,
        heartbeat_interval: Duration::from_millis(heartbeat_ms),
        max_missed,
        capacity_per_server: capacity,
        ..FleetOptions::default()
    };
    let coordinator =
        FleetCoordinator::spawn(("0.0.0.0", port), specs, options).expect("bind coordinator port");
    println!(
        "menos fleet coordinator on {} supervising {servers} backend(s) \
         ({policy:?}, heartbeat {heartbeat_ms}ms x{max_missed}, capacity {capacity}/server)",
        coordinator.addr(),
    );
    println!("clients connect with: menos client --addr HOST:{port} --retries 3 ...");

    match duration {
        Some(d) => std::thread::sleep(d),
        None => {
            println!("reading stdin; close it (ctrl-d) to shut the fleet down");
            let mut sink = String::new();
            let _ = std::io::Read::read_to_string(&mut std::io::stdin(), &mut sink);
        }
    }

    let stats = coordinator.shutdown();
    for b in &mut backends {
        let _ = b.child.kill();
        let _ = b.child.wait();
    }
    println!(
        "fleet done: {} redirect(s), {} busy turnaway(s), {} missed heartbeat(s), \
         {} failover(s), {} session(s) migrated ({} failed)",
        stats.redirects_sent,
        stats.busy_turnaways,
        stats.heartbeats_missed,
        stats.failovers,
        stats.sessions_migrated,
        stats.migrations_failed,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn every_flag_a_spawned_backend_passes_is_accepted() {
        // The fleet's backend spawn and the chaos and failover soaks.
        let spawned = args(&[
            "--port",
            "0",
            "--micro-model",
            "--accept-limit",
            "1000000",
            "--model-seed",
            "21",
            "--snapshot-dir",
            "/tmp/snap",
        ]);
        assert_eq!(check_flags(&spawned, SERVER_FLAGS), Ok(()));
        let client = args(&[
            "--addr",
            "127.0.0.1:7700",
            "--retries",
            "3",
            "--micro-model",
        ]);
        assert_eq!(check_flags(&client, CLIENT_FLAGS), Ok(()));
        let fleet = args(&["--servers", "4", "--duration-secs", "1", "--micro-model"]);
        assert_eq!(check_flags(&fleet, FLEET_FLAGS), Ok(()));
    }

    #[test]
    fn unknown_flags_and_missing_values_are_rejected() {
        for known in [SERVER_FLAGS, CLIENT_FLAGS, FLEET_FLAGS] {
            assert_eq!(
                check_flags(&args(&["--threads", "2"]), known),
                Err("unknown flag --threads".into())
            );
        }
        assert_eq!(
            check_flags(&args(&["--snapshot-dri", "x"]), SERVER_FLAGS),
            Err("unknown flag --snapshot-dri".into())
        );
        assert_eq!(
            check_flags(&args(&["--micro-model", "--snapshot-dir"]), SERVER_FLAGS),
            Err("--snapshot-dir needs a value".into())
        );
        assert_eq!(
            check_flags(&args(&["--snapshot-dir", "--micro-model"]), SERVER_FLAGS),
            Err("--snapshot-dir needs a value".into())
        );
        assert_eq!(
            check_flags(&args(&["stray"]), CLIENT_FLAGS),
            Err("unknown flag stray".into())
        );
        assert_eq!(
            check_flags(&args(&["--port", "1", "--port", "2"]), SERVER_FLAGS),
            Err("--port given more than once".into())
        );
        assert_eq!(
            check_flags(
                &args(&["--cached", "--micro-model", "--cached"]),
                SERVER_FLAGS
            ),
            Err("--cached given more than once".into())
        );
    }
}
