//! Many-client serving throughput of the single-thread event-driven
//! server (one ready-set per dispatch, members served one after
//! another), over the in-process channel transport.
//!
//! For each fleet size N the same N clients train the same number of
//! steps against one shared `MenosServer`; the aggregate throughput is
//! `N * steps / wall_time`. Every `(mode, N)` configuration runs in
//! its **own subprocess** (self-exec with `--worker`), so the reported
//! `VmHWM` is that configuration's honest peak — not the high-water
//! mark a process-monotonic counter inherited from earlier, larger
//! configs. Each worker also reports the bytes the codec copied per
//! step, the copy-side metric of the zero-copy hot path.
//!
//! Prints one JSON line per configuration and rewrites
//! `BENCH_serve.json` when run from the repository (the EXPERIMENTS.md
//! study quotes those numbers).
//!
//! `--check` is the CI regression guard: it reruns the N=1 and N=32
//! points and fails (exit 1) if, within that same run, serving 32
//! clients copies more bytes per step than serving one, peaks at more
//! than 6.5x one client's memory (measured 4.6–5.2x; see `run_check`),
//! or completes steps at under 0.8x one client's rate (the slower of
//! two N=1 timings, one before and one after). Same-run facts
//! only — no committed absolute baselines, which would be
//! host-dependent.
//!
//! The forced-overload study (v1.3) runs N clients against a
//! live-session capacity of N/4 and reports the shed rate and
//! completion-latency percentiles; `--check` additionally asserts the
//! structural overload contract — sheds happened, the live-session
//! peak respected the cap, and every client completed.
//!
//! The codec study trains one client over the geo-distributed WAN
//! profile per codec and reports bytes/step, virtual WAN steps/s and
//! the downlink bytes its connection charged; `--check` asserts that
//! downlink equals the PROTOCOL.md §7 sizes of what the server sent.
//!
//! The fleet placement study (v1.4) compares the coordinator's two
//! placement policies — round-robin vs memory-aware — over real TCP
//! backends (spawned as `--worker backend` subprocesses) with one
//! backend SIGKILLed mid-run: aggregate steps/s, sessions migrated,
//! and p95 client completion latency. `--check` asserts the failover
//! contract — at least one session migrated, every client completed,
//! and no survivor was assigned past its capacity.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use menos_adapters::FineTuneConfig;
use menos_core::{MenosServer, ServerMode, ServerSpec, ServerState};
use menos_data::{wiki_corpus, TokenDataset, Vocab};
use menos_fleet::{BackendSpec, FleetCoordinator, FleetOptions, PlacementPolicy};
use menos_models::{init_params, CausalLm, ModelConfig};
use menos_net::{Codec, WanLink};
use menos_sim::seeded_rng;
use menos_split::{
    activation_wire_bytes_with, already_connected, drive_client, event_channel_listener,
    run_tcp_client, ClientId, EventLoopOptions, EventLoopStats, RetryPolicy, ServerEventLoop,
    ServerMessage, SnapshotPolicy, SplitClient, SplitSpec, TcpEventServer, TcpOptions, WireMessage,
};
use menos_tensor::ParamStore;

const SEED: u64 = 4300;
const STEPS: usize = 3;

fn setup() -> (String, ModelConfig, Arc<Mutex<ParamStore>>) {
    let text = wiki_corpus(43, 12_000);
    let vocab = Vocab::from_text(&text);
    let config = ModelConfig::tiny_opt(vocab.size());
    let mut rng = seeded_rng(43, "exp-serve");
    let base = Arc::new(Mutex::new(init_params(&config, &mut rng)));
    (text, config, base)
}

fn make_server(config: &ModelConfig, base: &Arc<Mutex<ParamStore>>) -> Arc<Mutex<MenosServer>> {
    let view = base.lock().unwrap().shared_view(false);
    Arc::new(Mutex::new(MenosServer::from_store(
        config.clone(),
        view,
        ServerSpec::v100(ServerMode::menos()),
        SEED,
    )))
}

fn make_client(
    k: u64,
    text: &str,
    config: &ModelConfig,
    base: &Arc<Mutex<ParamStore>>,
) -> SplitClient {
    let vocab = Vocab::from_text(text);
    let mut ft = FineTuneConfig::paper(config);
    ft.batch_size = 2;
    ft.seq_len = 16;
    let ds = TokenDataset::new(vocab.encode(text), 16, k);
    let view = base.lock().unwrap().shared_view(false);
    SplitClient::new(
        ClientId(k),
        CausalLm::bind(config, &view),
        SplitSpec::paper(),
        ft,
        ds,
        k,
    )
}

/// Peak resident set of this process so far, from `/proc/self/status`
/// (kB). Monotonic high-water mark; 0 where procfs is unavailable.
fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

/// One `ServerEventLoop` thread serving all N clients over in-process
/// channels, each dialed over its own pair of LAN links.
fn run_event_loop(
    n: u64,
    text: &str,
    config: &ModelConfig,
    base: &Arc<Mutex<ParamStore>>,
) -> (f64, EventLoopStats) {
    let none = RetryPolicy::none();
    let handler = make_server(config, base);
    let (dialer, listener) = event_channel_listener();
    let event_loop = ServerEventLoop::new(
        listener,
        handler,
        EventLoopOptions {
            accept_limit: n as usize,
            ..EventLoopOptions::default()
        },
    );
    let start = Instant::now();
    let loop_thread = std::thread::spawn(move || event_loop.run());
    let mut drivers = Vec::new();
    for k in 0..n {
        let mut client = make_client(k, text, config, base);
        let dialer = dialer.clone();
        drivers.push(std::thread::spawn(move || {
            drive_client(
                &mut client,
                |_| dialer.dial_over(WanLink::lan(7 + k), WanLink::lan(100 + k)),
                STEPS,
                &none,
            )
            .expect("event-loop fleet");
        }));
    }
    for d in drivers {
        d.join().expect("driver thread");
    }
    let (_h, stats) = loop_thread.join().expect("loop thread");
    (start.elapsed().as_secs_f64(), stats)
}

/// Forced overload (v1.3): N clients vs a live-session capacity of
/// N/4 through one event loop. Shed clients wait out the server's
/// `Busy` hint and retry; every client completes. Returns the loop
/// stats plus each client's wall-clock completion latency.
fn run_overload(
    n: u64,
    text: &str,
    config: &ModelConfig,
    base: &Arc<Mutex<ParamStore>>,
) -> (usize, EventLoopStats, Vec<f64>) {
    let capacity = (n as usize / 4).max(1);
    let handler = make_server(config, base);
    let (dialer, listener) = event_channel_listener();
    let event_loop = ServerEventLoop::new(
        listener,
        handler,
        EventLoopOptions {
            capacity,
            busy_retry_after: Duration::from_millis(2),
            ..EventLoopOptions::default()
        },
    );
    let shutdown = event_loop.shutdown_handle();
    let loop_thread = std::thread::spawn(move || event_loop.run());
    let mut drivers = Vec::new();
    for k in 0..n {
        let mut client = make_client(k, text, config, base);
        let dialer = dialer.clone();
        drivers.push(std::thread::spawn(move || {
            let policy = RetryPolicy {
                retries: 8,
                backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(50),
                seed: client.id().0,
            };
            let start = Instant::now();
            drive_client(
                &mut client,
                |_| dialer.dial_over(WanLink::lan(7 + k), WanLink::lan(100 + k)),
                STEPS,
                &policy,
            )
            .expect("overload fleet completes");
            start.elapsed().as_secs_f64()
        }));
    }
    let latencies: Vec<f64> = drivers
        .into_iter()
        .map(|d| d.join().expect("driver thread"))
        .collect();
    shutdown.store(true, std::sync::atomic::Ordering::Relaxed);
    let (_h, stats) = loop_thread.join().expect("loop thread");
    (capacity, stats, latencies)
}

/// Percentile of a nonempty slice (nearest-rank, sorted copy).
fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let rank = ((p / 100.0) * (s.len() as f64 - 1.0)).round() as usize;
    s[rank.min(s.len() - 1)]
}

/// One client training `CODEC_STEPS` steps against the shared server
/// over the geo-distributed WAN profile (60 ms, 8 MB/s, 5% jitter),
/// advertising exactly one codec. Returns `(bytes_per_step,
/// virtual_steps_per_sec, [measured, analytic] downlink bytes)`: bytes
/// are what the two directions of the client's connection charged; the
/// analytic downlink is the `Ready` frame plus, per step, the server's
/// activations and gradients at their PROTOCOL.md §7 post-compression
/// sizes. Time is the virtual WAN clock — wall time would measure this
/// host's compute, not the network the codec exists to relieve.
fn run_codec_wan(
    codec: Codec,
    text: &str,
    config: &ModelConfig,
    base: &Arc<Mutex<ParamStore>>,
) -> (f64, f64, [u64; 2]) {
    let none = RetryPolicy::none();
    let (dialer, listener) = event_channel_listener();
    let event_loop = ServerEventLoop::new(
        listener,
        make_server(config, base),
        EventLoopOptions {
            accept_limit: 1,
            ..EventLoopOptions::default()
        },
    );
    let server = std::thread::spawn(move || event_loop.run());
    let mut client_t = dialer
        .dial_over(
            WanLink::geo_distributed(SEED),
            WanLink::geo_distributed(SEED + 1),
        )
        .expect("dial the loop");
    let mut client = make_client(0, text, config, base);
    if codec != Codec::F32Raw {
        client.set_advertised_codecs(codec.flag());
    }
    drive_client(
        &mut client,
        already_connected(&mut client_t),
        CODEC_STEPS,
        &none,
    )
    .expect("codec fleet");
    assert_eq!(
        client.codec(),
        codec,
        "server must echo the advertised codec"
    );
    let (_handler, stats) = server.join().expect("server thread");
    assert_eq!((stats.served, stats.conn_errors), (1, 0), "clean serve");
    let [(up_bytes, _), (down_bytes, _)] = client_t.link_stats();
    let ready = ServerMessage::Ready {
        client: client.id(),
        codec,
    };
    let ft = client.ft_config();
    let tensor = activation_wire_bytes_with(codec, ft.batch_size, ft.seq_len, config.hidden);
    let analytic = ready.to_wire().len() as u64 + 2 * CODEC_STEPS as u64 * tensor;
    let bytes_per_step = (up_bytes + down_bytes) as f64 / CODEC_STEPS as f64;
    let steps_per_sec = CODEC_STEPS as f64 / client_t.elapsed().as_secs_f64();
    (bytes_per_step, steps_per_sec, [down_bytes, analytic])
}

const CODEC_STEPS: usize = 3;
const CODECS: [Codec; 4] = [Codec::F32Raw, Codec::F16, Codec::BF16, Codec::TopK8];

/// Runs the per-codec WAN study, printing a table and returning the
/// JSON lines plus, for the CI guard, the raw/f16 bytes-per-step pair
/// and every codec whose measured downlink differs from its analytic
/// size.
fn run_codec_study(lines: &mut Vec<String>) -> (f64, f64, Vec<String>) {
    let (text, config, base) = setup();
    println!("\n== Wire compression over the WAN profile (60 ms / 8 MB/s, 1 client) ==");
    println!(
        "{:>8} {:>14} {:>12} {:>14} {:>14}",
        "codec", "bytes/step", "vs raw", "WAN steps/s", "downlink B"
    );
    let mut raw_bytes = 0.0;
    let mut f16_bytes = 0.0;
    let mut downlink_mismatches = Vec::new();
    for codec in CODECS {
        let (bytes_per_step, steps_per_sec, [down, analytic]) =
            run_codec_wan(codec, &text, &config, &base);
        if down != analytic {
            downlink_mismatches.push(format!(
                "{} downlink carried {down} bytes, PROTOCOL.md §7 sizes sum to {analytic}",
                codec.name()
            ));
        }
        if codec == Codec::F32Raw {
            raw_bytes = bytes_per_step;
        }
        if codec == Codec::F16 {
            f16_bytes = bytes_per_step;
        }
        println!(
            "{:>8} {:>14.0} {:>11.2}x {:>14.2} {:>14}",
            codec.name(),
            bytes_per_step,
            bytes_per_step / raw_bytes,
            steps_per_sec,
            down,
        );
        lines.push(format!(
            "{{\"group\":\"serve\",\"bench\":\"codec/{}\",\"clients\":1,\
             \"steps\":{CODEC_STEPS},\"bytes_per_step\":{bytes_per_step:.0},\
             \"wan_steps_per_sec\":{steps_per_sec:.2},\"downlink_bytes\":{down}}}",
            codec.name(),
        ));
    }
    (raw_bytes, f16_bytes, downlink_mismatches)
}

/// Median of an odd-length slice (sorted copy).
fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    s[s.len() / 2]
}

const REPEATS: usize = 3;
const FLEET_SIZES: [u64; 5] = [1, 8, 32, 128, 512];
/// Forced-overload study points (capacity is N/4 at each).
const OVERLOAD_SIZES: [u64; 2] = [32, 128];

/// Extracts a numeric field from a one-line JSON object (flat keys,
/// no nesting — exactly what the workers emit). No serde needed.
fn json_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let i = line.find(&pat)? + pat.len();
    let rest = &line[i..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Runs one `(mode, n)` configuration in this process and prints its
/// JSON line. Called in a fresh subprocess per configuration, so
/// `VmHWM` and the copy counter describe this configuration alone.
fn run_worker(mode: &str, n: u64) {
    let (text, config, base) = setup();
    let total_steps = (n as usize * STEPS) as f64;
    // Count only serving traffic, not model setup.
    menos_tensor::pool::reset_stats();
    let line = match mode {
        "event_loop" => {
            let mut rates = Vec::new();
            let mut stats = EventLoopStats::default();
            for _ in 0..REPEATS {
                let (s, st) = run_event_loop(n, &text, &config, &base);
                rates.push(total_steps / s);
                stats = st;
            }
            let rate = median(&rates);
            let p = menos_tensor::pool::stats();
            let copied_per_step = p.bytes_copied / (n * STEPS as u64 * REPEATS as u64);
            format!(
                "{{\"group\":\"serve\",\"bench\":\"event_loop/n{n}\",\"clients\":{n},\
                 \"steps\":{STEPS},\"repeats\":{REPEATS},\"steps_per_sec\":{rate:.2},\
                 \"batches\":{},\"batched_messages\":{},\"max_batch\":{},\"vm_hwm_kb\":{},\
                 \"bytes_copied_per_step\":{}}}",
                stats.batches,
                stats.batched_messages,
                stats.max_batch,
                vm_hwm_kb(),
                copied_per_step,
            )
        }
        "overload" => {
            let (capacity, stats, latencies) = run_overload(n, &text, &config, &base);
            let shed_rate = stats.shed as f64 / stats.accepted.max(1) as f64;
            format!(
                "{{\"group\":\"serve\",\"bench\":\"overload/n{n}\",\"clients\":{n},\
                 \"steps\":{STEPS},\"capacity\":{capacity},\"completed\":{},\
                 \"shed\":{},\"shed_rate\":{shed_rate:.3},\"max_live_sessions\":{},\
                 \"p50_completion_ms\":{:.1},\"p95_completion_ms\":{:.1}}}",
                latencies.len(),
                stats.shed,
                stats.max_live_sessions,
                percentile(&latencies, 50.0) * 1e3,
                percentile(&latencies, 95.0) * 1e3,
            )
        }
        other => panic!("unknown worker mode {other:?}"),
    };
    println!("{line}");
}

/// Spawns `--worker mode n` as a subprocess and returns its JSON line.
fn spawn_worker(mode: &str, n: u64) -> String {
    let exe = std::env::current_exe().expect("current exe");
    let out = std::process::Command::new(exe)
        .args(["--worker", mode, &n.to_string()])
        .output()
        .expect("spawn worker");
    assert!(
        out.status.success(),
        "worker {mode}/n{n} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("worker output utf8")
        .lines()
        .rev()
        .find(|l| l.starts_with('{'))
        .expect("worker emitted no JSON line")
        .to_string()
}

// ---------------------------------------------------------------------
// Fleet placement study (v1.4): round-robin vs memory-aware through a
// coordinator, with one backend SIGKILLed mid-run.
// ---------------------------------------------------------------------

const FLEET_BACKENDS: usize = 3;
const FLEET_CLIENTS: u64 = 24;
const FLEET_STEPS: usize = 6;
/// Tight enough that the failover lands the survivors exactly at the
/// cap (24 clients / 2 survivors): the `--check` guard that no
/// survivor is assigned past capacity has no slack to hide in.
const FLEET_CAPACITY: usize = 12;
const FLEET_MODEL_SEED: u64 = 43;

/// The micro-model fleet setup: tiny enough that 2 policies × 24
/// clients fit the bench budget, derived exactly as the backend
/// workers derive it (same corpus, same `"base-model"` rng label).
fn fleet_setup() -> (String, ModelConfig, Arc<Mutex<ParamStore>>) {
    let text = wiki_corpus(FLEET_MODEL_SEED, 3_000);
    let vocab = Vocab::from_text(&text);
    let mut config = ModelConfig::tiny_opt(vocab.size());
    config.hidden = 32;
    config.layers = 2;
    config.heads = 2;
    config.intermediate = 64;
    let mut rng = seeded_rng(FLEET_MODEL_SEED, "base-model");
    let base = Arc::new(Mutex::new(init_params(&config, &mut rng)));
    (text, config, base)
}

fn fleet_client(
    k: u64,
    text: &str,
    config: &ModelConfig,
    base: &Arc<Mutex<ParamStore>>,
) -> SplitClient {
    let vocab = Vocab::from_text(text);
    let mut ft = FineTuneConfig::paper(config);
    ft.batch_size = 1;
    ft.seq_len = 8;
    let ds = TokenDataset::new(vocab.encode(text), 8, k);
    let view = base.lock().unwrap().shared_view(false);
    SplitClient::new(
        ClientId(k),
        CausalLm::bind(config, &view),
        SplitSpec::paper(),
        ft,
        ds,
        k,
    )
}

/// One fleet backend, run in its own subprocess (`--worker backend
/// DIR`) so the study's SIGKILL is a real process death and migration
/// has to come from the durable snapshot alone. Prints the bound
/// address, then serves until killed.
fn run_backend_worker(snapshot_dir: &str) -> ! {
    let (_, config, base) = fleet_setup();
    let view = base.lock().unwrap().shared_view(false);
    let handler = Arc::new(Mutex::new(MenosServer::from_store(
        config,
        view,
        ServerSpec::v100(ServerMode::menos()),
        FLEET_MODEL_SEED,
    )));
    let server = TcpEventServer::spawn_with_snapshots(
        ("127.0.0.1", 0),
        handler,
        EventLoopOptions {
            accept_limit: 1_000_000,
            ..EventLoopOptions::default()
        },
        TcpOptions::default(),
        SnapshotPolicy::durable(snapshot_dir),
    )
    .expect("bind backend");
    println!("server on {}", server.addr());
    server.join();
    std::process::exit(0)
}

/// A backend subprocess plus its parsed address and snapshot dir.
struct BackendProc {
    child: std::process::Child,
    spec: BackendSpec,
}

fn spawn_backend(dir: &std::path::Path) -> BackendProc {
    use std::io::BufRead;
    std::fs::create_dir_all(dir).expect("snapshot dir");
    let exe = std::env::current_exe().expect("current exe");
    let mut child = std::process::Command::new(exe)
        .args(["--worker", "backend"])
        .arg(dir)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit())
        .spawn()
        .expect("spawn backend worker");
    let stdout = child.stdout.take().expect("backend stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        assert!(
            reader.read_line(&mut line).expect("backend banner") > 0,
            "backend exited before its banner"
        );
        if let Some(rest) = line.split("server on ").nth(1) {
            break rest.split_whitespace().next().expect("address").to_string();
        }
    };
    std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    BackendProc {
        child,
        spec: BackendSpec {
            addr,
            snapshot_dir: dir.to_path_buf(),
        },
    }
}

/// Runs one placement policy through a full kill-one-backend failover
/// and returns its JSON line. The structural outcome (every client
/// completes, ≥1 session migrated, survivors at or under capacity) is
/// asserted here, so the plain study run enforces the same contract
/// `--check` quotes.
fn run_fleet_study(policy: PlacementPolicy, label: &str) -> String {
    let (text, config, base) = fleet_setup();
    let root = std::env::temp_dir().join(format!("menos-exp-fleet-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut backends: Vec<Option<BackendProc>> = (0..FLEET_BACKENDS)
        .map(|i| Some(spawn_backend(&root.join(format!("b{i}")))))
        .collect();
    let specs: Vec<BackendSpec> = backends
        .iter()
        .map(|b| b.as_ref().unwrap().spec.clone())
        .collect();
    let coordinator = FleetCoordinator::spawn(
        "127.0.0.1:0",
        specs,
        FleetOptions {
            policy,
            // Wide enough that a healthy-but-starved backend on a
            // noisy shared core is never falsely ruled dead (the
            // SIGKILLed one still fails every probe instantly, so
            // real detection stays ~max_missed x interval).
            heartbeat_interval: Duration::from_millis(80),
            max_missed: 5,
            probe_timeout: Duration::from_secs(2),
            capacity_per_server: FLEET_CAPACITY,
        },
    )
    .expect("spawn coordinator");
    let coord_addr = coordinator.addr().to_string();

    let start = Instant::now();
    let drivers: Vec<_> = (0..FLEET_CLIENTS)
        .map(|k| {
            let mut client = fleet_client(k, &text, &config, &base);
            let coord_addr = coord_addr.clone();
            std::thread::spawn(move || {
                let retry = RetryPolicy {
                    retries: 120,
                    backoff: Duration::from_millis(10),
                    max_backoff: Duration::from_millis(100),
                    seed: k,
                };
                let t0 = Instant::now();
                run_tcp_client(&coord_addr, &mut client, FLEET_STEPS, &retry)
                    .expect("fleet client completes across the failover");
                t0.elapsed().as_secs_f64()
            })
        })
        .collect();

    // Kill backend 0 once every session placed on it is in its
    // durable snapshot — i.e. once the kill is guaranteed mid-run.
    let deadline = Instant::now() + Duration::from_secs(60);
    while (0..FLEET_CLIENTS).any(|k| coordinator.placement_of(ClientId(k)).is_none()) {
        assert!(Instant::now() < deadline, "fleet never fully placed");
        std::thread::sleep(Duration::from_millis(5));
    }
    let victims = (0..FLEET_CLIENTS)
        .filter(|&k| coordinator.placement_of(ClientId(k)) == Some(0))
        .count();
    assert!(victims > 0, "{label}: placement left backend 0 empty");
    let snap = root.join("b0").join("server.snap");
    loop {
        if let Ok(bytes) = std::fs::read(&snap) {
            if let Ok(state) = ServerState::from_bytes(&bytes) {
                if state.sessions.len() >= victims {
                    break;
                }
            }
        }
        assert!(
            Instant::now() < deadline,
            "victim sessions never snapshotted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut victim = backends[0].take().unwrap();
    victim.child.kill().expect("kill backend");
    victim.child.wait().expect("reap backend");

    let latencies: Vec<f64> = drivers
        .into_iter()
        .map(|d| d.join().expect("fleet driver"))
        .collect();
    let elapsed = start.elapsed().as_secs_f64();
    let stats = coordinator.stats();

    // Structural failover contract.
    assert!(stats.sessions_migrated > 0, "{label}: nothing migrated");
    assert_eq!(stats.migrations_failed, 0, "{label}: {stats:?}");
    assert_eq!(latencies.len(), FLEET_CLIENTS as usize);
    let mut overflow = 0usize;
    for b in 1..FLEET_BACKENDS {
        let assigned = (0..FLEET_CLIENTS)
            .filter(|&k| coordinator.placement_of(ClientId(k)) == Some(b))
            .count();
        if assigned > FLEET_CAPACITY {
            overflow += 1;
        }
    }
    assert_eq!(overflow, 0, "{label}: a survivor exceeded its capacity");

    coordinator.shutdown();
    for b in backends.into_iter().flatten() {
        let mut b = b;
        let _ = b.child.kill();
        let _ = b.child.wait();
    }
    let _ = std::fs::remove_dir_all(&root);

    let rate = (FLEET_CLIENTS as usize * FLEET_STEPS) as f64 / elapsed;
    format!(
        "{{\"group\":\"serve\",\"bench\":\"fleet/{label}\",\"clients\":{FLEET_CLIENTS},\
         \"backends\":{FLEET_BACKENDS},\"steps\":{FLEET_STEPS},\"capacity\":{FLEET_CAPACITY},\
         \"completed\":{},\"steps_per_sec\":{rate:.2},\"migrated\":{},\"failovers\":{},\
         \"redirects\":{},\"heartbeats_missed\":{},\"survivor_overflow\":{overflow},\
         \"p50_completion_ms\":{:.1},\"p95_completion_ms\":{:.1}}}",
        latencies.len(),
        stats.sessions_migrated,
        stats.failovers,
        stats.redirects_sent,
        stats.heartbeats_missed,
        percentile(&latencies, 50.0) * 1e3,
        percentile(&latencies, 95.0) * 1e3,
    )
}

const FLEET_POLICIES: [(PlacementPolicy, &str); 2] = [
    (PlacementPolicy::RoundRobin, "round_robin"),
    (PlacementPolicy::MemoryAware, "memory_aware"),
];

/// Runs the placement study, printing a table and appending the JSON
/// lines.
fn run_fleet_table(lines: &mut Vec<String>) {
    println!("\n== Fleet failover: placement policies, one backend SIGKILLed mid-run ==");
    println!(
        "{:>14} {:>10} {:>10} {:>9} {:>11} {:>11}",
        "policy", "steps/s", "migrated", "redirects", "p50 ms", "p95 ms"
    );
    for (policy, label) in FLEET_POLICIES {
        let line = run_fleet_study(policy, label);
        println!(
            "{label:>14} {:>10.2} {:>10.0} {:>9.0} {:>11.1} {:>11.1}",
            json_num(&line, "steps_per_sec").expect("rate"),
            json_num(&line, "migrated").expect("migrated"),
            json_num(&line, "redirects").expect("redirects"),
            json_num(&line, "p50_completion_ms").expect("p50"),
            json_num(&line, "p95_completion_ms").expect("p95"),
        );
        lines.push(line);
    }
}

/// CI regression guard: rerun the N=1 and N=32 points and compare them
/// against each other, exit nonzero on regression.
///
/// Every limit relates two points of the *same* invocation: absolute
/// steps/s and VmHWM vary with the host (this box alone swings 60–85
/// steps/s run to run), so comparing against committed numbers would
/// fail on any runner slower than the machine that wrote them. What
/// serving one ready-set member at a time promises is that cost per
/// step does not grow with the ready-set, and that is
/// machine-independent.
fn run_check() -> ! {
    const CHECK_N: u64 = 32;
    // One member of a ready-set is served at a time, so the codec
    // copies the same bytes per step whatever N is: 65 536 at N=1 and
    // at N=32, exactly. (Stacked dispatch, deleted in PR 12, copied
    // 495 559 per step at N=32.)
    //
    // Only one activation footprint is alive at a time too (Eq. 3's
    // single `I`), so memory grows with N by per-session state alone:
    // VmHWM(N=32) measures 4.6–5.2x VmHWM(N=1) across five runs,
    // median 4.67x (stacked dispatch: 12.2x). The limit leaves ~40 %
    // headroom over the median (25 % over the worst run) and trips on
    // any dispatch change that makes transient memory grow with the
    // ready-set again.
    const HWM_RATIO_LIMIT: f64 = 6.5;
    const RATE_RATIO_FLOOR: f64 = 0.8;
    // Compression guard: f16 must keep its promised wire saving over
    // the WAN profile. The bound is a within-run ratio like the others;
    // 0.55x leaves headroom over the ideal 0.5x for frame headers and
    // the un-compressed control handshake.
    const F16_BYTES_RATIO_LIMIT: f64 = 0.55;
    // The N=1 point is timed on both sides of the N=32 point and the
    // rate floor holds N=32 to the slower of the two: this host runs
    // up to 1.6x slower for seconds at a time, disturbance only ever
    // adds time, and a slow spell that covers the N=32 run reaches at
    // least one of its neighbours (one-sided, 2 of 8 trial checks fell
    // under the floor on an unchanged tree; two-sided, none).
    let solo = spawn_worker("event_loop", 1);
    let fleet32 = spawn_worker("event_loop", CHECK_N);
    let solo_after = spawn_worker("event_loop", 1);
    println!("{solo}\n{fleet32}\n{solo_after}");
    let mut failures = Vec::new();

    let mut codec_lines = Vec::new();
    let (raw_bytes, f16_bytes, downlink_mismatches) = run_codec_study(&mut codec_lines);
    if downlink_mismatches.is_empty() {
        println!("downlink bytes: measured = PROTOCOL.md §7 size for every codec — ok");
    }
    failures.extend(downlink_mismatches);
    if f16_bytes > F16_BYTES_RATIO_LIMIT * raw_bytes {
        failures.push(format!(
            "f16 bytes/step {f16_bytes:.0} exceeds {F16_BYTES_RATIO_LIMIT}x raw ({raw_bytes:.0})"
        ));
    } else {
        println!(
            "bytes/step: f16 {f16_bytes:.0} / raw {raw_bytes:.0} = {:.3}x \
             (limit {F16_BYTES_RATIO_LIMIT}x) — ok",
            f16_bytes / raw_bytes
        );
    }

    // Overload guard (v1.3): forced 4x oversubscription must actually
    // shed, must never exceed the live-session cap, and must still
    // complete every client. Structural facts only — completion
    // latency is host-dependent and is reported, not bounded.
    let overload = spawn_worker("overload", CHECK_N);
    println!("{overload}");
    let shed = json_num(&overload, "shed").expect("overload shed");
    let capacity = json_num(&overload, "capacity").expect("overload capacity");
    let live_max = json_num(&overload, "max_live_sessions").expect("overload max_live_sessions");
    let completed = json_num(&overload, "completed").expect("overload completed");
    if shed <= 0.0 {
        failures.push("forced overload never shed a connect".to_string());
    }
    if live_max > capacity {
        failures.push(format!(
            "live sessions peaked at {live_max} above capacity {capacity}"
        ));
    }
    if completed < CHECK_N as f64 {
        failures.push(format!(
            "only {completed}/{CHECK_N} clients completed under overload"
        ));
    }
    if shed > 0.0 && live_max <= capacity && completed >= CHECK_N as f64 {
        println!(
            "overload: shed {shed:.0}, live peak {live_max:.0}/{capacity:.0}, \
             completed {completed:.0}/{CHECK_N} — ok"
        );
    }

    // Fleet failover guard (v1.4): a kill-one-backend run must migrate
    // at least one session, complete every client, and never assign a
    // survivor past its capacity. Structural facts only — steps/s and
    // latency are host-dependent and are reported, not bounded.
    let fleet = run_fleet_study(PlacementPolicy::RoundRobin, "round_robin");
    println!("{fleet}");
    let migrated = json_num(&fleet, "migrated").expect("fleet migrated");
    let fleet_done = json_num(&fleet, "completed").expect("fleet completed");
    let overflow = json_num(&fleet, "survivor_overflow").expect("fleet survivor_overflow");
    if migrated < 1.0 {
        failures.push("fleet failover migrated no sessions".to_string());
    }
    if fleet_done < FLEET_CLIENTS as f64 {
        failures.push(format!(
            "only {fleet_done}/{FLEET_CLIENTS} clients completed across the failover"
        ));
    }
    if overflow > 0.0 {
        failures.push(format!(
            "{overflow} survivor(s) were assigned past capacity {FLEET_CAPACITY}"
        ));
    }
    if migrated >= 1.0 && fleet_done >= FLEET_CLIENTS as f64 && overflow == 0.0 {
        println!(
            "fleet: migrated {migrated:.0}, completed {fleet_done:.0}/{FLEET_CLIENTS}, \
             survivor overflow 0 — ok"
        );
    }

    let of = |line: &str, key: &str| json_num(line, key).unwrap_or_else(|| panic!("{key}"));
    let (copied_1, copied_n) = (
        of(&solo, "bytes_copied_per_step"),
        of(&fleet32, "bytes_copied_per_step"),
    );
    if copied_n != copied_1 {
        failures.push(format!(
            "bytes copied per step grew with the ready-set: {copied_n} at N={CHECK_N} vs \
             {copied_1} at N=1"
        ));
    } else {
        println!("bytes copied/step: {copied_n} at N={CHECK_N} = {copied_1} at N=1 — ok");
    }
    let (hwm_1, hwm_n) = (of(&solo, "vm_hwm_kb"), of(&fleet32, "vm_hwm_kb"));
    if hwm_1 > 0.0 && hwm_n > HWM_RATIO_LIMIT * hwm_1 {
        failures.push(format!(
            "VmHWM at N={CHECK_N} ({hwm_n} kB) exceeds {HWM_RATIO_LIMIT}x N=1 ({hwm_1} kB)"
        ));
    } else if hwm_1 > 0.0 {
        println!(
            "VmHWM: N={CHECK_N} {hwm_n} kB / N=1 {hwm_1} kB = {:.2}x (limit {HWM_RATIO_LIMIT}x) — ok",
            hwm_n / hwm_1
        );
    }
    let rate_1 = of(&solo, "steps_per_sec").min(of(&solo_after, "steps_per_sec"));
    let rate_n = of(&fleet32, "steps_per_sec");
    if rate_n < RATE_RATIO_FLOOR * rate_1 {
        failures.push(format!(
            "{rate_n:.2} steps/s at N={CHECK_N} below {RATE_RATIO_FLOOR}x N=1 ({rate_1:.2})"
        ));
    } else {
        println!(
            "steps/s: N={CHECK_N} {rate_n:.2} / N=1 {rate_1:.2} = {:.2}x (floor {RATE_RATIO_FLOOR}x) — ok",
            rate_n / rate_1
        );
    }
    if failures.is_empty() {
        println!("serve bench regression check passed");
        std::process::exit(0);
    }
    for f in &failures {
        eprintln!("REGRESSION: {f}");
    }
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("--worker") => {
            let mode = args.get(2).expect("--worker <mode> <n>");
            if mode == "backend" {
                run_backend_worker(args.get(3).expect("--worker backend <dir>"));
            }
            let n: u64 = args
                .get(3)
                .expect("--worker <mode> <n>")
                .parse()
                .expect("n");
            run_worker(mode, n);
            return;
        }
        Some("--check") => run_check(),
        _ => {}
    }

    let mut lines = Vec::new();
    println!("== Many-client serving: one event-loop thread, N clients ==");
    println!("   (median of {REPEATS} repeats, {STEPS} steps/client, LAN-linked channels,");
    println!("    one subprocess per configuration for honest VmHWM)\n");
    println!(
        "{:>8} {:>10} {:>10} {:>12} {:>12}",
        "clients", "steps/s", "max batch", "VmHWM MB", "kB copy/step"
    );
    for n in FLEET_SIZES {
        let event = spawn_worker("event_loop", n);
        let rate = json_num(&event, "steps_per_sec").expect("rate");
        let hwm = json_num(&event, "vm_hwm_kb").expect("hwm");
        let max_batch = json_num(&event, "max_batch").expect("max_batch");
        let copied = json_num(&event, "bytes_copied_per_step").expect("copied");
        println!(
            "{n:>8} {rate:>10.2} {max_batch:>10} {:>12.1} {:>12.1}",
            hwm / 1024.0,
            copied / 1024.0,
        );
        lines.push(event);
    }
    println!("\n== Forced overload: N clients vs live-session capacity N/4 ==");
    println!(
        "{:>8} {:>9} {:>7} {:>10} {:>9} {:>11} {:>11}",
        "clients", "capacity", "shed", "shed rate", "live max", "p50 ms", "p95 ms"
    );
    for n in OVERLOAD_SIZES {
        let overload = spawn_worker("overload", n);
        let capacity = json_num(&overload, "capacity").expect("capacity");
        let shed = json_num(&overload, "shed").expect("shed");
        let shed_rate = json_num(&overload, "shed_rate").expect("shed_rate");
        let live_max = json_num(&overload, "max_live_sessions").expect("live max");
        let p50 = json_num(&overload, "p50_completion_ms").expect("p50");
        let p95 = json_num(&overload, "p95_completion_ms").expect("p95");
        println!(
            "{n:>8} {capacity:>9.0} {shed:>7.0} {shed_rate:>10.3} {live_max:>9.0} \
             {p50:>11.1} {p95:>11.1}"
        );
        lines.push(overload);
    }
    run_fleet_table(&mut lines);
    run_codec_study(&mut lines);
    let json = lines.join("\n") + "\n";
    print!("\n{json}");
    // Best-effort baseline refresh when run from the repo checkout.
    if std::path::Path::new("BENCH_serve.json").exists()
        || std::path::Path::new("Cargo.toml").exists()
    {
        if let Ok(mut f) = std::fs::File::create("BENCH_serve.json") {
            let _ = f.write_all(json.as_bytes());
            eprintln!("wrote BENCH_serve.json");
        }
    }
}
