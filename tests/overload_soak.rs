//! The overload soak (v1.3 acceptance): 256 clients storm a server
//! whose live-session capacity is 64. Surplus connects are shed with
//! `Busy { retry_after_ms }`, shed clients wait out the hint and
//! retry, every client eventually completes, and — the contract's
//! teeth — every loss curve and final adapter weight is bit-identical
//! to an *uncontended* run of the same fleet, across three model
//! seeds.
//!
//! Overload must also stay bounded: the loop's own high-water metrics
//! prove live sessions never exceeded the cap and per-connection write
//! queues never grew past the configured buffer — no OOM path, no
//! unbounded growth, and shedding is not an error (`conn_errors` stays
//! zero; a shed is a polite refusal, not a failure).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use menos::adapters::FineTuneConfig;
use menos::core::{MenosServer, ServerMode, ServerSpec};
use menos::data::{wiki_corpus, LossCurve, TokenDataset, Vocab};
use menos::models::{CausalLm, ModelConfig};
use menos::sim::seeded_rng;
use menos::split::{
    drive_client, event_channel_listener, ClientId, EventLoopOptions, EventLoopStats, RetryPolicy,
    ServerEventLoop, SplitClient, SplitSpec,
};

/// The acceptance numbers: 4× oversubscription at fleet scale.
const N: u64 = 256;
const CAPACITY: usize = 64;
/// Steps per client: small, because the soak's subject is admission
/// and shedding, not the math — 256 clients × 4 steps × 2 runs × 3
/// seeds must fit a debug CI budget.
const STEPS: usize = 4;
/// Per-connection write-buffer bound for the contended run; generous
/// for a micro model, so crossing it would mean genuine runaway growth.
const WRITE_BUFFER: u64 = 1 << 20;

fn setup(model_seed: u64) -> (String, ModelConfig, Arc<Mutex<menos::tensor::ParamStore>>) {
    let text = wiki_corpus(model_seed, 3_000);
    let vocab = Vocab::from_text(&text);
    let mut config = ModelConfig::tiny_opt(vocab.size());
    config.hidden = 32;
    config.layers = 2;
    config.heads = 2;
    config.intermediate = 64;
    let mut rng = seeded_rng(model_seed, "overload-soak");
    let base = Arc::new(Mutex::new(menos::models::init_params(&config, &mut rng)));
    (text, config, base)
}

fn make_server(
    config: &ModelConfig,
    base: &Arc<Mutex<menos::tensor::ParamStore>>,
    model_seed: u64,
) -> Arc<Mutex<MenosServer>> {
    let view = base.lock().unwrap().shared_view(false);
    Arc::new(Mutex::new(MenosServer::from_store(
        config.clone(),
        view,
        ServerSpec::v100(ServerMode::menos()),
        model_seed,
    )))
}

fn make_client(
    k: u64,
    text: &str,
    config: &ModelConfig,
    base: &Arc<Mutex<menos::tensor::ParamStore>>,
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

type CurveBits = Vec<(usize, u32)>;
type AdapterBits = Vec<(String, Vec<u32>)>;

fn curve_bits(curve: &LossCurve) -> CurveBits {
    curve
        .points()
        .iter()
        .map(|&(s, l)| (s, l.to_bits()))
        .collect()
}

fn adapter_bits(client: &SplitClient) -> AdapterBits {
    let mut out: AdapterBits = client
        .adapter_params()
        .iter()
        .map(|(name, t)| {
            (
                name.clone(),
                t.to_vec().iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Runs the whole fleet against a loop configured by `options`,
/// returning per-client results (in client order) and the loop stats.
fn run_fleet(
    text: &str,
    config: &ModelConfig,
    base: &Arc<Mutex<menos::tensor::ParamStore>>,
    model_seed: u64,
    options: EventLoopOptions,
) -> (Vec<(CurveBits, AdapterBits)>, EventLoopStats) {
    let handler = make_server(config, base, model_seed);
    let (dialer, listener) = event_channel_listener();
    let event_loop = ServerEventLoop::new(listener, handler.clone(), options);
    let shutdown: Arc<AtomicBool> = event_loop.shutdown_handle();
    let loop_thread = std::thread::spawn(move || event_loop.run().1);

    let mut drivers = Vec::new();
    for k in 0..N {
        let mut client = make_client(k, text, config, base);
        let dialer = dialer.clone();
        drivers.push(std::thread::spawn(move || {
            let policy = RetryPolicy {
                retries: 8,
                backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(50),
                seed: client.id().0,
            };
            // `Busy` sheds do not consume the retry budget (they are
            // load, not faults), so a client can wait out arbitrarily
            // long contention on a small budget.
            let curve = drive_client(&mut client, |_| dialer.dial(), STEPS, &policy)
                .expect("every client eventually completes under overload");
            (curve_bits(&curve), adapter_bits(&client))
        }));
    }
    let results = drivers
        .into_iter()
        .map(|d| d.join().expect("driver thread"))
        .collect();
    shutdown.store(true, Ordering::Relaxed);
    let stats = loop_thread.join().expect("loop thread");

    let mut handler = handler.lock().unwrap();
    assert_eq!(handler.active_clients(), 0);
    handler.expire_idle(Duration::from_millis(0));
    assert_eq!(handler.quarantined_clients(), 0);
    assert_eq!(
        handler.reserved_bytes(),
        0,
        "the Alg. 2 pool drains to zero"
    );
    (results, stats)
}

#[test]
fn overload_soak_is_bit_identical_to_an_uncontended_run() {
    for model_seed in [43u64, 44, 45] {
        let (text, config, base) = setup(model_seed);

        // The uncontended reference: same fleet, no capacity cap.
        let (reference, _) = run_fleet(
            &text,
            &config,
            &base,
            model_seed,
            EventLoopOptions::default(),
        );
        for (curve, _) in &reference {
            assert_eq!(curve.len(), STEPS);
        }

        // The contended run: 256 clients vs 64 live-session slots,
        // with the write-buffer bound armed so runaway queue growth
        // would be an eviction (and a failed test), not an OOM.
        let (survivors, stats) = run_fleet(
            &text,
            &config,
            &base,
            model_seed,
            EventLoopOptions {
                capacity: CAPACITY,
                busy_retry_after: Duration::from_millis(5),
                max_write_buffer: Some(WRITE_BUFFER),
                ..EventLoopOptions::default()
            },
        );

        assert_eq!(
            survivors, reference,
            "overload diverged from uncontended (seed {model_seed})"
        );

        // 4× oversubscription must actually shed...
        assert!(stats.shed > 0, "no connect was ever shed: {stats:?}");
        // ...while staying bounded: the live-session high-water mark
        // respects the cap, write queues never crossed the buffer
        // bound, and nothing was treated as an error or quarantined.
        assert!(
            stats.max_live_sessions <= CAPACITY,
            "live sessions exceeded capacity (seed {model_seed}): {stats:?}"
        );
        assert!(
            stats.max_queued_write_bytes <= WRITE_BUFFER,
            "write queues grew past the bound (seed {model_seed}): {stats:?}"
        );
        assert_eq!(stats.write_overflows, 0, "{stats:?}");
        assert_eq!(
            stats.conn_errors, 0,
            "a shed is a polite refusal, not a connection error: {stats:?}"
        );
        assert_eq!(stats.resumed, 0, "sheds retry as fresh connects: {stats:?}");
    }
}
