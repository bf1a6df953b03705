//! Migration-blob robustness (PROTOCOL.md §9.4): the
//! `export_session` / `import_session` pair is what a fleet
//! coordinator replays when it re-homes a dead server's sessions, so
//! it is held to the snapshot standard (`tests/snapshot_corruption.rs`
//! is the one-layer-down mirror): a round-trip preserves every byte of
//! the session — adapter weights, optimizer moments, step/epoch
//! counters, the cached lost-reply replay — and *any* damaged,
//! foreign, or duplicate blob is refused with a typed
//! [`CheckpointError`] that commits nothing.

mod common;

use bytes::Bytes;
use proptest::prelude::*;

use menos::adapters::FineTuneConfig;
use menos::core::{
    decode_session_record, encode_session_record, MenosServer, ServerMode, ServerSpec,
};
use menos::data::TokenDataset;
use menos::models::{CausalLm, ModelConfig};
use menos::net::encode_tensor;
use menos::split::{
    run_split_steps, run_tcp_client, ClientId, ClientMessage, EventLoopOptions, ForwardMode,
    RetryPolicy, ServerMessage, ServerSession, SplitClient, SplitSpec, TcpEventServer, TcpOptions,
    WireMessage,
};
use menos::tensor::{Sealed, SectionReader, SectionWriter, Tensor};

const SEED: u64 = 5;

fn config() -> ModelConfig {
    ModelConfig::tiny_opt(17)
}

/// A server holding one session for `client`, `steps` full dispatches
/// deep: past step 0 the record carries non-trivial adapter weights,
/// optimizer moments, and a cached `ServerGradients` replay.
fn server_with_session(client: u64, steps: usize) -> MenosServer {
    let config = config();
    let mut ft = FineTuneConfig::paper(&config);
    ft.batch_size = 2;
    ft.seq_len = 8;
    let mut srv = MenosServer::new(config, ServerSpec::v100(ServerMode::menos()), SEED);
    let c = ClientId(client);
    srv.handle(ClientMessage::Connect {
        client: c,
        ft,
        split: SplitSpec::paper(),
        epoch: 1,
        codecs: 0,
    })
    .expect("connect");
    let frame = |t: &Tensor| -> Bytes { encode_tensor(t) };
    for step in 0..steps {
        let x = 0.1 + step as f32 * 0.01;
        srv.handle(ClientMessage::Activations {
            client: c,
            frame: frame(&Tensor::full(x, [2, 8, 64])),
        })
        .expect("activations");
        let reply = srv
            .handle(ClientMessage::Gradients {
                client: c,
                frame: frame(&Tensor::full(x / 10.0, [2, 8, 64])),
            })
            .expect("gradients")
            .expect("reply");
        assert!(matches!(reply, ServerMessage::ServerGradients { .. }));
    }
    srv
}

fn fresh_target() -> MenosServer {
    MenosServer::new(config(), ServerSpec::v100(ServerMode::menos()), SEED)
}

/// Import must be all-or-nothing: on *any* error the target still has
/// no sessions, no quarantine, no reservations.
fn assert_untouched(target: &MenosServer) {
    assert_eq!(target.active_clients(), 0);
    assert_eq!(target.quarantined_clients(), 0);
    assert_eq!(target.reserved_bytes(), 0);
}

/// The blob with its live/quarantined flag normalized: the exporter
/// reports the session's *current* residence (live on the source,
/// quarantined on the importer), which is transport metadata, not
/// session state. Everything else must round-trip bit-exactly.
fn normalized(blob: &[u8]) -> Vec<u8> {
    let (seed, mut rec) = decode_session_record(blob).expect("decodable blob");
    rec.live = false;
    encode_session_record(seed, &rec)
}

fn round_trip(client: u64, steps: usize) {
    let source = server_with_session(client, steps);
    let blob = source
        .export_session(ClientId(client))
        .expect("the session exports");

    let mut target = fresh_target();
    let (imported, epoch) = target.import_session(&blob).expect("pristine blob imports");
    assert_eq!(imported, ClientId(client));
    let (_, rec) = decode_session_record(&blob).unwrap();
    assert_eq!(epoch, rec.epoch, "Imported echoes the resume epoch");
    assert_eq!(target.active_clients(), 0, "imports park in quarantine");
    assert_eq!(target.quarantined_clients(), 1);

    // Re-exporting from the importer reproduces the record byte for
    // byte (modulo the residence flag): nothing was lost or rebuilt
    // differently in transit.
    let again = target
        .export_session(ClientId(client))
        .expect("the import is exportable");
    assert_eq!(
        normalized(&blob),
        normalized(&again),
        "client {client} at {steps} step(s) did not round-trip"
    );
}

#[test]
fn a_mid_training_session_round_trips_byte_exactly() {
    round_trip(4, 2);
}

#[test]
fn a_freshly_connected_session_round_trips_too() {
    round_trip(9, 0);
}

#[test]
fn a_duplicate_import_is_refused_without_forking_the_session() {
    let source = server_with_session(3, 1);
    let blob = source.export_session(ClientId(3)).unwrap();
    let mut target = fresh_target();
    target.import_session(&blob).expect("first import lands");
    // A second copy would give one session two homes.
    let err = target.import_session(&blob).expect_err("duplicate refused");
    let msg = err.to_string();
    assert!(msg.contains("already has a session"), "{msg}");
    assert_eq!(target.quarantined_clients(), 1, "the original is intact");
}

#[test]
fn a_foreign_base_seed_is_refused() {
    let source = server_with_session(3, 1);
    let blob = source.export_session(ClientId(3)).unwrap();
    // A server derived from a different base model: the blob's
    // adapters were trained against other weights, importing them
    // would silently corrupt training.
    let mut target = MenosServer::new(config(), ServerSpec::v100(ServerMode::menos()), SEED + 1);
    let err = target
        .import_session(&blob)
        .expect_err("foreign seed refused");
    assert!(err.to_string().contains("seed"), "{err}");
    assert_untouched(&target);
}

#[test]
fn exporting_an_unknown_client_is_a_clean_none() {
    assert!(fresh_target().export_session(ClientId(77)).is_none());
}

/// The pristine blob all damage cases start from, built once — the
/// proptest sweeps below damage hundreds of copies.
fn pristine_blob() -> &'static [u8] {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES.get_or_init(|| {
        server_with_session(4, 1)
            .export_session(ClientId(4))
            .expect("export")
    })
}

/// An `ImportSession` blob is peer input sealed by an unkeyed CRC-32,
/// so the sender can re-seal anything. Every length, count and
/// dimension field, at every nesting depth, overwritten with `0`,
/// `1<<31`, `1<<32` and `u64::MAX` under valid checksums: a typed
/// error, nothing allocated on the field's say-so, nothing imported.
#[test]
fn resealed_hostile_lengths_are_typed_errors_and_import_nothing() {
    common::every_resealed_overwrite(pristine_blob(), |what, damaged| {
        let mut target = fresh_target();
        let result = target.import_session(damaged);
        assert!(result.is_err(), "{what} was imported");
        assert_untouched(&target);
    });
}

/// `container` with the first section tagged `tag` replaced by
/// `payload`, re-sealed.
fn with_section(container: &[u8], tag: u32, payload: &[u8]) -> Sealed {
    let mut w = SectionWriter::new();
    for (t, body) in SectionReader::parse(container)
        .expect("own bytes")
        .sections()
    {
        w.section(t, if t == tag { payload } else { body }.to_vec());
    }
    w.finish()
}

/// The one-frame kill switch, closed. `ImportSession` is legal on an
/// unbound connection and its blob is sealed only by a CRC anyone can
/// recompute, so a stranger who knows the model seed can make the
/// server decode an adapter checkpoint, or optimizer moments, of their
/// choosing. With a section that declares 2^32 elements and carries
/// none, the parsers used to reserve 16 GiB and abort the process —
/// every tenant's session gone. Now the push fails its own connection,
/// commits nothing, and a client training on the same server the whole
/// time never notices.
#[test]
fn a_resealed_hostile_import_costs_only_the_connection_that_pushed_it() {
    // The adapter section (tag 3), then the optimizer section (tag 4),
    // of a well-formed blob replaced under valid CRCs.
    let (seed, rec) = decode_session_record(pristine_blob()).expect("own blob");
    let checkpoint = common::checkpoint_declaring_2_pow_32_elements();
    let optimizer = common::adam_state_declaring_2_pow_32_elements();
    let hostile_blobs = [(3, checkpoint), (4, optimizer)].map(|(tag, payload)| {
        let mut rec = rec.clone();
        rec.session = with_section(&rec.session, tag, &payload);
        encode_session_record(seed, &rec)
    });

    let srv = fresh_target();
    let base = srv.registry().base_store().shared_view(false);
    let model = || CausalLm::bind(&config(), &base.shared_view(false));
    let trainer = || {
        let mut ft = FineTuneConfig::paper(&config());
        ft.batch_size = 2;
        ft.seq_len = 8;
        let data = TokenDataset::new((0..512).map(|i| i * 7 % 17).collect(), 8, 1);
        SplitClient::new(ClientId(1), model(), SplitSpec::paper(), ft, data, 1)
    };
    // The oracle: client 1 against the session `MenosServer` builds
    // for it at `Connect`, in process, no server at all.
    const STEPS: usize = 6;
    let expected = {
        let (mut client, split) = (trainer(), SplitSpec::paper());
        let mut session =
            ServerSession::new(ClientId(1), model(), split, client.ft_config(), SEED + 1);
        run_split_steps(
            &mut client,
            &mut session,
            ForwardMode::NoGradReforward,
            STEPS,
        )
    };

    let handler = std::sync::Arc::new(std::sync::Mutex::new(srv));
    let options = EventLoopOptions {
        accept_limit: 1 + hostile_blobs.len(),
        ..EventLoopOptions::default()
    };
    let tcp = TcpOptions::default();
    let server = TcpEventServer::spawn("127.0.0.1:0", handler.clone(), options, tcp).expect("bind");
    let addr = server.addr();

    let curve = std::thread::scope(|scope| {
        let training = scope.spawn(|| {
            run_tcp_client(
                &addr.to_string(),
                &mut trainer(),
                STEPS,
                &RetryPolicy::none(),
            )
            .expect("the bystander trains to the end")
        });
        for blob in hostile_blobs {
            use std::io::{Read, Write};
            let push = ClientMessage::ImportSession {
                client: rec.client,
                blob: Bytes::from(blob),
            };
            let mut stranger = std::net::TcpStream::connect(addr).expect("dial");
            let deadline = Some(std::time::Duration::from_secs(30));
            stranger.set_read_timeout(deadline).expect("read deadline");
            stranger.write_all(&push.to_wire()).expect("push");
            // No `Imported`: the server drops the connection.
            let mut reply = [0u8; 1];
            assert!(matches!(stranger.read(&mut reply), Ok(0) | Err(_)));
        }
        training.join().expect("training thread")
    });
    let bits = |c: &menos::data::LossCurve| -> Vec<u32> {
        c.points().iter().map(|&(_, loss)| loss.to_bits()).collect()
    };
    assert_eq!(bits(&curve), bits(&expected), "the bystander's curve moved");

    let (_, stats) = server.join().expect("loop finished");
    let counted = (stats.served, stats.conn_errors, stats.sessions_imported);
    assert_eq!(counted, (1, 2, 0), "{stats:?}");
    assert_untouched(&handler.lock().unwrap());
}

proptest! {
    /// Round-trip fidelity across arbitrary client ids and training
    /// depths (0 dispatches = a just-admitted session; deeper = live
    /// moments and a cached replay).
    #[test]
    fn any_session_round_trips(client in 0u64..10_000, steps in 0usize..3) {
        round_trip(client, steps);
    }

    /// Every truncation is rejected with a typed error at both layers
    /// — structural decode and semantic import — and the import
    /// target stays untouched. (Mirrors the exhaustive sweep in
    /// `crates/core/src/state.rs` under proptest shrinking.)
    #[test]
    fn truncated_blobs_are_rejected_and_commit_nothing(cut_frac in 0.0f64..1.0) {
        let blob = pristine_blob();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut = (((blob.len() as f64) * cut_frac) as usize).min(blob.len() - 1);
        prop_assert!(decode_session_record(&blob[..cut]).is_err());
        let mut target = fresh_target();
        prop_assert!(target.import_session(&blob[..cut]).is_err());
        assert_untouched(&target);
    }

    /// Random multi-site bit damage: between 1 and 8 independent
    /// flips. Multi-bit damage can in principle slip past a CRC-32,
    /// but the validators behind it must never panic or leave a
    /// half-imported session — and a flip set that cancels itself out
    /// legitimately imports.
    #[test]
    fn random_bit_flips_never_panic_or_partially_import(
        flips in prop::collection::vec((0usize..10_000, 0u8..8), 1..8)
    ) {
        let blob = pristine_blob();
        let mut damaged = blob.to_vec();
        for (offset, bit) in flips {
            let offset = offset % damaged.len();
            damaged[offset] ^= 1 << bit;
        }
        let mut target = fresh_target();
        if damaged == *blob {
            prop_assert!(target.import_session(&damaged).is_ok());
        } else if target.import_session(&damaged).is_err() {
            assert_untouched(&target);
        }
    }
}
