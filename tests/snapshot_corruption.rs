//! Corruption robustness for durable server snapshots: a *real*
//! snapshot — live session, adapter weights, optimizer moments, a
//! cached `ServerGradients` reply — is truncated at every byte offset
//! and bit-flipped at every byte offset, plus a proptest sweep of
//! random multi-bit damage. Every damaged form must be rejected with a
//! typed [`CheckpointError`] (never a panic), and a failed restore
//! must leave the target server untouched — no partial restore, ever.
//!
//! This mirrors the wire codec's truncation discipline
//! (`crates/split/tests/codec_proptest.rs`) one layer up: the snapshot
//! is the only artifact that crosses a process-death boundary, so its
//! decode path is held to the same standard.

mod common;

use bytes::Bytes;
use proptest::prelude::*;

use menos::adapters::FineTuneConfig;
use menos::core::{MenosServer, ServerMode, ServerSpec, ServerState};
use menos::models::ModelConfig;
use menos::net::encode_tensor;
use menos::split::{ClientId, ClientMessage, ServerMessage, SplitSpec};
use menos::tensor::{CheckpointError, Tensor};

/// A server with one mid-training session: connected, one full step
/// dispatched (so adapter weights, optimizer moments, step counters,
/// and the cached lost-reply replay are all non-trivial).
fn busy_server() -> MenosServer {
    let config = ModelConfig::tiny_opt(17);
    let mut ft = FineTuneConfig::paper(&config);
    ft.batch_size = 2;
    ft.seq_len = 8;
    let mut srv = MenosServer::new(config, ServerSpec::v100(ServerMode::menos()), 5);
    let c = ClientId(4);
    srv.handle(ClientMessage::Connect {
        client: c,
        ft,
        split: SplitSpec::paper(),
        epoch: 1,
        codecs: 0,
    })
    .expect("connect");
    let frame = |t: &Tensor| -> Bytes { encode_tensor(t) };
    srv.handle(ClientMessage::Activations {
        client: c,
        frame: frame(&Tensor::full(0.1, [2, 8, 64])),
    })
    .expect("activations");
    let reply = srv
        .handle(ClientMessage::Gradients {
            client: c,
            frame: frame(&Tensor::full(0.01, [2, 8, 64])),
        })
        .expect("gradients")
        .expect("reply");
    assert!(matches!(reply, ServerMessage::ServerGradients { .. }));
    srv
}

/// The pristine snapshot bytes, built once: `busy_server()` is
/// deterministic, and the proptest sweeps below damage hundreds of
/// copies — rebuilding the server per case would dominate the run.
fn snapshot_bytes() -> &'static [u8] {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES.get_or_init(|| busy_server().to_state().to_bytes())
}

/// A fresh restore target sharing the snapshot's config and seed, so
/// the only thing that can make restore fail is the damage itself.
fn fresh_target() -> MenosServer {
    MenosServer::new(
        ModelConfig::tiny_opt(17),
        ServerSpec::v100(ServerMode::menos()),
        5,
    )
}

/// Restore must be all-or-nothing: on *any* error the target still
/// has no sessions, no quarantine, no reservations.
fn assert_untouched(target: &MenosServer) {
    assert_eq!(target.active_clients(), 0);
    assert_eq!(target.quarantined_clients(), 0);
    assert_eq!(target.reserved_bytes(), 0);
}

/// Structural decode + semantic restore of damaged bytes; both layers
/// must reject with a typed error, not a panic.
fn try_restore(bytes: &[u8]) -> Result<usize, CheckpointError> {
    let state = ServerState::from_bytes(bytes)?;
    let mut target = fresh_target();
    let result = target.restore(state);
    if result.is_err() {
        assert_untouched(&target);
    }
    result
}

#[test]
fn pristine_snapshot_restores_fully() {
    assert_eq!(try_restore(snapshot_bytes()).expect("pristine restores"), 1);
}

#[test]
fn every_truncation_is_rejected_with_a_typed_error() {
    let bytes = snapshot_bytes();
    for cut in 0..bytes.len() {
        assert!(
            try_restore(&bytes[..cut]).is_err(),
            "truncation to {cut} bytes must be rejected"
        );
    }
}

#[test]
fn every_single_bit_flip_is_rejected_with_a_typed_error() {
    let bytes = snapshot_bytes();
    // One flip per byte offset, rotating through the bit positions —
    // full offset coverage without an 8× longer run. The outer CRC
    // catches every single-bit flip regardless of position.
    for offset in 0..bytes.len() {
        let mut damaged = bytes.to_vec();
        damaged[offset] ^= 1 << (offset % 8);
        assert!(
            try_restore(&damaged).is_err(),
            "bit flip at offset {offset} must be rejected"
        );
    }
}

/// The sweeps above never get past the outer CRC-32, and a CRC is not
/// a key: whoever damages a snapshot can recompute it. So overwrite
/// every length, count and dimension field — at every nesting depth —
/// with `0`, `1<<31`, `1<<32` and `u64::MAX`, re-seal every checksum
/// around it, and hold the decoders behind the checksum to the same
/// standard: a typed error, nothing allocated on the field's say-so
/// (a `1<<32`-element buffer would abort the process), nothing
/// restored.
#[test]
fn resealed_hostile_lengths_are_typed_errors_and_restore_nothing() {
    common::every_resealed_overwrite(snapshot_bytes(), |what, damaged| {
        // `try_restore` checks the target is untouched on error.
        assert!(try_restore(damaged).is_err(), "{what} restored");
    });
}

proptest! {
    // A case costs about one CRC pass over the snapshot, so the
    // sweep can be wide and still finish inside the every-offset arms'
    // time.
    #![proptest_config(ProptestConfig::with_cases(65536))]

    /// Random multi-site damage: between 1 and 8 independent bit
    /// flips anywhere in the snapshot. Multi-bit damage can in
    /// principle slip past a CRC-32 (unlike single flips), but the
    /// structural and semantic validators behind it must still never
    /// panic or partially restore — and a flip set that cancels
    /// itself out (same bit twice) legitimately restores.
    #[test]
    fn random_bit_flips_never_panic_or_partially_restore(
        flips in prop::collection::vec((0usize..10_000, 0u8..8), 1..8)
    ) {
        let bytes = snapshot_bytes();
        let mut damaged = bytes.to_vec();
        for (offset, bit) in flips {
            let offset = offset % damaged.len();
            damaged[offset] ^= 1 << bit;
        }
        if damaged == *bytes {
            prop_assert_eq!(try_restore(&damaged).expect("undamaged"), 1);
        } else {
            // Must return, not panic; overwhelmingly an Err, and on
            // Err the target is untouched (checked in try_restore).
            let _ = try_restore(&damaged);
        }
    }

    /// Random truncation points under proptest shrinking, complementing
    /// the exhaustive sweep above.
    #[test]
    fn random_truncations_are_rejected(cut_frac in 0.0f64..1.0) {
        let bytes = snapshot_bytes();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let cut = cut.min(bytes.len() - 1);
        prop_assert!(try_restore(&bytes[..cut]).is_err());
    }
}
