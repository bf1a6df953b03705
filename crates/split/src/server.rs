//! Per-client server-side session: forward/backward over the server's
//! block range, with both memory policies' execution paths.

use std::ops::Range;

use menos_adapters::{build_optimizer, inject_adapters, Adam, FineTuneConfig, OptimState};
use menos_models::CausalLm;
use menos_net::TensorCodec;
use menos_sim::seeded_rng;
use menos_tensor::{
    load_checkpoint, no_grad, restore_into, save_checkpoint, ByteReader, CheckpointError,
    ParamStore, Sealed, SectionReader, SectionWriter, Tensor,
};

use crate::codec::{decode_config, encode_config};
use crate::message::ClientId;
use crate::spec::SplitSpec;

struct CachedForward {
    x_c_leaf: Tensor,
    x_s: Tensor,
}

/// One client's serving state on the split server (real engine).
///
/// The session owns a per-client model *structure* (typically bound to
/// a [`menos_tensor::ParamStore::shared_view`] of the base weights),
/// the client's adapters, and the adapter optimizer. It supports both
/// execution paths of the paper's Fig. 3:
///
/// * [`ServerSession::forward_cached`] — gradient-ready forward that
///   caches the graph (vanilla / memory-preserving policies);
/// * [`ServerSession::forward_nograd`] — no-grad forward that caches
///   only the raw input `x_c`, requiring a *re-forward* in
///   [`ServerSession::backward`] (Menos' on-demand policy).
///
/// Both paths produce bit-identical training updates, which the tests
/// verify — the policies trade memory for recomputation, never
/// correctness.
pub struct ServerSession {
    client: ClientId,
    model: CausalLm,
    range: Range<usize>,
    ft: FineTuneConfig,
    split: SplitSpec,
    seed: u64,
    adapter_params: ParamStore,
    optimizer: Adam,
    cached: Option<CachedForward>,
    pending_input: Option<Tensor>,
    reforward_count: u64,
    steps: u64,
    codec: TensorCodec,
}

// Section tags of the serialized session container.
const TAG_SESSION_META: u32 = 1;
const TAG_SESSION_CONFIG: u32 = 2;
const TAG_SESSION_ADAPTERS: u32 = 3;
const TAG_SESSION_OPTIM: u32 = 4;
/// Retired: gradients pending a k-step accumulation. A session steps
/// Adam after every batch, so a record carrying this section is refused.
const TAG_SESSION_ACCUM: u32 = 5;
const TAG_SESSION_CODEC: u32 = 6;

impl ServerSession {
    /// Creates a session for `client` over `model` (a structure bound
    /// to the shared base), injecting adapters into the server block
    /// range.
    ///
    /// # Panics
    ///
    /// Panics if the configurations are invalid for the model.
    pub fn new(
        client: ClientId,
        mut model: CausalLm,
        split: SplitSpec,
        ft: &FineTuneConfig,
        seed: u64,
    ) -> Self {
        split.validate(&model.config).expect("invalid split spec");
        let range = split.server_range(&model.config);
        let mut rng = seeded_rng(seed, "server-adapters");
        let adapter_params = inject_adapters(&mut model, range.clone(), ft, &mut rng);
        let optimizer = build_optimizer(ft, adapter_params.tensors().cloned().collect());
        ServerSession {
            client,
            model,
            range,
            ft: ft.clone(),
            split,
            seed,
            adapter_params,
            optimizer,
            cached: None,
            pending_input: None,
            reforward_count: 0,
            steps: 0,
            codec: TensorCodec::default(),
        }
    }

    /// Serializes everything needed to rebuild this session on a fresh
    /// server process: the fine-tune/split configuration and seed (so
    /// the deterministic structure can be re-derived), adapter values,
    /// optimizer moments and counters.
    ///
    /// The in-flight autograd graph (`cached`/`pending_input`) is
    /// deliberately *not* serialized: the v1.1 `Resume` reconciliation
    /// makes the client redo an unacknowledged step, so a restored
    /// session only ever needs completed-step state.
    #[must_use]
    pub fn to_state(&self) -> Sealed {
        let mut meta = Vec::new();
        meta.extend(self.client.0.to_le_bytes());
        meta.extend(self.seed.to_le_bytes());
        meta.extend(self.steps.to_le_bytes());
        meta.extend(self.reforward_count.to_le_bytes());
        // The micro-step of a retired k-step accumulation: always 0.
        meta.extend(0u64.to_le_bytes());
        let mut w = SectionWriter::new();
        w.section(TAG_SESSION_META, meta);
        w.section(TAG_SESSION_CONFIG, encode_config(&self.ft, self.split, 0));
        w.section(TAG_SESSION_ADAPTERS, save_checkpoint(&self.adapter_params));
        w.section(TAG_SESSION_OPTIM, self.optimizer.to_state().to_bytes());
        // v1.2: the negotiated codec plus its error-feedback residual
        // accumulators. A restored server that zeroed the residuals
        // would silently change the lossy trajectory, so they are full
        // session state (DESIGN.md §4.12). Written unconditionally:
        // the raw default is 2 bytes and keeps restores simple.
        w.section(TAG_SESSION_CODEC, self.codec.to_state());
        w.finish()
    }

    /// Rebuilds a session from [`to_state`](Self::to_state) bytes over
    /// a fresh model structure bound to the shared base.
    ///
    /// The structure is re-derived deterministically from the recorded
    /// configuration and seed (adapter injection order is the
    /// `ParamStore`'s name order), then the recorded values overwrite
    /// the seed-initialized ones — so the restored session is
    /// bit-identical to the snapshotted one.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on corrupt bytes or a configuration
    /// inconsistent with `model`; never panics on untrusted input.
    pub fn from_state(model: CausalLm, bytes: &[u8]) -> Result<ServerSession, CheckpointError> {
        let r = SectionReader::parse(bytes)?;
        let mut meta = ByteReader::new(r.require(TAG_SESSION_META)?);
        let mut word = || meta.u64();
        let (client, seed, steps, reforwards, micro) =
            (word()?, word()?, word()?, word()?, word()?);
        meta.finish()?;
        if micro != 0 || r.find(TAG_SESSION_ACCUM).is_some() {
            return Err(CheckpointError::Corrupt(format!(
                "micro-step {micro} or pending gradients: gradient accumulation \
                 is retired, sessions step once per batch"
            )));
        }
        let (ft, split, _) = decode_config(r.require(TAG_SESSION_CONFIG)?)
            .map_err(|e| CheckpointError::Corrupt(format!("session config: {e}")))?;
        ft.validate(&model.config)
            .map_err(|e| CheckpointError::Corrupt(format!("fine-tune config: {e}")))?;
        split
            .validate(&model.config)
            .map_err(|e| CheckpointError::Corrupt(format!("split spec: {e}")))?;

        let mut session = ServerSession::new(ClientId(client), model, split, &ft, seed);
        let adapters = load_checkpoint(r.require(TAG_SESSION_ADAPTERS)?)?;
        if adapters.len() != session.adapter_params.len() {
            return Err(CheckpointError::Corrupt(format!(
                "{} adapter parameters recorded, structure has {}",
                adapters.len(),
                session.adapter_params.len()
            )));
        }
        restore_into(&session.adapter_params, &adapters)?;
        session
            .optimizer
            .restore_state(OptimState::from_bytes(r.require(TAG_SESSION_OPTIM)?)?)?;
        session.steps = steps;
        session.reforward_count = reforwards;
        // Tolerant read: pre-v1.2 snapshots have no codec section and
        // restore as the raw baseline.
        if let Some(codec_bytes) = r.find(TAG_SESSION_CODEC) {
            session.codec = TensorCodec::from_state(codec_bytes)
                .map_err(|e| CheckpointError::Corrupt(format!("session codec: {e}")))?;
        }
        Ok(session)
    }

    /// The fine-tune configuration this session was created with.
    pub fn ft_config(&self) -> &FineTuneConfig {
        &self.ft
    }

    /// The split specification this session was created with.
    pub fn split(&self) -> SplitSpec {
        self.split
    }

    /// The client this session serves.
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// The server-side block range.
    pub fn range(&self) -> Range<usize> {
        self.range.clone()
    }

    /// The session's adapter parameters (for sharing assertions and
    /// accounting).
    pub fn adapter_params(&self) -> &ParamStore {
        &self.adapter_params
    }

    /// Bytes of adapter parameters plus optimizer state — the per-client
    /// persistent footprint `A + O`.
    pub fn persistent_bytes(&self) -> u64 {
        self.adapter_params.size_bytes() + self.optimizer.state_bytes()
    }

    /// Whether a gradient-ready graph is currently cached.
    pub fn has_cached_graph(&self) -> bool {
        self.cached.is_some()
    }

    /// How many re-forward passes this session has executed (Menos'
    /// extra computation; paper Table 2).
    pub fn reforward_count(&self) -> u64 {
        self.reforward_count
    }

    /// Completed optimization steps.
    pub fn steps_completed(&self) -> u64 {
        self.steps
    }

    /// The underlying model structure.
    pub fn model(&self) -> &CausalLm {
        &self.model
    }

    /// The session's negotiated tensor codec (shared ref: decode).
    pub fn codec(&self) -> &TensorCodec {
        &self.codec
    }

    /// The session's negotiated tensor codec (mutable: encode, which
    /// advances error-feedback residuals).
    pub fn codec_mut(&mut self) -> &mut TensorCodec {
        &mut self.codec
    }

    /// Installs the codec negotiated at Connect time, dropping any
    /// residuals if the scheme changed.
    pub fn set_codec(&mut self, codec: menos_net::Codec) {
        self.codec.set_codec(codec);
    }

    /// Gradient-ready forward (Fig. 3a/b): caches the graph so backward
    /// can run without recomputation.
    pub fn forward_cached(&mut self, x_c: &Tensor) -> Tensor {
        let x_c_leaf =
            Tensor::from_shared_storage(x_c.storage().clone(), x_c.shape().clone(), true);
        let x_s = self.model.blocks_forward(&x_c_leaf, self.range.clone());
        let out = x_s.detach();
        self.cached = Some(CachedForward { x_c_leaf, x_s });
        self.pending_input = None;
        out
    }

    /// No-grad forward (Fig. 3d): produces `x_s` without caching
    /// anything for backward; only the raw `x_c` is kept for the
    /// re-forward.
    pub fn forward_nograd(&mut self, x_c: &Tensor) -> Tensor {
        let out = no_grad(|| self.model.blocks_forward(&x_c.detach(), self.range.clone()));
        self.pending_input = Some(x_c.detach());
        self.cached = None;
        out
    }

    /// Backward from the client's gradients `g_c`, returning `g_s` and
    /// applying the server-side adapter optimizer (Alg. 1 lines 10-13).
    ///
    /// Re-forwards first if the preceding forward ran no-grad.
    ///
    /// # Panics
    ///
    /// Panics if no forward preceded this call.
    pub fn backward(&mut self, g_c: &Tensor) -> Tensor {
        let cached = match self.cached.take() {
            Some(c) => c,
            None => {
                let x_c = self
                    .pending_input
                    .take()
                    .expect("backward without a preceding forward");
                self.reforward_count += 1;
                let x_c_leaf =
                    Tensor::from_shared_storage(x_c.storage().clone(), x_c.shape().clone(), true);
                let x_s = self.model.blocks_forward(&x_c_leaf, self.range.clone());
                CachedForward { x_c_leaf, x_s }
            }
        };
        let mut grads = cached.x_s.backward_with_grad(g_c);
        let g_s = grads
            .remove(&cached.x_c_leaf)
            .expect("gradient for client activations");
        self.optimizer.step(&grads);
        self.steps += 1;
        g_s
    }

    /// Dimensions of the client activations whose backward is still
    /// owed — held raw for the re-forward or inside the cached graph —
    /// or `None` when no forward is pending.
    pub fn forward_dims(&self) -> Option<&[usize]> {
        let cached = self.cached.as_ref().map(|c| &c.x_c_leaf);
        cached.or(self.pending_input.as_ref()).map(Tensor::dims)
    }

    /// Drops any cached state (used when a task is released between
    /// protocol steps).
    pub fn release(&mut self) {
        self.cached = None;
    }
}

impl std::fmt::Debug for ServerSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerSession")
            .field("client", &self.client)
            .field("range", &self.range)
            .field("steps", &self.steps)
            .field("reforwards", &self.reforward_count)
            .field("cached", &self.cached.is_some())
            .finish()
    }
}
