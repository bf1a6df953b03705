//! The split fine-tuning client: input section `f_i`, output section
//! `f_o`, local data, and local adapter optimization.

use bytes::Bytes;

use menos_adapters::{build_optimizer, inject_adapters, Adam, FineTuneConfig};
use menos_data::{Batch, LossCurve, TokenDataset};
use menos_models::{causal_lm_loss, CausalLm};
use menos_net::{TensorCodec, WireError, ROLE_ACTIVATIONS, ROLE_GRADIENTS};
use menos_sim::seeded_rng;
use menos_tensor::{GradStore, Tensor};

use crate::message::ClientId;
use crate::spec::SplitSpec;

struct PendingStep {
    x_c: Tensor,
    targets: Vec<usize>,
    head_grads: Option<GradStore>,
}

/// A split-learning client executing the real engine.
///
/// The client owns a model *structure* but only ever evaluates its own
/// sections: the embedding plus the first `front_layers` blocks
/// (producing `x_c`), and the final norm + LM head (consuming `x_s`).
/// Client-side adapters (in the front blocks) are trained locally with
/// the client's own optimizer; the server trains its own adapters —
/// neither party sees the other's gradients beyond the cut tensors.
///
/// One fine-tuning iteration follows the paper's four steps:
///
/// 1. [`SplitClient::start_step`] → send `x_c`;
/// 2. receive `x_s` → [`SplitClient::receive_server_activations`] →
///    send `g_c`;
/// 3. receive `g_s` → [`SplitClient::receive_server_gradients`] →
///    local optimizer step.
pub struct SplitClient {
    id: ClientId,
    model: CausalLm,
    split: SplitSpec,
    ft: FineTuneConfig,
    dataset: TokenDataset,
    optimizer: Adam,
    adapter_params: menos_tensor::ParamStore,
    step: usize,
    epoch: u64,
    pending: Option<PendingStep>,
    curve: LossCurve,
    advertised_codecs: u64,
    codec: TensorCodec,
}

impl SplitClient {
    /// Builds a client over an already-bound model structure.
    ///
    /// Adapters are injected into the client's front blocks using a
    /// deterministic stream derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the split or fine-tune configuration is invalid for
    /// the model.
    pub fn new(
        id: ClientId,
        mut model: CausalLm,
        split: SplitSpec,
        ft: FineTuneConfig,
        dataset: TokenDataset,
        seed: u64,
    ) -> Self {
        split.validate(&model.config).expect("invalid split spec");
        let mut rng = seeded_rng(seed, "client-adapters");
        let params = inject_adapters(&mut model, split.client_range(), &ft, &mut rng);
        let optimizer = build_optimizer(&ft, params.tensors().cloned().collect());
        SplitClient {
            id,
            model,
            split,
            ft,
            dataset,
            optimizer,
            adapter_params: params,
            step: 0,
            epoch: 1,
            pending: None,
            curve: LossCurve::new(),
            advertised_codecs: 0,
            codec: TensorCodec::default(),
        }
    }

    /// Feature-flag bitmask of tensor codecs this client advertises in
    /// `Connect` (PROTOCOL.md §7). Zero — the default — keeps the
    /// handshake byte-identical to v1.1 and negotiates the raw f32
    /// baseline.
    pub fn advertised_codecs(&self) -> u64 {
        self.advertised_codecs
    }

    /// Sets the codec bitmask advertised on the next `Connect`. Pass
    /// `codec.flag()` for a single codec, or a union of flags to let
    /// the server pick (it chooses the highest-tag codec it supports).
    pub fn set_advertised_codecs(&mut self, mask: u64) {
        self.advertised_codecs = mask;
    }

    /// The tensor codec negotiated with the server (raw until a `Ready`
    /// carrying a codec echo is adopted).
    pub fn codec(&self) -> menos_net::Codec {
        self.codec.codec()
    }

    /// Adopts the codec echoed by the server's `Ready`, resetting any
    /// error-feedback residuals if the codec changed.
    pub fn adopt_codec(&mut self, codec: menos_net::Codec) {
        self.codec.set_codec(codec);
    }

    /// Encodes an outgoing client activation tensor (`x_c`) under the
    /// negotiated codec, updating error-feedback residuals for lossy
    /// codecs.
    pub fn encode_activations(&mut self, t: &Tensor) -> Bytes {
        self.codec.encode(ROLE_ACTIVATIONS, t)
    }

    /// Encodes an outgoing client gradient tensor (`g_c`) under the
    /// negotiated codec, updating error-feedback residuals for lossy
    /// codecs.
    pub fn encode_gradients(&mut self, t: &Tensor) -> Bytes {
        self.codec.encode(ROLE_GRADIENTS, t)
    }

    /// Decodes a received tensor frame, accepting raw bodies always and
    /// compressed bodies only under the negotiated codec.
    ///
    /// # Errors
    ///
    /// [`WireError`] if the body is malformed or compressed with a
    /// codec that was not negotiated.
    pub fn decode_frame(&self, frame: &Bytes) -> Result<Tensor, WireError> {
        self.codec.decode(frame)
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Completed optimization steps.
    pub fn steps_completed(&self) -> usize {
        self.step
    }

    /// The session epoch this client is at: 1 for a fresh session,
    /// bumped by the server on every successful resume.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Adopts the epoch returned by a successful resume.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// The client-side adapter parameters (the state a resume must
    /// preserve bit-for-bit).
    pub fn adapter_params(&self) -> &menos_tensor::ParamStore {
        &self.adapter_params
    }

    /// True when a step is in flight and the loss has already been
    /// recorded — the client owes the server gradients, or is owed the
    /// server's gradient reply.
    pub fn awaiting_gradients(&self) -> bool {
        self.pending
            .as_ref()
            .is_some_and(|p| p.head_grads.is_some())
    }

    /// Abandons the in-flight step (if any) so it can be redone
    /// deterministically after a reconnect, rolling back the
    /// provisionally recorded loss point. Returns true if a step was
    /// abandoned.
    ///
    /// Safe at any protocol position: the optimizer only steps in
    /// [`SplitClient::receive_server_gradients`], which also completes
    /// the step — so an in-flight step has never touched persistent
    /// state except the curve point pushed by
    /// [`SplitClient::receive_server_activations`].
    pub fn abort_step(&mut self) -> bool {
        match self.pending.take() {
            Some(p) => {
                if p.head_grads.is_some() {
                    self.curve.pop();
                }
                true
            }
            None => false,
        }
    }

    /// The loss curve recorded so far.
    pub fn curve(&self) -> &LossCurve {
        &self.curve
    }

    /// The fine-tuning configuration this client reports on connect.
    pub fn ft_config(&self) -> &FineTuneConfig {
        &self.ft
    }

    /// The split this client requests.
    pub fn split(&self) -> SplitSpec {
        self.split
    }

    /// Step 1: runs the input section on the next batch and returns
    /// `x_c` (detached — gradients stop at the wire, as in real split
    /// learning).
    ///
    /// # Panics
    ///
    /// Panics if a step is already in flight.
    pub fn start_step(&mut self) -> Tensor {
        assert!(
            self.pending.is_none(),
            "{} started a step with one already in flight",
            self.id
        );
        let batch: Batch = self.dataset.batch(self.step, self.ft.batch_size);
        let x = self
            .model
            .embed_forward(&batch.inputs, batch.batch_size, batch.seq_len);
        let x_c = self.model.blocks_forward(&x, self.split.client_range());
        self.pending = Some(PendingStep {
            x_c: x_c.clone(),
            targets: batch.targets,
            head_grads: None,
        });
        x_c.detach()
    }

    /// Step 3 (client side): consumes the server activations `x_s`,
    /// computes the loss through the output section, and returns
    /// `(loss, g_c)` where `g_c` is the gradient w.r.t. `x_s` to send
    /// back.
    ///
    /// # Panics
    ///
    /// Panics if no step is in flight.
    pub fn receive_server_activations(&mut self, x_s: &Tensor) -> (f32, Tensor) {
        let pending = self.pending.as_mut().expect("no step in flight");
        // Treat the received activations as a trainable leaf so the
        // backward pass yields the gradient to ship to the server.
        let x_s_leaf =
            Tensor::from_shared_storage(x_s.storage().clone(), x_s.shape().clone(), true);
        let logits = self.model.head_forward(&x_s_leaf);
        let loss = causal_lm_loss(&logits, &pending.targets);
        let loss_value = loss.to_scalar();
        let mut grads = loss.backward();
        let g_c = grads
            .remove(&x_s_leaf)
            .expect("gradient for server activations");
        pending.head_grads = Some(grads);
        self.curve.push(self.step, loss_value);
        (loss_value, g_c)
    }

    /// Final step: consumes the server gradients `g_s`, finishes
    /// back-propagation through the input section, and applies the
    /// local optimizer.
    ///
    /// # Panics
    ///
    /// Panics if the protocol order was violated.
    pub fn receive_server_gradients(&mut self, g_s: &Tensor) {
        let pending = self.pending.take().expect("no step in flight");
        let mut grads = pending.x_c.backward_with_grad(g_s);
        grads.merge(pending.head_grads.expect("head grads recorded"));
        self.optimizer.step(&grads);
        self.step += 1;
    }
}

impl std::fmt::Debug for SplitClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SplitClient")
            .field("id", &self.id)
            .field("split", &self.split)
            .field("steps", &self.step)
            .field("in_flight", &self.pending.is_some())
            .finish()
    }
}
