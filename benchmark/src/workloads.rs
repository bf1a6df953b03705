//! The five workloads and the inputs each derives from `--seed`.
//!
//! Both processes of a run build their inputs through [`Inputs`], so
//! the seed is the only source of randomness and the only thing the
//! two have to agree on.

use std::path::Path;

use menos_adapters::FineTuneConfig;
use menos_core::{MenosServer, ServerMode, ServerSpec};
use menos_data::{wiki_corpus, TokenDataset, Vocab};
use menos_models::{init_params, CausalLm, ModelConfig};
use menos_net::Codec;
use menos_sim::seeded_rng;
use menos_split::{ClientId, ForwardMode, ServerSession, SplitClient, SplitSpec};
use menos_tensor::ParamStore;

/// Characters of synthetic corpus every workload trains on.
const CORPUS_CHARS: usize = 12_000;

/// One benchmark workload: a session count, a model geometry and the
/// server features it turns on.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists — which layers it stresses and which it
    /// bypasses. Mirrored in `BENCHMARK.json` and the README.
    pub why: &'static str,
    pub sessions: usize,
    pub hidden: usize,
    pub layers: usize,
    pub batch: usize,
    pub seq: usize,
    pub mode: ForwardMode,
    pub codec: Codec,
    /// Durable snapshots (`SnapshotPolicy::durable`) on or off.
    pub snapshots: bool,
}

/// Every workload, in the order the suite runs them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "solo_tiny",
        why: "One tenant, tiny tensors: per-op overhead, framing and the event loop's idle ladder \
              are a visible share; stacking, chunking and snapshots do nothing.",
        sessions: 1,
        hidden: 64,
        layers: 4,
        batch: 2,
        seq: 16,
        mode: ForwardMode::NoGradReforward,
        codec: Codec::F32Raw,
        snapshots: false,
    },
    Workload {
        name: "solo_tiny_cached",
        why: "Same as solo_tiny with ForwardMode::Cached (Fig. 3a vs 3d): no re-forward, graph \
              held across the wait. The ratio is the paper's time-for-memory trade.",
        sessions: 1,
        hidden: 64,
        layers: 4,
        batch: 2,
        seq: 16,
        mode: ForwardMode::Cached,
        codec: Codec::F32Raw,
        snapshots: false,
    },
    Workload {
        name: "multi32_tiny",
        why: "32 tenants on one server thread: handle_batch grouping, stacked adapters, the \
              32-member cap, Alg. 2 chunking and the buffer pool do most of the work.",
        sessions: 32,
        hidden: 64,
        layers: 4,
        batch: 2,
        seq: 16,
        mode: ForwardMode::NoGradReforward,
        codec: Codec::F32Raw,
        snapshots: false,
    },
    Workload {
        name: "solo_wide",
        why: "Kernel-bound: a 128-wide, 6-layer model makes matmul and autograd nearly all of \
              the step, so transport, loop and codec changes must not show here.",
        sessions: 1,
        hidden: 128,
        layers: 6,
        batch: 2,
        seq: 32,
        mode: ForwardMode::NoGradReforward,
        codec: Codec::F32Raw,
        snapshots: false,
    },
    Workload {
        name: "multi8_durable_topk8",
        why: "8 tenants with a durable snapshot after every dispatch and the topk8 error-feedback \
              codec: the only workload where state serialisation and compression do real work.",
        sessions: 8,
        hidden: 64,
        layers: 4,
        batch: 2,
        seq: 16,
        mode: ForwardMode::NoGradReforward,
        codec: Codec::TopK8,
        snapshots: true,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Bytes the four tensor messages of one step put on the wire:
    /// frame header plus post-codec body, each way, twice.
    pub fn wire_bytes_per_step(&self) -> u64 {
        4 * (menos_net::FRAME_HEADER_BYTES
            + menos_net::wire_size_with(self.codec, &[self.batch, self.seq, self.hidden]))
    }

    fn model_config(&self, vocab_size: usize) -> ModelConfig {
        let mut config = ModelConfig::tiny_opt(vocab_size);
        config.hidden = self.hidden;
        config.layers = self.layers;
        config.intermediate = 4 * self.hidden;
        config
    }
}

/// Everything a process derives from `(workload, seed)`.
pub struct Inputs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub config: ModelConfig,
    pub ft: FineTuneConfig,
    tokens: Vec<usize>,
    base: ParamStore,
}

impl Inputs {
    pub fn from_seed(workload: &'static Workload, seed: u64) -> Inputs {
        let text = wiki_corpus(seed, CORPUS_CHARS);
        let vocab = Vocab::from_text(&text);
        let config = workload.model_config(vocab.size());
        let mut ft = FineTuneConfig::paper(&config);
        ft.batch_size = workload.batch;
        ft.seq_len = workload.seq;
        let base = init_params(&config, &mut seeded_rng(seed, "base-model"));
        Inputs {
            workload,
            seed,
            config,
            ft,
            tokens: vocab.encode(&text),
            base,
        }
    }

    pub fn model(&self) -> CausalLm {
        CausalLm::bind(&self.config, &self.base.shared_view(false))
    }

    /// Session `k`'s client: its own data order and adapter seed.
    pub fn client(&self, k: usize) -> SplitClient {
        let id = k as u64;
        let dataset = TokenDataset::new(self.tokens.clone(), self.workload.seq, self.seed + id);
        let mut client = SplitClient::new(
            ClientId(id),
            self.model(),
            SplitSpec::paper(),
            self.ft.clone(),
            dataset,
            self.seed + id,
        );
        if self.workload.codec != Codec::F32Raw {
            client.set_advertised_codecs(self.workload.codec.flag());
        }
        client
    }

    /// The server-side session `MenosServer` builds for client `k` at
    /// `Connect`, rebuilt here for the in-process reference.
    pub fn reference_session(&self, k: usize) -> ServerSession {
        let id = k as u64;
        let mut session = ServerSession::new(
            ClientId(id),
            self.model(),
            SplitSpec::paper(),
            &self.ft,
            self.seed.wrapping_add(id),
        );
        session.set_codec(self.workload.codec);
        session
    }

    /// The server under test, over this process's copy of the base.
    pub fn server(&self) -> MenosServer {
        let mut server = MenosServer::from_store(
            self.config.clone(),
            self.base.shared_view(false),
            ServerSpec::v100(ServerMode::menos()),
            self.seed,
        );
        server.set_forward_mode(self.workload.mode);
        server
    }
}

/// FNV-1a over a store's names, shapes and value bits, in name order:
/// equal exactly when the two stores are bit-identical.
pub fn hash_params(store: &ParamStore) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (name, tensor) in store.iter() {
        eat(name.as_bytes());
        for &d in tensor.dims() {
            eat(&(d as u64).to_le_bytes());
        }
        for v in tensor.to_vec() {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    h
}

/// Peak resident set of this process, from `/proc/self/status`, in MB.
pub fn vm_hwm_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The benchmark's output directory, `benchmark/out/` of the checkout
/// this binary was built in.
pub fn out_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use menos_net::{wire_size, FRAME_HEADER_BYTES};
    use menos_split::{ClientMessage, ServerMessage};

    #[test]
    fn names_are_unique() {
        for (i, a) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[i + 1..].iter().all(|b| a.name != b.name));
            assert_eq!(Workload::by_name(a.name).unwrap().name, a.name);
        }
    }

    #[test]
    fn raw_wire_bytes_are_four_framed_f32_tensors() {
        let w = Workload::by_name("solo_tiny").unwrap();
        assert_eq!(
            w.wire_bytes_per_step(),
            4 * (FRAME_HEADER_BYTES + wire_size(&[2, 16, 64]))
        );
        // The three raw workloads of tiny geometry move the same bytes.
        for name in ["solo_tiny_cached", "multi32_tiny"] {
            assert_eq!(
                Workload::by_name(name).unwrap().wire_bytes_per_step(),
                w.wire_bytes_per_step()
            );
        }
    }

    #[test]
    fn topk8_wire_bytes_are_under_a_third_of_raw() {
        let raw = Workload::by_name("solo_tiny")
            .unwrap()
            .wire_bytes_per_step();
        let w = Workload::by_name("multi8_durable_topk8").unwrap();
        assert_eq!(
            w.wire_bytes_per_step(),
            4 * (FRAME_HEADER_BYTES + menos_net::wire_size_with(Codec::TopK8, &[2, 16, 64]))
        );
        assert!(3 * w.wire_bytes_per_step() < raw);
    }

    /// The analytic count is what the messages of a real step weigh:
    /// one in-process step, summing `wire_bytes()` as the generator does.
    #[test]
    fn analytic_wire_bytes_equal_the_messages_of_a_real_step() {
        for name in ["solo_tiny", "multi8_durable_topk8"] {
            let w = Workload::by_name(name).unwrap();
            let inputs = Inputs::from_seed(w, 5);
            let mut client = inputs.client(0);
            client.adopt_codec(w.codec);
            let mut session = inputs.reference_session(0);
            let id = client.id();

            let x_c = client.start_step();
            let up1 = ClientMessage::Activations {
                client: id,
                frame: client.encode_activations(&x_c),
            };
            let down1 = menos_split::dispatch_session(&mut session, w.mode, &up1).unwrap();
            let ServerMessage::ServerActivations { frame, .. } = &down1 else {
                panic!("expected ServerActivations");
            };
            let x_s = client.decode_frame(frame).unwrap();
            let (_, g_c) = client.receive_server_activations(&x_s);
            let up2 = ClientMessage::Gradients {
                client: id,
                frame: client.encode_gradients(&g_c),
            };
            let down2 = menos_split::dispatch_session(&mut session, w.mode, &up2).unwrap();
            let total =
                up1.wire_bytes() + down1.wire_bytes() + up2.wire_bytes() + down2.wire_bytes();
            assert_eq!(total, w.wire_bytes_per_step(), "{name}");
        }
    }

    #[test]
    fn param_hash_tells_one_bit_apart() {
        let w = Workload::by_name("solo_tiny").unwrap();
        let inputs = Inputs::from_seed(w, 1);
        let a = inputs.reference_session(0);
        let b = inputs.reference_session(0);
        assert_eq!(
            hash_params(a.adapter_params()),
            hash_params(b.adapter_params())
        );
        let c = inputs.reference_session(1);
        assert_ne!(
            hash_params(a.adapter_params()),
            hash_params(c.adapter_params())
        );
    }
}
