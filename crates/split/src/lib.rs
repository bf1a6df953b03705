//! # menos-split — the split fine-tuning protocol
//!
//! The paper's four-step protocol (Fig. 1) over real tensors:
//!
//! 1. client input section produces activations `x_c` → server;
//! 2. server body produces `x_s` → client;
//! 3. client output section computes the loss, back-propagates, and
//!    sends `g_c` (gradients at the cut) → server;
//! 4. server back-propagates to `g_s` → client; both sides step their
//!    adapter optimizers.
//!
//! [`SplitClient`] and [`ServerSession`] implement the two parties.
//! [`drive_client`] is the one client loop, over any [`Transport`], and
//! [`ServerEventLoop`] the one server pump, over any [`EventListener`];
//! [`run_split_steps`] runs the same step against a co-located session
//! (every tensor still round-trips through the wire codec), and
//! [`local_finetune`] is the non-split baseline. They anchor the
//! reproduction's correctness claims: split ≡ local, and Menos'
//! re-forward path ≡ the cached path (see `driver` tests).
//!
//! # Examples
//!
//! ```
//! use menos_adapters::FineTuneConfig;
//! use menos_data::{wiki_corpus, TokenDataset, Vocab};
//! use menos_models::{init_params, CausalLm, ModelConfig};
//! use menos_split::{run_split_steps, ClientId, ForwardMode, ServerSession, SplitClient, SplitSpec};
//!
//! let cfg = ModelConfig::tiny_opt(33);
//! let mut rng = menos_sim::seeded_rng(0, "doc");
//! let base = init_params(&cfg, &mut rng);
//!
//! let text = wiki_corpus(1, 2000);
//! let vocab = Vocab::from_text(&text);
//! let ds = TokenDataset::new(vocab.encode(&text), 16, 1);
//! let mut ft = FineTuneConfig::paper(&cfg);
//! ft.batch_size = 2;
//! ft.seq_len = 16;
//!
//! let split = SplitSpec::paper();
//! let mut client = SplitClient::new(
//!     ClientId(0), CausalLm::bind(&cfg, &base.shared_view(false)),
//!     split, ft.clone(), ds, 0,
//! );
//! let mut session = ServerSession::new(
//!     ClientId(0), CausalLm::bind(&cfg, &base.shared_view(false)),
//!     split, &ft, 0,
//! );
//! let curve = run_split_steps(&mut client, &mut session, ForwardMode::NoGradReforward, 3);
//! assert_eq!(curve.points().len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
mod client;
mod codec;
mod driver;
mod event_loop;
mod message;
mod protocol;
mod retry;
mod server;
mod spec;
mod tcp;
#[cfg(test)]
mod testkit;

pub use chaos::{ChaosConn, ChaosListener, ChaosOptions, Fault};
pub use client::SplitClient;
pub use codec::{
    client_message_parts, decode_client_message_parts, decode_server_message_parts,
    server_message_parts, MessageKind,
};
pub use driver::{
    evaluate_loss, local_finetune, local_finetune_returning_model, run_split_steps, ForwardMode,
};
pub use event_loop::{
    event_channel_listener, BatchHandler, ChannelDialer, EventConn, EventListener,
    EventLoopOptions, EventLoopStats, QueueListener, ServerEventLoop, SnapshotPolicy,
};
pub use message::{
    activation_wire_bytes, activation_wire_bytes_with, ClientId, ClientMessage, EvictionCode,
    ServerMessage,
};
pub use protocol::{
    dispatch_session, ChannelTransport, MessageHandler, ProtocolError, Transport, WireMessage,
};
pub use retry::{already_connected, drive_client, RetryPolicy};
pub use server::ServerSession;
pub use spec::SplitSpec;
pub use tcp::{
    run_tcp_client, TcpEventConn, TcpEventListener, TcpEventServer, TcpOptions, TcpTransport,
};
