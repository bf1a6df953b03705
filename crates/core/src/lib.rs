//! # menos-core — the Menos framework
//!
//! The paper's primary contribution: memory-efficient split fine-tuning
//! through **spatial** sharing (one copy of the frozen base model across
//! all clients) and **temporal** sharing (on-demand allocation of
//! intermediate memory scheduled into the communication gaps of split
//! learning).
//!
//! * [`SharedBaseRegistry`] — §3.1's base-model sharing: per-client
//!   model structures aliasing one parameter copy.
//! * [`MemoryPolicy`] — §3.2's Fig. 3 ladder of on-demand allocation
//!   policies, with [`MemoryPolicy::menos`] the shipped one.
//! * [`profile_client`] — §3.3's per-client memory profiling, done
//!   analytically.
//! * [`Scheduler`] — §4's Algorithm 2: event-driven FCFS + backfilling
//!   over GPU memory at operation granularity.
//! * [`run_experiment`] — the timed multi-client runtime (discrete-event
//!   simulation) reproducing the paper's Figs. 6–7, 10 and Tables 1–3,
//!   in both Menos and vanilla-swapping server modes.
//! * [`MenosServer`] — the real-engine serving façade: Algorithm 1's
//!   message dispatch with admission control and per-client error
//!   isolation.
//! * [`plan_capacity`] — analytic admission capacity under Eq. (3),
//!   including quantized base precisions.
//!
//! # Examples
//!
//! Reproduce the headline comparison — Llama-2-7B, 4 clients, one V100:
//!
//! ```
//! use menos_core::{run_experiment, ServerMode, ServerSpec, WorkloadSpec};
//! use menos_models::ModelConfig;
//!
//! let workload = WorkloadSpec::paper(ModelConfig::llama2_7b(), 4, 3);
//! let menos = run_experiment(&ServerSpec::v100(ServerMode::menos()), &workload, 42);
//! let vanilla = run_experiment(
//!     &ServerSpec::v100(ServerMode::VanillaSwapping), &workload, 42);
//! // Menos serves 4 clients at seconds per round; vanilla swaps the
//! // 24 GB base model through PCIe and takes minutes.
//! assert!(menos.avg_round_s < 10.0);
//! assert!(vanilla.avg_round_s > 5.0 * menos.avg_round_s);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod capacity;
mod policy;
mod profiler;
mod runtime;
#[cfg(test)]
mod runtime_hetero_tests;
mod scheduler;
mod server;
mod sharing;
mod state;
mod workload;

pub use capacity::{plan_capacity, CapacityPlan};
pub use policy::MemoryPolicy;
pub use profiler::{profile_client, MemoryDemands};
pub use runtime::{jain_fairness, run_experiment, run_experiment_traced, RunReport};
pub use scheduler::{Decision, OpKind, Request, Scheduler};
pub use server::MenosServer;
pub use state::{decode_session_record, encode_session_record, ServerState, SessionRecord};
// The serving façade reports errors through the unified protocol
// taxonomy; re-exported so embedders don't need menos-split in scope.
pub use menos_split::ProtocolError;
pub use sharing::SharedBaseRegistry;
pub use workload::{ClientDevice, LinkSpec, ServerMode, ServerSpec, WorkloadSpec};
