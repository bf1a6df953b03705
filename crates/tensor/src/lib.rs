//! # menos-tensor — a pure-Rust f32 tensor library with reverse-mode autograd
//!
//! This crate replaces PyTorch in the Menos reproduction. It provides
//! exactly the operations a decoder-only transformer with LoRA adapters
//! needs, with a design tuned to the paper's requirements:
//!
//! * **Storage / structure separation** ([`Storage`] vs [`Tensor`]):
//!   multiple tensors (and whole [`ParamStore`] views) may alias one
//!   buffer. This is the mechanism behind Menos' *base model sharing* —
//!   per-client model structures over a single copy of the frozen
//!   weights.
//! * **No-grad execution** ([`no_grad`]): the server's first forward
//!   pass under the Fig. 3(d) policy runs without caching anything for
//!   backward.
//! * **Seeded backward** ([`Tensor::backward_with_grad`]): split
//!   learning resumes back-propagation from gradients received over the
//!   network rather than from a local loss.
//! * **Single-threaded kernels with a pinned summation order**: every
//!   kernel runs on the calling thread, cache- and register-blocked,
//!   and every reduction folds fixed-size blocks in block order, so an
//!   output's bits depend only on its inputs and the build's target
//!   features. A server scales across sessions, not across the rows of
//!   one product. See `DESIGN.md` §4.6.
//!
//! Tensors are dense, contiguous, row-major `f32` arrays. Autograd is
//! reverse-mode over an op graph captured at execution time; backward
//! passes recompute forward statistics instead of caching them.
//!
//! # Examples
//!
//! A single LoRA-style training step:
//!
//! ```
//! use menos_tensor::Tensor;
//!
//! // Frozen base weight and trainable low-rank factors.
//! let w = Tensor::from_vec(vec![0.5, -0.2, 0.1, 0.3], [2, 2]);
//! let a = Tensor::var_from_vec(vec![0.1, 0.2], [2, 1]);
//! let b = Tensor::var_from_vec(vec![0.0, 0.0], [1, 2]);
//!
//! let x = Tensor::from_vec(vec![1.0, 2.0], [1, 2]);
//! let y = &x.matmul(&w) + &x.matmul(&a).matmul(&b);
//! let loss = (&y * &y).sum_all();
//! let grads = loss.backward();
//! assert!(grads.get(&a).is_some());
//! assert!(grads.get(&b).is_some());
//! assert!(grads.get(&w).is_none()); // frozen
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod autograd;
mod checkpoint;
pub mod lowp;
mod op;
mod ops;
mod param;
pub mod pool;
mod shape;
mod storage;
mod tensor;

pub use autograd::GradStore;
pub use checkpoint::{
    crc32, load_checkpoint, put_f32s, restore_into, save_checkpoint, ByteReadError, ByteReader,
    CheckpointError, Sealed, SectionReader, SectionWriter,
};
pub use param::ParamStore;
pub use shape::Shape;
pub use storage::Storage;
pub use tensor::{no_grad, Tensor};

/// Does nothing: the kernels are single-threaded and have no thread
/// count to set. It remains only because the benchmark harness under
/// `benchmark/` still calls `set_threads(1)`; it goes once those calls
/// are dropped.
#[doc(hidden)]
pub fn set_threads(_n: usize) {}
