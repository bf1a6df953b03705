//! # menos-data — corpora, tokenization, batching, and metrics
//!
//! Stand-ins for the paper's datasets (wikitext-2-raw-v1 and
//! Tiny-Shakespeare) plus the batching and metric utilities used by the
//! convergence experiments (Figs. 8–9).
//!
//! Real datasets are not redistributable inside this repository, so
//! [`wiki_corpus`] generates a deterministic closed-vocabulary
//! wiki-style corpus and [`shakespeare_corpus`] repeats a public-domain
//! passage — both give a stationary, learnable next-token distribution,
//! which is all the convergence experiments require (see DESIGN.md §2).
//!
//! # Examples
//!
//! ```
//! use menos_data::{wiki_corpus, TokenDataset, Vocab};
//!
//! let text = wiki_corpus(42, 2_000);
//! let vocab = Vocab::from_text(&text);
//! let ds = TokenDataset::new(vocab.encode(&text), 16, 42);
//! let batch = ds.batch(0, 4);
//! assert_eq!(batch.dims(), [4, 16]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod corpus;
mod dataset;
mod metrics;
mod vocab;

pub use corpus::{shakespeare_corpus, wiki_corpus};
pub use dataset::{Batch, TokenDataset};
pub use metrics::{perplexity, LossCurve};
pub use vocab::Vocab;
