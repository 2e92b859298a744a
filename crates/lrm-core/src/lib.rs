//! Latent reduced models to precondition lossy compression.
//!
//! This crate is the paper's primary contribution: before compressing a
//! scientific field, identify a **reduced model** — a small latent
//! representation whose reconstruction tracks the data — and store the
//! representation plus the (smoother, hence far more compressible)
//! **delta** instead of the raw field.
//!
//! Two families of reduced models are provided:
//!
//! * [`projection`] — *one-base* (global mid-plane), *multi-base*
//!   (per-block mid-planes), and *DuoModel* (coarse companion run),
//!   reproducing Section IV;
//! * [`dimred`] — PCA, SVD, and thresholded Haar wavelet, reproducing
//!   Section V.
//!
//! [`pipeline`] wires either family into the Fig. 5 workflow
//! (precondition → dual-bound compress → self-describing artifact →
//! reconstruct); [`engine`] is the public entry point — a builder-style
//! [`Pipeline`] that decomposes large fields into z-slab chunks and
//! runs the workflow chunk-parallel on a work-stealing pool.
//! [`selection`] adds the paper's future-work model selector and
//! [`parallel_one_base`] runs Algorithm 1 over the rank simulator of
//! `lrm-parallel`.

// Index-symmetric loops read more clearly than iterator chains in
// numerical kernels; silence the pedantic lint crate-wide.
#![allow(clippy::needless_range_loop)]

pub mod codec;
pub mod dimred;
pub mod engine;
pub mod parallel_one_base;
pub mod partitioned;
pub mod pipeline;
pub mod projection;
pub mod selection;
pub mod temporal;
pub(crate) mod wire_meta;

pub use codec::{fpc_paper, fpc_paper_codec, sz_paper_bounds, zfp_paper_bounds, LossyCodec};
pub use engine::{ChunkReport, ChunkedCompression, Pipeline, PipelineBuilder};
pub use lrm_compress::{DecodeError, DecodeResult};
pub use partitioned::{partitioned_precondition, partitioned_reconstruct, PartitionedMethod};
pub use pipeline::{CompressionReport, PipelineConfig, PreconditionedArtifact, ReducedModelKind};
pub use selection::{
    default_candidates, select_best_model, select_best_model_with, CandidateResult,
    SelectionOptions, SelectionOutcome,
};
pub use temporal::{compress_series, reconstruct_series, TemporalSeries};
