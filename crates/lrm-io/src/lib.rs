//! Storage substrate: artifact container, parallel-I/O timing model, and
//! an asynchronous staging pipeline.
//!
//! Together these reproduce the infrastructure behind Table IV of the
//! paper:
//!
//! * [`artifact::Artifact`] — the on-disk format for a preconditioned
//!   snapshot (reduced representation + compressed delta + metadata).
//! * [`chunked::ChunkedArtifact`] — the multi-chunk container the
//!   chunk-parallel engine writes: a versioned header with a per-chunk
//!   directory over independent single-chunk artifact payloads.
//! * [`storage::StorageModel`] / [`storage::InterconnectModel`] — the
//!   parametric timing model for Titan-style Lustre N-to-N writes and the
//!   staging interconnect (substitution documented in DESIGN.md).
//! * [`staging::StagingPipeline`] — a real producer/consumer staging
//!   implementation over bounded channels, demonstrating that a slow
//!   preconditioner costs the application almost nothing once staging
//!   absorbs it.

// Container parsers consume untrusted bytes and must surface failures
// as `DecodeError`, never abort. Promoted per the decode-path contract
// in DESIGN.md; test code may still panic freely.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod artifact;
pub mod chunked;
pub mod staging;
pub mod storage;

pub use artifact::Artifact;
pub use chunked::{ChunkEntry, ChunkedArtifact, FORMAT_VERSION};
pub use lrm_compress::{DecodeError, DecodeResult};
pub use staging::{StagedResult, StagingPipeline};
pub use storage::{table4_rows, EndToEndRow, InterconnectModel, StorageModel};
