//! # lrm — Latent Reduced Models to Precondition Lossy Compression
//!
//! Umbrella crate re-exporting the full workspace. This reproduces the
//! system described in *"Identifying Latent Reduced Models to Precondition
//! Lossy Compression"* (IPDPS 2019): scientific floating-point data are
//! preconditioned by a reduced model (projection-based or PCA/SVD/Wavelet),
//! and the reduced representation plus a highly compressible delta are
//! stored instead of the raw field.
//!
//! See [`lrm_core`] for the preconditioning pipeline, [`lrm_compress`] for
//! the SZ-like / ZFP-like / FPC codecs, and [`lrm_datasets`] for the nine
//! scientific dataset generators used in the paper's evaluation.

pub use lrm_compress as compress;
pub use lrm_core as core;
pub use lrm_datasets as datasets;
pub use lrm_io as io;
pub use lrm_linalg as linalg;
pub use lrm_parallel as parallel;
pub use lrm_server as server;
pub use lrm_stats as stats;
pub use lrm_wavelet as wavelet;

/// Convenience prelude: the types most programs need.
pub mod prelude {
    pub use lrm_compress::{Codec, CompressorKind, Fpc, Sz, Zfp};
    pub use lrm_core::{
        LossyCodec, Pipeline, PipelineBuilder, PipelineConfig, PreconditionedArtifact,
        ReducedModelKind,
    };
    pub use lrm_datasets::{Dataset, DatasetKind, Field};
    pub use lrm_stats::DataCharacteristics;
}
