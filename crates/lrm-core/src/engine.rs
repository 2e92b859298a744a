//! Chunk-parallel pipeline engine with a builder-style API.
//!
//! The single-shot pipeline of [`crate::pipeline`] preconditions a whole
//! field in one piece. At production scale (the paper runs Heat3d across
//! 512 Titan ranks) a snapshot is far too large for that: this engine
//! decomposes the field into **z-slabs** via `lrm_parallel::domain`, runs
//! the precondition + dual-bound compression independently per slab on a
//! work-stealing worker pool, and merges the per-slab outputs into one
//! multi-chunk [`ChunkedArtifact`] container. Reconstruction is
//! symmetric: chunks decode in parallel and scatter back into the global
//! array.
//!
//! # Error-bound semantics
//!
//! Chunking preserves the compression contract. Every value belongs to
//! exactly one slab and is compressed under the same configured bound it
//! would see in a single-chunk run, so per-slab bounds imply the global
//! bound (SZ's block-relative bound keys off scan blocks *within* a
//! slab, which only tightens it; absolute and fixed-precision bounds are
//! pointwise to begin with).
//!
//! # Determinism
//!
//! * The worker pool returns results in submission order, so the output
//!   bytes are **identical for any thread count**.
//! * `chunks(1)` (or a field below [`PipelineBuilder::min_chunk_len`],
//!   or a non-3-D field) takes the serial path and emits exactly the
//!   version-0 single-chunk artifact stream of [`crate::pipeline`].
//!
//! ```
//! use lrm_core::{LossyCodec, Pipeline, ReducedModelKind};
//!
//! let pipeline = Pipeline::builder()
//!     .model(ReducedModelKind::Pca)
//!     .codec(LossyCodec::SzRel(1e-5))
//!     .delta_codec(LossyCodec::SzRel(1e-3))
//!     .chunks(4)
//!     .threads(2)
//!     .build();
//! # let field = lrm_datasets::Field::new(
//! #     "demo",
//! #     (0..16 * 16 * 16).map(|i| (i as f64 * 0.01).sin()).collect(),
//! #     lrm_compress::Shape::d3(16, 16, 16),
//! # );
//! let artifact = pipeline.compress(&field);
//! let (restored, shape) = pipeline.reconstruct(&artifact.bytes).expect("valid artifact");
//! assert_eq!(shape, field.shape);
//! ```

use crate::codec::LossyCodec;
use crate::pipeline::{
    precondition_impl, reconstruct_impl, CompressionReport, PipelineConfig, PreconditionedArtifact,
    ReducedModelKind,
};
use lrm_compress::{DecodeError, DecodeResult, Shape};
use lrm_datasets::Field;
use lrm_io::{ChunkEntry, ChunkedArtifact};
use lrm_parallel::{Decomposition, WorkerPool};

/// Fields smaller than this (in values) always compress single-chunk:
/// slab overhead (per-chunk model fit + container directory) only pays
/// off once there is real work to split.
pub const DEFAULT_MIN_CHUNK_LEN: usize = 4096;

/// Builder for [`Pipeline`]. Obtain via [`Pipeline::builder`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineBuilder {
    cfg: PipelineConfig,
    threads: usize,
    chunks: usize,
    min_chunk_len: usize,
}

impl Default for PipelineBuilder {
    fn default() -> Self {
        Self::from_config(PipelineConfig::sz(ReducedModelKind::Direct))
    }
}

impl PipelineBuilder {
    /// Seeds the builder from an existing [`PipelineConfig`] (serial
    /// defaults: one chunk, one thread).
    pub fn from_config(cfg: PipelineConfig) -> Self {
        Self {
            cfg,
            threads: 1,
            chunks: 1,
            min_chunk_len: DEFAULT_MIN_CHUNK_LEN,
        }
    }

    /// The reduced model to identify (default: `Direct`).
    pub fn model(mut self, model: ReducedModelKind) -> Self {
        self.cfg.model = model;
        self
    }

    /// Codec/bound for original data and reduced representations.
    pub fn codec(mut self, codec: LossyCodec) -> Self {
        self.cfg.orig = codec;
        self
    }

    /// Codec/bound for deltas (looser, per the paper's Section V-B).
    pub fn delta_codec(mut self, codec: LossyCodec) -> Self {
        self.cfg.delta = codec;
        self
    }

    /// Cumulative-variance rule for PCA/SVD component selection
    /// (default 0.95, as in the paper).
    pub fn variance_fraction(mut self, f: f64) -> Self {
        self.cfg.variance_fraction = f;
        self
    }

    /// Wavelet threshold as a fraction of the max coefficient
    /// (default 0.05, as in the paper).
    pub fn theta_fraction(mut self, f: f64) -> Self {
        self.cfg.theta_fraction = f;
        self
    }

    /// Compress deltas in flat 1-D scan order (see
    /// [`PipelineConfig::scan_1d`]).
    pub fn scan_1d(mut self, on: bool) -> Self {
        self.cfg.scan_1d = on;
        self
    }

    /// Worker threads for chunk compression/reconstruction; `0` means
    /// one per available core (default: 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Number of z-slab chunks to decompose into (default: 1 = serial).
    /// Clamped at compress time to the field's z extent.
    pub fn chunks(mut self, chunks: usize) -> Self {
        self.chunks = chunks.max(1);
        self
    }

    /// Minimum field size (values) for chunking to engage; smaller
    /// fields compress single-chunk (default
    /// [`DEFAULT_MIN_CHUNK_LEN`]).
    pub fn min_chunk_len(mut self, len: usize) -> Self {
        self.min_chunk_len = len;
        self
    }

    /// Finalizes into a reusable [`Pipeline`] handle.
    pub fn build(self) -> Pipeline {
        Pipeline {
            cfg: self.cfg,
            threads: self.threads,
            chunks: self.chunks,
            min_chunk_len: self.min_chunk_len,
        }
    }
}

/// Per-chunk size accounting from a chunked compression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkReport {
    /// First global z-plane of the chunk.
    pub z_offset: usize,
    /// Chunk dims `[nx, ny, nz]`.
    pub dims: [usize; 3],
    /// The chunk's own size report.
    pub report: CompressionReport,
}

/// Result of [`Pipeline::compress_detailed`]: the container bytes, the
/// aggregate report, and the per-chunk breakdown.
#[derive(Debug, Clone)]
pub struct ChunkedCompression {
    /// Serialized artifact (version-0 stream when a single chunk was
    /// used, version-1 `ChunkedArtifact` container otherwise).
    pub bytes: Vec<u8>,
    /// Aggregate size accounting across chunks.
    pub report: CompressionReport,
    /// One entry per chunk, in z order (one entry for serial runs).
    pub chunks: Vec<ChunkReport>,
}

/// A reusable compression pipeline handle: model + dual-bound codecs +
/// chunk/thread policy. Build with [`Pipeline::builder`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pipeline {
    cfg: PipelineConfig,
    threads: usize,
    chunks: usize,
    min_chunk_len: usize,
}

impl Pipeline {
    /// Starts a builder with serial defaults (`Direct` model, paper SZ
    /// bounds, one chunk, one thread).
    pub fn builder() -> PipelineBuilder {
        PipelineBuilder::default()
    }

    /// A serial pipeline over an existing [`PipelineConfig`].
    pub fn from_config(cfg: PipelineConfig) -> Pipeline {
        PipelineBuilder::from_config(cfg).build()
    }

    /// The pipeline's configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// Configured worker-thread count (`0` = auto).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Configured chunk count (before per-field clamping).
    pub fn chunks(&self) -> usize {
        self.chunks
    }

    fn pool(&self) -> WorkerPool {
        if self.threads == 0 {
            WorkerPool::auto()
        } else {
            WorkerPool::new(self.threads)
        }
    }

    /// How many chunks a field of this shape actually decomposes into:
    /// the configured count clamped to the z extent, with small and
    /// non-3-D fields falling back to one chunk.
    pub fn effective_chunks(&self, shape: Shape) -> usize {
        let [_, _, nz] = shape.dims;
        if shape.len() < self.min_chunk_len || nz < 2 {
            return 1;
        }
        self.chunks.min(nz)
    }

    /// Compresses `field`, decomposing into z-slabs when chunking is
    /// engaged (Fig. 5's reduction phase, chunk-parallel).
    ///
    /// # Panics
    /// Panics if the model is [`ReducedModelKind::DuoModel`] — that model
    /// needs the coarse companion run; use
    /// [`Pipeline::compress_with_aux`].
    pub fn compress(&self, field: &Field) -> PreconditionedArtifact {
        let detailed = self.compress_detailed(field);
        PreconditionedArtifact {
            bytes: detailed.bytes,
            report: detailed.report,
        }
    }

    /// Like [`Pipeline::compress`], supplying the auxiliary coarse field
    /// DuoModel requires. DuoModel couples every slab to the coarse
    /// companion's geometry, so it always runs serially regardless of
    /// the chunk setting.
    pub fn compress_with_aux(&self, field: &Field, coarse: &Field) -> PreconditionedArtifact {
        precondition_impl(field, Some(coarse), &self.cfg)
    }

    /// Compresses with per-chunk reporting.
    ///
    /// # Panics
    /// See [`Pipeline::compress`].
    pub fn compress_detailed(&self, field: &Field) -> ChunkedCompression {
        let chunks = if self.cfg.model == ReducedModelKind::DuoModel {
            1
        } else {
            self.effective_chunks(field.shape)
        };
        if chunks <= 1 {
            // Serial fallback: byte-identical to the original
            // single-shot pipeline (version-0 stream).
            let art = precondition_impl(field, None, &self.cfg);
            return ChunkedCompression {
                report: art.report,
                chunks: vec![ChunkReport {
                    z_offset: 0,
                    dims: field.shape.dims,
                    report: art.report,
                }],
                bytes: art.bytes,
            };
        }

        let [nx, ny, nz] = field.shape.dims;
        let decomp = Decomposition::new([nx, ny, nz], [1, 1, chunks]);
        let plane = nx * ny;
        // A z-slab is a contiguous run of planes, so extraction is a
        // single copy per slab.
        let slabs: Vec<(usize, Field)> = (0..chunks)
            .map(|r| {
                let sd = decomp.subdomain(r);
                let data = field.data[sd.z.0 * plane..sd.z.1 * plane].to_vec();
                let shape = Shape::d3(nx, ny, sd.z.1 - sd.z.0);
                (
                    sd.z.0,
                    Field::new(format!("{}[z{}]", field.name, sd.z.0), data, shape),
                )
            })
            .collect();

        let cfg = &self.cfg;
        let parts: Vec<(usize, PreconditionedArtifact)> =
            self.pool().run(slabs, |_, (z0, slab)| {
                (z0, precondition_impl(&slab, None, cfg))
            });

        let tag = self.cfg.model.tag().0;
        let mut container = ChunkedArtifact::new([nx as u32, ny as u32, nz as u32]);
        let mut reports = Vec::with_capacity(parts.len());
        let mut agg = CompressionReport {
            raw_bytes: field.nbytes(),
            rep_bytes: 0,
            delta_bytes: 0,
            k: 0,
        };
        for (z0, art) in parts {
            let slab_nz = decomp.subdomain(reports.len()).dims()[2];
            agg.rep_bytes += art.report.rep_bytes;
            agg.delta_bytes += art.report.delta_bytes;
            agg.k = agg.k.max(art.report.k);
            reports.push(ChunkReport {
                z_offset: z0,
                dims: [nx, ny, slab_nz],
                report: art.report,
            });
            container.push(
                ChunkEntry {
                    z_offset: z0 as u32,
                    dims: [nx as u32, ny as u32, slab_nz as u32],
                    model_tag: tag,
                },
                art.bytes,
            );
        }

        ChunkedCompression {
            bytes: container.to_bytes(),
            report: agg,
            chunks: reports,
        }
    }

    /// Reconstructs a field from artifact bytes — either a version-1
    /// chunked container (chunks decode in parallel on this pipeline's
    /// pool) or a version-0 single-chunk stream. Returns the data and
    /// its shape.
    ///
    /// Corrupt or truncated input is reported as a [`DecodeError`];
    /// this never panics on bad bytes.
    pub fn reconstruct(&self, bytes: &[u8]) -> DecodeResult<(Vec<f64>, Shape)> {
        let container = ChunkedArtifact::from_bytes(bytes)?;
        if container.global_dims == [0, 0, 0] {
            // Version-0 wrap: the single payload is a complete artifact.
            let (_, payload) = container.chunks().next().ok_or(DecodeError::Corrupt {
                what: "empty chunked container",
            })?;
            return reconstruct_impl(payload);
        }

        let [nx, ny, nz] = container.global_dims.map(|d| d as usize);
        nx.checked_mul(ny)
            .and_then(|p| p.checked_mul(nz))
            .ok_or(DecodeError::Corrupt {
                what: "chunked global dims overflow",
            })?;
        let shape = Shape::d3(nx, ny, nz);
        let plane = nx * ny;
        let parts: Vec<(usize, Vec<u8>)> = container
            .chunks()
            .map(|(e, p)| (e.z_offset as usize, p.to_vec()))
            .collect();
        let decoded: Vec<(usize, DecodeResult<Vec<f64>>)> =
            self.pool().run(parts, |_, (z0, payload)| {
                (z0, reconstruct_impl(&payload).map(|(data, _)| data))
            });

        let mut out = vec![0.0f64; shape.len()];
        for (z0, data) in decoded {
            let data = data?;
            let start = z0.checked_mul(plane).ok_or(DecodeError::Corrupt {
                what: "chunk offset overflow",
            })?;
            let slot = out.get_mut(start..start.saturating_add(data.len())).ok_or(
                DecodeError::Corrupt {
                    what: "chunk exceeds global extent",
                },
            )?;
            slot.copy_from_slice(&data);
        }
        Ok((out, shape))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_field(n: usize) -> Field {
        let shape = Shape::d3(n, n, n);
        let data = (0..shape.len())
            .map(|i| 10.0 + ((i % 97) as f64 * 0.13).sin() + (i as f64 * 0.001).cos())
            .collect();
        Field::new("engine-test", data, shape)
    }

    #[test]
    fn builder_defaults_are_serial() {
        let p = Pipeline::builder().build();
        assert_eq!(p.chunks(), 1);
        assert_eq!(p.threads(), 1);
        assert_eq!(p.config().model, ReducedModelKind::Direct);
    }

    #[test]
    fn single_chunk_matches_legacy_bytes_exactly() {
        let f = smooth_field(12);
        let cfg = PipelineConfig::sz(ReducedModelKind::OneBase);
        let legacy = precondition_impl(&f, None, &cfg);
        let built = PipelineBuilder::from_config(cfg).build().compress(&f);
        assert_eq!(legacy.bytes, built.bytes);
        assert_eq!(legacy.report, built.report);
    }

    #[test]
    fn chunked_bytes_are_thread_count_invariant() {
        let f = smooth_field(16);
        let mut streams = Vec::new();
        for threads in [1, 2, 4] {
            let p = Pipeline::builder()
                .model(ReducedModelKind::Pca)
                .chunks(4)
                .threads(threads)
                .min_chunk_len(0)
                .build();
            streams.push(p.compress(&f).bytes);
        }
        assert_eq!(streams[0], streams[1]);
        assert_eq!(streams[0], streams[2]);
    }

    #[test]
    fn chunked_roundtrip_stays_in_bounds() {
        let f = smooth_field(16);
        let p = Pipeline::builder()
            .model(ReducedModelKind::OneBase)
            .chunks(8)
            .threads(0)
            .min_chunk_len(0)
            .build();
        let art = p.compress(&f);
        let (rec, shape) = p.reconstruct(&art.bytes).expect("decode");
        assert_eq!(shape, f.shape);
        let max = f.data.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        for (a, b) in f.data.iter().zip(&rec) {
            assert!((a - b).abs() <= 1e-2 * max, "{a} vs {b}");
        }
    }

    #[test]
    fn small_fields_fall_back_to_single_chunk() {
        let f = smooth_field(8); // 512 values < DEFAULT_MIN_CHUNK_LEN
        let p = Pipeline::builder()
            .model(ReducedModelKind::Pca)
            .chunks(4)
            .build();
        assert_eq!(p.effective_chunks(f.shape), 1);
        let detailed = p.compress_detailed(&f);
        assert_eq!(detailed.chunks.len(), 1);
        // Serial fallback emits a version-0 stream.
        assert_eq!(&detailed.bytes[..4], b"LRM1");
    }

    #[test]
    fn chunk_count_is_clamped_to_z_extent() {
        let p = Pipeline::builder().chunks(64).min_chunk_len(0).build();
        assert_eq!(p.effective_chunks(Shape::d3(16, 16, 16)), 16);
        // 1-D and 2-D fields never chunk (nz == 1).
        assert_eq!(p.effective_chunks(Shape::d1(100_000)), 1);
        assert_eq!(p.effective_chunks(Shape::d2(512, 512)), 1);
    }

    #[test]
    fn per_chunk_reports_sum_to_aggregate() {
        let f = smooth_field(16);
        let p = Pipeline::builder()
            .model(ReducedModelKind::MultiBase(2))
            .chunks(4)
            .threads(2)
            .min_chunk_len(0)
            .build();
        let d = p.compress_detailed(&f);
        assert_eq!(d.chunks.len(), 4);
        let rep: usize = d.chunks.iter().map(|c| c.report.rep_bytes).sum();
        let delta: usize = d.chunks.iter().map(|c| c.report.delta_bytes).sum();
        assert_eq!(rep, d.report.rep_bytes);
        assert_eq!(delta, d.report.delta_bytes);
        assert_eq!(d.report.raw_bytes, f.nbytes());
        // z offsets tile the field.
        let offsets: Vec<usize> = d.chunks.iter().map(|c| c.z_offset).collect();
        assert_eq!(offsets, vec![0, 4, 8, 12]);
    }

    #[test]
    fn reconstruct_accepts_version0_streams() {
        let f = smooth_field(12);
        let cfg = PipelineConfig::sz(ReducedModelKind::Svd);
        let v0 = precondition_impl(&f, None, &cfg);
        let p = Pipeline::builder().build();
        let (rec, shape) = p.reconstruct(&v0.bytes).expect("decode");
        assert_eq!(shape, f.shape);
        assert_eq!(rec.len(), f.len());
    }

    #[test]
    fn duo_model_always_runs_serially() {
        let f = smooth_field(16);
        let coarse = smooth_field(8);
        let p = Pipeline::builder()
            .model(ReducedModelKind::DuoModel)
            .chunks(8)
            .min_chunk_len(0)
            .build();
        let art = p.compress_with_aux(&f, &coarse);
        assert_eq!(&art.bytes[..4], b"LRM1");
        let (rec, _) = p.reconstruct(&art.bytes).expect("decode");
        assert_eq!(rec.len(), f.len());
    }
}
