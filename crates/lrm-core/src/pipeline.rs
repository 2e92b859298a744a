//! The end-to-end preconditioning pipeline of Fig. 5.
//!
//! **Reduction phase**: identify the reduced model, compute the delta of
//! the original against the reduced model's reconstruction, compress
//! representation and delta under the dual error bounds, and package
//! everything into a self-describing [`Artifact`].
//!
//! **Reconstruction phase**: parse the artifact, rebuild the reduced
//! model's reconstruction, decompress the delta, and add the two. No
//! external configuration is needed — the artifact's metadata carries
//! the model kind, codecs, and shapes.
//!
//! This module holds the single-chunk workflow; the public entry point
//! is [`crate::Pipeline`] (builder-style, with chunk-parallel
//! execution), which runs it once per z-slab.

use crate::codec::LossyCodec;
use crate::dimred::{
    pca_precondition, pca_reconstruct, svd_precondition, svd_reconstruct, wavelet_precondition,
    wavelet_reconstruct,
};
use crate::partitioned::{partitioned_precondition, partitioned_reconstruct, PartitionedMethod};
use crate::projection::{
    duo_model_precondition, duo_model_reconstruct, multi_base_precondition, multi_base_reconstruct,
};
use crate::wire_meta::{decode_meta, encode_meta};
use lrm_compress::{DecodeError, DecodeResult, Shape};
use lrm_datasets::Field;
use lrm_io::Artifact;

/// Which reduced model preconditions the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReducedModelKind {
    /// No preconditioning: compress the original directly (the paper's
    /// "original" baseline bars).
    Direct,
    /// Global mid-plane base (Section IV, Algorithm 1).
    OneBase,
    /// Per-z-block mid-planes; the parameter is the number of blocks.
    MultiBase(usize),
    /// Coarse-simulation base (prior work the paper compares against);
    /// requires the auxiliary coarse field.
    DuoModel,
    /// Principal component analysis (Section V-A1).
    Pca,
    /// Singular value decomposition (Section V-A2).
    Svd,
    /// Thresholded Haar wavelet (Section V-A3).
    Wavelet,
    /// Partitioned (blocked) PCA — the paper's future work #1; the
    /// parameter is the number of row blocks.
    PcaBlocked(usize),
    /// Partitioned (blocked) truncated SVD; the parameter is the number
    /// of row blocks.
    SvdBlocked(usize),
}

impl ReducedModelKind {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            ReducedModelKind::Direct => "original",
            ReducedModelKind::OneBase => "one-base",
            ReducedModelKind::MultiBase(_) => "multi-base",
            ReducedModelKind::DuoModel => "DuoModel",
            ReducedModelKind::Pca => "PCA",
            ReducedModelKind::Svd => "SVD",
            ReducedModelKind::Wavelet => "Wavelet",
            ReducedModelKind::PcaBlocked(_) => "PCA-blocked",
            ReducedModelKind::SvdBlocked(_) => "SVD-blocked",
        }
    }

    /// The `(tag, param)` pair naming this model in the artifact
    /// metadata, the chunked-container directory and the LRMP wire.
    pub fn tag(self) -> (u8, u32) {
        match self {
            ReducedModelKind::Direct => (0, 0),
            ReducedModelKind::OneBase => (1, 0),
            ReducedModelKind::MultiBase(gz) => (2, gz as u32),
            ReducedModelKind::DuoModel => (3, 0),
            ReducedModelKind::Pca => (4, 0),
            ReducedModelKind::Svd => (5, 0),
            ReducedModelKind::Wavelet => (6, 0),
            ReducedModelKind::PcaBlocked(b) => (7, b as u32),
            ReducedModelKind::SvdBlocked(b) => (8, b as u32),
        }
    }

    /// Whether this model can precondition a field of `shape` on its
    /// own: one-base and multi-base need at least two dimensions, and
    /// DuoModel needs its auxiliary coarse field.
    pub fn applies_to(self, shape: Shape) -> bool {
        match self {
            ReducedModelKind::OneBase | ReducedModelKind::MultiBase(_) => shape.ndims() >= 2,
            ReducedModelKind::DuoModel => false,
            _ => true,
        }
    }

    /// Inverse of [`ReducedModelKind::tag`]; a block or plane count of 0
    /// reads as 1.
    pub fn from_tag(tag: u8, param: u32) -> DecodeResult<Self> {
        let count = (param as usize).max(1);
        match tag {
            0 => Ok(ReducedModelKind::Direct),
            1 => Ok(ReducedModelKind::OneBase),
            2 => Ok(ReducedModelKind::MultiBase(count)),
            3 => Ok(ReducedModelKind::DuoModel),
            4 => Ok(ReducedModelKind::Pca),
            5 => Ok(ReducedModelKind::Svd),
            6 => Ok(ReducedModelKind::Wavelet),
            7 => Ok(ReducedModelKind::PcaBlocked(count)),
            8 => Ok(ReducedModelKind::SvdBlocked(count)),
            tag => Err(DecodeError::UnknownTag {
                what: "reduced-model",
                tag,
            }),
        }
    }
}

/// Pipeline configuration: the model plus the dual-bound codecs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// The reduced model to identify.
    pub model: ReducedModelKind,
    /// Codec/bound for original data and reduced representations.
    pub orig: LossyCodec,
    /// Codec/bound for deltas (looser, per Section V-B).
    pub delta: LossyCodec,
    /// Cumulative-variance rule for PCA/SVD component selection
    /// (paper: 0.95).
    pub variance_fraction: f64,
    /// Wavelet threshold as a fraction of the max coefficient
    /// (paper: 0.05).
    pub theta_fraction: f64,
    /// Compress the delta as a flat 1-D stream instead of with its true
    /// spatial shape. This mirrors how the paper's evaluation feeds
    /// outputs to the SZ/ZFP command-line tools (no dimension metadata),
    /// which is the regime where preconditioning shines: a 1-D predictor
    /// cannot exploit cross-plane redundancy, the reduced model can.
    pub scan_1d: bool,
}

impl PipelineConfig {
    /// The paper's SZ configuration (rel 1e-5 / 1e-3).
    pub fn sz(model: ReducedModelKind) -> Self {
        let (orig, delta) = crate::codec::sz_paper_bounds();
        Self {
            model,
            orig,
            delta,
            variance_fraction: 0.95,
            theta_fraction: 0.05,
            scan_1d: false,
        }
    }

    /// The paper's ZFP configuration (16-bit / 8-bit precision).
    pub fn zfp(model: ReducedModelKind) -> Self {
        let (orig, delta) = crate::codec::zfp_paper_bounds();
        Self {
            model,
            orig,
            delta,
            variance_fraction: 0.95,
            theta_fraction: 0.05,
            scan_1d: false,
        }
    }

    /// Enables or disables 1-D scan-order compression of the delta (see
    /// [`PipelineConfig::scan_1d`]).
    pub fn with_scan_1d(mut self, on: bool) -> Self {
        self.scan_1d = on;
        self
    }
}

/// What every reduced model's precondition returns: the representation
/// and the delta of the field against the representation's
/// reconstruction, before the delta is compressed.
#[derive(Debug, Clone)]
pub struct Reduction {
    /// The serialized reduced representation.
    pub rep_bytes: Vec<u8>,
    /// The original minus the reconstructed base, in the field's shape.
    pub delta: Vec<f64>,
    /// The auxiliary shape the artifact's meta records: the stack of
    /// bases (one-base, multi-base), the coarse field (DuoModel), or
    /// `d1(0)` for the models whose representation carries its own
    /// extents.
    pub rep_shape: Shape,
    /// Retained components (PCA, SVD, and the most of any block for
    /// their blocked forms), 0 otherwise.
    pub k: usize,
}

/// Size accounting for one preconditioned snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionReport {
    /// Uncompressed input bytes.
    pub raw_bytes: usize,
    /// Bytes of the reduced representation.
    pub rep_bytes: usize,
    /// Bytes of the compressed delta.
    pub delta_bytes: usize,
    /// Retained components (PCA/SVD), 0 otherwise.
    pub k: usize,
}

impl CompressionReport {
    /// Total stored payload.
    pub fn total_bytes(&self) -> usize {
        self.rep_bytes + self.delta_bytes
    }

    /// Compression ratio: raw / (representation + delta).
    pub fn ratio(&self) -> f64 {
        self.raw_bytes as f64 / self.total_bytes().max(1) as f64
    }
}

/// A serialized preconditioned snapshot plus its size report.
#[derive(Debug, Clone)]
pub struct PreconditionedArtifact {
    /// The self-describing artifact bytes (write these to storage).
    pub bytes: Vec<u8>,
    /// Size accounting.
    pub report: CompressionReport,
}

const META: &str = "meta";
const REP: &str = "rep";
const DELTA: &str = "delta";

/// Preconditions and compresses `field` as one chunk (Fig. 5's
/// reduction phase), emitting a version-0 artifact stream.
///
/// # Panics
/// Panics if `cfg.model` is [`ReducedModelKind::DuoModel`] and `coarse`
/// is `None`.
pub(crate) fn precondition_impl(
    field: &Field,
    coarse: Option<&Field>,
    cfg: &PipelineConfig,
) -> PreconditionedArtifact {
    let shape = field.shape;
    let reduction = match cfg.model {
        ReducedModelKind::Direct => Reduction {
            rep_bytes: Vec::new(),
            delta: field.data.clone(),
            rep_shape: Shape::d1(0),
            k: 0,
        },
        ReducedModelKind::OneBase => multi_base_precondition(field, 1, &cfg.orig),
        ReducedModelKind::MultiBase(gz) => multi_base_precondition(field, gz, &cfg.orig),
        ReducedModelKind::DuoModel => duo_model_precondition(
            field,
            coarse.expect("DuoModel needs the coarse field: use Pipeline::compress_with_aux"),
            &cfg.orig,
        ),
        ReducedModelKind::Pca => pca_precondition(field, cfg.variance_fraction, &cfg.orig),
        ReducedModelKind::Svd => svd_precondition(field, cfg.variance_fraction, &cfg.orig),
        ReducedModelKind::Wavelet => wavelet_precondition(field, cfg.theta_fraction),
        ReducedModelKind::PcaBlocked(b) => partitioned_precondition(
            field,
            PartitionedMethod::Pca,
            b,
            cfg.variance_fraction,
            &cfg.orig,
        ),
        ReducedModelKind::SvdBlocked(b) => partitioned_precondition(
            field,
            PartitionedMethod::Svd,
            b,
            cfg.variance_fraction,
            &cfg.orig,
        ),
    };

    // The delta is compressed under the looser bound; Direct compresses
    // the original under the original bound.
    let delta_codec = if cfg.model == ReducedModelKind::Direct {
        &cfg.orig
    } else {
        &cfg.delta
    };
    let delta_shape = if cfg.scan_1d {
        Shape::d1(shape.len())
    } else {
        shape
    };
    let delta_bytes = delta_codec.compress(&reduction.delta, delta_shape);

    let mut artifact = Artifact::new();
    artifact.push(
        META,
        encode_meta(
            cfg.model,
            &cfg.orig,
            &cfg.delta,
            shape,
            reduction.rep_shape,
            cfg.scan_1d,
        ),
    );
    let rep_len = reduction.rep_bytes.len();
    artifact.push(REP, reduction.rep_bytes);
    let dlen = delta_bytes.len();
    artifact.push(DELTA, delta_bytes);

    PreconditionedArtifact {
        bytes: artifact.to_bytes(),
        report: CompressionReport {
            raw_bytes: field.nbytes(),
            rep_bytes: rep_len,
            delta_bytes: dlen,
            k: reduction.k,
        },
    }
}

/// Reconstructs the field from a version-0 artifact stream (Fig. 5's
/// reconstruction phase). Returns the data and its shape.
pub(crate) fn reconstruct_impl(bytes: &[u8]) -> DecodeResult<(Vec<f64>, Shape)> {
    let artifact = Artifact::from_bytes(bytes)?;
    let meta = decode_meta(artifact.get(META).ok_or(DecodeError::Corrupt {
        what: "artifact missing meta section",
    })?)?;
    let rep = artifact.get(REP).ok_or(DecodeError::Corrupt {
        what: "artifact missing rep section",
    })?;
    let delta_bytes = artifact.get(DELTA).ok_or(DecodeError::Corrupt {
        what: "artifact missing delta section",
    })?;

    // Tag 9 named the randomized SVD, since removed. Its artifacts use
    // the SVD representation, so they still decode.
    let tag = if meta.tag == 9 { 5 } else { meta.tag };
    let model = ReducedModelKind::from_tag(tag, meta.param)?;
    let delta_codec = if model == ReducedModelKind::Direct {
        meta.orig
    } else {
        meta.delta
    };
    let delta_shape = if meta.scan_1d {
        Shape::d1(meta.shape.len())
    } else {
        meta.shape
    };
    let delta = delta_codec.decompress(delta_bytes, delta_shape)?;

    let data = match model {
        ReducedModelKind::Direct => delta,
        ReducedModelKind::OneBase => {
            multi_base_reconstruct(rep, &delta, meta.shape, 1, &meta.orig)?
        }
        ReducedModelKind::MultiBase(gz) => {
            multi_base_reconstruct(rep, &delta, meta.shape, gz, &meta.orig)?
        }
        ReducedModelKind::DuoModel => {
            duo_model_reconstruct(rep, &delta, meta.shape, meta.aux_shape, &meta.orig)?
        }
        ReducedModelKind::Pca => pca_reconstruct(rep, &delta, &meta.orig)?,
        ReducedModelKind::Svd => svd_reconstruct(rep, &delta, &meta.orig)?,
        ReducedModelKind::Wavelet => wavelet_reconstruct(rep, &delta)?,
        ReducedModelKind::PcaBlocked(_) | ReducedModelKind::SvdBlocked(_) => {
            partitioned_reconstruct(rep, &delta, &meta.orig)?
        }
    };
    Ok((data, meta.shape))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pipeline;

    fn compress(field: &Field, cfg: &PipelineConfig) -> PreconditionedArtifact {
        Pipeline::from_config(*cfg).compress(field)
    }

    fn reconstruct(bytes: &[u8]) -> (Vec<f64>, Shape) {
        Pipeline::builder()
            .build()
            .reconstruct(bytes)
            .expect("decode")
    }

    fn smooth_3d_field(n: usize) -> Field {
        let shape = Shape::d3(n, n, n);
        let mut data = Vec::with_capacity(shape.len());
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let zf = z as f64 / (n - 1) as f64;
                    data.push(
                        50.0 + 40.0 * (std::f64::consts::PI * zf).sin()
                            + 2.0 * (x as f64 * 0.3).sin()
                            + 1.5 * (y as f64 * 0.2).cos(),
                    );
                }
            }
        }
        Field::new("smooth3d", data, shape)
    }

    fn check_roundtrip(field: &Field, cfg: &PipelineConfig, tol_rel: f64) {
        let art = compress(field, cfg);
        let (rec, shape) = reconstruct(&art.bytes);
        assert_eq!(shape, field.shape);
        assert_eq!(rec.len(), field.len());
        let max = field.data.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        for (a, b) in field.data.iter().zip(&rec) {
            assert!(
                (a - b).abs() <= tol_rel * max,
                "{:?}: {a} vs {b}",
                cfg.model
            );
        }
    }

    #[test]
    fn all_models_roundtrip_within_bounds() {
        let f = smooth_3d_field(12);
        for model in [
            ReducedModelKind::Direct,
            ReducedModelKind::OneBase,
            ReducedModelKind::MultiBase(3),
            ReducedModelKind::Pca,
            ReducedModelKind::Svd,
            ReducedModelKind::Wavelet,
        ] {
            check_roundtrip(&f, &PipelineConfig::sz(model), 1e-2);
        }
    }

    #[test]
    fn zfp_configs_roundtrip_too() {
        let f = smooth_3d_field(10);
        for model in [
            ReducedModelKind::Direct,
            ReducedModelKind::OneBase,
            ReducedModelKind::Pca,
        ] {
            check_roundtrip(&f, &PipelineConfig::zfp(model), 5e-2);
        }
    }

    #[test]
    fn duo_model_via_aux_roundtrips() {
        let f = smooth_3d_field(12);
        // Coarse companion: every other sample.
        let cshape = Shape::d3(6, 6, 6);
        let mut cdata = Vec::with_capacity(cshape.len());
        for z in 0..6 {
            for y in 0..6 {
                for x in 0..6 {
                    cdata.push(f.at(x * 2, y * 2, z * 2));
                }
            }
        }
        let coarse = Field::new("coarse", cdata, cshape);
        let cfg = PipelineConfig::sz(ReducedModelKind::DuoModel);
        let art = Pipeline::from_config(cfg).compress_with_aux(&f, &coarse);
        let (rec, _) = reconstruct(&art.bytes);
        let max = f.data.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        for (a, b) in f.data.iter().zip(&rec) {
            assert!((a - b).abs() <= 1e-2 * max);
        }
    }

    #[test]
    #[should_panic(expected = "DuoModel needs the coarse field")]
    fn duo_model_without_aux_panics() {
        let f = smooth_3d_field(8);
        compress(&f, &PipelineConfig::sz(ReducedModelKind::DuoModel));
    }

    #[test]
    fn one_base_beats_direct_on_z_symmetric_data() {
        // The headline claim of Fig. 3 at unit-test scale.
        let f = smooth_3d_field(16);
        let direct = compress(&f, &PipelineConfig::sz(ReducedModelKind::Direct));
        let onebase = compress(&f, &PipelineConfig::sz(ReducedModelKind::OneBase));
        assert!(
            onebase.report.ratio() > direct.report.ratio(),
            "one-base {} vs direct {}",
            onebase.report.ratio(),
            direct.report.ratio()
        );
    }

    #[test]
    fn report_accounts_sizes() {
        let f = smooth_3d_field(8);
        let art = compress(&f, &PipelineConfig::sz(ReducedModelKind::OneBase));
        let r = &art.report;
        assert_eq!(r.raw_bytes, 8 * 8 * 8 * 8);
        assert!(r.rep_bytes > 0 && r.delta_bytes > 0);
        assert_eq!(r.total_bytes(), r.rep_bytes + r.delta_bytes);
        assert!(r.ratio() > 1.0);
    }

    #[test]
    fn artifact_is_self_describing() {
        // Reconstruct must need nothing but the bytes.
        let f = smooth_3d_field(8);
        for cfg in [
            PipelineConfig::sz(ReducedModelKind::Pca),
            PipelineConfig::zfp(ReducedModelKind::MultiBase(2)),
        ] {
            let art = compress(&f, &cfg);
            let (rec, shape) = reconstruct(&art.bytes);
            assert_eq!(shape, f.shape);
            assert_eq!(rec.len(), f.len());
        }
    }

    #[test]
    fn tag_9_artifact_decodes_as_its_svd_twin() {
        // Tag 9 named the removed randomized SVD, whose artifacts used the
        // SVD representation: they must still decode.
        let f = smooth_3d_field(10);
        let art = compress(&f, &PipelineConfig::sz(ReducedModelKind::Svd));
        let parsed = Artifact::from_bytes(&art.bytes).expect("parse");
        let mut meta = parsed.get(META).expect("meta").to_vec();
        assert_eq!(meta[0], 5);
        meta[0] = 9;
        let mut twin = Artifact::new();
        twin.push(META, meta);
        twin.push(REP, parsed.get(REP).expect("rep").to_vec());
        twin.push(DELTA, parsed.get(DELTA).expect("delta").to_vec());
        let (svd, _) = reconstruct(&art.bytes);
        let (tag9, shape) = reconstruct(&twin.to_bytes());
        assert_eq!(shape, f.shape);
        assert_eq!(tag9, svd);
    }

    #[test]
    fn direct_mode_matches_raw_codec() {
        let f = smooth_3d_field(8);
        let cfg = PipelineConfig::sz(ReducedModelKind::Direct);
        let art = compress(&f, &cfg);
        let direct = cfg.orig.compress(&f.data, f.shape);
        // Same codec, same bound: the delta section IS the direct stream.
        assert_eq!(art.report.delta_bytes, direct.len());
        assert_eq!(art.report.rep_bytes, 0);
    }
}
