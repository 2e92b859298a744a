//! Cross-crate integration: every dataset, every reduced model, every
//! codec — generate, precondition, serialize, reconstruct, and check the
//! error and size accounting end to end.

use lrm::core::{Pipeline, PipelineConfig, ReducedModelKind};
use lrm::datasets::{generate, DatasetKind, SizeClass};
use lrm::io::Artifact;
use lrm::stats::{nrmse, Summary};

fn roundtrip_ok(cfg: &PipelineConfig, kind: DatasetKind) {
    let pair = generate(kind, SizeClass::Tiny);
    let field = &pair.full;
    let pipeline = Pipeline::from_config(*cfg);
    let art = if cfg.model == ReducedModelKind::DuoModel {
        pipeline.compress_with_aux(field, &pair.reduced)
    } else {
        pipeline.compress(field)
    };
    // The artifact parses as a generic container, too.
    let parsed = Artifact::from_bytes(&art.bytes).expect("artifact parses");
    assert!(parsed.get("meta").is_some());
    assert!(parsed.get("delta").is_some());

    let (rec, shape) = pipeline.reconstruct(&art.bytes).expect("decode");
    assert_eq!(shape, field.shape, "{kind:?}/{:?}", cfg.model);
    assert_eq!(rec.len(), field.len());
    // Normalized error must be small; exact bounds are codec-specific and
    // covered by unit tests.
    let e = nrmse(&field.data, &rec);
    assert!(e < 0.05, "{kind:?}/{:?}: nrmse {e}", cfg.model);
    // Size accounting is consistent.
    assert_eq!(art.report.raw_bytes, field.nbytes());
    assert!(art.report.total_bytes() > 0);
}

#[test]
fn every_dataset_roundtrips_with_every_applicable_model() {
    for kind in DatasetKind::ALL {
        let pair_shape_dims = generate(kind, SizeClass::Tiny).full.shape.ndims();
        for model in [
            ReducedModelKind::Direct,
            ReducedModelKind::OneBase,
            ReducedModelKind::MultiBase(3),
            ReducedModelKind::DuoModel,
            ReducedModelKind::Pca,
            ReducedModelKind::Svd,
            ReducedModelKind::Wavelet,
        ] {
            let applicable = match model {
                ReducedModelKind::OneBase | ReducedModelKind::MultiBase(_) => pair_shape_dims >= 2,
                // DuoModel interpolates a coarse companion onto the full
                // grid — only meaningful for grid data, not particle
                // coordinate streams (whose reduced run has fewer atoms,
                // not a coarser grid).
                ReducedModelKind::DuoModel => {
                    pair_shape_dims >= 2
                        && !matches!(kind, DatasetKind::Umbrella | DatasetKind::VirtualSites)
                }
                _ => true,
            };
            if !applicable {
                continue;
            }
            roundtrip_ok(&PipelineConfig::sz(model), kind);
        }
    }
}

#[test]
fn zfp_and_scan1d_variants_roundtrip() {
    for kind in [DatasetKind::Heat3d, DatasetKind::Fish, DatasetKind::Wave] {
        roundtrip_ok(&PipelineConfig::zfp(ReducedModelKind::Direct), kind);
        roundtrip_ok(&PipelineConfig::zfp(ReducedModelKind::Pca), kind);
        roundtrip_ok(
            &PipelineConfig::sz(ReducedModelKind::Pca).with_scan_1d(true),
            kind,
        );
    }
}

#[test]
fn reconstruction_preserves_summary_statistics() {
    // Requirement 2 of Section II-B: analytical features survive. Check
    // mean/range drift of a full preconditioned roundtrip.
    let field = generate(DatasetKind::SedovPres, SizeClass::Tiny).full;
    let pipeline = Pipeline::from_config(PipelineConfig::sz(ReducedModelKind::Pca));
    let art = pipeline.compress(&field);
    let (rec, _) = pipeline.reconstruct(&art.bytes).expect("decode");
    let a = Summary::of(&field.data);
    let b = Summary::of(&rec);
    let range = a.range().max(1e-12);
    assert!((a.mean() - b.mean()).abs() / range < 0.01);
    assert!((a.max() - b.max()).abs() / range < 0.05);
    assert!((a.min() - b.min()).abs() / range < 0.05);
}

#[test]
fn preconditioned_artifacts_are_portable_bytes() {
    // Serialize on one "machine", reconstruct on "another": only the raw
    // bytes cross the boundary.
    let field = generate(DatasetKind::Laplace, SizeClass::Tiny).full;
    let art =
        Pipeline::from_config(PipelineConfig::sz(ReducedModelKind::OneBase).with_scan_1d(true))
            .compress(&field);
    let wire: Vec<u8> = art.bytes.clone();
    let (rec, shape) = Pipeline::builder()
        .build()
        .reconstruct(&wire)
        .expect("decode");
    assert_eq!(shape, field.shape);
    assert_eq!(rec.len(), field.len());
}
