//! Fig. 3 (projection-method compression ratios on Heat3d and Laplace)
//! and Fig. 4 (improvement vs compressibility).

use lrm_core::{fpc_paper_codec, Pipeline, PipelineConfig, ReducedModelKind};
use lrm_datasets::{reduced_snapshots, snapshots, DatasetKind, SizeClass};

/// The four methods of Fig. 3's bar groups.
pub const METHODS: [ReducedModelKind; 4] = [
    ReducedModelKind::Direct,
    ReducedModelKind::OneBase,
    ReducedModelKind::MultiBase(4),
    ReducedModelKind::DuoModel,
];

/// One Fig. 3 bar: average compression ratio of a (dataset, compressor,
/// method) combination over the snapshot series.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Dataset name.
    pub dataset: &'static str,
    /// Compressor name (SZ / ZFP / FPC).
    pub compressor: &'static str,
    /// Method name (original / one-base / multi-base / DuoModel).
    pub method: &'static str,
    /// Average compression ratio over the snapshots.
    pub ratio: f64,
}

/// Computes Fig. 3: Heat3d and Laplace, {SZ, ZFP, FPC} × four methods,
/// averaged over `outputs` snapshots.
pub fn fig3(size: SizeClass, outputs: usize) -> Vec<Fig3Row> {
    let mut rows = Vec::new();
    for kind in [DatasetKind::Heat3d, DatasetKind::Laplace] {
        let fulls = snapshots(kind, outputs, size);
        let coarses = reduced_snapshots(kind, outputs, size);
        // Bounds follow the paper's dual-bound methodology (Section V-B:
        // the delta takes the looser bound). Section IV-B's text lists a
        // single bound, but a point-wise relative bound applied verbatim
        // to near-zero deltas over-spends bits — the very issue Section
        // V-B raises — so the dual bounds are used consistently here and
        // the choice is recorded in EXPERIMENTS.md.
        //
        // FPC is lossless and ignores shape, so its pipeline stores
        // exactly `FPC(base) + FPC(field - base)`.
        let fpc = |model| {
            let codec = fpc_paper_codec();
            PipelineConfig {
                orig: codec,
                delta: codec,
                ..PipelineConfig::sz(model)
            }
        };
        for (comp_name, make_cfg) in [
            (
                "SZ",
                PipelineConfig::sz as fn(ReducedModelKind) -> PipelineConfig,
            ),
            (
                "ZFP",
                PipelineConfig::zfp as fn(ReducedModelKind) -> PipelineConfig,
            ),
            ("FPC", fpc),
        ] {
            for method in METHODS {
                let mut acc = 0.0;
                for (f, c) in fulls.iter().zip(&coarses) {
                    // The paper feeds outputs to the compressor CLIs as
                    // flat streams; mirror that for data and delta alike.
                    let cfg = make_cfg(method).with_scan_1d(true);
                    let pipeline = Pipeline::from_config(cfg);
                    let art = if method == ReducedModelKind::DuoModel {
                        pipeline.compress_with_aux(f, c)
                    } else {
                        pipeline.compress(f)
                    };
                    acc += art.report.ratio();
                }
                rows.push(Fig3Row {
                    dataset: kind.name(),
                    compressor: comp_name,
                    method: method.name(),
                    ratio: acc / fulls.len() as f64,
                });
            }
        }
    }
    rows
}

/// One Fig. 4 point: compressibility of a snapshot (direct ZFP ratio) vs
/// the improvement one-base brings.
#[derive(Debug, Clone)]
pub struct Fig4Point {
    /// Dataset name.
    pub dataset: &'static str,
    /// Direct ZFP compression ratio of the snapshot (the x axis).
    pub zfp_ratio: f64,
    /// one-base ZFP ratio divided by the direct ratio (the y axis).
    pub improvement: f64,
}

/// Computes Fig. 4 over `outputs` snapshots each of Heat3d and Laplace.
pub fn fig4(size: SizeClass, outputs: usize) -> Vec<Fig4Point> {
    let mut points = Vec::new();
    for kind in [DatasetKind::Heat3d, DatasetKind::Laplace] {
        for f in snapshots(kind, outputs, size) {
            let direct = Pipeline::from_config(
                PipelineConfig::zfp(ReducedModelKind::Direct).with_scan_1d(true),
            )
            .compress(&f);
            let onebase = Pipeline::from_config(
                PipelineConfig::zfp(ReducedModelKind::OneBase).with_scan_1d(true),
            )
            .compress(&f);
            points.push(Fig4Point {
                dataset: kind.name(),
                zfp_ratio: direct.report.ratio(),
                improvement: onebase.report.ratio() / direct.report.ratio(),
            });
        }
    }
    points.sort_by(|a, b| a.zfp_ratio.total_cmp(&b.zfp_ratio));
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_produces_all_combinations() {
        let rows = fig3(SizeClass::Tiny, 2);
        // 2 datasets x 3 compressors x 4 methods.
        assert_eq!(rows.len(), 24);
        for r in &rows {
            assert!(r.ratio > 0.0, "{r:?}");
        }
    }

    #[test]
    fn fig3_preconditioning_improves_lossy_ratios_on_heat3d() {
        let rows = fig3(SizeClass::Tiny, 2);
        let get = |comp: &str, method: &str| {
            rows.iter()
                .find(|r| r.dataset == "Heat3d" && r.compressor == comp && r.method == method)
                .map(|r| r.ratio)
                .expect("row present")
        };
        // The paper's headline: one-base and multi-base beat original for
        // SZ and ZFP.
        for comp in ["SZ", "ZFP"] {
            assert!(
                get(comp, "one-base") > get(comp, "original"),
                "{comp}: {} vs {}",
                get(comp, "one-base"),
                get(comp, "original")
            );
        }
    }

    #[test]
    fn fig4_points_are_sorted_by_compressibility() {
        let pts = fig4(SizeClass::Tiny, 3);
        assert_eq!(pts.len(), 6);
        for w in pts.windows(2) {
            assert!(w[1].zfp_ratio >= w[0].zfp_ratio);
        }
    }
}
