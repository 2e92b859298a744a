//! Fig. 6 (dimension-reduction compression ratios), Fig. 7 (PCA variance
//! proportions), Fig. 8 (SVD singular-value proportions), Fig. 9
//! (reduced-representation sizes) and Fig. 10 (RMSE comparison).

use crate::table::{f, render};
use lrm_core::{Pipeline, PipelineConfig, ReducedModelKind};
use lrm_datasets::{generate, DatasetKind, Field, SizeClass};
use lrm_linalg::{svd, Matrix, Pca};
use lrm_stats::rmse;

/// The dimension-reduction methods of Section V plus the direct baseline.
pub const METHODS: [ReducedModelKind; 4] = [
    ReducedModelKind::Direct,
    ReducedModelKind::Pca,
    ReducedModelKind::Svd,
    ReducedModelKind::Wavelet,
];

/// One (dataset, method, codec) measurement shared by Figs. 6, 9 and 10.
#[derive(Debug, Clone)]
pub struct DimRedRow {
    /// Dataset name.
    pub dataset: &'static str,
    /// Method name (original / PCA / SVD / Wavelet).
    pub method: &'static str,
    /// Codec name (SZ / ZFP).
    pub codec: &'static str,
    /// Compression ratio (Fig. 6).
    pub ratio: f64,
    /// Reduced-representation bytes (Fig. 9; 0 for direct).
    pub rep_bytes: usize,
    /// RMSE of the reconstruction against the original (Fig. 10).
    pub rmse: f64,
    /// Retained components k (PCA/SVD only).
    pub k: usize,
}

/// Runs one (field, method, codec) cell.
fn run_cell(
    field: &Field,
    method: ReducedModelKind,
    codec: &'static str,
    cfg: PipelineConfig,
) -> DimRedRow {
    let pipeline = Pipeline::from_config(cfg);
    let art = pipeline.compress(field);
    let (rec, _) = pipeline
        .reconstruct(&art.bytes)
        .expect("artifact just produced must decode");
    DimRedRow {
        dataset: "",
        method: method.name(),
        codec,
        ratio: art.report.ratio(),
        rep_bytes: art.report.rep_bytes,
        rmse: rmse(&field.data, &rec),
        k: art.report.k,
    }
}

/// Computes the full Fig. 6/9/10 grid: nine datasets × four methods × two
/// codecs.
pub fn dimred_grid(size: SizeClass) -> Vec<DimRedRow> {
    let mut rows = Vec::new();
    for kind in DatasetKind::ALL {
        let field = generate(kind, size).full;
        for method in METHODS {
            for (codec, cfg) in [
                ("SZ", PipelineConfig::sz(method).with_scan_1d(true)),
                ("ZFP", PipelineConfig::zfp(method).with_scan_1d(true)),
            ] {
                let mut row = run_cell(&field, method, codec, cfg);
                row.dataset = kind.name();
                rows.push(row);
            }
        }
    }
    rows
}

/// One Fig. 7/8 series: the leading spectral proportions of a dataset.
#[derive(Debug, Clone)]
pub struct SpectrumRow {
    /// Dataset name.
    pub dataset: &'static str,
    /// Leading proportions (descending), at most 5 as the paper plots.
    pub proportions: Vec<f64>,
    /// Components needed to reach 95 % cumulative share.
    pub k95: usize,
}

/// The Fig. 7/8 table `lrm-cli` prints: each dataset's five leading
/// proportions and k(95%).
pub fn spectrum_table(rows: &[SpectrumRow]) -> String {
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.dataset.to_string()];
            for i in 0..5 {
                row.push(r.proportions.get(i).map(|&p| f(p)).unwrap_or_default());
            }
            row.push(r.k95.to_string());
            row
        })
        .collect();
    render(
        &["dataset", "1st", "2nd", "3rd", "4th", "5th", "k(95%)"],
        &rows,
    )
}

/// Fig. 7: PCA proportion of variance per dataset.
pub fn fig7(size: SizeClass) -> Vec<SpectrumRow> {
    DatasetKind::ALL
        .into_iter()
        .map(|kind| {
            let field = generate(kind, size).full;
            let (m, n) = field.matrix_dims();
            let pca = Pca::fit(&Matrix::from_vec(m, n, field.data.clone()));
            let p = pca.proportions();
            SpectrumRow {
                dataset: kind.name(),
                proportions: p.iter().copied().take(5).collect(),
                k95: pca.components_for_variance(0.95),
            }
        })
        .collect()
}

/// Fig. 8: SVD proportion of singular values per dataset.
pub fn fig8(size: SizeClass) -> Vec<SpectrumRow> {
    DatasetKind::ALL
        .into_iter()
        .map(|kind| {
            let field = generate(kind, size).full;
            let (m, n) = field.matrix_dims();
            let dec = svd(&Matrix::from_vec(m, n, field.data.clone()));
            let p = dec.proportions();
            SpectrumRow {
                dataset: kind.name(),
                proportions: p.iter().copied().take(5).collect(),
                k95: dec.rank_for_energy(0.95),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_every_combination() {
        let rows = dimred_grid(SizeClass::Tiny);
        assert_eq!(rows.len(), 9 * 4 * 2);
        for r in &rows {
            assert!(r.ratio > 0.0 && r.rmse.is_finite(), "{r:?}");
        }
    }

    #[test]
    fn direct_rows_have_no_representation() {
        let rows = dimred_grid(SizeClass::Tiny);
        for r in rows.iter().filter(|r| r.method == "original") {
            assert_eq!(r.rep_bytes, 0);
        }
        for r in rows.iter().filter(|r| r.method == "PCA") {
            assert!(r.rep_bytes > 0 && r.k >= 1);
        }
    }

    #[test]
    fn fig7_and_fig8_proportions_are_sorted_shares() {
        for rows in [fig7(SizeClass::Tiny), fig8(SizeClass::Tiny)] {
            assert_eq!(rows.len(), 9);
            for r in &rows {
                for w in r.proportions.windows(2) {
                    assert!(w[0] >= w[1] - 1e-12, "{}: {:?}", r.dataset, r.proportions);
                }
                assert!(r.proportions.iter().all(|&p| (0.0..=1.0).contains(&p)));
            }
        }
    }

    #[test]
    fn dominant_first_component_on_correlated_pde_data() {
        // Fig. 7's observation: the PDE datasets are dominated by the
        // first PC, which is why they gain the most in Fig. 6.
        let rows = fig7(SizeClass::Tiny);
        let heat = rows.iter().find(|r| r.dataset == "Heat3d").expect("row");
        assert!(heat.proportions[0] > 0.5, "{:?}", heat.proportions);
    }
}
