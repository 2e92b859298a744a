//! Automatic model selection — the paper's stated future work.
//!
//! "We notice that there is no single reduced method that is the best of
//! all datasets. Therefore, it is motivated to propose a model selection
//! strategy that selects the best model prior to data reduction."
//! [`select_best_model_with`] implements the straightforward strategy:
//! run every candidate on a (sub)sample of the data and keep the one with
//! the best compression ratio. For fields where preconditioning hurts (e.g.
//! the zero-dominated *Fish*), the `Direct` candidate wins and the
//! selector correctly refuses to precondition.

use crate::pipeline::{precondition_impl, CompressionReport, PipelineConfig, ReducedModelKind};
use lrm_compress::Shape;
use lrm_datasets::Field;

/// Outcome of one candidate trial.
#[derive(Debug, Clone)]
pub struct CandidateResult {
    /// The model tried.
    pub model: ReducedModelKind,
    /// Its size report.
    pub report: CompressionReport,
}

/// A sampled trial keeps every this-many-th z-plane (3-D), row (2-D) or
/// value (1-D): about 5% of the field, in whole slabs, so every
/// candidate still sees real spatial structure.
const SAMPLE_STRIDE: usize = 20;

/// Fields at or below this many values always run full-field: on tiny
/// fields the trials are already cheap and a subsample would be too
/// small to rank models faithfully.
const MIN_SAMPLE_LEN: usize = 4096;

/// How [`select_best_model_with`] runs its candidate trials.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SelectionOptions {
    /// Force full-field trials regardless of size (the original
    /// brute-force behavior).
    pub exhaustive: bool,
}

/// What [`select_best_model_with`] found.
#[derive(Debug, Clone)]
pub struct SelectionOutcome {
    /// The model with the best trial compression ratio.
    pub winner: ReducedModelKind,
    /// Every trial's report, sorted best-first. When `sampled` is true
    /// the byte counts describe the subsample, not the full field.
    pub results: Vec<CandidateResult>,
    /// Whether trials ran on a strided subsample (false = full field).
    pub sampled: bool,
}

/// Tries every candidate model and returns the winner by compression
/// ratio, or `None` when no candidate applies to the field.
///
/// `base` supplies the codecs/bounds; its `model` field is ignored.
/// Candidates that cannot apply (e.g. one-base on a 1-D field) are
/// skipped. Unless [`SelectionOptions::exhaustive`] is set, trials run
/// on a strided subsample of about 5% of the field, falling back to the
/// full field when it is too small to subsample — this is what makes a
/// long-lived service's SelectModel request cheap enough to run
/// per-field.
pub fn select_best_model_with(
    field: &Field,
    candidates: &[ReducedModelKind],
    base: &PipelineConfig,
    options: &SelectionOptions,
) -> Option<SelectionOutcome> {
    let subsample = if options.exhaustive {
        None
    } else {
        strided_subsample(field)
    };
    let sampled = subsample.is_some();
    let subject = subsample.as_ref().unwrap_or(field);

    let mut results: Vec<CandidateResult> = Vec::new();
    for &model in candidates {
        // Skip inapplicable combinations rather than panic.
        if !model.applies_to(subject.shape) {
            continue;
        }
        let cfg = PipelineConfig { model, ..*base };
        let art = precondition_impl(subject, None, &cfg);
        results.push(CandidateResult {
            model,
            report: art.report,
        });
    }
    if results.is_empty() {
        return None;
    }
    results.sort_by(|a, b| b.report.ratio().total_cmp(&a.report.ratio()));
    Some(SelectionOutcome {
        winner: results[0].model,
        results,
        sampled,
    })
}

/// Builds the strided trial field: every `SAMPLE_STRIDE`-th z-plane
/// (3-D) or row (2-D) or element (1-D), keeping enough slabs that
/// blocked models still see structure. Returns `None` when the field is
/// too small to subsample — the caller then runs full-field.
fn strided_subsample(field: &Field) -> Option<Field> {
    let n = field.shape.len();
    if n <= MIN_SAMPLE_LEN {
        return None;
    }
    let [nx, ny, nz] = field.shape.dims;
    if nz > 1 {
        let keep = slab_indices(nz)?;
        let plane = nx * ny;
        let mut data = Vec::with_capacity(keep.len() * plane);
        for &z in &keep {
            data.extend_from_slice(&field.data[z * plane..(z + 1) * plane]);
        }
        let shape = Shape::d3(nx, ny, keep.len());
        Some(Field::new(format!("{}~sample", field.name), data, shape))
    } else if ny > 1 {
        let keep = slab_indices(ny)?;
        let mut data = Vec::with_capacity(keep.len() * nx);
        for &y in &keep {
            data.extend_from_slice(&field.data[y * nx..(y + 1) * nx]);
        }
        let shape = Shape::d2(nx, keep.len());
        Some(Field::new(format!("{}~sample", field.name), data, shape))
    } else {
        let keep: Vec<f64> = field.data.iter().step_by(SAMPLE_STRIDE).copied().collect();
        if keep.len() < 16 || keep.len() >= n {
            return None;
        }
        let shape = Shape::d1(keep.len());
        Some(Field::new(format!("{}~sample", field.name), keep, shape))
    }
}

/// Indices of the slabs a strided sample keeps: every `SAMPLE_STRIDE`-th
/// of `count`, with the stride shrunk so at least 4 slabs survive.
/// `None` means the sample would not actually shrink the field.
fn slab_indices(count: usize) -> Option<Vec<usize>> {
    let stride = SAMPLE_STRIDE.min(count.div_ceil(4));
    (stride > 1).then(|| (0..count).step_by(stride).collect())
}

/// The default candidate set: direct plus every self-contained reduced
/// model.
pub fn default_candidates() -> Vec<ReducedModelKind> {
    vec![
        ReducedModelKind::Direct,
        ReducedModelKind::OneBase,
        ReducedModelKind::MultiBase(4),
        ReducedModelKind::Pca,
        ReducedModelKind::Svd,
        ReducedModelKind::Wavelet,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrm_compress::Shape;

    /// Full-field trials over the default candidates.
    fn exhaustive(f: &Field, base: &PipelineConfig) -> SelectionOutcome {
        let options = SelectionOptions { exhaustive: true };
        select_best_model_with(f, &default_candidates(), base, &options).expect("candidates apply")
    }

    #[test]
    fn selector_prefers_preconditioning_on_symmetric_3d_data() {
        let n = 12;
        let shape = Shape::d3(n, n, n);
        let mut data = Vec::with_capacity(shape.len());
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let zf = z as f64 / (n - 1) as f64;
                    data.push(
                        100.0 * (std::f64::consts::PI * zf).sin()
                            + 0.5 * ((x + y) as f64 * 0.4).sin(),
                    );
                }
            }
        }
        let f = Field::new("sym", data, shape);
        let base = PipelineConfig::sz(ReducedModelKind::Direct);
        let out = exhaustive(&f, &base);
        assert_ne!(out.winner, ReducedModelKind::Wavelet);
        assert!(out.results.len() >= 4);
        // Results are sorted best-first.
        for w in out.results.windows(2) {
            assert!(w[0].report.ratio() >= w[1].report.ratio());
        }
    }

    #[test]
    fn selector_falls_back_to_direct_on_zero_dominated_data() {
        // Fish-like: mostly exact zeros. Preconditioners smear the zeros;
        // direct SZ keeps them free.
        let shape = Shape::d2(32, 32);
        let mut data = vec![0.0; shape.len()];
        for i in (0..shape.len()).step_by(17) {
            data[i] = (i as f64 * 0.3).sin() + 2.0;
        }
        let f = Field::new("fishy", data, shape);
        let base = PipelineConfig::sz(ReducedModelKind::Direct);
        assert_eq!(exhaustive(&f, &base).winner, ReducedModelKind::Direct);
    }

    #[test]
    fn inapplicable_candidates_are_skipped() {
        let shape = Shape::d1(64);
        let data: Vec<f64> = (0..64).map(|i| (i as f64 * 0.2).sin()).collect();
        let f = Field::new("line", data, shape);
        let base = PipelineConfig::sz(ReducedModelKind::Direct);
        assert!(exhaustive(&f, &base)
            .results
            .iter()
            .all(|r| !matches!(r.model, ReducedModelKind::OneBase)));
    }

    #[test]
    fn no_applicable_candidate_is_none_not_panic() {
        let f = Field::new("x", vec![0.0; 4], Shape::d1(4));
        let base = PipelineConfig::sz(ReducedModelKind::Direct);
        let out = select_best_model_with(
            &f,
            &[ReducedModelKind::DuoModel],
            &base,
            &SelectionOptions::default(),
        );
        assert!(out.is_none());
    }

    #[test]
    fn tiny_fields_fall_back_to_full_field() {
        // At or below MIN_SAMPLE_LEN the trials must run full-field.
        let shape = Shape::d3(8, 8, 8);
        let data: Vec<f64> = (0..shape.len()).map(|i| (i as f64 * 0.01).sin()).collect();
        let f = Field::new("tiny", data, shape);
        let base = PipelineConfig::sz(ReducedModelKind::Direct);
        let out = select_best_model_with(
            &f,
            &default_candidates(),
            &base,
            &SelectionOptions::default(),
        )
        .expect("candidates apply");
        assert!(!out.sampled);
    }

    #[test]
    fn subsample_keeps_whole_planes_and_shrinks() {
        let shape = Shape::d3(16, 16, 64);
        let data: Vec<f64> = (0..shape.len()).map(|i| i as f64).collect();
        let f = Field::new("big", data, shape);
        let sub = strided_subsample(&f).expect("sampled");
        let [nx, ny, nz] = sub.shape.dims;
        assert_eq!((nx, ny), (16, 16));
        assert!((4..64).contains(&nz), "kept {nz} planes");
        // First kept plane is plane 0, verbatim.
        assert_eq!(sub.data[..256], f.data[..256]);
    }

    #[test]
    fn sampled_winner_matches_exhaustive_winner_on_seed_datasets() {
        use lrm_datasets::{generate, DatasetKind, SizeClass};
        let base = PipelineConfig::sz(ReducedModelKind::Direct);
        let sampled_opts = SelectionOptions::default();
        let exhaustive_opts = SelectionOptions { exhaustive: true };
        for kind in [DatasetKind::Heat3d, DatasetKind::Laplace, DatasetKind::Fish] {
            let field = generate(kind, SizeClass::Small).full;
            let sampled =
                select_best_model_with(&field, &default_candidates(), &base, &sampled_opts)
                    .expect("candidates apply");
            let exhaustive =
                select_best_model_with(&field, &default_candidates(), &base, &exhaustive_opts)
                    .expect("candidates apply");
            assert!(!exhaustive.sampled);
            assert_eq!(
                sampled.winner,
                exhaustive.winner,
                "{}: sampled ({}) vs exhaustive ({}) winner diverged",
                field.name,
                sampled.winner.name(),
                exhaustive.winner.name(),
            );
        }
    }
}
