//! The three workloads' inputs, generated from the seed.
//!
//! The seed picks every op's snapshot from a pool of late time steps
//! per dataset and sets the op order; the program only ever receives
//! the generated fields. Op lists leave out the combinations the encode
//! path panics on today: one-base and multi-base on 1-D fields, and
//! DuoModel (it needs a coarse companion run).

use lrm_core::{LossyCodec, PipelineConfig, ReducedModelKind};
use lrm_datasets::{snapshots, DatasetKind, Field, SizeClass};
use lrm_rng::Rng64;

/// Snapshots generated per dataset; the pool is the later half, where
/// consecutive time steps compress alike.
pub const SNAPSHOTS: usize = 8;
pub const POOL: usize = 4;

/// The seed later performance claims re-check on; it is not used while
/// a change is being written.
pub const HELD_OUT_SEED: u64 = 9_176_543;

/// Worst pointwise `|x - x̂| / (max x - min x)` an op may show before it
/// counts as failed, per delta codec. SZ holds the paper's 1e-3 delta
/// bound with a 2x margin for block-relative slack; ZFP's fixed 8-bit
/// precision gives no pointwise bound, so its ceiling records today's
/// worst case (about 0.31 on Astro) with margin; FPC must be bit-exact.
pub const CEILING_SZ: f64 = 2e-3;
pub const CEILING_ZFP: f64 = 0.5;
pub const CEILING_FPC: f64 = 0.0;

/// A codec setting: the paper's dual SZ or ZFP bounds, or FPC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codecs {
    Sz,
    Zfp,
    Fpc,
}

impl Codecs {
    pub fn config(self, model: ReducedModelKind) -> PipelineConfig {
        match self {
            Codecs::Sz => PipelineConfig::sz(model),
            Codecs::Zfp => PipelineConfig::zfp(model),
            Codecs::Fpc => PipelineConfig {
                orig: LossyCodec::FpcLossless(20),
                delta: LossyCodec::FpcLossless(20),
                ..PipelineConfig::sz(model)
            },
        }
    }

    pub fn ceiling(self) -> f64 {
        match self {
            Codecs::Sz => CEILING_SZ,
            Codecs::Zfp => CEILING_ZFP,
            Codecs::Fpc => CEILING_FPC,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DimredSerial,
    Slabs3d,
    ServeMixed,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "dimred-serial" => Some(Workload::DimredSerial),
            "slabs-3d" => Some(Workload::Slabs3d),
            "serve-mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    fn salt(self) -> u64 {
        match self {
            Workload::DimredSerial => 0x6469_6d72,
            Workload::Slabs3d => 0x736c_6162,
            Workload::ServeMixed => 0x7365_7276,
        }
    }

    /// Datasets and size classes the workload draws fields from.
    pub fn datasets(self) -> Vec<(DatasetKind, SizeClass)> {
        use DatasetKind::*;
        use SizeClass::*;
        match self {
            Workload::DimredSerial => vec![
                (Heat3d, Small),
                (Laplace, Small),
                (Wave, Small),
                (Fish, Small),
                (Yf17Temp, Small),
                (Umbrella, Small),
            ],
            Workload::Slabs3d => vec![(Astro, Paper), (SedovPres, Paper), (Yf17Temp, Paper)],
            Workload::ServeMixed => vec![
                (Heat3d, Tiny),
                (Astro, Tiny),
                (SedovPres, Tiny),
                (Yf17Temp, Tiny),
                (Laplace, Small),
                (Fish, Small),
                (Wave, Small),
                (Umbrella, Small),
            ],
        }
    }

    fn models(self) -> Vec<ReducedModelKind> {
        use ReducedModelKind::*;
        match self {
            Workload::DimredSerial => vec![Pca, Svd, Wavelet],
            Workload::Slabs3d => vec![Direct, OneBase, MultiBase(4)],
            Workload::ServeMixed => vec![Direct, OneBase, MultiBase(4), Pca, Wavelet],
        }
    }

    /// Chunk and thread counts of the pipeline workloads.
    pub fn chunks_threads(self) -> (usize, usize) {
        match self {
            Workload::Slabs3d => (8, 2),
            _ => (1, 1),
        }
    }
}

/// One pipeline op: compress one snapshot under one model and codec
/// setting, then reconstruct it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Index into [`Inputs::fields`].
    pub dataset: usize,
    /// Index into that dataset's snapshot pool.
    pub snapshot: usize,
    pub model: ReducedModelKind,
    pub codecs: Codecs,
}

/// True for the combinations today's encode path panics on.
pub fn panics_today(model: ReducedModelKind, ndims: usize) -> bool {
    match model {
        ReducedModelKind::DuoModel => true,
        ReducedModelKind::OneBase | ReducedModelKind::MultiBase(_) => ndims < 2,
        _ => false,
    }
}

/// The workload's generated inputs: a snapshot pool per dataset.
pub struct Inputs {
    pub fields: Vec<(DatasetKind, Vec<Field>)>,
}

impl Inputs {
    pub fn generate(workload: Workload) -> Inputs {
        let fields = workload
            .datasets()
            .into_iter()
            .map(|(kind, size)| {
                let mut all = snapshots(kind, SNAPSHOTS, size);
                (kind, all.split_off(SNAPSHOTS - POOL))
            })
            .collect();
        Inputs { fields }
    }

    pub fn field(&self, op: &Op) -> &Field {
        &self.fields[op.dataset].1[op.snapshot]
    }
}

impl Op {
    /// The op as pass `pass` runs it: passes step through the snapshot
    /// pool from the seeded starting snapshot, so any `POOL` consecutive
    /// passes cover every snapshot once.
    pub fn at_pass(&self, pass: usize) -> Op {
        Op {
            snapshot: (self.snapshot + pass) % POOL,
            ..*self
        }
    }
}

/// Whether `model` runs on dataset `kind` in `workload`: the panicking
/// combinations are left out, and so is PCA on the served Fish field
/// (about 37 ms per request, far above the rest of the mix).
fn applies(workload: Workload, kind: DatasetKind, ndims: usize, model: ReducedModelKind) -> bool {
    if panics_today(model, ndims) {
        return false;
    }
    !(workload == Workload::ServeMixed
        && kind == DatasetKind::Fish
        && model == ReducedModelKind::Pca)
}

/// Served datasets that also get an FPC-lossless `Direct` op. FPC pays
/// for two 8 MB predictor tables on every call, about 3-7 ms against
/// under 1 ms for the rest of the mix, so two datasets keep it in the
/// latency tail without letting it set every rate.
const FPC_DATASETS: [DatasetKind; 2] = [DatasetKind::Laplace, DatasetKind::Wave];

/// Every op of the workload, each with a seeded starting snapshot, in a
/// seeded order.
pub fn op_list(workload: Workload, inputs: &Inputs, seed: u64) -> Vec<Op> {
    let mut rng = Rng64::new(seed ^ workload.salt());
    let mut ops = Vec::new();
    for (dataset, (kind, pool)) in inputs.fields.iter().enumerate() {
        let ndims = pool[0].shape.ndims();
        for model in workload.models() {
            if !applies(workload, *kind, ndims, model) {
                continue;
            }
            for codecs in [Codecs::Sz, Codecs::Zfp] {
                ops.push(Op {
                    dataset,
                    snapshot: rng.range_usize(pool.len()),
                    model,
                    codecs,
                });
            }
        }
        if workload == Workload::ServeMixed && FPC_DATASETS.contains(kind) {
            ops.push(Op {
                dataset,
                snapshot: rng.range_usize(pool.len()),
                model: ReducedModelKind::Direct,
                codecs: Codecs::Fpc,
            });
        }
    }
    shuffle(&mut ops, &mut rng);
    ops
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.range_usize(i + 1));
    }
}

/// A generator for the per-pass op order and the served request mix,
/// derived from the seed.
pub fn stream_rng(workload: Workload, seed: u64, stream: u64) -> Rng64 {
    Rng64::new(seed ^ workload.salt() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Worst pointwise error relative to the input's value range.
pub fn max_err_rel(original: &[f64], restored: &[f64]) -> f64 {
    let (lo, hi) = original
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let range = if hi > lo { hi - lo } else { 1.0 };
    original
        .iter()
        .zip(restored)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
        / range
}

/// Checks one reconstruction: shape, finiteness, bit-exactness for FPC
/// and the codec's error ceiling. Returns the error, or why it failed.
pub fn check(
    op: &Op,
    field: &Field,
    restored: &[f64],
    shape: lrm_compress::Shape,
) -> Result<f64, String> {
    if shape != field.shape || restored.len() != field.len() {
        return Err(format!("shape {:?} != {:?}", shape.dims, field.shape.dims));
    }
    if !restored.iter().all(|v| v.is_finite()) {
        return Err("non-finite value in reconstruction".to_owned());
    }
    if op.codecs == Codecs::Fpc
        && !field
            .data
            .iter()
            .zip(restored)
            .all(|(a, b)| a.to_bits() == b.to_bits())
    {
        return Err("FPC-lossless round trip is not bit-exact".to_owned());
    }
    let err = max_err_rel(&field.data, restored);
    if err > op.codecs.ceiling() {
        return Err(format!(
            "max_err_rel {err:e} above ceiling {:e}",
            op.codecs.ceiling()
        ));
    }
    Ok(err)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Workload; 3] = [
        Workload::DimredSerial,
        Workload::Slabs3d,
        Workload::ServeMixed,
    ];

    #[test]
    fn no_generated_op_is_a_combination_that_panics_today() {
        for w in ALL {
            let inputs = Inputs::generate(w);
            for seed in [1, 2, HELD_OUT_SEED] {
                for op in op_list(w, &inputs, seed) {
                    let ndims = inputs.field(&op).shape.ndims();
                    assert!(!panics_today(op.model, ndims), "{w:?}: {op:?}");
                    assert_ne!(op.model, ReducedModelKind::DuoModel);
                }
            }
        }
    }

    #[test]
    fn same_seed_same_ops_and_different_seeds_pick_different_snapshots() {
        for w in ALL {
            let inputs = Inputs::generate(w);
            let a = op_list(w, &inputs, 11);
            assert_eq!(a, op_list(w, &inputs, 11), "{w:?}");
            let b = op_list(w, &inputs, 12);
            let picks = |ops: &[Op]| {
                let mut p: Vec<_> = ops
                    .iter()
                    .map(|o| {
                        (
                            o.dataset,
                            format!("{:?}{:?}", o.model, o.codecs),
                            o.snapshot,
                        )
                    })
                    .collect();
                p.sort();
                p
            };
            assert_ne!(
                picks(&a),
                picks(&b),
                "{w:?}: seeds 11 and 12 picked the same snapshots"
            );
        }
    }

    #[test]
    fn dimred_serial_has_about_36_ops_per_pass() {
        let w = Workload::DimredSerial;
        assert_eq!(op_list(w, &Inputs::generate(w), 1).len(), 36);
    }
}
