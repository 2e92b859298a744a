//! The pipeline workloads, `dimred-serial` and `slabs-3d`: one caller in
//! a closed loop, compressing and then reconstructing each op's field
//! through `Pipeline`.

use crate::layers::{self, Extra};
use crate::ops::{check, op_list, shuffle, stream_rng, Inputs, Op, Workload, POOL};
use crate::replay::{self, family};
use crate::report::{median, peak_rss_mb, percentile_ms, Report};
use crate::trace::Tracer;
use lrm_core::{LossyCodec, Pipeline, PipelineBuilder};
use lrm_datasets::Field;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Times set-up is repeated in an untraced run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

pub fn pipeline(workload: Workload, op: &Op) -> Pipeline {
    let (chunks, threads) = workload.chunks_threads();
    PipelineBuilder::from_config(op.codecs.config(op.model))
        .chunks(chunks)
        .threads(threads)
        .build()
}

/// Times the first call of each codec configuration in the process and
/// the warm calls after it, on `field`. Must run before any other codec
/// call of the run.
pub fn cold_probe(configs: &[LossyCodec], field: &Field, extra: &mut Extra) {
    for codec in configs {
        let f = family(codec);
        let t = Instant::now();
        std::hint::black_box(codec.compress(&field.data, field.shape));
        let cold = t.elapsed().as_secs_f64() * 1e3;
        let warm: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(codec.compress(&field.data, field.shape));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        // The family's first configuration is its cold call.
        if extra.cold_ms[f] == 0.0 {
            extra.cold_ms[f] = cold;
            extra.warm_ms[f] = median(&warm);
        }
    }
}

/// One op's untraced result.
struct Done {
    compress: Duration,
    reconstruct: Duration,
    bytes: Vec<u8>,
    restored: Vec<f64>,
    err: f64,
}

fn run_op(workload: Workload, op: &Op, field: &Field) -> Result<Done, String> {
    let pipe = pipeline(workload, op);
    catch_unwind(AssertUnwindSafe(|| {
        let t = Instant::now();
        let art = pipe.compress(field);
        let compress = t.elapsed();
        let t = Instant::now();
        let (restored, shape) = pipe.reconstruct(&art.bytes).map_err(|e| e.to_string())?;
        let reconstruct = t.elapsed();
        let err = check(op, field, &restored, shape)?;
        Ok(Done {
            compress,
            reconstruct,
            bytes: art.bytes,
            restored,
            err,
        })
    }))
    .unwrap_or_else(|_| Err("op panicked".to_owned()))
}

fn digest(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    bytes.hash(&mut h);
    h.finish()
}

/// One timed pass's totals.
#[derive(Default)]
struct PassTotals {
    raw: usize,
    ops: usize,
    compress: Duration,
    reconstruct: Duration,
}

pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let mut extra = Extra::default();

    // Set-up: input generation and the seeded op list.
    let mut setup_times = Vec::new();
    let mut setup = None;
    for _ in 0..if trace { 1 } else { SETUP_REPEATS } {
        drop(setup.take());
        let t = Instant::now();
        let inputs = Inputs::generate(workload);
        let ops = op_list(workload, &inputs, seed);
        setup_times.push(t.elapsed().as_secs_f64());
        setup = Some((inputs, ops));
    }
    let (inputs, ops) = setup.expect("at least one set-up");
    extra.generate_s = setup_times[0];
    if trace {
        let probe = inputs.field(&ops[0]);
        let (sz, _) = lrm_core::sz_paper_bounds();
        let (zfp, _) = lrm_core::zfp_paper_bounds();
        cold_probe(&[sz, zfp], probe, &mut extra);
    }

    // Pass 0 warms caches and is not timed. The first POOL passes run
    // every op on every pool snapshot once: they fix `ratio`,
    // `max_err_rel` and the artifact digests later passes must
    // reproduce. Timed passes run until `seconds` have passed, and at
    // least until the first POOL passes are done.
    let tracer = Tracer::new();
    let mut next_op = 0u64;
    let mut digests: HashMap<(usize, usize), u64> = HashMap::new();
    let (mut raw, mut stored, mut worst) = (0usize, 0usize, 0.0f64);
    let (mut compress_t, mut reconstruct_t) = (Vec::new(), Vec::new());
    let mut passes: Vec<PassTotals> = Vec::new();
    let mut start = Instant::now();
    for pass in 0.. {
        if pass == 1 {
            start = Instant::now();
        }
        if pass >= POOL && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let mut order: Vec<usize> = (0..ops.len()).collect();
        shuffle(&mut order, &mut stream_rng(workload, seed, pass as u64));
        let mut totals = PassTotals::default();
        for i in order {
            let op = ops[i].at_pass(pass);
            let field = inputs.field(&op);
            report.attempted += 1;
            let done = match run_op(workload, &op, field) {
                Ok(d) => d,
                Err(why) => {
                    report.failed += 1;
                    report.note(format!("FAILED {op:?}: {why}"));
                    continue;
                }
            };
            let digest = digest(&done.bytes);
            if *digests.entry((i, op.snapshot)).or_insert(digest) != digest {
                report.failed += 1;
                report.note(format!(
                    "FAILED {op:?}: artifact bytes changed between passes"
                ));
                continue;
            }
            if pass < POOL {
                raw += field.nbytes();
                stored += done.bytes.len();
                worst = worst.max(done.err);
            }
            if pass == 0 {
                continue;
            }
            compress_t.push(done.compress);
            reconstruct_t.push(done.reconstruct);
            totals.raw += field.nbytes();
            totals.ops += 1;
            totals.compress += done.compress;
            totals.reconstruct += done.reconstruct;
            if trace {
                next_op += 1;
                extra
                    .untraced
                    .insert(next_op, done.compress + done.reconstruct);
                if !replay_matches(&tracer, next_op, &pipeline(workload, &op), field, &done) {
                    extra.mismatches += 1;
                    report.failed += 1;
                    report.note(format!(
                        "FAILED {op:?}: traced replay differs from Pipeline"
                    ));
                }
            }
        }
        if pass > 0 {
            passes.push(totals);
        }
    }

    let op_t: Vec<Duration> = compress_t
        .iter()
        .zip(&reconstruct_t)
        .map(|(c, r)| *c + *r)
        .collect();
    report.note(format!(
        "{} ops per pass, {} timed passes, {} timed ops; rates are medians over passes, \
         percentiles are over all timed ops",
        ops.len(),
        passes.len(),
        op_t.len()
    ));
    let per_pass =
        |f: &dyn Fn(&PassTotals) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    if trace {
        let (spans, counters) = tracer.finish();
        layers::put(&mut report, &spans, &counters, &extra);
    } else {
        report.put("setup_s", "s", median(&setup_times));
        report.put(
            "compress_mbps",
            "MB/s",
            per_pass(&|p| p.raw as f64 / p.compress.as_secs_f64() / 1e6),
        );
        report.put(
            "reconstruct_mbps",
            "MB/s",
            per_pass(&|p| p.raw as f64 / p.reconstruct.as_secs_f64() / 1e6),
        );
        report.put("compress_p50_ms", "ms", percentile_ms(&compress_t, 0.5));
        report.put("compress_p90_ms", "ms", percentile_ms(&compress_t, 0.9));
        report.put(
            "serve_rps",
            "req/s",
            per_pass(&|p| p.ops as f64 / (p.compress + p.reconstruct).as_secs_f64()),
        );
        report.put("serve_p50_ms", "ms", percentile_ms(&op_t, 0.5));
        report.put("serve_p99_ms", "ms", percentile_ms(&op_t, 0.99));
        report.put("ratio", "x", raw as f64 / stored.max(1) as f64);
        report.put("max_err_rel", "1", worst);
        report.put("peak_rss_mb", "MB", peak_rss_mb());
    }
    report
}

/// Replays one op under the tracer and checks it rebuilt the untraced
/// bytes: each chunk's `rep` and `delta` sections, the whole stream, and
/// the reconstructed values bit for bit.
fn replay_matches(tracer: &Tracer, op: u64, pipe: &Pipeline, field: &Field, done: &Done) -> bool {
    let Ok(replayed) = replay::compress(tracer.root(op), pipe, field, &done.bytes) else {
        return false;
    };
    let Ok(untraced) = replay::untraced_chunks(&done.bytes) else {
        return false;
    };
    let sections_match = untraced.len() == replayed.chunks.len()
        && untraced.iter().zip(&replayed.chunks).all(|((_, art), s)| {
            art.get("rep") == Some(&s.rep[..]) && art.get("delta") == Some(&s.delta[..])
        });
    let restored = replay::reconstruct(tracer.root(op), pipe, &done.bytes, field.shape);
    sections_match
        && replayed.bytes == done.bytes
        && restored.is_ok_and(|r| {
            r.len() == done.restored.len()
                && r.iter()
                    .zip(&done.restored)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(report: &Report, name: &str) -> f64 {
        report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .expect(name)
    }

    #[test]
    fn ratio_and_max_err_repeat_for_a_seed() {
        let a = run(Workload::DimredSerial, 5, 0.01, false);
        let b = run(Workload::DimredSerial, 5, 0.01, false);
        assert_eq!((a.failed, b.failed), (0, 0));
        for name in ["ratio", "max_err_rel"] {
            assert_eq!(
                metric(&a, name).to_bits(),
                metric(&b, name).to_bits(),
                "{name}"
            );
        }
    }

    #[test]
    fn traced_run_separates_the_layers() {
        let r = run(Workload::DimredSerial, 1, 0.01, true);
        assert_eq!(r.failed, 0);
        assert_eq!(metric(&r, "trace.replay_mismatches"), 0.0);
        assert_eq!(metric(&r, "parallel.chunk_busy_s"), 0.0);
        assert_eq!(metric(&r, "compress.fpc_encode_calls"), 0.0);
        // SVD is the largest share of the dimred compress time.
        let svd = metric(&r, "linalg.svd_s");
        for other in [
            "linalg.pca_fit_s",
            "wavelet.fit_s",
            "compress.sz_encode_s",
            "compress.zfp_encode_s",
        ] {
            assert!(svd > metric(&r, other), "{other}");
        }
    }
}
