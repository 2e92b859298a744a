//! Zero-dependency benchmark harness for the lrm codecs.
//!
//! It times the three paper codecs — SZ (block-relative 1e-5), ZFP
//! (fixed-precision 16), FPC (level 20) — over the dataset registry with
//! warmup and median-of-k, and serializes the results as a small JSON
//! document (`BENCH_*.json`) so the perf trajectory is recorded in-repo,
//! not asserted in prose.
//!
//! Everything here is std-only: timing via `std::time::Instant`, JSON
//! via the hand-rolled writer/parser in [`json`].
//!
//! [`record`] turns paired runs of the repository benchmark (`perfbench/`)
//! into an `lrm-bench/v2` record: per workload and metric, each side's
//! median and quartiles and the wins of each side.

pub mod json;
pub mod record;

use lrm_compress::{Codec, Fpc, Sz, Zfp};
use lrm_datasets::{generate, DatasetKind, SizeClass};

use json::Json;

/// One (codec, dataset) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Codec display name (`SZ`, `ZFP`, `FPC`).
    pub codec: String,
    /// Dataset registry name.
    pub dataset: String,
    /// Compression throughput over the uncompressed size, MB/s.
    pub encode_mbps: f64,
    /// Decompression throughput over the uncompressed size, MB/s.
    pub decode_mbps: f64,
    /// Uncompressed bytes / compressed bytes.
    pub ratio: f64,
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Dataset size class the fields are generated at.
    pub size: SizeClass,
    /// Median-of-k repetitions per measurement.
    pub reps: usize,
    /// Quick mode: one dataset per codec (the CI smoke configuration).
    pub quick: bool,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            size: SizeClass::Small,
            reps: 5,
            quick: false,
        }
    }
}

/// The paper's codec configurations (SZ rel 1e-5, ZFP 16 bit planes,
/// FPC level 20).
pub fn paper_codecs() -> Vec<Box<dyn Codec>> {
    vec![
        Box::new(Sz::block_rel(1e-5)),
        Box::new(Zfp::fixed_precision(16)),
        Box::new(Fpc::new(20)),
    ]
}

/// Median seconds per call: one warmup/calibration ramp (batch size
/// doubles until a batch spans >= 5 ms, so short calls are timed in
/// aggregate), then `reps` timed batches reduced by median.
pub fn time_per_call(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut iters = 1usize;
    loop {
        let t = std::time::Instant::now();
        for _ in 0..iters {
            f();
        }
        if t.elapsed().as_secs_f64() >= 0.005 || iters >= (1 << 20) {
            break;
        }
        iters *= 2;
    }
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = std::time::Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples.get(samples.len() / 2).copied().unwrap_or(f64::NAN)
}

/// Times one codec over one generated field.
pub fn measure_one(codec: &dyn Codec, kind: DatasetKind, config: &BenchConfig) -> BenchResult {
    let field = generate(kind, config.size).full;
    let bytes = (field.data.len() * 8) as f64;
    let encoded = codec.compress(&field.data, field.shape);
    let ratio = bytes / encoded.len().max(1) as f64;

    let enc_t = time_per_call(config.reps, || {
        let out = codec.compress(&field.data, field.shape);
        std::hint::black_box(&out);
    });
    let dec_t = time_per_call(config.reps, || {
        let out = codec.decompress(&encoded, field.shape);
        std::hint::black_box(&out);
    });

    BenchResult {
        codec: codec.name().to_string(),
        dataset: kind.name().to_string(),
        encode_mbps: bytes / enc_t.max(1e-12) / 1e6,
        decode_mbps: bytes / dec_t.max(1e-12) / 1e6,
        ratio,
    }
}

/// Runs the full grid (or the quick diagonal) and returns one result per
/// (codec, dataset) pair. `progress` is called before each measurement
/// with a human-readable label.
pub fn run(config: &BenchConfig, mut progress: impl FnMut(&str)) -> Vec<BenchResult> {
    let codecs = paper_codecs();
    let mut results = Vec::new();
    if config.quick {
        // One dataset per codec: a distinct field each so the smoke run
        // still touches different data shapes.
        for (i, codec) in codecs.iter().enumerate() {
            let kind = DatasetKind::ALL[i % DatasetKind::ALL.len()];
            progress(&format!("{} / {}", codec.name(), kind.name()));
            results.push(measure_one(codec.as_ref(), kind, config));
        }
    } else {
        for kind in DatasetKind::ALL {
            for codec in &codecs {
                progress(&format!("{} / {}", codec.name(), kind.name()));
                results.push(measure_one(codec.as_ref(), kind, config));
            }
        }
    }
    results
}

/// Serializes results to the committed `BENCH_*.json` layout
/// (`schema: lrm-bench/v1`).
pub fn to_json(results: &[BenchResult], size: SizeClass, reps: usize) -> String {
    let size_name = match size {
        SizeClass::Tiny => "tiny",
        SizeClass::Small => "small",
        SizeClass::Paper => "paper",
    };
    let rows: Vec<Json> = results
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("codec".into(), Json::Str(r.codec.clone())),
                ("dataset".into(), Json::Str(r.dataset.clone())),
                ("encode_mbps".into(), Json::Num(r.encode_mbps)),
                ("decode_mbps".into(), Json::Num(r.decode_mbps)),
                ("ratio".into(), Json::Num(r.ratio)),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str("lrm-bench/v1".into())),
        ("size".into(), Json::Str(size_name.into())),
        ("reps".into(), Json::Num(reps as f64)),
        ("results".into(), Json::Arr(rows)),
    ]);
    doc.pretty()
}

/// Parses a `BENCH_*.json` document back into results. Tolerant of
/// unknown extra keys; strict about the schema tag.
pub fn from_json(text: &str) -> Result<Vec<BenchResult>, String> {
    let doc = json::parse_json(text)?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("lrm-bench/v1") => {}
        other => return Err(format!("unsupported bench schema: {other:?}")),
    }
    let rows = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("missing results array")?;
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let field = |k: &str| -> Result<f64, String> {
            row.get(k)
                .and_then(Json::as_num)
                .ok_or(format!("result missing numeric {k:?}"))
        };
        let name = |k: &str| -> Result<String, String> {
            Ok(row
                .get(k)
                .and_then(Json::as_str)
                .ok_or(format!("result missing string {k:?}"))?
                .to_string())
        };
        out.push(BenchResult {
            codec: name("codec")?,
            dataset: name("dataset")?,
            encode_mbps: field("encode_mbps")?,
            decode_mbps: field("decode_mbps")?,
            ratio: field("ratio")?,
        });
    }
    Ok(out)
}

/// Compares `current` against a `baseline`, returning one message per
/// (codec, dataset) pair whose encode or decode throughput dropped more
/// than `tolerance` (fractional, e.g. 0.30). Pairs absent from either
/// side are ignored, so the quick smoke can be gated against a full run.
pub fn regressions(
    current: &[BenchResult],
    baseline: &[BenchResult],
    tolerance: f64,
) -> Vec<String> {
    let mut msgs = Vec::new();
    for base in baseline {
        let Some(cur) = current
            .iter()
            .find(|c| c.codec == base.codec && c.dataset == base.dataset)
        else {
            continue;
        };
        let floor = 1.0 - tolerance;
        for (what, now, then) in [
            ("encode", cur.encode_mbps, base.encode_mbps),
            ("decode", cur.decode_mbps, base.decode_mbps),
        ] {
            if then > 0.0 && now < then * floor {
                msgs.push(format!(
                    "{}/{} {} throughput regressed: {:.1} MB/s vs baseline {:.1} MB/s (floor {:.1})",
                    cur.codec,
                    cur.dataset,
                    what,
                    now,
                    then,
                    then * floor,
                ));
            }
        }
    }
    msgs
}

/// Renders results as an aligned text table (via lrm-cli's renderer, so
/// bench output matches the experiment tables).
pub fn render_table(results: &[BenchResult]) -> String {
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.codec.clone(),
                r.dataset.clone(),
                lrm_cli::table::f(r.encode_mbps),
                lrm_cli::table::f(r.decode_mbps),
                lrm_cli::table::f(r.ratio),
            ]
        })
        .collect();
    lrm_cli::table::render(
        &["codec", "dataset", "enc MB/s", "dec MB/s", "ratio"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<BenchResult> {
        vec![
            BenchResult {
                codec: "SZ".into(),
                dataset: "heat3d".into(),
                encode_mbps: 123.456,
                decode_mbps: 456.789,
                ratio: 7.5,
            },
            BenchResult {
                codec: "ZFP".into(),
                dataset: "wave".into(),
                encode_mbps: 88.0,
                decode_mbps: 99.0,
                ratio: 4.25,
            },
        ]
    }

    #[test]
    fn json_roundtrip() {
        let text = to_json(&sample(), SizeClass::Tiny, 5);
        let back = from_json(&text).expect("parse");
        for (a, b) in sample().iter().zip(&back) {
            assert_eq!(a.codec, b.codec);
            assert_eq!(a.dataset, b.dataset);
            assert!((a.encode_mbps - b.encode_mbps).abs() < 1e-6);
            assert!((a.decode_mbps - b.decode_mbps).abs() < 1e-6);
            assert!((a.ratio - b.ratio).abs() < 1e-6);
        }
    }

    /// Every committed record still parses: the v1 rows, including the
    /// serve rows of `BENCH_before_pr6.json` and `BENCH_pr6.json` that no
    /// harness writes any more, and the v2 paired records.
    #[test]
    fn committed_records_load() {
        for (name, rows) in [
            ("BENCH_baseline.json", 3),
            ("BENCH_before_pr4.json", 27),
            ("BENCH_pr4.json", 27),
            ("BENCH_before_pr6.json", 2),
            ("BENCH_pr6.json", 4),
            ("BENCH_before_pr24.json", 27),
            ("BENCH_pr24.json", 27),
        ] {
            let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            let results = from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(results.len(), rows, "{name}");
            for r in &results {
                assert!(
                    r.encode_mbps > 0.0 && r.decode_mbps > 0.0 && r.ratio > 0.0,
                    "{name}: {r:?}"
                );
            }
        }
        for (name, workloads) in [
            ("BENCH_pr25.json", 3),
            ("BENCH_pr26.json", 3),
            ("BENCH_pr27.json", 3),
        ] {
            let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            let rec = record::Record::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(rec.workloads.len(), workloads, "{name}");
            for w in &rec.workloads {
                assert!(w.pairs > 0 && !w.metrics.is_empty(), "{name}: {}", w.name);
                for m in &w.metrics {
                    let what = format!("{name}: {} {}", w.name, m.spec.name);
                    assert!(m.pairs <= w.pairs, "{what}");
                    assert!(m.change_wins + m.parent_wins <= m.pairs, "{what}");
                    for side in [&m.parent, &m.change] {
                        assert_eq!(side.runs.len(), m.pairs, "{what}");
                        assert!(side.q1 <= side.median && side.median <= side.q3, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn rejects_wrong_schema() {
        assert!(from_json(r#"{"schema":"other/v9","results":[]}"#).is_err());
        assert!(from_json("not json").is_err());
    }

    #[test]
    fn regression_gate_fires_only_past_tolerance() {
        let base = sample();
        let mut cur = sample();
        assert!(regressions(&cur, &base, 0.30).is_empty());
        cur[0].decode_mbps = base[0].decode_mbps * 0.75; // within 30%
        assert!(regressions(&cur, &base, 0.30).is_empty());
        cur[0].decode_mbps = base[0].decode_mbps * 0.5; // past it
        let msgs = regressions(&cur, &base, 0.30);
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("SZ/heat3d decode"));
    }

    #[test]
    fn regression_gate_ignores_missing_pairs() {
        let base = sample();
        let cur = vec![base[0].clone()];
        assert!(regressions(&cur, &base, 0.30).is_empty());
    }

    #[test]
    fn table_renders_all_rows() {
        let t = render_table(&sample());
        assert!(t.contains("SZ") && t.contains("wave") && t.contains("ratio"));
    }

    #[test]
    fn time_per_call_is_positive_and_finite() {
        let mut acc = 0u64;
        let t = time_per_call(3, || {
            acc = acc.wrapping_add(1);
            std::hint::black_box(acc);
        });
        assert!(t.is_finite() && t > 0.0);
    }

    #[test]
    fn quick_run_measures_one_dataset_per_codec() {
        let config = BenchConfig {
            size: SizeClass::Tiny,
            reps: 1,
            quick: true,
        };
        let results = run(&config, |_| {});
        let codecs: Vec<&str> = results.iter().map(|r| r.codec.as_str()).collect();
        assert_eq!(codecs, vec!["SZ", "ZFP", "FPC"]);
        for r in &results {
            assert!(r.encode_mbps > 0.0 && r.decode_mbps > 0.0 && r.ratio > 0.0);
        }
    }
}
