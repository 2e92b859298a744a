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

pub mod json;

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
    /// Optional `codec[:dataset]` filter (case-insensitive substring
    /// match on each part), e.g. `FPC` or `sz:heat`.
    pub only: Option<String>,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            size: SizeClass::Small,
            reps: 5,
            quick: false,
            only: None,
        }
    }
}

impl BenchConfig {
    fn selected(&self, codec: &str, dataset: &str) -> bool {
        let Some(filter) = &self.only else {
            return true;
        };
        let mut parts = filter.splitn(2, ':');
        let cpart = parts.next().unwrap_or("");
        let dpart = parts.next().unwrap_or("");
        codec
            .to_ascii_lowercase()
            .contains(&cpart.to_ascii_lowercase())
            && dataset
                .to_ascii_lowercase()
                .contains(&dpart.to_ascii_lowercase())
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

/// Times the serving layer end to end: an in-process `lrm-server` on an
/// ephemeral loopback port, one blocking client, Heat3d at the
/// configured size. For this row the two throughput columns carry
/// **requests per second** (a request is a full frame round trip:
/// connect, send, compute, receive), not MB/s, and `ratio` is the
/// artifact's compression ratio. The committed baselines carry no
/// (`serve`, `loopback`) pair, so [`regressions`] never gates on it —
/// the row records the trajectory.
pub fn measure_serve(config: &BenchConfig) -> BenchResult {
    use lrm_server::{Connection, Server, ServerConfig};

    let field = generate(DatasetKind::Heat3d, config.size).full;
    let server_config = ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", server_config).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.serve());

    let request = serve_compress_request(&field);
    let (report, artifact) = Connection::open(addr)
        .expect("connect")
        .compress(request.clone())
        .expect("compress");
    let ratio = report.ratio();

    // Connect-per-request on purpose: this row is the historical
    // baseline the sweep rows are judged against.
    let enc_t = time_per_call(config.reps, || {
        let mut session = Connection::open(addr).expect("connect");
        let out = session.compress(request.clone()).expect("compress");
        std::hint::black_box(&out);
    });
    let dec_t = time_per_call(config.reps, || {
        let mut session = Connection::open(addr).expect("connect");
        let out = session.decompress(&artifact).expect("decompress");
        std::hint::black_box(&out);
    });

    Connection::open(addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    let _ = handle.join();

    BenchResult {
        codec: "serve".to_string(),
        dataset: "loopback".to_string(),
        encode_mbps: 1.0 / enc_t.max(1e-12),
        decode_mbps: 1.0 / dec_t.max(1e-12),
        ratio,
    }
}

fn serve_compress_request(field: &lrm_datasets::Field) -> lrm_server::CompressRequest {
    use lrm_core::{LossyCodec, ReducedModelKind};
    lrm_server::CompressRequest {
        model: ReducedModelKind::OneBase,
        orig: LossyCodec::SzRel(1e-5),
        delta: LossyCodec::SzRel(1e-3),
        scan_1d: true,
        chunks: 0,
        shape: field.shape,
        data: field.data.clone(),
    }
}

/// Connection counts for the persistent-connection sweep rows.
pub const SWEEP_CONNS: [usize; 3] = [1, 64, 1024];

/// One row of the concurrency sweep: `conns` persistent sessions stay
/// open while pipelined requests are pushed through all of them at
/// once. `decode_mbps` carries ping requests per second (protocol +
/// event-loop overhead), `encode_mbps` carries compress requests per
/// second (compute through the worker pool), and `ratio` is the
/// artifact's compression ratio from one untimed round trip. Every
/// request is answered on the connection that sent it and matched by
/// request id, so the row also doubles as a large-scale pipelining
/// check.
pub fn measure_serve_conns(config: &BenchConfig, conns: usize) -> BenchResult {
    use lrm_server::{Connection, Request, Server, ServerConfig};

    let field = generate(DatasetKind::Heat3d, config.size).full;
    let server_config = ServerConfig {
        threads: 2,
        max_inflight: 4096,
        max_connections: conns + 8,
        max_pipeline_depth: 64,
        deadline: std::time::Duration::from_secs(120),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", server_config).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.serve());

    let compress = Request::Compress(serve_compress_request(&field));
    let ratio = match Connection::open(addr).expect("connect").call(&compress) {
        Ok(lrm_server::Response::Compressed { report, .. }) => report.ratio(),
        other => panic!("probe compress failed: {other:?}"),
    };

    let ping = Request::Ping {
        echo: vec![0x5A; 16],
    };
    let (ping_total, compress_total) = if config.quick { (512, 32) } else { (2048, 96) };
    // Both rounds ride the same sessions: a second set opened for the
    // compress round could be refused while the server is still
    // reaping the first.
    let mut sessions: Vec<Connection> = (0..conns.max(1))
        .map(|_| Connection::open(addr).expect("connect"))
        .collect();
    let ping_rps = sweep_round(&mut sessions, ping_total, &ping);
    let compress_rps = sweep_round(&mut sessions, compress_total, &compress);
    drop(sessions);

    Connection::open(addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    let _ = handle.join();

    BenchResult {
        codec: "serve".to_string(),
        dataset: format!("sweep-c{conns}"),
        encode_mbps: compress_rps,
        decode_mbps: ping_rps,
        ratio,
    }
}

/// Drives at least `total` copies of `request` through the open
/// `sessions` and returns requests per second; the clock covers only
/// the request traffic. Up to 8 driver threads each own a share of the
/// sessions and pipeline batches of up to 16 requests per session (send
/// all, then wait all), so many requests ride each socket round trip
/// without exceeding the server's per-connection depth.
fn sweep_round(
    sessions: &mut [lrm_server::Connection],
    total: usize,
    request: &lrm_server::Request,
) -> f64 {
    use std::sync::Barrier;

    let conns = sessions.len().max(1);
    let per_conn = total.div_ceil(conns).max(1);
    let shares: Vec<_> = sessions.chunks_mut(conns.div_ceil(8)).collect();
    let barrier = Barrier::new(shares.len() + 1);

    let elapsed = std::thread::scope(|scope| {
        let barrier = &barrier;
        let drivers: Vec<_> = shares
            .into_iter()
            .map(|share| {
                scope.spawn(move || {
                    barrier.wait();
                    for session in share {
                        let mut remaining = per_conn;
                        while remaining > 0 {
                            let batch = remaining.min(16);
                            let handles: Vec<_> = (0..batch)
                                .map(|_| session.send(request).expect("send"))
                                .collect();
                            for h in handles {
                                session.wait(h).expect("wait");
                            }
                            remaining -= batch;
                        }
                    }
                })
            })
            .collect();
        barrier.wait();
        let clock = std::time::Instant::now();
        for driver in drivers {
            driver.join().expect("driver thread");
        }
        clock.elapsed()
    });

    (per_conn * conns) as f64 / elapsed.as_secs_f64().max(1e-9)
}

/// Runs the full grid (or the quick diagonal) and returns one result per
/// (codec, dataset) pair, plus the [`measure_serve`] loopback row and
/// the [`measure_serve_conns`] persistent-connection sweep. `progress`
/// is called before each measurement with a human-readable label.
pub fn run(config: &BenchConfig, mut progress: impl FnMut(&str)) -> Vec<BenchResult> {
    let codecs = paper_codecs();
    let mut results = Vec::new();
    if config.quick {
        // One dataset per codec: a distinct field each so the smoke run
        // still touches different data shapes.
        for (i, codec) in codecs.iter().enumerate() {
            let kind = DatasetKind::ALL[i % DatasetKind::ALL.len()];
            if !config.selected(codec.name(), kind.name()) {
                continue;
            }
            progress(&format!("{} / {}", codec.name(), kind.name()));
            results.push(measure_one(codec.as_ref(), kind, config));
        }
    } else {
        for kind in DatasetKind::ALL {
            for codec in &codecs {
                if !config.selected(codec.name(), kind.name()) {
                    continue;
                }
                progress(&format!("{} / {}", codec.name(), kind.name()));
                results.push(measure_one(codec.as_ref(), kind, config));
            }
        }
    }
    if config.selected("serve", "loopback") {
        progress("serve / loopback (req/s)");
        results.push(measure_serve(config));
    }
    // The persistent-connection sweep; quick mode stops at 64
    // connections so the smoke run stays short, the full run also
    // covers the c1024 row.
    let sweep: &[usize] = if config.quick {
        &SWEEP_CONNS[..2]
    } else {
        &SWEEP_CONNS
    };
    for &conns in sweep {
        let dataset = format!("sweep-c{conns}");
        if !config.selected("serve", &dataset) {
            continue;
        }
        progress(&format!("serve / {dataset} (req/s)"));
        results.push(measure_serve_conns(config, conns));
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
    fn only_filter_selects_by_codec_and_dataset() {
        let mut c = BenchConfig::default();
        assert!(c.selected("SZ", "Heat3d"));
        c.only = Some("sz".into());
        assert!(c.selected("SZ", "Heat3d"));
        assert!(!c.selected("FPC", "Heat3d"));
        c.only = Some("fpc:astro".into());
        assert!(c.selected("FPC", "Astro"));
        assert!(!c.selected("FPC", "Heat3d"));
        assert!(!c.selected("SZ", "Astro"));
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
            only: None,
        };
        let results = run(&config, |_| {});
        assert_eq!(results.len(), 6);
        let codecs: Vec<&str> = results.iter().map(|r| r.codec.as_str()).collect();
        assert_eq!(codecs, vec!["SZ", "ZFP", "FPC", "serve", "serve", "serve"]);
        let serve_sets: Vec<&str> = results[3..].iter().map(|r| r.dataset.as_str()).collect();
        assert_eq!(serve_sets, vec!["loopback", "sweep-c1", "sweep-c64"]);
        for r in &results {
            assert!(r.encode_mbps > 0.0 && r.decode_mbps > 0.0 && r.ratio > 0.0);
        }
    }

    #[test]
    fn serve_row_measures_loopback_requests() {
        let config = BenchConfig {
            size: SizeClass::Tiny,
            reps: 1,
            quick: true,
            only: None,
        };
        let row = measure_serve(&config);
        assert_eq!(
            (row.codec.as_str(), row.dataset.as_str()),
            ("serve", "loopback")
        );
        // req/s in the throughput columns; a loopback round trip on a
        // tiny field comfortably clears one request per second.
        assert!(row.encode_mbps > 1.0 && row.decode_mbps > 1.0);
        assert!(row.ratio > 1.0);
    }

    #[test]
    fn sweep_row_pipelines_over_persistent_connections() {
        let config = BenchConfig {
            size: SizeClass::Tiny,
            reps: 1,
            quick: true,
            only: None,
        };
        // An off-grid connection count proves the row is parameterized,
        // not hard-coded to the committed sweep points.
        let row = measure_serve_conns(&config, 3);
        assert_eq!(
            (row.codec.as_str(), row.dataset.as_str()),
            ("serve", "sweep-c3")
        );
        assert!(row.encode_mbps > 1.0 && row.decode_mbps > 1.0);
        assert!(row.ratio > 1.0);
    }
}
