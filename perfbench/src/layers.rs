//! Per-layer metrics derived from a finished trace.

use crate::replay::FAMILIES;
use crate::report::Report;
use crate::trace::{totals, Closed, Totals};
use std::collections::BTreeMap;
use std::time::Duration;

/// Figures a traced run measures outside the span tree.
#[derive(Default)]
pub struct Extra {
    /// Seconds spent generating the workload's inputs.
    pub generate_s: f64,
    /// Per codec family: the first call in the process and the median
    /// of the warm calls that follow it on the same input, in ms.
    pub cold_ms: [f64; 3],
    pub warm_ms: [f64; 3],
    /// Untraced time of every op the trace replayed, by op id.
    pub untraced: BTreeMap<u64, Duration>,
    /// Replays whose bytes or values differed from the untraced call.
    pub mismatches: u64,
    pub serve: ServeExtra,
}

/// Figures only the served workload has.
#[derive(Default)]
pub struct ServeExtra {
    pub protocol_encode_s: f64,
    pub protocol_decode_s: f64,
    pub roundtrip_p50_ms: [f64; 3],
    pub overhead_s: f64,
    pub busy: f64,
    pub timeouts: f64,
    pub errors: f64,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Puts every per-layer metric into `report`, zero where the workload
/// never reached the layer.
pub fn put(
    report: &mut Report,
    spans: &[Closed],
    counters: &BTreeMap<&'static str, f64>,
    extra: &Extra,
) {
    let t = totals(spans);
    let get = |name: &str| t.get(name).copied().unwrap_or(Totals::default());
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0.0);

    report.put("datasets.generate_s", "s", extra.generate_s);
    report.put("linalg.svd_s", "s", secs(get("linalg.svd").duration));
    report.put("linalg.svd_calls", "count", get("linalg.svd").calls as f64);
    report.put(
        "linalg.pca_fit_s",
        "s",
        secs(get("linalg.pca_fit").duration),
    );
    report.put(
        "linalg.pca_transform_s",
        "s",
        secs(get("linalg.pca_transform").duration),
    );
    report.put("linalg.matmul_s", "s", secs(get("linalg.matmul").duration));
    report.put("wavelet.fit_s", "s", secs(get("wavelet.fit").duration));
    report.put(
        "wavelet.reconstruct_s",
        "s",
        secs(get("wavelet.reconstruct").duration),
    );
    report.put(
        "dimred.precondition_self_s",
        "s",
        secs(get("dimred.precondition").self_time),
    );
    report.put(
        "dimred.reconstruct_self_s",
        "s",
        secs(get("dimred.reconstruct").self_time),
    );
    report.put(
        "projection.precondition_s",
        "s",
        secs(get("projection.precondition").duration),
    );
    report.put(
        "projection.reconstruct_s",
        "s",
        secs(get("projection.reconstruct").duration),
    );

    for (f, fam) in FAMILIES.iter().enumerate() {
        for dir in ["encode", "decode"] {
            let span = get(&format!("compress.{fam}_{dir}"));
            let bytes = counter(&format!("compress.{fam}_{dir}_bytes"));
            let s = secs(span.duration);
            report.put(format!("compress.{fam}_{dir}_s"), "s", s);
            report.put(
                format!("compress.{fam}_{dir}_mbps"),
                "MB/s",
                if s > 0.0 { bytes / s / 1e6 } else { 0.0 },
            );
            report.put(
                format!("compress.{fam}_{dir}_calls"),
                "count",
                span.calls as f64,
            );
        }
        report.put(
            format!("compress.{fam}_cold_first_call_ms"),
            "ms",
            extra.cold_ms[f],
        );
        report.put(
            format!("compress.{fam}_warm_call_ms"),
            "ms",
            extra.warm_ms[f],
        );
    }
    report.put("compress.bytes_out", "bytes", counter("compress.bytes_out"));

    report.put(
        "io.container_encode_s",
        "s",
        secs(get("io.container_encode").duration),
    );
    report.put(
        "io.container_decode_s",
        "s",
        secs(get("io.container_decode").duration),
    );
    report.put("io.container_bytes", "bytes", counter("io.container_bytes"));

    // Chunk jobs: busy is time inside the job, wait is submit (the
    // pool run's start) to job start, skew is slowest / mean job per run.
    let chunks: Vec<&Closed> = spans
        .iter()
        .filter(|s| s.name == "parallel.chunk")
        .collect();
    let mut per_run: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for c in &chunks {
        if let Some(p) = c.parent {
            per_run.entry(p).or_default().push(secs(c.duration));
        }
    }
    let skews: Vec<f64> = per_run
        .values()
        .map(|d| {
            let mean = d.iter().sum::<f64>() / d.len() as f64;
            d.iter().copied().fold(0.0, f64::max) / mean.max(f64::MIN_POSITIVE)
        })
        .collect();
    report.put(
        "parallel.chunk_busy_s",
        "s",
        chunks.iter().map(|c| secs(c.duration)).sum(),
    );
    report.put(
        "parallel.chunk_wait_s",
        "s",
        chunks.iter().map(|c| secs(c.offset)).sum(),
    );
    report.put(
        "parallel.chunk_skew",
        "x",
        if skews.is_empty() {
            0.0
        } else {
            skews.iter().sum::<f64>() / skews.len() as f64
        },
    );

    report.put(
        "engine.self_s",
        "s",
        secs(get("engine.compress").self_time + get("engine.reconstruct").self_time),
    );
    report.put(
        "selection.select_s",
        "s",
        secs(get("selection.select").duration),
    );
    report.put("selection.trials", "count", counter("selection.trials"));

    let s = &extra.serve;
    report.put("protocol.encode_s", "s", s.protocol_encode_s);
    report.put("protocol.decode_s", "s", s.protocol_decode_s);
    for (i, kind) in ["compress", "decompress", "select"].iter().enumerate() {
        report.put(
            format!("server.roundtrip_{kind}_p50_ms"),
            "ms",
            s.roundtrip_p50_ms[i],
        );
    }
    report.put("server.overhead_s", "s", s.overhead_s);
    report.put("server.busy", "count", s.busy);
    report.put("server.timeouts", "count", s.timeouts);
    report.put("server.errors", "count", s.errors);

    // Self times on the calling thread partition each root span, so the
    // per-op sum of layer self times is the root's duration; compare it
    // with the same op's untraced time.
    let mut traced: BTreeMap<u64, Duration> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        *traced.entry(s.op).or_default() += s.duration;
    }
    let (mut sum_traced, mut sum_untraced) = (0.0, 0.0);
    let mut deviations = Vec::new();
    for (op, u) in &extra.untraced {
        let tr = secs(traced.get(op).copied().unwrap_or_default());
        let u = secs(*u);
        sum_traced += tr;
        sum_untraced += u;
        if u > 0.0 {
            deviations.push((tr - u).abs() / u * 100.0);
        }
    }
    report.put("trace.untraced_s", "s", sum_untraced);
    report.put("trace.traced_s", "s", sum_traced);
    report.put("trace.overhead_s", "s", sum_traced - sum_untraced);
    report.put(
        "trace.self_sum_ratio",
        "x",
        if sum_untraced > 0.0 {
            sum_traced / sum_untraced
        } else {
            0.0
        },
    );
    report.put(
        "trace.op_deviation_p50_pct",
        "%",
        crate::report::median(&deviations),
    );
    report.put("trace.replay_mismatches", "count", extra.mismatches as f64);
}
