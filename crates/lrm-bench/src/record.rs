//! Paired benchmark records (`schema: lrm-bench/v2`) built from the
//! result lines of the repository benchmark (`perfbench/`).
//!
//! A perfbench run prints one JSON object as the last line of its
//! standard output: `{"correct", "attempted", "failed", "metrics":
//! {name: {"value", "unit"}}}`. A record is made from pairs of such runs,
//! one on the parent and one on the change, per workload. For each
//! workload and each metric that `BENCHMARK.json` declares and both runs
//! of a pair report, it keeps:
//!
//! * the unit, the direction and (for end-to-end metrics) the bound,
//!   read from `BENCHMARK.json`;
//! * each side's median and quartiles, and its values in pair order;
//! * the number of pairs and each side's wins (a tie counts for
//!   neither).
//!
//! Each side's attempted and failed op counts are summed per workload.
//! Quartiles interpolate linearly between order statistics, so the
//! median of an even count is the mean of the middle two.
//!
//! [`render_check`] applies the bounds to a record. A metric whose
//! median is worse than the parent's by more than its bound is
//! [`Verdict::Worse`]; one within its bound, but whose parent runs
//! spread wider than the bound (interquartile range over median), is
//! [`Verdict::Unresolved`]. [`MetricRecord::claim_holds`] is the rule a
//! claimed gain must meet: the change wins at least nine pairs, and nine
//! in ten, and the medians differ by more than the parent's
//! interquartile range.

use crate::json::{self, Json};

/// The record schema tag.
pub const SCHEMA_V2: &str = "lrm-bench/v2";

/// One metric declared in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name as perfbench prints it.
    pub name: String,
    /// Unit as `BENCHMARK.json` declares it.
    pub unit: String,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Relative worsening allowed before a change counts as a
    /// regression; only end-to-end metrics declare one.
    pub bound: Option<f64>,
}

/// What a record needs from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkSpec {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics, then per-layer metrics, in declaration order.
    pub metrics: Vec<MetricSpec>,
}

/// Parses the workloads and the metric declarations of `BENCHMARK.json`.
pub fn parse_benchmark(text: &str) -> Result<BenchmarkSpec, String> {
    let doc = json::parse_json(text)?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: missing workloads array")?
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| "BENCHMARK.json: workload without a name".to_string())
        })
        .collect::<Result<_, _>>()?;
    let mut metrics = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        let entries = doc
            .get(section)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json: missing {section} array"))?;
        for m in entries {
            metrics.push(metric_spec(m).map_err(|e| format!("BENCHMARK.json {section}: {e}"))?);
        }
    }
    Ok(BenchmarkSpec { workloads, metrics })
}

/// A metric declaration, as `BENCHMARK.json` and a v2 record write it.
fn metric_spec(m: &Json) -> Result<MetricSpec, String> {
    let text = |k: &str| -> Result<String, String> {
        m.get(k)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("metric missing string {k:?}"))
    };
    let name = text("name")?;
    let higher_is_better = match text("better")?.as_str() {
        "higher" => true,
        "lower" => false,
        other => {
            return Err(format!(
                "{name}: better must be higher or lower, not {other:?}"
            ))
        }
    };
    Ok(MetricSpec {
        unit: text("unit")?,
        higher_is_better,
        bound: m.get("bound").and_then(Json::as_num),
        name,
    })
}

/// One perfbench result line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Ops the run attempted.
    pub attempted: u64,
    /// Ops that failed the benchmark's correctness gate.
    pub failed: u64,
    /// `(name, value)` in the order the run printed them.
    pub metrics: Vec<(String, f64)>,
}

impl RunResult {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// Parses a perfbench run's standard output: the result object on its
/// last non-empty line.
pub fn parse_run(stdout: &str) -> Result<RunResult, String> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty run output")?;
    let doc = json::parse_json(line).map_err(|e| format!("result line: {e}"))?;
    let Some(Json::Obj(entries)) = doc.get("metrics") else {
        return Err("result line: missing metrics object".into());
    };
    let metrics = entries
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Json::as_num)
                .map(|v| (name.clone(), v))
                .ok_or(format!("result line: metric {name:?} has no numeric value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(RunResult {
        attempted: count(&doc, "attempted").map_err(|e| format!("result line: {e}"))?,
        failed: count(&doc, "failed").map_err(|e| format!("result line: {e}"))?,
        metrics,
    })
}

/// One run on the parent and one on the change, of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Pair {
    /// Workload name, as `BENCHMARK.json` declares it.
    pub workload: String,
    /// The parent's run.
    pub parent: RunResult,
    /// The change's run.
    pub change: RunResult,
}

/// One side's values of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct SideStats {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// The values, in pair order.
    pub runs: Vec<f64>,
}

impl SideStats {
    fn of(runs: Vec<f64>) -> Self {
        let mut sorted = runs.clone();
        sorted.sort_by(f64::total_cmp);
        Self {
            q1: quartile(&sorted, 1),
            median: quartile(&sorted, 2),
            q3: quartile(&sorted, 3),
            runs,
        }
    }
}

/// The `k`-th quartile (`k` in 0..=4) of sorted values: linear
/// interpolation at position `k·(n − 1)/4`, in integer steps of a
/// quarter. NaN for no values.
fn quartile(sorted: &[f64], k: usize) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return f64::NAN;
    };
    let (lo, quarters) = (last * k / 4, last * k % 4);
    match (sorted.get(lo), sorted.get(lo + 1)) {
        (Some(&a), Some(&b)) if quarters > 0 => a + (b - a) * quarters as f64 / 4.0,
        (Some(&a), _) => a,
        _ => f64::NAN,
    }
}

/// One metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRecord {
    /// The declaration from `BENCHMARK.json`.
    pub spec: MetricSpec,
    /// Pairs in which both runs report the metric.
    pub pairs: usize,
    /// Pairs in which the change is better.
    pub change_wins: usize,
    /// Pairs in which the parent is better.
    pub parent_wins: usize,
    /// The parent's values.
    pub parent: SideStats,
    /// The change's values.
    pub change: SideStats,
}

/// A bounded metric's standing in a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The median is within its bound, and the parent's runs spread
    /// less than the bound.
    Held,
    /// The median is within its bound, but the parent's runs spread
    /// wider than the bound, so the pairs cannot tell.
    Unresolved,
    /// The median is worse than the parent's by more than the bound.
    Worse,
}

impl MetricRecord {
    /// The change's median against the parent's, as a fraction of the
    /// parent's; positive when the change is better in the metric's
    /// direction. Equal medians are 0, and a change from 0 is infinite.
    pub fn gain(&self) -> f64 {
        let (p, c) = (self.parent.median, self.change.median);
        let rel = if c == p {
            0.0
        } else if p == 0.0 {
            (c - p).signum() * f64::INFINITY
        } else {
            (c - p) / p.abs()
        };
        if self.spec.higher_is_better {
            rel
        } else {
            -rel
        }
    }

    /// The parent's interquartile range as a fraction of its median.
    pub fn parent_spread(&self) -> f64 {
        let iqr = self.parent.q3 - self.parent.q1;
        if iqr == 0.0 {
            0.0
        } else {
            iqr / self.parent.median.abs()
        }
    }

    /// The metric's verdict under its bound; `None` without a bound.
    pub fn verdict(&self) -> Option<Verdict> {
        let bound = self.spec.bound?;
        Some(if self.gain() < -bound {
            Verdict::Worse
        } else if self.parent_spread() > bound {
            Verdict::Unresolved
        } else {
            Verdict::Held
        })
    }

    /// Whether a claimed gain holds: the change wins at least nine pairs,
    /// and at least nine of every ten (a tie counts for neither side), so
    /// fewer than nine pairs never carry a claim; and its median is better
    /// than the parent's by more than the parent's interquartile range.
    pub fn claim_holds(&self) -> bool {
        let gap = if self.spec.higher_is_better {
            self.change.median - self.parent.median
        } else {
            self.parent.median - self.change.median
        };
        self.change_wins >= 9
            && 10 * self.change_wins >= 9 * self.pairs
            && gap > self.parent.q3 - self.parent.q1
    }
}

/// Op counts of one side, summed over a workload's runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
}

/// Every metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRecord {
    /// Workload name.
    pub name: String,
    /// Pairs of runs.
    pub pairs: usize,
    /// The parent's op counts.
    pub parent: OpCounts,
    /// The change's op counts.
    pub change: OpCounts,
    /// Metrics in `BENCHMARK.json` order; a metric no pair reports on
    /// both sides is left out.
    pub metrics: Vec<MetricRecord>,
}

/// A whole `lrm-bench/v2` record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workloads in the order their first pair was given.
    pub workloads: Vec<WorkloadRecord>,
}

/// Builds the record of `pairs`. A pair whose workload `BENCHMARK.json`
/// does not declare is an error; a metric it does not declare is left
/// out.
pub fn build_record(bench: &BenchmarkSpec, pairs: &[Pair]) -> Result<Record, String> {
    let mut names: Vec<&str> = Vec::new();
    for p in pairs {
        if !bench.workloads.contains(&p.workload) {
            return Err(format!("unknown workload {:?}", p.workload));
        }
        if !names.contains(&p.workload.as_str()) {
            names.push(&p.workload);
        }
    }
    let workloads = names
        .into_iter()
        .map(|name| {
            let mine: Vec<&Pair> = pairs.iter().filter(|p| p.workload == name).collect();
            let counts = |side: fn(&Pair) -> &RunResult| {
                mine.iter().fold(OpCounts::default(), |acc, p| OpCounts {
                    attempted: acc.attempted + side(p).attempted,
                    failed: acc.failed + side(p).failed,
                })
            };
            let metrics = bench
                .metrics
                .iter()
                .filter_map(|spec| metric_record(spec, &mine))
                .collect();
            WorkloadRecord {
                name: name.to_string(),
                pairs: mine.len(),
                parent: counts(|p| &p.parent),
                change: counts(|p| &p.change),
                metrics,
            }
        })
        .collect();
    Ok(Record { workloads })
}

fn metric_record(spec: &MetricSpec, pairs: &[&Pair]) -> Option<MetricRecord> {
    let values: Vec<(f64, f64)> = pairs
        .iter()
        .filter_map(|p| Some((p.parent.metric(&spec.name)?, p.change.metric(&spec.name)?)))
        .collect();
    if values.is_empty() {
        return None;
    }
    let better = |a: f64, b: f64| if spec.higher_is_better { a > b } else { a < b };
    Some(MetricRecord {
        spec: spec.clone(),
        pairs: values.len(),
        change_wins: values.iter().filter(|&&(p, c)| better(c, p)).count(),
        parent_wins: values.iter().filter(|&&(p, c)| better(p, c)).count(),
        parent: SideStats::of(values.iter().map(|v| v.0).collect()),
        change: SideStats::of(values.iter().map(|v| v.1).collect()),
    })
}

fn side_json(s: &SideStats) -> Json {
    Json::Obj(vec![
        ("q1".into(), Json::Num(s.q1)),
        ("median".into(), Json::Num(s.median)),
        ("q3".into(), Json::Num(s.q3)),
        (
            "runs".into(),
            Json::Arr(s.runs.iter().map(|&v| Json::Num(v)).collect()),
        ),
    ])
}

fn counts_json(c: OpCounts) -> Json {
    Json::Obj(vec![
        ("attempted".into(), Json::Num(c.attempted as f64)),
        ("failed".into(), Json::Num(c.failed as f64)),
    ])
}

impl Record {
    /// Serializes the record (the committed `BENCH_*.json` layout).
    pub fn to_json(&self) -> String {
        let workloads = self
            .workloads
            .iter()
            .map(|w| {
                let metrics = w
                    .metrics
                    .iter()
                    .map(|m| {
                        let mut pairs = vec![
                            ("name".into(), Json::Str(m.spec.name.clone())),
                            ("unit".into(), Json::Str(m.spec.unit.clone())),
                            (
                                "better".into(),
                                Json::Str(
                                    if m.spec.higher_is_better {
                                        "higher"
                                    } else {
                                        "lower"
                                    }
                                    .into(),
                                ),
                            ),
                        ];
                        if let Some(b) = m.spec.bound {
                            pairs.push(("bound".into(), Json::Num(b)));
                        }
                        pairs.extend([
                            ("pairs".into(), Json::Num(m.pairs as f64)),
                            ("change_wins".into(), Json::Num(m.change_wins as f64)),
                            ("parent_wins".into(), Json::Num(m.parent_wins as f64)),
                            ("parent".into(), side_json(&m.parent)),
                            ("change".into(), side_json(&m.change)),
                        ]);
                        Json::Obj(pairs)
                    })
                    .collect();
                Json::Obj(vec![
                    ("name".into(), Json::Str(w.name.clone())),
                    ("pairs".into(), Json::Num(w.pairs as f64)),
                    ("parent".into(), counts_json(w.parent)),
                    ("change".into(), counts_json(w.change)),
                    ("metrics".into(), Json::Arr(metrics)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA_V2.into())),
            ("workloads".into(), Json::Arr(workloads)),
        ])
        .pretty()
    }

    /// Parses a v2 record; strict about the schema tag.
    pub fn from_json(text: &str) -> Result<Record, String> {
        let doc = json::parse_json(text)?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(SCHEMA_V2) => {}
            other => return Err(format!("unsupported bench schema: {other:?}")),
        }
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("missing workloads array")?
            .iter()
            .map(workload_from_json)
            .collect::<Result<_, _>>()?;
        Ok(Record { workloads })
    }
}

/// A non-negative integer field.
fn count(obj: &Json, k: &str) -> Result<u64, String> {
    obj.get(k)
        .and_then(Json::as_num)
        .filter(|n| n.is_finite() && *n >= 0.0 && n.fract() == 0.0)
        .map(|n| n as u64)
        .ok_or(format!("missing count {k:?}"))
}

fn counts_from_json(obj: Option<&Json>) -> Result<OpCounts, String> {
    let obj = obj.ok_or("missing op counts")?;
    Ok(OpCounts {
        attempted: count(obj, "attempted")?,
        failed: count(obj, "failed")?,
    })
}

fn side_from_json(obj: Option<&Json>) -> Result<SideStats, String> {
    let obj = obj.ok_or("missing side statistics")?;
    let num = |k: &str| -> Result<f64, String> {
        obj.get(k)
            .and_then(Json::as_num)
            .ok_or(format!("missing number {k:?}"))
    };
    let runs = obj
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("missing runs array")?
        .iter()
        .map(|v| {
            v.as_num()
                .ok_or_else(|| "non-numeric run value".to_string())
        })
        .collect::<Result<_, _>>()?;
    Ok(SideStats {
        q1: num("q1")?,
        median: num("median")?,
        q3: num("q3")?,
        runs,
    })
}

fn workload_from_json(w: &Json) -> Result<WorkloadRecord, String> {
    let name = w
        .get("name")
        .and_then(Json::as_str)
        .ok_or("workload missing name")?
        .to_string();
    let metrics = w
        .get("metrics")
        .and_then(Json::as_arr)
        .ok_or(format!("{name}: missing metrics array"))?
        .iter()
        .map(|m| {
            Ok(MetricRecord {
                spec: metric_spec(m)?,
                pairs: count(m, "pairs")? as usize,
                change_wins: count(m, "change_wins")? as usize,
                parent_wins: count(m, "parent_wins")? as usize,
                parent: side_from_json(m.get("parent"))?,
                change: side_from_json(m.get("change"))?,
            })
        })
        .collect::<Result<_, String>>()
        .map_err(|e| format!("{name}: {e}"))?;
    Ok(WorkloadRecord {
        pairs: count(w, "pairs")? as usize,
        parent: counts_from_json(w.get("parent"))?,
        change: counts_from_json(w.get("change"))?,
        metrics,
        name,
    })
}

/// Renders a record as an aligned text table: one row per workload and
/// metric, with both medians, the change in percent and the wins.
pub fn render_record(record: &Record) -> String {
    let rows: Vec<Vec<String>> = record
        .workloads
        .iter()
        .flat_map(|w| {
            w.metrics.iter().map(move |m| {
                let delta = if m.parent.median != 0.0 {
                    format!("{:+.1}%", (m.change.median / m.parent.median - 1.0) * 100.0)
                } else {
                    "-".into()
                };
                vec![
                    w.name.clone(),
                    m.spec.name.clone(),
                    m.spec.unit.clone(),
                    lrm_cli::table::f(m.parent.median),
                    lrm_cli::table::f(m.change.median),
                    delta,
                    format!("{}/{}/{}", m.change_wins, m.parent_wins, m.pairs),
                ]
            })
        })
        .collect();
    lrm_cli::table::render(
        &[
            "workload",
            "metric",
            "unit",
            "parent",
            "change",
            "change %",
            "wins c/p/n",
        ],
        &rows,
    )
}

/// Renders `record --check`'s table: per workload and metric, both
/// medians, the change in percent, the bound, the parent's interquartile
/// range in percent of its median, the wins and the [`Verdict`] (`-` for
/// a metric without a bound).
pub fn render_check(record: &Record) -> String {
    let pct = |x: f64| format!("{:.1}%", x * 100.0);
    let rows: Vec<Vec<String>> = record
        .workloads
        .iter()
        .flat_map(|w| {
            w.metrics.iter().map(move |m| {
                let change = (m.change.median - m.parent.median) / m.parent.median.abs();
                vec![
                    w.name.clone(),
                    m.spec.name.clone(),
                    lrm_cli::table::f(m.parent.median),
                    lrm_cli::table::f(m.change.median),
                    if change.is_finite() {
                        format!("{:+.1}%", change * 100.0)
                    } else {
                        "-".into()
                    },
                    m.spec.bound.map_or("-".into(), |b| format!("±{}", pct(b))),
                    pct(m.parent_spread()),
                    format!("{}/{}/{}", m.change_wins, m.parent_wins, m.pairs),
                    match m.verdict() {
                        None => "-",
                        Some(Verdict::Held) => "held",
                        Some(Verdict::Unresolved) => "unresolved",
                        Some(Verdict::Worse) => "WORSE",
                    }
                    .into(),
                ]
            })
        })
        .collect();
    lrm_cli::table::render(
        &[
            "workload",
            "metric",
            "parent",
            "change",
            "change %",
            "bound",
            "parent IQR",
            "wins c/p/n",
            "verdict",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{
      "workloads": [{"name": "w1", "why": "x"}, {"name": "w2", "why": "y"}],
      "end_to_end": [
        {"name": "mbps", "unit": "MB/s", "better": "higher", "bound": 0.25},
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}
      ],
      "per_layer": [{"name": "layer_s", "unit": "s", "better": "lower"}]
    }"#;

    fn run(attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> RunResult {
        RunResult {
            attempted,
            failed,
            metrics: metrics.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
        }
    }

    #[test]
    fn parses_the_last_line_of_a_run() {
        let out = "  mbps    12.5 MB/s\n\
                   {\"correct\": true, \"attempted\": 36, \"failed\": 0, \"metrics\": \
                   {\"mbps\": {\"value\": 12.5, \"unit\": \"MB/s\"}, \
                   \"p50_ms\": {\"value\": 3.0, \"unit\": \"ms\"}}}\n\n";
        let r = parse_run(out).expect("parse");
        assert_eq!(r, run(36, 0, &[("mbps", 12.5), ("p50_ms", 3.0)]));
        assert!(parse_run("").is_err());
        assert!(parse_run("{\"attempted\": 1, \"failed\": 0}").is_err());
        assert!(parse_run("{\"attempted\": -1, \"failed\": 0, \"metrics\": {}}").is_err());
    }

    #[test]
    fn reads_the_benchmark_declarations() {
        let b = parse_benchmark(BENCH).expect("parse");
        assert_eq!(b.workloads, ["w1", "w2"]);
        let names: Vec<&str> = b.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["mbps", "p50_ms", "layer_s"]);
        assert!(b.metrics[0].higher_is_better && !b.metrics[1].higher_is_better);
        assert_eq!(b.metrics[1].bound, Some(0.25));
        assert_eq!(b.metrics[2].bound, None);
    }

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        let s = SideStats::of(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.75, 2.5, 3.25));
        let s = SideStats::of(vec![5.0]);
        assert_eq!((s.q1, s.median, s.q3), (5.0, 5.0, 5.0));
        let s = SideStats::of(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
        assert!(SideStats::of(vec![]).median.is_nan());
    }

    #[test]
    fn record_counts_wins_by_direction_and_ignores_ties() {
        let bench = parse_benchmark(BENCH).expect("parse");
        let pair = |p: [f64; 2], c: [f64; 2]| Pair {
            workload: "w1".into(),
            parent: run(10, 0, &[("mbps", p[0]), ("p50_ms", p[1]), ("other", 1.0)]),
            change: run(12, 1, &[("mbps", c[0]), ("p50_ms", c[1])]),
        };
        let pairs = [
            pair([100.0, 5.0], [150.0, 4.0]),
            pair([110.0, 5.0], [105.0, 5.0]),
            pair([90.0, 6.0], [90.0, 7.0]),
        ];
        let rec = build_record(&bench, &pairs).expect("record");
        assert_eq!(rec.workloads.len(), 1);
        let w = &rec.workloads[0];
        assert_eq!((w.name.as_str(), w.pairs), ("w1", 3));
        assert_eq!(
            w.parent,
            OpCounts {
                attempted: 30,
                failed: 0
            }
        );
        assert_eq!(
            w.change,
            OpCounts {
                attempted: 36,
                failed: 3
            }
        );
        // `layer_s` is reported by no run, `other` is not declared.
        let names: Vec<&str> = w.metrics.iter().map(|m| m.spec.name.as_str()).collect();
        assert_eq!(names, ["mbps", "p50_ms"]);
        let mbps = &w.metrics[0];
        assert_eq!((mbps.pairs, mbps.change_wins, mbps.parent_wins), (3, 1, 1));
        assert_eq!(mbps.parent.runs, [100.0, 110.0, 90.0]);
        assert_eq!((mbps.parent.median, mbps.change.median), (100.0, 105.0));
        let p50 = &w.metrics[1];
        assert_eq!((p50.change_wins, p50.parent_wins), (1, 1));

        let unknown = Pair {
            workload: "w9".into(),
            ..pairs[0].clone()
        };
        assert!(build_record(&bench, &[unknown]).is_err());
    }

    /// A record of one metric from paired `(parent, change)` values.
    fn one_metric(name: &str, values: &[(f64, f64)]) -> MetricRecord {
        let bench = parse_benchmark(BENCH).expect("parse");
        let pairs: Vec<Pair> = values
            .iter()
            .map(|&(p, c)| Pair {
                workload: "w1".into(),
                parent: run(1, 0, &[(name, p)]),
                change: run(1, 0, &[(name, c)]),
            })
            .collect();
        let rec = build_record(&bench, &pairs).expect("record");
        rec.workloads[0].metrics[0].clone()
    }

    #[test]
    fn check_applies_the_bound_in_the_metrics_direction() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let scaled = |f: f64| -> Vec<(f64, f64)> { steady.iter().map(|&p| (p, p * f)).collect() };
        // mbps: higher is better, bound 25 %.
        let m = one_metric("mbps", &scaled(0.80));
        assert!((m.gain() + 0.2).abs() < 1e-12);
        assert_eq!(m.verdict(), Some(Verdict::Held));
        assert_eq!(
            one_metric("mbps", &scaled(0.70)).verdict(),
            Some(Verdict::Worse)
        );
        assert_eq!(
            one_metric("mbps", &scaled(1.5)).verdict(),
            Some(Verdict::Held)
        );
        // p50_ms: lower is better, so a rise is the loss.
        assert_eq!(
            one_metric("p50_ms", &scaled(1.30)).verdict(),
            Some(Verdict::Worse)
        );
        assert_eq!(
            one_metric("p50_ms", &scaled(0.5)).verdict(),
            Some(Verdict::Held)
        );
        // layer_s has no bound: reported, never judged.
        assert_eq!(one_metric("layer_s", &scaled(9.0)).verdict(), None);
        // A parent spread wider than the bound cannot resolve a small
        // change, but a loss past the bound is still a loss.
        let wide = [
            (40.0, 40.0),
            (60.0, 60.0),
            (100.0, 100.0),
            (140.0, 140.0),
            (160.0, 160.0),
        ];
        let m = one_metric("mbps", &wide);
        assert!(
            (m.parent_spread() - 0.8).abs() < 1e-12,
            "{}",
            m.parent_spread()
        );
        assert_eq!(m.verdict(), Some(Verdict::Unresolved));
        let lost: Vec<(f64, f64)> = wide.iter().map(|&(p, _)| (p, p * 0.5)).collect();
        assert_eq!(one_metric("mbps", &lost).verdict(), Some(Verdict::Worse));
        let table = render_check(
            &build_record(
                &parse_benchmark(BENCH).expect("parse"),
                &[Pair {
                    workload: "w1".into(),
                    parent: run(1, 0, &[("mbps", 100.0), ("layer_s", 1.0)]),
                    change: run(1, 0, &[("mbps", 60.0), ("layer_s", 2.0)]),
                }],
            )
            .expect("record"),
        );
        assert!(
            table.contains("WORSE") && table.contains("±25.0%"),
            "{table}"
        );
    }

    #[test]
    fn a_claim_needs_nine_wins_in_ten_and_a_gap_past_the_parents_iqr() {
        let parent = [80.0, 82.0, 84.0, 86.0, 88.0, 81.0, 83.0, 85.0, 87.0, 84.5];
        let with = |change: &dyn Fn(usize, f64) -> f64| -> Vec<(f64, f64)> {
            parent
                .iter()
                .enumerate()
                .map(|(i, &p)| (p, change(i, p)))
                .collect()
        };
        // 10/10 wins, gap 30 against an IQR of 3.75.
        assert!(one_metric("mbps", &with(&|_, p| p + 30.0)).claim_holds());
        // 9/10 wins (one tie) still holds.
        let nine = with(&|i, p| if i == 0 { p } else { p + 30.0 });
        assert!(one_metric("mbps", &nine).claim_holds());
        // 8/10 wins does not.
        let eight = with(&|i, p| if i < 2 { p - 1.0 } else { p + 30.0 });
        assert!(!one_metric("mbps", &eight).claim_holds());
        // Five pairs, all won by far: too few to carry a claim.
        let five: Vec<(f64, f64)> = with(&|_, p| p + 30.0).into_iter().take(5).collect();
        assert!(!one_metric("mbps", &five).claim_holds());
        // Every pair won, but by less than the parent's spread.
        assert!(!one_metric("mbps", &with(&|_, p| p + 1.0)).claim_holds());
        // Lower is better: the change must come in lower.
        assert!(one_metric("p50_ms", &with(&|_, p| p - 30.0)).claim_holds());
        assert!(!one_metric("p50_ms", &with(&|_, p| p + 30.0)).claim_holds());
    }

    #[test]
    fn record_roundtrips_through_json() {
        let bench = parse_benchmark(BENCH).expect("parse");
        let pairs: Vec<Pair> = (0..4)
            .map(|i| Pair {
                workload: if i % 2 == 0 { "w2" } else { "w1" }.into(),
                parent: run(7, 0, &[("mbps", 10.0 + i as f64), ("layer_s", 0.125)]),
                change: run(7, 0, &[("mbps", 12.5 * i as f64), ("layer_s", 0.1)]),
            })
            .collect();
        let rec = build_record(&bench, &pairs).expect("record");
        assert_eq!(rec.workloads[0].name, "w2");
        let text = rec.to_json();
        assert_eq!(Record::from_json(&text), Ok(rec));
        assert!(crate::from_json(&text).is_err(), "v1 parser rejects v2");
        assert!(Record::from_json(r#"{"schema":"lrm-bench/v1","results":[]}"#).is_err());
        assert!(render_record(&Record::from_json(&text).expect("parse")).contains("layer_s"));
    }
}
