//! `lrm-bench` — offline benchmark harness binary.
//!
//! ```text
//! lrm-bench [--quick] [--size tiny|small|paper] [--reps N]
//!           [--out PATH] [--check PATH] [--tolerance F]
//! ```
//!
//! Runs the codec grid, prints a throughput table, optionally writes the
//! results as JSON (`--out`), and optionally gates against a committed
//! baseline (`--check`), exiting nonzero if any matching (codec,
//! dataset) pair regressed by more than `--tolerance` (default 0.30).
//!
//! ```text
//! lrm-bench record [--benchmark PATH] --out PATH
//!                  --pair WORKLOAD PARENT_RUN CHANGE_RUN [--pair ...]
//! ```
//!
//! Writes an `lrm-bench/v2` record of paired perfbench runs: each
//! `PARENT_RUN`/`CHANGE_RUN` file holds one run's standard output, and
//! units, directions and bounds come from `BENCHMARK.json` (default
//! path `BENCHMARK.json`).
//!
//! ```text
//! lrm-bench record --check RECORD [--claim WORKLOAD METRIC]
//! ```
//!
//! Applies a v2 record's bounds: prints each median change beside its
//! bound and the parent's interquartile range, marks a metric whose
//! parent runs spread wider than its bound unresolved, and exits 1 if
//! any median is worse than its bound. `--claim` also requires that
//! metric of that workload to meet the gain rule (at least nine wins,
//! nine in ten, and a median gap wider than the parent's interquartile
//! range).
//!
//! Standard output closed early (`lrm-bench ... | head`) is not an
//! error: every file is written first, and the exit status is what it
//! would have been.

use lrm_bench::record::{
    build_record, parse_benchmark, parse_run, render_check, render_record, Pair, Record, Verdict,
};
use lrm_bench::{from_json, regressions, render_table, run, to_json, BenchConfig};
use lrm_datasets::SizeClass;
use std::io::{ErrorKind, Write};

/// Writes `text` to standard output. A reader that closed the pipe has
/// stopped listening, which is not a failure, so the rest is dropped;
/// any other write error exits 2.
fn emit(text: &str) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        if e.kind() != ErrorKind::BrokenPipe {
            eprintln!("lrm-bench: writing standard output: {e}");
            std::process::exit(2);
        }
    }
}

struct Args {
    config: BenchConfig,
    out: Option<String>,
    check: Option<String>,
    tolerance: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        config: BenchConfig::default(),
        out: None,
        check: None,
        tolerance: 0.30,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--quick" => {
                args.config.quick = true;
                // Quick mode is the CI smoke: smallest fields, fewest reps.
                args.config.size = SizeClass::Tiny;
                args.config.reps = 3;
            }
            "--size" => {
                args.config.size = match value("--size")?.as_str() {
                    "tiny" => SizeClass::Tiny,
                    "small" => SizeClass::Small,
                    "paper" => SizeClass::Paper,
                    other => return Err(format!("unknown size {other:?}")),
                }
            }
            "--reps" => {
                args.config.reps = value("--reps")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?
            }
            "--out" => args.out = Some(value("--out")?),
            "--check" => args.check = Some(value("--check")?),
            "--tolerance" => {
                args.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))?
            }
            "--help" | "-h" => {
                emit(
                    "usage: lrm-bench [--quick] [--size tiny|small|paper] [--reps N]\n\
                     \x20                [--out PATH] [--check PATH] [--tolerance F]\n",
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !args.tolerance.is_finite() || !(0.0..1.0).contains(&args.tolerance) {
        return Err("--tolerance must be in [0, 1)".into());
    }
    Ok(args)
}

const RECORD_USAGE: &str = "usage: lrm-bench record [--benchmark PATH] --out PATH\n\
     \x20                       --pair WORKLOAD PARENT_RUN CHANGE_RUN [--pair ...]\n\
     \x20      lrm-bench record --check RECORD [--claim WORKLOAD METRIC]";

/// What `lrm-bench record` was asked to do.
enum RecordCmd {
    /// Build a record from paired runs and write it.
    Write {
        benchmark: String,
        out: String,
        /// (workload, parent run file, change run file).
        pairs: Vec<(String, String, String)>,
    },
    /// Apply a record's bounds, and optionally the gain rule to one
    /// (workload, metric).
    Check {
        record: String,
        claim: Option<(String, String)>,
    },
}

fn parse_record_args(args: &[String]) -> Result<RecordCmd, String> {
    let (mut benchmark, mut out, mut pairs) = (None, None, Vec::new());
    let (mut check, mut claim) = (None, None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--benchmark" => benchmark = Some(value("--benchmark")?),
            "--out" => out = Some(value("--out")?),
            "--pair" => pairs.push((value("--pair")?, value("--pair")?, value("--pair")?)),
            "--check" => check = Some(value("--check")?),
            "--claim" => claim = Some((value("--claim")?, value("--claim")?)),
            "--help" | "-h" => {
                emit(&format!("{RECORD_USAGE}\n"));
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(record) = check {
        if benchmark.is_some() || out.is_some() || !pairs.is_empty() {
            return Err("--check takes no --benchmark, --out or --pair".into());
        }
        return Ok(RecordCmd::Check { record, claim });
    }
    if claim.is_some() {
        return Err("--claim needs --check".into());
    }
    let out = out.ok_or("--out is required")?;
    if pairs.is_empty() {
        return Err("at least one --pair is required".into());
    }
    Ok(RecordCmd::Write {
        benchmark: benchmark.unwrap_or_else(|| "BENCHMARK.json".into()),
        out,
        pairs,
    })
}

/// Exits 2 with `e` after the program name.
fn record_fail(e: String) -> ! {
    eprintln!("lrm-bench record: {e}");
    std::process::exit(2);
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// `lrm-bench record`. Exits 2 on a usage, read or parse error.
fn record_main(args: &[String]) {
    let cmd =
        parse_record_args(args).unwrap_or_else(|e| record_fail(format!("{e}\n{RECORD_USAGE}")));
    match cmd {
        RecordCmd::Write {
            benchmark,
            out,
            pairs,
        } => write_record(&benchmark, &out, &pairs),
        RecordCmd::Check { record, claim } => check_main(&record, claim),
    }
}

/// Builds the record of `pairs` under `benchmark`'s declarations, writes
/// it to `out`, then prints its table.
fn write_record(benchmark: &str, out: &str, pairs: &[(String, String, String)]) {
    let bench = read(benchmark)
        .and_then(|text| parse_benchmark(&text))
        .unwrap_or_else(|e| record_fail(e));
    let run_at =
        |path: &str| read(path).and_then(|t| parse_run(&t).map_err(|e| format!("{path}: {e}")));
    let pairs: Vec<Pair> = pairs
        .iter()
        .map(|(workload, parent, change)| {
            Ok(Pair {
                workload: workload.clone(),
                parent: run_at(parent)?,
                change: run_at(change)?,
            })
        })
        .collect::<Result<_, String>>()
        .unwrap_or_else(|e| record_fail(e));
    let record = build_record(&bench, &pairs).unwrap_or_else(|e| record_fail(e));
    if let Err(e) = std::fs::write(out, record.to_json()) {
        record_fail(format!("writing {out}: {e}"));
    }
    emit(&render_record(&record));
    emit(&format!("wrote {out}\n"));
}

/// `lrm-bench record --check`: prints the check table (and the claim's
/// line), then exits 1 if a median is worse than its bound or the claim
/// fails, 0 otherwise.
fn check_main(path: &str, claim: Option<(String, String)>) -> ! {
    let record = read(path)
        .and_then(|text| Record::from_json(&text))
        .unwrap_or_else(|e| record_fail(format!("{path}: {e}")));
    emit(&render_check(&record));
    let metrics = || {
        record
            .workloads
            .iter()
            .flat_map(|w| w.metrics.iter().map(move |m| (w, m)))
    };
    let mut failed = metrics().any(|(_, m)| m.verdict() == Some(Verdict::Worse));
    if let Some((workload, metric)) = claim {
        let (_, m) = metrics()
            .find(|(w, m)| w.name == workload && m.spec.name == metric)
            .unwrap_or_else(|| record_fail(format!("{path}: no {workload} {metric} to claim")));
        let holds = m.claim_holds();
        emit(&format!(
            "claim {workload} {metric}: {}/{} wins, median {} -> {}, parent IQR {}: {}\n",
            m.change_wins,
            m.pairs,
            lrm_cli::table::f(m.parent.median),
            lrm_cli::table::f(m.change.median),
            lrm_cli::table::f(m.parent.q3 - m.parent.q1),
            if holds { "holds" } else { "NOT MET" }
        ));
        failed |= !holds;
    }
    std::process::exit(i32::from(failed));
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "record") {
        record_main(&argv[1..]);
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lrm-bench: {e}");
            std::process::exit(2);
        }
    };

    let results = run(&args.config, |label| {
        eprintln!("bench: {label}");
    });
    if let Some(path) = &args.out {
        let text = to_json(&results, args.config.size, args.config.reps);
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("lrm-bench: writing {path}: {e}");
            std::process::exit(2);
        }
    }
    emit(&render_table(&results));
    if let Some(path) = &args.out {
        emit(&format!("wrote {path}\n"));
    }

    if let Some(path) = &args.check {
        let baseline = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| from_json(&text));
        let baseline = match baseline {
            Ok(b) => b,
            Err(e) => {
                eprintln!("lrm-bench: reading baseline {path}: {e}");
                std::process::exit(2);
            }
        };
        let msgs = regressions(&results, &baseline, args.tolerance);
        if msgs.is_empty() {
            emit(&format!(
                "check vs {path}: ok ({} pairs within {:.0}% tolerance)\n",
                baseline.len(),
                args.tolerance * 100.0
            ));
        } else {
            for m in &msgs {
                eprintln!("REGRESSION: {m}");
            }
            std::process::exit(1);
        }
    }
}
