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

use lrm_bench::{from_json, regressions, render_table, run, to_json, BenchConfig};
use lrm_datasets::SizeClass;

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
                println!(
                    "usage: lrm-bench [--quick] [--size tiny|small|paper] [--reps N]\n\
                     \x20                [--out PATH] [--check PATH] [--tolerance F]"
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

fn main() {
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
    print!("{}", render_table(&results));

    if let Some(path) = &args.out {
        let text = to_json(&results, args.config.size, args.config.reps);
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("lrm-bench: writing {path}: {e}");
            std::process::exit(2);
        }
        println!("wrote {path}");
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
            println!(
                "check vs {path}: ok ({} pairs within {:.0}% tolerance)",
                baseline.len(),
                args.tolerance * 100.0
            );
        } else {
            for m in &msgs {
                eprintln!("REGRESSION: {m}");
            }
            std::process::exit(1);
        }
    }
}
