//! End-to-end and per-layer benchmark of the lrm pipeline and server.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload dimred-serial --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Workloads: `dimred-serial`, `slabs-3d`, `serve-mixed` (see
//! `perfbench/README.md`). With `--trace 0` the run prints the
//! end-to-end metrics; with `--trace 1` a separate traced run prints the
//! per-layer metrics. Every output is checked; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.

mod layers;
mod ops;
mod pipe;
mod replay;
mod report;
mod serve;
mod trace;

use ops::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace,
    })
}

/// Allocates and frees one 24 MB buffer before anything else runs.
///
/// glibc serves large blocks with `mmap` until the first such block is
/// freed, then raises its mmap threshold to that block's size. FPC
/// allocates two 8 MB tables on every call; left to the dynamic
/// threshold, whether those tables are returned to the kernel or kept
/// in the heap depends on which thread freed what first, and peak RSS
/// and FPC's cost swing from run to run. Freeing one larger block first
/// puts every run in the same state: tables come from the heap, and
/// every call still allocates and zeroes them.
fn settle_allocator() {
    drop(std::hint::black_box(vec![1u8; 24 << 20]));
}

fn main() {
    settle_allocator();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <dimred-serial|slabs-3d|serve-mixed> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut report = match args.workload {
        Workload::ServeMixed => serve::run(args.seed, args.seconds, args.trace),
        w => pipe::run(w, args.seed, args.seconds, args.trace),
    };
    report.note(format!(
        "held-out seed for re-checking claims: {}",
        ops::HELD_OUT_SEED
    ));
    report.print();
}
