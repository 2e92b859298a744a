//! `lrm-cli` — regenerate every table and figure of the paper.
//!
//! ```text
//! lrm-cli <experiment> [--size tiny|small|paper] [--outputs N] [--procs N]
//!                      [--threads N] [--chunks N]
//!
//! experiments:
//!   fig1 table2 fig3 fig4 fig6 fig7 fig8 fig9 fig10 fig11 fig12 table4
//!   select   (the model-selection extension)
//!   chunked  (chunk-parallel engine: per-chunk and aggregate ratios)
//!   dist     (Heat3d over thread ranks with halo exchange, vs the serial solve)
//!   verify   (reconstruction error against the configured bound)
//!   all      (everything, in paper order)
//! ```
//!
//! `chunked` and `verify` print self-checks; when one reads `false` the
//! process exits 1 after printing (so does `all`). Usage errors exit 2.

use lrm_cli::experiments::{
    characteristics, dimred, end_to_end, overhead, projection, rate_distortion,
};
use lrm_cli::table::{f, render};
use lrm_datasets::SizeClass;

struct Args {
    experiment: String,
    size: SizeClass,
    outputs: usize,
    procs: usize,
    threads: usize,
    chunks: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        experiment: String::new(),
        size: SizeClass::Small,
        outputs: 20,
        procs: 64,
        threads: 1,
        chunks: 4,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--size" => {
                args.size = match it.next().as_deref() {
                    Some("tiny") => SizeClass::Tiny,
                    Some("small") => SizeClass::Small,
                    Some("paper") => SizeClass::Paper,
                    other => {
                        eprintln!("unknown size {other:?} (tiny|small|paper)");
                        std::process::exit(2);
                    }
                }
            }
            "--outputs" => {
                args.outputs = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--outputs needs a number");
                    std::process::exit(2);
                })
            }
            "--procs" => {
                args.procs = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--procs needs a number");
                    std::process::exit(2);
                })
            }
            "--threads" => {
                args.threads = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--threads needs a number (0 = auto)");
                    std::process::exit(2);
                })
            }
            "--chunks" => {
                args.chunks = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--chunks needs a number");
                    std::process::exit(2);
                })
            }
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other if args.experiment.is_empty() => args.experiment = other.to_string(),
            other => {
                eprintln!("unexpected argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    if args.experiment.is_empty() {
        print_help();
        std::process::exit(2);
    }
    args
}

fn print_help() {
    println!(
        "lrm-cli <experiment> [--size tiny|small|paper] [--outputs N] [--procs N] [--threads N] [--chunks N]\n\
         experiments: fig1 table2 fig3 fig4 fig6 fig7 fig8 fig9 fig10 fig11 fig12 table4 select chunked dist verify all\n\
         serve: run the compression service (lrm-cli serve --help-style flags: --addr --threads --max-inflight)\n\
         client: talk to a running service (lrm-cli client <ping|compress|decompress|stats|select|roundtrip|shutdown>)"
    );
}

fn run_fig1(size: SizeClass) {
    println!("== Fig. 1: data characteristics, full vs reduced model ==");
    let rows: Vec<Vec<String>> = characteristics::fig1(size)
        .into_iter()
        .map(|r| {
            vec![
                r.dataset.to_string(),
                f(r.full.byte_entropy),
                f(r.reduced.byte_entropy),
                f(r.full.byte_mean),
                f(r.reduced.byte_mean),
                f(r.full.serial_correlation),
                f(r.reduced.serial_correlation),
                f(r.ks),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &[
                "dataset",
                "ent(full)",
                "ent(red)",
                "mean(full)",
                "mean(red)",
                "corr(full)",
                "corr(red)",
                "KS"
            ],
            &rows
        )
    );
}

fn run_table2(size: SizeClass) {
    println!("== Table II: Heat3d full model vs projected reduced model ==");
    let t = characteristics::table2(size);
    let rows = vec![
        vec![
            "Problem size".into(),
            format!("{0}x{0}x{0}", t.full_n),
            format!("{0}x{0}", t.reduced_n),
        ],
        vec![
            "# of steps".into(),
            t.full_steps.to_string(),
            t.reduced_steps.to_string(),
        ],
        vec!["Time step".into(), f(t.full_dt), f(t.reduced_dt)],
        vec![
            "Byte entropy".into(),
            f(t.full_stats.byte_entropy),
            f(t.reduced_stats.byte_entropy),
        ],
        vec![
            "Byte mean".into(),
            f(t.full_stats.byte_mean),
            f(t.reduced_stats.byte_mean),
        ],
        vec![
            "Serial correlation".into(),
            f(t.full_stats.serial_correlation),
            f(t.reduced_stats.serial_correlation),
        ],
    ];
    println!("{}", render(&["", "Full model", "Reduced model"], &rows));
}

fn run_fig3(size: SizeClass, outputs: usize) {
    println!("== Fig. 3: compression ratios, projection-based methods ({outputs} outputs) ==");
    let rows: Vec<Vec<String>> = projection::fig3(size, outputs)
        .into_iter()
        .map(|r| {
            vec![
                r.dataset.to_string(),
                r.compressor.to_string(),
                r.method.to_string(),
                f(r.ratio),
            ]
        })
        .collect();
    println!(
        "{}",
        render(&["dataset", "compressor", "method", "ratio"], &rows)
    );
}

fn run_fig4(size: SizeClass, outputs: usize) {
    println!("== Fig. 4: improvement vs compressibility (one-base, ZFP) ==");
    let rows: Vec<Vec<String>> = projection::fig4(size, outputs)
        .into_iter()
        .map(|p| vec![p.dataset.to_string(), f(p.zfp_ratio), f(p.improvement)])
        .collect();
    println!(
        "{}",
        render(
            &["dataset", "ZFP ratio (original)", "improvement (x)"],
            &rows
        )
    );
}

fn dimred_table(size: SizeClass, metric: &str) {
    let grid = dimred::dimred_grid(size);
    let rows: Vec<Vec<String>> = grid
        .into_iter()
        .map(|r| {
            let value = match metric {
                "ratio" => f(r.ratio),
                "rep" => r.rep_bytes.to_string(),
                _ => f(r.rmse),
            };
            vec![
                r.dataset.to_string(),
                r.method.to_string(),
                r.codec.to_string(),
                value,
                r.k.to_string(),
            ]
        })
        .collect();
    let header = match metric {
        "ratio" => "ratio",
        "rep" => "rep bytes",
        _ => "RMSE",
    };
    println!(
        "{}",
        render(&["dataset", "method", "codec", header, "k"], &rows)
    );
}

fn run_spectrum(rows: Vec<dimred::SpectrumRow>, label: &str) {
    println!("== {label} ==");
    println!("{}", dimred::spectrum_table(&rows));
}

fn run_fig11(size: SizeClass) {
    println!("== Fig. 11: ratio vs RMSE under the ZFP precision sweep ==");
    let rows: Vec<Vec<String>> = rate_distortion::fig11(size)
        .into_iter()
        .map(|p| {
            vec![
                p.dataset.to_string(),
                p.method.to_string(),
                p.precision.to_string(),
                f(p.rmse),
                f(p.ratio),
            ]
        })
        .collect();
    println!(
        "{}",
        render(&["dataset", "method", "precision", "RMSE", "ratio"], &rows)
    );
}

fn run_fig12(size: SizeClass) {
    println!("== Fig. 12: compression/decompression overhead (vs direct ZFP) ==");
    let rows: Vec<Vec<String>> = overhead::fig12(size)
        .into_iter()
        .map(|r| {
            vec![
                r.method.to_string(),
                f(r.compress_s),
                f(r.compress_rel),
                f(r.decompress_s),
                f(r.decompress_rel),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &[
                "method",
                "compress (s)",
                "x vs ZFP",
                "decompress (s)",
                "x vs ZFP"
            ],
            &rows
        )
    );
}

fn run_table4(size: SizeClass, procs: usize) {
    println!("== Table IV (a): storage model fed with the paper's measured inputs ==");
    let to_rows = |rows: Vec<lrm_io::EndToEndRow>| -> Vec<Vec<String>> {
        rows.into_iter()
            .map(|r| {
                vec![
                    r.label.clone(),
                    r.compression_time.map(f).unwrap_or_else(|| "N/A".into()),
                    f(r.io_time),
                    f(r.total()),
                ]
            })
            .collect()
    };
    println!(
        "{}",
        render(
            &[
                "Method",
                "Compression time (s)",
                "I/O time (s)",
                "Total (s)"
            ],
            &to_rows(end_to_end::table4_modeled())
        )
    );
    println!("== Table IV (b): measured codec throughput, calibrated I/O model ==");
    println!(
        "{}",
        render(
            &[
                "Method",
                "Compression time (s)",
                "I/O time (s)",
                "Total (s)"
            ],
            &to_rows(end_to_end::table4_measured(size, procs))
        )
    );
    println!("== Staging pipeline (live run) ==");
    let demo = end_to_end::staging_demo(size, 4);
    println!(
        "staged {} snapshots; app blocked {:.4}s of {:.4}s total; {} -> {} bytes\n",
        demo.snapshots, demo.app_blocked_s, demo.staging_total_s, demo.raw_bytes, demo.stored_bytes
    );
}

fn run_select(size: SizeClass) {
    println!("== Model selection (paper future work): best model per dataset ==");
    use lrm_core::{
        default_candidates, select_best_model_with, PipelineConfig, ReducedModelKind,
        SelectionOptions,
    };
    use lrm_datasets::{generate, DatasetKind};
    let base = PipelineConfig::sz(ReducedModelKind::Direct);
    let options = SelectionOptions { exhaustive: true };
    let rows: Vec<Vec<String>> = DatasetKind::ALL
        .into_iter()
        .map(|kind| {
            let field = generate(kind, size).full;
            let Some(outcome) =
                select_best_model_with(&field, &default_candidates(), &base, &options)
            else {
                let na = || "N/A".to_string();
                return vec![kind.name().to_string(), "none".into(), na(), na(), na()];
            };
            let best = outcome.results[0].report.ratio();
            let direct = outcome
                .results
                .iter()
                .find(|r| r.model == ReducedModelKind::Direct)
                .map(|r| r.report.ratio())
                .unwrap_or(0.0);
            vec![
                kind.name().to_string(),
                outcome.winner.name().to_string(),
                f(best),
                f(direct),
                f(best / direct.max(1e-12)),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &[
                "dataset",
                "best model",
                "best ratio",
                "direct ratio",
                "gain"
            ],
            &rows
        )
    );
}

fn run_dist(size: SizeClass) {
    use lrm_datasets::heat3d::Heat3d;
    use lrm_datasets::heat3d_dist::solve_distributed;
    println!("== Distributed Heat3d (halo exchange over thread ranks) ==");
    let cfg = match size {
        SizeClass::Tiny => Heat3d {
            n: 16,
            steps: 50,
            dt_factor: 0.02,
            ..Default::default()
        },
        SizeClass::Small => Heat3d {
            n: 48,
            steps: 500,
            dt_factor: 0.004,
            ..Default::default()
        },
        SizeClass::Paper => Heat3d {
            n: 96,
            steps: 2000,
            dt_factor: 0.004,
            ..Default::default()
        },
    };
    let serial = {
        let t0 = std::time::Instant::now();
        let f = cfg.solve();
        (f, t0.elapsed())
    };
    for ranks in [2usize, 4, 8] {
        let t0 = std::time::Instant::now();
        let dist = solve_distributed(&cfg, ranks);
        let dt = t0.elapsed();
        let identical = serial
            .0
            .data
            .iter()
            .zip(&dist.data)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        println!(
            "ranks={ranks}: {:?} (serial {:?}), bitwise-identical to serial: {identical}",
            dt, serial.1
        );
    }
    println!();
}

/// Prints the bound-verification table; returns whether every row holds.
fn run_verify(size: SizeClass) -> bool {
    use lrm_core::{Pipeline, PipelineConfig, ReducedModelKind};
    use lrm_datasets::{generate, DatasetKind};
    use lrm_stats::{Bound, BoundReport};
    println!("== Bound verification: reconstruction error vs the configured bound ==");
    println!(
        "{:<14} {:<10} {:>10} {:>12} {:>12} {:>8}",
        "dataset", "model", "violations", "worst util", "mean util", "holds"
    );
    let mut all_hold = true;
    for kind in DatasetKind::ALL {
        let field = generate(kind, size).full;
        for model in [ReducedModelKind::Direct, ReducedModelKind::OneBase] {
            if !model.applies_to(field.shape) {
                continue;
            }
            let cfg = PipelineConfig::sz(model).with_scan_1d(true);
            let pipeline = Pipeline::from_config(cfg);
            let art = pipeline.compress(&field);
            let (rec, _) = pipeline
                .reconstruct(&art.bytes)
                .expect("artifact just produced must decode");
            // Direct mode honors rel 1e-5 against block maxima; the
            // preconditioned path adds the rel 1e-3 delta bound on top.
            // Check against the loose end-to-end envelope.
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for &v in &field.data {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let envelope = (hi - lo).max(1e-12) * 2e-3;
            let report = BoundReport::check(&field.data, &rec, Bound::Absolute(envelope));
            all_hold &= report.holds();
            println!(
                "{:<14} {:<10} {:>10} {:>12.4} {:>12.4} {:>8}",
                kind.name(),
                model.name(),
                report.violations,
                report.worst_utilization,
                report.mean_utilization,
                report.holds()
            );
        }
    }
    println!();
    all_hold
}

/// Prints per-chunk and aggregate ratios; returns whether every
/// determinism self-check holds.
fn run_chunked(size: SizeClass, threads: usize, chunks: usize) -> bool {
    use lrm_core::{Pipeline, ReducedModelKind};
    use lrm_datasets::{generate, DatasetKind};
    println!("== Chunk-parallel engine: per-chunk and aggregate ratios ==");
    let mut all_hold = true;
    let field = generate(DatasetKind::Heat3d, size).full;
    println!(
        "field {} ({} values), chunks={chunks}, threads={}",
        field.name,
        field.len(),
        if threads == 0 {
            "auto".to_string()
        } else {
            threads.to_string()
        }
    );
    for model in [
        ReducedModelKind::Direct,
        ReducedModelKind::OneBase,
        ReducedModelKind::Pca,
    ] {
        let pipeline = Pipeline::builder()
            .model(model)
            .threads(threads)
            .chunks(chunks)
            .min_chunk_len(0)
            .build();
        let run = pipeline.compress_detailed(&field);
        let (rec, _) = pipeline
            .reconstruct(&run.bytes)
            .expect("artifact just produced must decode");
        let err = field
            .data
            .iter()
            .zip(&rec)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        println!(
            "{:<10} aggregate ratio {:.2}x, max abs err {err:.3e}",
            model.name(),
            run.report.ratio()
        );
        for c in &run.chunks {
            println!(
                "  chunk z={:<4} dims {:?}: ratio {:.2}x ({} -> {} bytes)",
                c.z_offset,
                c.dims,
                c.report.ratio(),
                c.report.raw_bytes,
                c.report.total_bytes()
            );
        }
        // Determinism spot-checks: thread count must not change the
        // bytes, and one chunk must match the legacy serial stream.
        let single = Pipeline::builder()
            .model(model)
            .threads(1)
            .chunks(chunks)
            .min_chunk_len(0)
            .build()
            .compress(&field);
        let serial = Pipeline::builder().model(model).build().compress(&field);
        let one_chunk = Pipeline::builder()
            .model(model)
            .threads(threads)
            .chunks(1)
            .build()
            .compress(&field);
        let threads_match = run.bytes == single.bytes;
        let serial_match = one_chunk.bytes == serial.bytes;
        all_hold &= threads_match && serial_match;
        println!(
            "  threads={} matches threads=1: {threads_match}; chunks=1 matches serial: {serial_match}",
            if threads == 0 {
                "auto".to_string()
            } else {
                threads.to_string()
            },
        );
    }
    println!();
    all_hold
}

fn main() {
    // The serving-layer subcommands have their own flag grammar; they
    // are dispatched before the experiment parser sees the arguments.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => std::process::exit(lrm_cli::service::run_serve(&argv[1..])),
        Some("client") => std::process::exit(lrm_cli::service::run_client(&argv[1..])),
        _ => {}
    }
    let args = parse_args();
    // Cleared when a `chunked` or `verify` self-check reads false.
    let mut held = true;
    let mut run = |name: &str| match name {
        "fig1" => run_fig1(args.size),
        "table2" => run_table2(args.size),
        "fig3" => run_fig3(args.size, args.outputs),
        "fig4" => run_fig4(args.size, args.outputs),
        "fig6" => {
            println!("== Fig. 6: compression ratios, dimension-reduction methods ==");
            dimred_table(args.size, "ratio");
        }
        "fig7" => run_spectrum(
            dimred::fig7(args.size),
            "Fig. 7: PCA proportion of variance",
        ),
        "fig8" => run_spectrum(
            dimred::fig8(args.size),
            "Fig. 8: SVD proportion of singular values",
        ),
        "fig9" => {
            println!("== Fig. 9: size of reduced representations ==");
            dimred_table(args.size, "rep");
        }
        "fig10" => {
            println!("== Fig. 10: RMSE comparison ==");
            dimred_table(args.size, "rmse");
        }
        "fig11" => run_fig11(args.size),
        "fig12" => run_fig12(args.size),
        "table4" => run_table4(args.size, args.procs),
        "select" => run_select(args.size),
        "chunked" => held &= run_chunked(args.size, args.threads, args.chunks),
        "dist" => run_dist(args.size),
        "verify" => held &= run_verify(args.size),
        other => {
            eprintln!("unknown experiment {other:?}");
            print_help();
            std::process::exit(2);
        }
    };
    if args.experiment == "all" {
        for name in [
            "fig1", "table2", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
            "fig12", "table4", "select", "chunked", "dist", "verify",
        ] {
            run(name);
        }
    } else {
        run(&args.experiment);
    }
    if !held {
        eprintln!("self-check failed: see the rows printed false above");
        std::process::exit(1);
    }
}
