//! Quickstart: precondition one scientific field and compress it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use lrm::core::{Pipeline, PipelineConfig, ReducedModelKind};
use lrm::datasets::{generate, DatasetKind, SizeClass};
use lrm::stats::{max_abs_error, rmse};

fn main() {
    // 1. Get a scientific field. Heat3d is the paper's case study; any of
    //    the nine Table I datasets works the same way.
    let pair = generate(DatasetKind::Heat3d, SizeClass::Small);
    let field = pair.full;
    println!(
        "field: {} ({} values, {} bytes raw)",
        field.name,
        field.len(),
        field.nbytes()
    );

    // 2. Compress directly (the baseline everyone uses today)...
    // scan_1d mirrors how outputs are normally fed to compressor CLIs
    // (flat byte streams, no grid metadata) — the setting the paper
    // evaluates.
    let cfg = PipelineConfig::sz(ReducedModelKind::Direct).with_scan_1d(true);
    let direct = Pipeline::builder()
        .model(ReducedModelKind::Direct)
        .codec(cfg.orig)
        .delta_codec(cfg.delta)
        .scan_1d(true)
        .build()
        .compress(&field);
    println!(
        "direct SZ:        {:8} bytes  (ratio {:>6.2}x)",
        direct.report.total_bytes(),
        direct.report.ratio()
    );

    // 3. ...then precondition with the one-base reduced model first. The
    //    handle is reusable, and `.threads(n).chunks(n)` would turn on the
    //    chunk-parallel engine for large 3-D fields.
    let pipeline = Pipeline::builder()
        .model(ReducedModelKind::OneBase)
        .codec(cfg.orig)
        .delta_codec(cfg.delta)
        .scan_1d(true)
        .build();
    let onebase = pipeline.compress(&field);
    println!(
        "one-base + SZ:    {:8} bytes  (ratio {:>6.2}x; rep {} B, delta {} B)",
        onebase.report.total_bytes(),
        onebase.report.ratio(),
        onebase.report.rep_bytes,
        onebase.report.delta_bytes
    );

    // 4. The artifact is self-describing: reconstruction needs only the
    //    bytes.
    let (restored, shape) = pipeline
        .reconstruct(&onebase.bytes)
        .expect("artifact just produced must decode");
    assert_eq!(shape, field.shape);
    println!(
        "reconstruction:   rmse {:.3e}, max abs err {:.3e}",
        rmse(&field.data, &restored),
        max_abs_error(&field.data, &restored)
    );

    // 5. Not sure which reduced model fits your data? Ask the selector
    //    (the paper's future-work extension).
    let options = lrm::core::SelectionOptions { exhaustive: true };
    let Some(outcome) = lrm::core::select_best_model_with(
        &field,
        &lrm::core::default_candidates(),
        &PipelineConfig::sz(ReducedModelKind::Direct).with_scan_1d(true),
        &options,
    ) else {
        println!("\nno candidate model applies to this field");
        return;
    };
    println!("\nbest model for this field: {}", outcome.winner.name());
    for r in outcome.results.iter().take(3) {
        println!("  {:<12} ratio {:>6.2}x", r.model.name(), r.report.ratio());
    }
}
