//! Bring your own data: read a raw f64 dump, pick the best reduced model,
//! compress, persist to disk, read back, reconstruct.
//!
//! ```sh
//! cargo run --release --example bring_your_own_data [path nx ny nz]
//! ```
//!
//! Without arguments the example writes one of the built-in datasets to a
//! temporary raw file first, so it is runnable out of the box.

use lrm::core::{
    default_candidates, select_best_model_with, Pipeline, PipelineConfig, ReducedModelKind,
    SelectionOptions,
};
use lrm::datasets::{read_raw, write_raw, Shape};
use lrm::stats::nrmse;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (path, shape) = if args.len() == 4 {
        let dims: Vec<usize> = args[1..4]
            .iter()
            .map(|s| s.parse().expect("dims must be integers"))
            .collect();
        (
            std::path::PathBuf::from(&args[0]),
            Shape::d3(dims[0], dims[1], dims[2]),
        )
    } else {
        // Self-contained demo: dump a generated field as a raw file.
        let field = lrm::datasets::generate(
            lrm::datasets::DatasetKind::SedovPres,
            lrm::datasets::SizeClass::Small,
        )
        .full;
        let p = std::env::temp_dir().join("lrm_byod_demo.raw");
        write_raw(&field, &p).expect("write demo raw file");
        println!("(no args given — wrote demo data to {})", p.display());
        (p, field.shape)
    };

    // 1. Read the raw dump (shape comes from the caller, as with any HPC
    //    binary file).
    let field = read_raw(&path, shape, path.display().to_string()).expect("read raw field");
    println!("loaded {} values ({} bytes)", field.len(), field.nbytes());

    // 2. Let the selector choose the reduced model.
    let base = PipelineConfig::sz(ReducedModelKind::Direct).with_scan_1d(true);
    let options = SelectionOptions { exhaustive: true };
    let Some(outcome) = select_best_model_with(&field, &default_candidates(), &base, &options)
    else {
        println!("no candidate model applies to this field");
        return;
    };
    println!(
        "selected model: {} (candidates tried: {})",
        outcome.winner.name(),
        outcome.results.len()
    );

    // 3. Compress and persist.
    let cfg = PipelineConfig {
        model: outcome.winner,
        ..base
    };
    let pipeline = Pipeline::from_config(cfg);
    let art = pipeline.compress(&field);
    println!(
        "compressed: {} -> {} bytes (ratio {:.2}x)",
        field.nbytes(),
        art.report.total_bytes(),
        art.report.ratio()
    );
    let stored = std::env::temp_dir().join("lrm_byod_snapshot.lrm");
    std::fs::write(&stored, &art.bytes).expect("persist");
    println!(
        "persisted {} bytes to {}",
        art.bytes.len(),
        stored.display()
    );

    // 4. Read back and reconstruct — the artifact is self-describing.
    let bytes = std::fs::read(&stored).expect("read back");
    let (restored, rshape) = pipeline
        .reconstruct(&bytes)
        .expect("artifact just produced must decode");
    assert_eq!(rshape, field.shape);
    println!(
        "reconstructed with nrmse {:.3e}",
        nrmse(&field.data, &restored)
    );
}
