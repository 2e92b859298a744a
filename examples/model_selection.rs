//! The paper's future-work extension, working today: pick the best
//! reduced model per dataset automatically.
//!
//! ```sh
//! cargo run --release --example model_selection
//! ```

use lrm::core::{
    default_candidates, select_best_model_with, PipelineConfig, ReducedModelKind, SelectionOptions,
};
use lrm::datasets::{generate, DatasetKind, SizeClass};

fn main() {
    let base = PipelineConfig::sz(ReducedModelKind::Direct).with_scan_1d(true);
    let options = SelectionOptions { exhaustive: true };
    println!(
        "{:<14} {:<12} {:>10} {:>12} {:>7}",
        "dataset", "winner", "best ratio", "direct ratio", "gain"
    );
    for kind in DatasetKind::ALL {
        let field = generate(kind, SizeClass::Small).full;
        let Some(outcome) = select_best_model_with(&field, &default_candidates(), &base, &options)
        else {
            println!("{:<14} no applicable candidate", kind.name());
            continue;
        };
        let best = outcome.results[0].report.ratio();
        let direct = outcome
            .results
            .iter()
            .find(|r| r.model == ReducedModelKind::Direct)
            .map(|r| r.report.ratio())
            .unwrap_or(f64::NAN);
        println!(
            "{:<14} {:<12} {:>10.2} {:>12.2} {:>6.2}x",
            kind.name(),
            outcome.winner.name(),
            best,
            direct,
            best / direct
        );
    }
    println!("\nNo single reduced model wins everywhere — the motivation the");
    println!("paper gives for model selection as future work. Where nothing");
    println!("beats direct compression (gain 1.00x), the selector leaves the");
    println!("data alone.");
}
