//! Integration tests for the beyond-the-paper extensions, exercised
//! through the public umbrella API exactly as a downstream user would.

use lrm::core::{
    default_candidates, select_best_model_with, Pipeline, PipelineConfig, ReducedModelKind,
    SelectionOptions,
};
use lrm::datasets::heat3d::Heat3d;
use lrm::datasets::heat3d_dist::solve_distributed;
use lrm::datasets::{generate, snapshots, DatasetKind, SizeClass};
use lrm::stats::nrmse;

#[test]
fn blocked_models_work_through_the_pipeline() {
    let field = generate(DatasetKind::Yf17Temp, SizeClass::Tiny).full;
    for model in [
        ReducedModelKind::PcaBlocked(4),
        ReducedModelKind::SvdBlocked(4),
    ] {
        let pipeline = Pipeline::from_config(PipelineConfig::sz(model).with_scan_1d(true));
        let art = pipeline.compress(&field);
        let (rec, shape) = pipeline.reconstruct(&art.bytes).expect("decode");
        assert_eq!(shape, field.shape, "{model:?}");
        assert!(
            nrmse(&field.data, &rec) < 0.05,
            "{model:?}: nrmse {}",
            nrmse(&field.data, &rec)
        );
    }
}

#[test]
fn distributed_heat3d_feeds_the_pipeline_identically() {
    let cfg = Heat3d {
        n: 16,
        steps: 40,
        dt_factor: 0.02,
        ..Default::default()
    };
    let serial = cfg.solve();
    let dist = solve_distributed(&cfg, 4);
    let p = Pipeline::from_config(PipelineConfig::sz(ReducedModelKind::OneBase).with_scan_1d(true));
    let a = p.compress(&serial);
    let b = p.compress(&dist);
    // Same bits in, same artifact payload out.
    assert_eq!(a.report.total_bytes(), b.report.total_bytes());
}

#[test]
fn artifacts_survive_a_disk_round_trip() {
    let dir = std::env::temp_dir().join(format!("lrm-ext-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create dir");
    let fields = snapshots(DatasetKind::Laplace, 3, SizeClass::Tiny);
    let pipeline =
        Pipeline::from_config(PipelineConfig::sz(ReducedModelKind::OneBase).with_scan_1d(true));
    let path_of = |i: usize| dir.join(format!("snapshot-{i}.lrm"));
    for (i, f) in fields.iter().enumerate() {
        let art = pipeline.compress(f);
        std::fs::write(path_of(i), &art.bytes).expect("persist");
    }
    for (i, f) in fields.iter().enumerate() {
        let bytes = std::fs::read(path_of(i)).expect("read");
        let (rec, _) = pipeline.reconstruct(&bytes).expect("decode");
        assert!(nrmse(&f.data, &rec) < 0.01, "{}", f.name);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn raw_file_import_feeds_the_selector() {
    let field = generate(DatasetKind::SedovPres, SizeClass::Tiny).full;
    let p = std::env::temp_dir().join(format!("lrm-ext-raw-{}", std::process::id()));
    lrm::datasets::write_raw(&field, &p).expect("write");
    let loaded = lrm::datasets::read_raw(&p, field.shape, "import").expect("read");
    let base = PipelineConfig::sz(ReducedModelKind::Direct).with_scan_1d(true);
    let options = SelectionOptions { exhaustive: true };
    let select = || {
        select_best_model_with(&loaded, &default_candidates(), &base, &options)
            .expect("candidates apply")
    };
    let first = select();
    assert!(!first.results.is_empty());
    // The winner must be reproducible on the identical import.
    assert_eq!(first.winner, select().winner);
}
