//! Integration tests for the beyond-the-paper extensions, exercised
//! through the public umbrella API exactly as a downstream user would.

use lrm::core::temporal::{compress_series, reconstruct_series};
use lrm::core::{sz_paper_bounds, Pipeline, PipelineConfig, ReducedModelKind};
use lrm::datasets::heat3d::Heat3d;
use lrm::datasets::heat3d_dist::solve_distributed;
use lrm::datasets::{generate, snapshots, DatasetKind, SizeClass};
use lrm::io::DiskStore;
use lrm::stats::nrmse;
use lrm::wavelet::WaveletModel3d;

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
fn temporal_series_over_real_heat3d_snapshots() {
    let fields = snapshots(DatasetKind::Heat3d, 5, SizeClass::Tiny);
    let (base, delta) = sz_paper_bounds();
    let series = compress_series(&fields, &base, &delta);
    let (rec, shape) = reconstruct_series(&series.bytes).expect("decode");
    assert_eq!(shape, fields[0].shape);
    assert_eq!(rec.len(), 5);
    for (f, r) in fields.iter().zip(&rec) {
        assert!(nrmse(&f.data, r) < 0.02, "{}", f.name);
    }
    // Later snapshots (small temporal deltas) must be cheaper than the
    // base snapshot.
    assert!(series.snapshot_bytes[4] <= series.snapshot_bytes[0]);
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
fn wavelet3d_model_on_real_volume() {
    let field = generate(DatasetKind::Astro, SizeClass::Tiny).full;
    let [nx, ny, nz] = field.shape.dims;
    let m = WaveletModel3d::fit(&field.data, nx, ny, nz, 0.05);
    let rec = m.reconstruct();
    assert_eq!(rec.len(), field.len());
    assert!(nrmse(&field.data, &rec) < 0.2);
    assert!(m.representation_bytes() < field.nbytes());
}

#[test]
fn artifacts_survive_a_disk_round_trip() {
    let dir = std::env::temp_dir().join(format!("lrm-ext-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DiskStore::open(&dir).expect("open");
    let fields = snapshots(DatasetKind::Laplace, 3, SizeClass::Tiny);
    let pipeline =
        Pipeline::from_config(PipelineConfig::sz(ReducedModelKind::OneBase).with_scan_1d(true));
    for f in &fields {
        let art = pipeline.compress(f);
        store.write(&f.name, &art.bytes).expect("persist");
    }
    assert_eq!(store.list().expect("list").len(), 3);
    for f in &fields {
        let bytes = store.read(&f.name).expect("read");
        let (rec, _) = pipeline.reconstruct(&bytes).expect("decode");
        assert!(nrmse(&f.data, &rec) < 0.01, "{}", f.name);
    }
}

#[test]
fn raw_file_import_feeds_the_selector() {
    let field = generate(DatasetKind::SedovPres, SizeClass::Tiny).full;
    let p = std::env::temp_dir().join(format!("lrm-ext-raw-{}", std::process::id()));
    lrm::datasets::write_raw(&field, &p).expect("write");
    let loaded = lrm::datasets::read_raw(&p, field.shape, "import").expect("read");
    let base = PipelineConfig::sz(ReducedModelKind::Direct).with_scan_1d(true);
    let (winner, results) =
        lrm::core::select_best_model(&loaded, &lrm::core::default_candidates(), &base);
    assert!(!results.is_empty());
    // The winner must be reproducible on the identical import.
    let (winner2, _) =
        lrm::core::select_best_model(&loaded, &lrm::core::default_candidates(), &base);
    assert_eq!(winner, winner2);
}
