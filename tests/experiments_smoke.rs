//! Integration smoke test: every experiment driver that regenerates a
//! paper table or figure runs end to end at Tiny scale and produces
//! structurally sane output. (Quantitative shape assertions live in the
//! drivers' own unit tests. EXPERIMENTS.md's paper-vs-measured numbers
//! were copied from past runs by hand; nothing here or in the bench
//! harness writes them.)

use lrm_cli::experiments::*;
use lrm_datasets::SizeClass;

#[test]
fn fig1_and_table2() {
    let rows = characteristics::fig1(SizeClass::Tiny);
    assert_eq!(rows.len(), 9);
    let t2 = characteristics::table2(SizeClass::Tiny);
    assert!(t2.reduced_dt > t2.full_dt);
}

#[test]
fn fig3_and_fig4() {
    let rows = projection::fig3(SizeClass::Tiny, 2);
    assert_eq!(rows.len(), 24);
    assert!(rows.iter().all(|r| r.ratio.is_finite() && r.ratio > 0.0));
    let pts = projection::fig4(SizeClass::Tiny, 2);
    assert_eq!(pts.len(), 4);
}

#[test]
fn fig6_through_fig10() {
    let grid = dimred::dimred_grid(SizeClass::Tiny);
    assert_eq!(grid.len(), 72);
    assert_eq!(dimred::fig7(SizeClass::Tiny).len(), 9);
    assert_eq!(dimred::fig8(SizeClass::Tiny).len(), 9);
}

#[test]
fn fig11_sweep() {
    let pts =
        rate_distortion::fig11_datasets(SizeClass::Tiny, &[lrm_datasets::DatasetKind::Laplace]);
    assert_eq!(pts.len(), 21);
}

#[test]
fn fig12_and_table4() {
    let rows = overhead::fig12(SizeClass::Tiny);
    assert_eq!(rows.len(), 4);
    let modeled = end_to_end::table4_modeled();
    assert_eq!(modeled.len(), 6);
    let measured = end_to_end::table4_measured(SizeClass::Tiny, 64);
    assert_eq!(measured.len(), 6);
    let demo = end_to_end::staging_demo(SizeClass::Tiny, 2);
    assert_eq!(demo.snapshots, 2);
}
