//! Integration: the distributed (rank-simulated) one-base delta must be
//! identical to the serial computation, and the staged pipeline must
//! produce the same artifacts as inline compression.

use lrm::core::parallel_one_base::distributed_one_base;
use lrm::core::{Pipeline, PipelineConfig, ReducedModelKind};
use lrm::datasets::{generate, DatasetKind, Field, SizeClass};
use lrm::io::StagingPipeline;

#[test]
fn distributed_delta_matches_serial_for_real_heat3d_output() {
    let field = generate(DatasetKind::Heat3d, SizeClass::Tiny).full;
    let [nx, ny, nz] = field.shape.dims;
    let out = distributed_one_base(&field, [2, 2, 2]);
    let mid = nz / 2;
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let want = field.at(x, y, z) - field.at(x, y, mid);
                let got = out.delta[field.shape.idx(x, y, z)];
                assert!((want - got).abs() < 1e-12);
            }
        }
    }
}

#[test]
fn distributed_delta_is_grid_invariant() {
    // The rank grid is an implementation detail: 1, 2, 4 or 8 ranks must
    // produce the same bytes-for-bytes delta.
    let field = generate(DatasetKind::Heat3d, SizeClass::Tiny).full;
    let reference = distributed_one_base(&field, [1, 1, 1]).delta;
    for grid in [[2, 1, 1], [2, 2, 1], [2, 2, 2]] {
        let out = distributed_one_base(&field, grid);
        assert_eq!(out.delta, reference, "grid {grid:?}");
    }
}

#[test]
fn staged_compression_equals_inline_compression() {
    let field = generate(DatasetKind::Laplace, SizeClass::Tiny).full;
    let shape = field.shape;
    let pipeline = Pipeline::from_config(PipelineConfig::sz(ReducedModelKind::OneBase));

    let inline = pipeline.compress(&field);

    let staging = StagingPipeline::start(2, move |name, data| {
        let f = Field::new(name.to_string(), data.to_vec(), shape);
        pipeline.compress(&f).bytes
    });
    staging.submit("snap", field.data.clone());
    let results = staging.finish();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].stored_bytes, inline.bytes.len());
    assert_eq!(results[0].raw_bytes, field.nbytes());
}

#[test]
fn staging_handles_many_snapshots_under_load() {
    let field = generate(DatasetKind::Wave, SizeClass::Tiny).full;
    let shape = field.shape;
    let pipeline = Pipeline::from_config(PipelineConfig::sz(ReducedModelKind::Direct));
    let staging = StagingPipeline::start(4, move |name, data| {
        let f = Field::new(name.to_string(), data.to_vec(), shape);
        pipeline.compress(&f).bytes
    });
    for i in 0..32 {
        staging.submit(format!("s{i}"), field.data.clone());
    }
    let results = staging.finish();
    assert_eq!(results.len(), 32);
    let first = results[0].stored_bytes;
    assert!(results.iter().all(|r| r.stored_bytes == first));
}
