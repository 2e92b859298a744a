//! Golden-artifact manifest: whole pipeline runs pinned by hash.
//!
//! Every Tiny dataset goes through every configuration of the grid below
//! (model × the paper's SZ, ZFP and FPC settings × `scan_1d` off and on ×
//! one chunk on one thread, or four chunks on two threads), and each run
//! becomes one line of `golden_artifacts.manifest`: the FNV-64 of the
//! input's bits, the FNV-64 and length of the artifact, and the FNV-64 of
//! the reconstruction (or the decode error). The input hash tells a
//! platform difference in the dataset solvers apart from a pipeline
//! change. The test fails when any line differs from the committed
//! manifest, and it prints the lines that moved.
//!
//! A change that moves bytes on purpose regenerates the manifest with
//!
//! ```text
//! LRM_BLESS_GOLDEN=1 cargo test --test golden_artifacts
//! ```
//!
//! and gives a reason for every moved line. Regenerating must never be
//! the way to make an unexplained difference pass.

use lrm::core::{
    fpc_paper_codec, sz_paper_bounds, zfp_paper_bounds, LossyCodec, Pipeline, ReducedModelKind,
};
use lrm::datasets::{generate, DatasetKind, SizeClass};

const MANIFEST: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden_artifacts.manifest"
);

/// FNV-1a, 64-bit.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn fnv64_f64s(values: &[f64]) -> u64 {
    let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    fnv64(&bytes)
}

/// The models every field goes through; the projection models need a
/// 3-D field.
fn models(ndims: usize) -> Vec<ReducedModelKind> {
    let mut out = vec![
        ReducedModelKind::Direct,
        ReducedModelKind::Pca,
        ReducedModelKind::Svd,
        ReducedModelKind::Wavelet,
        ReducedModelKind::PcaBlocked(4),
        ReducedModelKind::SvdBlocked(4),
    ];
    if ndims == 3 {
        out.extend([ReducedModelKind::OneBase, ReducedModelKind::MultiBase(4)]);
    }
    out
}

/// The paper's codec settings: (name, original codec, delta codec).
fn codecs() -> [(&'static str, LossyCodec, LossyCodec); 3] {
    let (sz, sz_delta) = sz_paper_bounds();
    let (zfp, zfp_delta) = zfp_paper_bounds();
    [
        ("sz", sz, sz_delta),
        ("zfp", zfp, zfp_delta),
        ("fpc", fpc_paper_codec(), fpc_paper_codec()),
    ]
}

fn manifest() -> String {
    let mut text = String::new();
    for kind in DatasetKind::ALL {
        let field = generate(kind, SizeClass::Tiny).full;
        let input = fnv64_f64s(&field.data);
        for model in models(field.shape.ndims()) {
            for (cname, orig, delta) in codecs() {
                for scan_1d in [false, true] {
                    for (chunks, threads) in [(1, 1), (4, 2)] {
                        let pipeline = Pipeline::builder()
                            .model(model)
                            .codec(orig)
                            .delta_codec(delta)
                            .scan_1d(scan_1d)
                            .chunks(chunks)
                            .threads(threads)
                            .min_chunk_len(0)
                            .build();
                        let bytes = pipeline.compress(&field).bytes;
                        let rec = match pipeline.reconstruct(&bytes) {
                            Ok((rec, _)) => format!("rec={:016x}", fnv64_f64s(&rec)),
                            Err(e) => format!("err={e:?}"),
                        };
                        text.push_str(&format!(
                            "{} {model:?} {cname} scan1d={} chunks={chunks}/threads={threads} \
                             in={input:016x} out={:016x} len={} {rec}\n",
                            kind.name(),
                            u8::from(scan_1d),
                            fnv64(&bytes),
                            bytes.len(),
                        ));
                    }
                }
            }
        }
    }
    text
}

#[test]
fn pipeline_artifacts_match_the_golden_manifest() {
    let got = manifest();
    if std::env::var_os("LRM_BLESS_GOLDEN").is_some() {
        std::fs::write(MANIFEST, &got).unwrap_or_else(|e| panic!("{MANIFEST}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(MANIFEST).unwrap_or_else(|e| panic!("{MANIFEST}: {e}"));
    let moved: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("- {w}\n+ {g}"))
        .collect();
    assert!(
        moved.is_empty() && want.lines().count() == got.lines().count(),
        "{} of {} manifest lines moved ({} lines committed):\n{}",
        moved.len(),
        got.lines().count(),
        want.lines().count(),
        moved.join("\n")
    );
}
