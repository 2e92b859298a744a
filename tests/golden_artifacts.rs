//! Golden-artifact manifests: whole pipeline runs pinned by hash.
//!
//! Every dataset goes through every configuration of the grid below
//! (model × the paper's SZ, ZFP and FPC settings × `scan_1d` off and on ×
//! one chunk on one thread, or four chunks on two threads), and each run
//! becomes one manifest line: the FNV-64 of the input's bits, the FNV-64
//! and length of the artifact, and the FNV-64 of the reconstruction (or
//! the decode error). The input hash tells a platform difference in the
//! dataset solvers apart from a pipeline change. A test fails when any
//! line differs from its committed manifest, and it prints the lines
//! that moved.
//!
//! The Tiny grid (`golden_artifacts.manifest`) runs with plain
//! `cargo test`. The Small grid (`golden_artifacts_small.manifest`) takes
//! seconds only in a release build, so it is `#[ignore]`d and run with
//!
//! ```text
//! cargo test --release --test golden_artifacts -- --include-ignored
//! ```
//!
//! A change that moves bytes on purpose regenerates the manifests with
//!
//! ```text
//! LRM_BLESS_GOLDEN=1 cargo test --release --test golden_artifacts -- --include-ignored
//! ```
//!
//! and gives a reason for every moved line. Regenerating must never be
//! the way to make an unexplained difference pass.
//!
//! `fig7_fig8_small.txt` pins the Fig. 7 and Fig. 8 tables that
//! `lrm-cli fig7 --size small` and `fig8 --size small` print (the leading
//! PCA and SVD proportions to printed precision, and k(95%)); it is
//! ignored and blessed with the Small grid.
//!
//! `tests/artifacts/` holds committed Tiny Heat3d artifacts of every
//! container the decoder accepts: a version-0 stream (`LRM1`), a chunked
//! container (`LRMC`) and an SVD artifact whose meta carries tag 9, the
//! retired randomized SVD. Their reconstructions are pinned by hash
//! below; nothing blesses them, so an encoder change cannot move them.

use lrm::core::{
    fpc_paper_codec, sz_paper_bounds, zfp_paper_bounds, LossyCodec, Pipeline, ReducedModelKind,
};
use lrm::datasets::{generate, DatasetKind, SizeClass};
use lrm::io::Artifact;
use lrm_cli::experiments::dimred::{fig7, fig8, spectrum_table};

const TINY_MANIFEST: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden_artifacts.manifest"
);

const SMALL_MANIFEST: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden_artifacts_small.manifest"
);

const SMALL_SPECTRA: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fig7_fig8_small.txt");

const PINNED_ARTIFACTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/artifacts");

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
/// field of at least two dimensions.
fn models(ndims: usize) -> Vec<ReducedModelKind> {
    let mut out = vec![
        ReducedModelKind::Direct,
        ReducedModelKind::Pca,
        ReducedModelKind::Svd,
        ReducedModelKind::Wavelet,
        ReducedModelKind::PcaBlocked(4),
        ReducedModelKind::SvdBlocked(4),
    ];
    if ndims >= 2 {
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

fn manifest(size: SizeClass) -> String {
    let mut text = String::new();
    for kind in DatasetKind::ALL {
        let field = generate(kind, size).full;
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

/// Compares `got` with the file at `path` line by line, or rewrites the
/// file under `LRM_BLESS_GOLDEN`.
fn check_lines(path: &str, got: String) {
    if std::env::var_os("LRM_BLESS_GOLDEN").is_some() {
        std::fs::write(path, &got).unwrap_or_else(|e| panic!("{path}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let moved: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("- {w}\n+ {g}"))
        .collect();
    assert!(
        moved.is_empty() && want.lines().count() == got.lines().count(),
        "{} of {} lines moved ({} lines committed):\n{}",
        moved.len(),
        got.lines().count(),
        want.lines().count(),
        moved.join("\n")
    );
}

#[test]
fn pipeline_artifacts_match_the_golden_manifest() {
    check_lines(TINY_MANIFEST, manifest(SizeClass::Tiny));
}

#[test]
#[ignore = "the Small grid takes seconds only in a release build"]
fn small_pipeline_artifacts_match_the_golden_manifest() {
    check_lines(SMALL_MANIFEST, manifest(SizeClass::Small));
}

#[test]
#[ignore = "the Small fits take seconds only in a release build"]
fn small_fig7_and_fig8_print_the_pinned_proportions() {
    let got = spectrum_table(&fig7(SizeClass::Small)) + &spectrum_table(&fig8(SizeClass::Small));
    check_lines(SMALL_SPECTRA, got);
}

#[test]
fn committed_artifacts_of_every_container_reconstruct_to_pinned_bits() {
    // (file, magic, FNV-64 of the reconstruction's bits)
    let pins = [
        (
            "heat3d_tiny_one_base_sz.lrm1",
            b"LRM1",
            0xdb0f_7ed2_4d45_8118u64,
        ),
        (
            "heat3d_tiny_multi_base2_zfp_4chunks.lrmc",
            b"LRMC",
            0x7f6b_b487_fd2e_c3a8,
        ),
        (
            "heat3d_tiny_svd_sz_tag9.lrm1",
            b"LRM1",
            0xf52a_d065_5509_5166,
        ),
    ];
    for (name, magic, want) in pins {
        let path = format!("{PINNED_ARTIFACTS}/{name}");
        let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(bytes.get(..4), Some(&magic[..]), "{name}: container magic");
        let (rec, shape) = Pipeline::builder()
            .build()
            .reconstruct(&bytes)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(shape.dims, [16, 16, 16], "{name}: shape");
        assert_eq!(fnv64_f64s(&rec), want, "{name}: reconstruction bits");
    }
    // The tag-9 pin still names the retired model in its meta.
    let bytes = std::fs::read(format!("{PINNED_ARTIFACTS}/heat3d_tiny_svd_sz_tag9.lrm1"))
        .expect("tag-9 artifact");
    let artifact = Artifact::from_bytes(&bytes).expect("tag-9 artifact parses");
    assert_eq!(artifact.get("meta").and_then(|m| m.first()), Some(&9));
}
