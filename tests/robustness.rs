//! Robustness integration tests: corrupt inputs, adversarial fields, and
//! failure-injection around the pipeline's parsing layers.

use lrm::compress::{Codec, Sz};
use lrm::core::{
    DecodeError, LossyCodec, Pipeline, PipelineConfig, PreconditionedArtifact, ReducedModelKind,
};
use lrm::datasets::{generate, DatasetKind, Field, SizeClass};
use lrm::io::{Artifact, ChunkEntry, ChunkedArtifact};
use lrm_compress::Shape;

fn compress(field: &Field, cfg: &PipelineConfig) -> PreconditionedArtifact {
    Pipeline::from_config(*cfg).compress(field)
}

fn reconstruct(bytes: &[u8]) -> (Vec<f64>, Shape) {
    Pipeline::builder()
        .build()
        .reconstruct(bytes)
        .expect("decode")
}

fn sample_field() -> Field {
    let shape = Shape::d2(16, 12);
    let data: Vec<f64> = (0..shape.len())
        .map(|i| (i as f64 * 0.21).sin() * 7.0)
        .collect();
    Field::new("robust", data, shape)
}

#[test]
fn reconstruct_rejects_corrupt_magic() {
    let art = compress(
        &sample_field(),
        &PipelineConfig::sz(ReducedModelKind::OneBase),
    );
    let mut bytes = art.bytes.clone();
    bytes[0] ^= 0xFF;
    let p = Pipeline::builder().build();
    assert!(
        p.reconstruct(&bytes).is_err(),
        "corrupt magic must not decode silently"
    );
}

#[test]
fn reconstruct_rejects_truncated_artifacts() {
    let art = compress(&sample_field(), &PipelineConfig::sz(ReducedModelKind::Pca));
    let p = Pipeline::builder().build();
    // Every strict prefix of the stream must decode to Err, never panic.
    for cut in 0..art.bytes.len() {
        assert!(
            p.reconstruct(&art.bytes[..cut]).is_err(),
            "truncation to {cut} bytes must not decode silently"
        );
    }
}

#[test]
fn artifact_sections_are_inspectable_without_reconstruction() {
    // A storage layer can account sizes without touching codec state.
    let art = compress(&sample_field(), &PipelineConfig::zfp(ReducedModelKind::Svd));
    let parsed = Artifact::from_bytes(&art.bytes).expect("parse");
    let rep = parsed.get("rep").expect("rep").len();
    let delta = parsed.get("delta").expect("delta").len();
    assert_eq!(rep, art.report.rep_bytes);
    assert_eq!(delta, art.report.delta_bytes);
}

#[test]
fn adversarial_fields_roundtrip() {
    // Constant, alternating-sign, huge-dynamic-range, and subnormal-laden
    // fields must all survive the full pipeline within loose bounds.
    let shape = Shape::d2(20, 10);
    let cases: Vec<(&str, Vec<f64>)> = vec![
        ("constant", vec![3.125; shape.len()]),
        (
            "alternating",
            (0..shape.len())
                .map(|i| if i % 2 == 0 { 1e6 } else { -1e6 })
                .collect(),
        ),
        (
            "wide_range",
            (0..shape.len())
                .map(|i| 10f64.powi((i % 17) as i32 - 8))
                .collect(),
        ),
        (
            "tiny_values",
            (0..shape.len())
                .map(|i| 1e-300 * (i as f64 + 1.0))
                .collect(),
        ),
    ];
    for (name, data) in cases {
        let f = Field::new(name, data, shape);
        for cfg in [
            PipelineConfig::sz(ReducedModelKind::Direct),
            PipelineConfig::sz(ReducedModelKind::OneBase),
            PipelineConfig::sz(ReducedModelKind::Pca),
        ] {
            let art = compress(&f, &cfg);
            let (rec, _) = reconstruct(&art.bytes);
            assert_eq!(rec.len(), f.len(), "{name}/{:?}", cfg.model);
            let max = f.data.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
            for (a, b) in f.data.iter().zip(&rec) {
                assert!(
                    (a - b).abs() <= 1e-2 * max + 1e-306,
                    "{name}/{:?}: {a} vs {b}",
                    cfg.model
                );
            }
        }
    }
}

#[test]
fn empty_and_single_point_fields() {
    let one = Field::new("one", vec![5.5], Shape::d1(1));
    for cfg in [
        PipelineConfig::sz(ReducedModelKind::Direct),
        PipelineConfig::sz(ReducedModelKind::Pca),
        PipelineConfig::sz(ReducedModelKind::Wavelet),
    ] {
        let art = compress(&one, &cfg);
        let (rec, _) = reconstruct(&art.bytes);
        assert_eq!(rec.len(), 1);
        assert!((rec[0] - 5.5).abs() < 1e-3, "{:?}: {}", cfg.model, rec[0]);
    }
}

#[test]
fn nan_inputs_do_not_poison_neighbors() {
    let shape = Shape::d1(64);
    let mut data: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).cos() * 10.0).collect();
    data[20] = f64::NAN;
    let f = Field::new("nan", data.clone(), shape);
    let cfg = PipelineConfig::sz(ReducedModelKind::Direct);
    let art = compress(&f, &cfg);
    let (rec, _) = reconstruct(&art.bytes);
    for (i, (a, b)) in data.iter().zip(&rec).enumerate() {
        if i == 20 {
            continue; // the NaN cell itself may decode as NaN or 0
        }
        assert!(
            (a - b).abs() <= 1e-2 * 10.0,
            "index {i}: {a} vs {b} (NaN leaked)"
        );
    }
}

#[test]
fn pca_and_svd_refuse_or_contain_a_non_finite_value() {
    // One NaN or infinity must not turn the rest of the field non-finite:
    // the compress may refuse the input (panic), or its reconstruction
    // must be finite wherever the input is.
    let models = [
        ReducedModelKind::Pca,
        ReducedModelKind::PcaBlocked(4),
        ReducedModelKind::Svd,
        ReducedModelKind::SvdBlocked(4),
    ];
    for kind in DatasetKind::ALL {
        let clean = generate(kind, SizeClass::Tiny).full;
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut data = clean.data.clone();
            let at = data.len() / 2;
            data[at] = bad;
            let field = Field::new(kind.name(), data, clean.shape);
            for model in models {
                for cfg in [PipelineConfig::sz(model), PipelineConfig::zfp(model)] {
                    let run = std::panic::catch_unwind(|| compress(&field, &cfg));
                    let Ok(art) = run else {
                        continue;
                    };
                    let (rec, _) = reconstruct(&art.bytes);
                    let spread = field
                        .data
                        .iter()
                        .zip(&rec)
                        .filter(|(x, y)| x.is_finite() && !y.is_finite())
                        .count();
                    assert_eq!(
                        spread,
                        0,
                        "{} with {bad} under {} {:?}: finite inputs came back non-finite",
                        kind.name(),
                        model.name(),
                        cfg.orig
                    );
                }
            }
        }
    }
}

/// `bytes` with its section `name` replaced by `replacement`.
fn with_section(bytes: &[u8], name: &str, replacement: &[u8]) -> Vec<u8> {
    let parsed = Artifact::from_bytes(bytes).expect("parse");
    let mut out = Artifact::new();
    for (section_name, section) in parsed.sections() {
        let section = if section_name == name {
            replacement
        } else {
            section
        };
        out.push(section_name, section.to_vec());
    }
    out.to_bytes()
}

/// The section `name` of `bytes`.
fn section_of(bytes: &[u8], name: &str) -> Vec<u8> {
    let parsed = Artifact::from_bytes(bytes).expect("parse");
    parsed.get(name).expect("section").to_vec()
}

/// A field whose matrix view has 32 columns and `rows` rows.
fn square_field(rows: usize) -> Field {
    let shape = Shape::d2(32, rows);
    let data = (0..shape.len())
        .map(|i| ((i % 32) as f64 * 0.3).cos() * (1.0 + (i / 32) as f64 * 0.05))
        .collect();
    Field::new("square", data, shape)
}

/// A `rep` that declares a 65,536 × 65,536 matrix with `k = 0` and an
/// empty lossy stream: a few bytes asking the decoder for a 32 GiB base.
fn huge_rep(model: ReducedModelKind, cfg: &PipelineConfig) -> Vec<u8> {
    let big = 65_536u32;
    let empty = cfg.orig.compress(&[], Shape::d2(0, big as usize));
    let mut body = Vec::new();
    body.extend_from_slice(&0u32.to_le_bytes()); // k
    if model == ReducedModelKind::Pca {
        body.resize(body.len() + 8 * big as usize, 0); // column means
    }
    body.extend_from_slice(&(empty.len() as u32).to_le_bytes());
    body.extend_from_slice(&empty);
    let mut rep = Vec::new();
    if let ReducedModelKind::SvdBlocked(_) = model {
        // Method byte, n, one block of `big` rows.
        rep.push(1);
        rep.extend_from_slice(&big.to_le_bytes());
        rep.extend_from_slice(&1u32.to_le_bytes());
        rep.extend_from_slice(&(4 + body.len() as u32).to_le_bytes());
        rep.extend_from_slice(&big.to_le_bytes());
    } else {
        rep.extend_from_slice(&big.to_le_bytes());
        rep.extend_from_slice(&big.to_le_bytes());
    }
    rep.extend_from_slice(&body);
    rep
}

#[test]
fn rep_header_that_disagrees_with_the_delta_is_corrupt() {
    let field = square_field(32);
    for model in [
        ReducedModelKind::Svd,
        ReducedModelKind::Pca,
        ReducedModelKind::SvdBlocked(4),
        ReducedModelKind::Wavelet,
    ] {
        let cfg = PipelineConfig::sz(model);
        let art = compress(&field, &cfg);
        // A self-consistent representation of only the first 16 rows.
        let half = section_of(&compress(&square_field(16), &cfg).bytes, "rep");
        let mut crafted = vec![("half the rows", half)];
        if matches!(model, ReducedModelKind::Svd | ReducedModelKind::Pca) {
            // The rank word, after m and n, raised past min(m, n) = 32.
            let mut rep = section_of(&art.bytes, "rep");
            rep[8..12].copy_from_slice(&33u32.to_le_bytes());
            crafted.push(("k = 33", rep));
        }
        if model != ReducedModelKind::Wavelet {
            crafted.push(("65,536²", huge_rep(model, &cfg)));
        }
        for (what, rep) in crafted {
            let got = Pipeline::builder()
                .build()
                .reconstruct(&with_section(&art.bytes, "rep", &rep));
            assert!(
                matches!(got, Err(DecodeError::Corrupt { .. })),
                "{model:?}, {what}: {:?}",
                got.map(|(data, shape)| (data.len(), shape))
            );
        }
    }
}

#[test]
fn sz_bound_outside_its_domain_in_the_meta_is_corrupt() {
    // The meta's original codec sits at bytes 5..14 and its delta codec
    // at 14..23. An SZ bound there that is not finite and positive is
    // one no encoder writes, and building the codec from it would trip
    // the SZ constructor's assert.
    let art = compress(
        &sample_field(),
        &PipelineConfig::sz(ReducedModelKind::OneBase),
    );
    let meta = section_of(&art.bytes, "meta");
    for codec in [
        LossyCodec::SzRel(f64::NAN),
        LossyCodec::SzRel(-1.0),
        LossyCodec::SzRel(0.0),
        LossyCodec::SzAbs(f64::INFINITY),
    ] {
        for offset in [5, 14] {
            let mut crafted = meta.clone();
            crafted[offset..offset + 9].copy_from_slice(&codec.to_bytes());
            let got = Pipeline::builder()
                .build()
                .reconstruct(&with_section(&art.bytes, "meta", &crafted));
            assert!(
                matches!(got, Err(DecodeError::Corrupt { .. })),
                "{codec:?} at meta byte {offset}: {:?}",
                got.map(|(data, shape)| (data.len(), shape))
            );
        }
    }
}

/// A wavelet `rep` for an `m × n` field: a `rows × cols` coefficient
/// grid holding one value per varint position delta in `deltas`.
fn wavelet_rep(m: u32, n: u32, rows: u32, cols: u32, deltas: &[u64]) -> Vec<u8> {
    let mut sparse = Vec::new();
    sparse.extend_from_slice(&rows.to_le_bytes());
    sparse.extend_from_slice(&cols.to_le_bytes());
    sparse.extend_from_slice(&(deltas.len() as u64).to_le_bytes());
    for &delta in deltas {
        let mut v = delta;
        while v >= 0x80 {
            sparse.push(v as u8 | 0x80);
            v >>= 7;
        }
        sparse.push(v as u8);
    }
    for _ in deltas {
        sparse.extend_from_slice(&1.0f64.to_le_bytes());
    }
    let mut rep = Vec::new();
    for word in [m, n, sparse.len() as u32] {
        rep.extend_from_slice(&word.to_le_bytes());
    }
    rep.extend_from_slice(&sparse);
    rep
}

#[test]
fn wavelet_rep_with_a_grid_the_encoder_never_writes_is_corrupt() {
    // The encoder pads both extents to a power of two (at least 1) and
    // stores strictly increasing positions inside the grid. A 3×5 grid
    // would reach the inverse transform's power-of-two assert, a
    // wrapping position delta an overflowing add, and a position in an
    // empty grid an out-of-bounds write.
    let cfg = PipelineConfig::sz(ReducedModelKind::Wavelet);
    let data = (0..15).map(|i| (i as f64 * 0.4).sin()).collect();
    let field = Field::new("3x5", data, Shape::d2(5, 3));
    let empty = Field::new("empty", Vec::new(), Shape::d1(0));
    for (what, field, rep) in [
        ("3×5 grid", &field, wavelet_rep(3, 5, 3, 5, &[])),
        (
            "wrapping delta",
            &field,
            wavelet_rep(3, 5, 4, 8, &[1, u64::MAX]),
        ),
        (
            "position in a 0×1 grid",
            &empty,
            wavelet_rep(0, 1, 0, 1, &[0]),
        ),
    ] {
        let art = compress(field, &cfg);
        let got = Pipeline::builder()
            .build()
            .reconstruct(&with_section(&art.bytes, "rep", &rep));
        assert!(
            matches!(got, Err(DecodeError::Corrupt { .. })),
            "{what}: {:?}",
            got.map(|(data, shape)| (data.len(), shape))
        );
    }
}

#[test]
fn duo_model_with_an_empty_coarse_field_is_corrupt() {
    // The meta's aux shape (three u32 extents at bytes 35..47) set to
    // 0×0×0 and `rep` replaced by the orig codec's stream for that empty
    // field. The encoder never writes this; upsampling it would index
    // an empty slice. ZFP cannot encode an empty field.
    let field = sample_field();
    let coarse = Field::new("coarse", vec![1.0, 2.0, 3.0, 4.0], Shape::d2(2, 2));
    for orig in [
        LossyCodec::SzRel(1e-5),
        LossyCodec::SzAbs(1e-4),
        LossyCodec::FpcLossless(12),
    ] {
        let cfg = PipelineConfig {
            orig,
            ..PipelineConfig::sz(ReducedModelKind::DuoModel)
        };
        let art = Pipeline::from_config(cfg).compress_with_aux(&field, &coarse);
        let parsed = Artifact::from_bytes(&art.bytes).expect("parse");
        let mut crafted = Artifact::new();
        for (name, section) in parsed.sections() {
            let section = match name {
                "meta" => {
                    let mut meta = section.to_vec();
                    meta[35..47].fill(0);
                    meta
                }
                "rep" => orig.compress(&[], Shape::d3(0, 0, 0)),
                _ => section.to_vec(),
            };
            crafted.push(name, section);
        }
        let got = Pipeline::builder().build().reconstruct(&crafted.to_bytes());
        assert!(
            matches!(got, Err(DecodeError::Corrupt { .. })),
            "{orig:?}: {:?}",
            got.map(|(data, shape)| (data.len(), shape))
        );
    }
}

#[test]
fn projection_model_on_a_field_below_2d_is_corrupt() {
    // The meta's shape (three u32 extents at bytes 23..35) rewritten to
    // [5, 1, 0], an empty 1-D field, with an empty FPC delta to match.
    // One-base and multi-base encoders assert at least two dimensions;
    // multi-base's decoder used to clamp its group count to 1..=0.
    let field = generate(DatasetKind::Heat3d, SizeClass::Tiny).full;
    let fpc = LossyCodec::FpcLossless(12);
    for model in [ReducedModelKind::OneBase, ReducedModelKind::MultiBase(4)] {
        let cfg = PipelineConfig {
            orig: fpc,
            delta: fpc,
            ..PipelineConfig::sz(model)
        };
        let art = compress(&field, &cfg);
        let mut meta = section_of(&art.bytes, "meta");
        for (i, d) in [5u32, 1, 0].iter().enumerate() {
            meta[23 + 4 * i..27 + 4 * i].copy_from_slice(&d.to_le_bytes());
        }
        let crafted = with_section(&art.bytes, "meta", &meta);
        let crafted = with_section(&crafted, "delta", &fpc.compress(&[], Shape::d3(5, 1, 0)));
        let got = Pipeline::builder().build().reconstruct(&crafted);
        assert!(
            matches!(got, Err(DecodeError::Corrupt { .. })),
            "{model:?}: {:?}",
            got.map(|(data, shape)| (data.len(), shape))
        );
    }
}

#[test]
fn chunked_directory_that_does_not_tile_the_field_is_corrupt() {
    // A 16³ Direct artifact written as four 4-plane chunks. Each crafted
    // directory keeps the global dims and points at real chunk payloads;
    // decoding any of them would leave planes of made-up zeros.
    let field = generate(DatasetKind::Heat3d, SizeClass::Tiny).full;
    let pipeline = Pipeline::builder().chunks(4).build();
    let bytes = pipeline.compress(&field).bytes;
    let container = ChunkedArtifact::from_bytes(&bytes).expect("parse");
    assert_eq!(container.len(), 4);
    let chunks: Vec<(ChunkEntry, &[u8])> = container.chunks().map(|(e, p)| (*e, p)).collect();
    let entry = |z_offset, nz| ChunkEntry {
        z_offset,
        dims: [16, 16, nz],
        ..chunks[0].0
    };
    let crafted = [
        ("last entry dropped", vec![chunks[0], chunks[1], chunks[2]]),
        (
            "chunk 0 listed twice",
            vec![chunks[0], chunks[0], chunks[1], chunks[2]],
        ),
        (
            "entries that claim 8 planes each",
            vec![(entry(0, 8), chunks[0].1), (entry(8, 8), chunks[2].1)],
        ),
    ];
    for (what, parts) in crafted {
        let mut c = ChunkedArtifact::new(container.global_dims);
        for (e, p) in parts {
            c.push(e, p.to_vec());
        }
        let got = pipeline.reconstruct(&c.to_bytes());
        assert!(
            matches!(got, Err(DecodeError::Corrupt { .. })),
            "{what}: {:?}",
            got.map(|(data, shape)| (data.iter().filter(|v| **v == 0.0).count(), shape))
        );
    }
}

#[test]
fn sz_stream_that_contradicts_the_meta_codec_is_corrupt() {
    // The meta names SzRel(1e-5) for this Direct artifact; its delta
    // section is swapped for SZ streams under another mode or bound.
    let field = generate(DatasetKind::Heat3d, SizeClass::Tiny).full;
    let art = compress(&field, &PipelineConfig::sz(ReducedModelKind::Direct));
    let mut rewritten = Sz::block_rel(1e-3).compress(&field.data, field.shape);
    rewritten[1..9].copy_from_slice(&1e-5f64.to_le_bytes());
    let deltas = [
        (
            "absolute(1.0)",
            Sz::absolute(1.0).compress(&field.data, field.shape),
        ),
        (
            "block_rel(1e-3)",
            Sz::block_rel(1e-3).compress(&field.data, field.shape),
        ),
        // Only its exponent table tells this stream from a 1e-5 one.
        ("block_rel(1e-3), header bits of 1e-5", rewritten),
    ];
    for (what, delta) in deltas {
        let got = Pipeline::builder()
            .build()
            .reconstruct(&with_section(&art.bytes, "delta", &delta));
        assert!(
            matches!(got, Err(DecodeError::Corrupt { .. })),
            "{what}: {:?}",
            got.map(|(data, shape)| (data.len(), shape))
        );
    }
}
