//! Golden-stream manifest: the codecs' output bytes and reconstructions,
//! pinned by hash.
//!
//! Every input below goes through every codec configuration below, and
//! each pair becomes one line of `golden_streams.manifest`: the FNV-64 of
//! the input's bits, of the compressed stream, and of the reconstruction
//! (or the decode error), plus the stream length. The test fails when any
//! line differs from the committed manifest, and it prints the lines that
//! moved.
//!
//! A change that moves bytes on purpose regenerates the manifest with
//!
//! ```text
//! LRM_BLESS_GOLDEN=1 cargo test -p lrm-compress --test golden_streams
//! ```
//!
//! and gives a reason for every moved line. Regenerating must never be
//! the way to make an unexplained difference pass.

use lrm_compress::{Codec, Fpc, Shape, Sz, Zfp};
use lrm_datasets::registry::{generate, DatasetKind, SizeClass};
use lrm_rng::Rng64;

const MANIFEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_streams.manifest");

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

/// The codec configurations every input goes through.
fn codecs() -> Vec<(String, Box<dyn Codec>)> {
    let mut out: Vec<(String, Box<dyn Codec>)> = Vec::new();
    for rel in [1e-5, 1e-3, 0.5, 3.0] {
        out.push((format!("sz-rel:{rel:e}"), Box::new(Sz::block_rel(rel))));
    }
    for e in [
        1e-3,
        0.25,
        0.3,
        f64::MAX,
        2f64.powi(1023),
        f64::MIN_POSITIVE,
        5e-324,
    ] {
        out.push((format!("sz-abs:{e:e}"), Box::new(Sz::absolute(e))));
    }
    for p in [1, 8, 16, 32, 64] {
        out.push((format!("zfp:{p}"), Box::new(Zfp::fixed_precision(p))));
    }
    out.push(("fpc:20".to_string(), Box::new(Fpc::new(20))));
    out
}

/// Synthetic edge values of one kind, `n` of them.
fn edge_values(kind: &str, n: usize, rng: &mut Rng64) -> Vec<f64> {
    (0..n)
        .map(|i| match kind {
            "nan" => {
                if i % 7 == 0 {
                    f64::NAN
                } else {
                    (i as f64 * 0.3).sin() * 10.0
                }
            }
            "inf" => match i % 5 {
                0 => f64::INFINITY,
                3 => f64::NEG_INFINITY,
                _ => (i as f64 * 0.2).cos(),
            },
            "subnormal" => {
                let v = f64::from_bits(1 + i as u64 * 0x0123_4567_89ab);
                if i % 2 == 0 {
                    v
                } else {
                    -v
                }
            }
            "neg-zero" => match i % 3 {
                0 => -0.0,
                1 => 0.0,
                _ => -(i as f64) * 1e-3,
            },
            // Multiples of 1/8: dyadic steps that land prediction errors
            // exactly halfway between quantization bins.
            "ties" => (rng.range_u64(64) as f64 - 32.0) * 0.125,
            "integer" => rng.range_u64(2001) as f64 - 1000.0,
            "zero" => 0.0,
            "random-bits" => rng.any_f64_bits(),
            _ => unreachable!("unknown edge kind {kind}"),
        })
        .collect()
}

/// Every input of the manifest, named.
fn inputs() -> Vec<(String, Vec<f64>, Shape)> {
    let mut out = Vec::new();
    for kind in DatasetKind::ALL {
        let field = generate(kind, SizeClass::Tiny).full;
        let name = kind.name();
        out.push((
            format!("tiny/{name}/as-is"),
            field.data.clone(),
            field.shape,
        ));
        let flat = Shape::d1(field.data.len());
        out.push((format!("tiny/{name}/flat"), field.data, flat));
    }
    let shapes = [
        ("1x1x1", Shape::d3(1, 1, 1)),
        ("2", Shape::d1(2)),
        ("1x700", Shape::d2(1, 700)),
        ("3x2x700", Shape::d3(3, 2, 700)),
    ];
    let kinds = [
        "nan",
        "inf",
        "subnormal",
        "neg-zero",
        "ties",
        "integer",
        "zero",
        "random-bits",
    ];
    let mut rng = Rng64::new(0x601D);
    for kind in kinds {
        for (sname, shape) in shapes {
            let v = edge_values(kind, shape.len(), &mut rng);
            out.push((format!("edge/{kind}/{sname}"), v, shape));
        }
    }
    // Four random normal values repeated with period 4, plus one other
    // value at index 100 and again 8,192 values (65,536 stream bytes)
    // later. Under a bound that makes every point an outlier, SZ's body
    // is the values' raw bits: LZSS compresses it, and the only match for
    // the second copy lies exactly one window length back.
    let mut rng = Rng64::new(0x65536);
    let mut normal = || {
        let bits = rng.next_u64() & !(0x7ff << 52);
        f64::from_bits(bits | ((1 + rng.range_u64(2046)) << 52))
    };
    let period = [normal(), normal(), normal(), normal()];
    let lone = normal();
    let mut v: Vec<f64> = (0..9000).map(|i| period[i % 4]).collect();
    v[100] = lone;
    v[100 + 8192] = lone;
    out.push(("window/9000".to_string(), v, Shape::d1(9000)));
    out
}

fn manifest() -> String {
    let codecs = codecs();
    let mut text = String::new();
    for (iname, data, shape) in inputs() {
        let input = fnv64_f64s(&data);
        for (cname, codec) in &codecs {
            let stream = codec.compress(&data, shape);
            let rec = match codec.decompress(&stream, shape) {
                Ok(rec) => format!("rec={:016x}", fnv64_f64s(&rec)),
                Err(e) => format!("err={e:?}"),
            };
            text.push_str(&format!(
                "{iname} {cname} in={input:016x} out={:016x} len={} {rec}\n",
                fnv64(&stream),
                stream.len(),
            ));
        }
    }
    text
}

#[test]
fn codec_streams_match_the_golden_manifest() {
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
