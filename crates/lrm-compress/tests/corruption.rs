//! Corruption-robustness harness for the codec layer.
//!
//! The decode-path contract (DESIGN.md, enforced statically by
//! `lrm-lint`) says corrupt or truncated input maps to a `DecodeError`,
//! never a panic, abort, or unbounded allocation. This suite drives the
//! dynamic side of that contract: every codec decodes
//!
//! * **every strict prefix** of a valid stream (must be `Err` — each
//!   format either length-prefixes its payload or pins the element
//!   count, so losing any tail byte is detectable), and
//! * **≥ 1000 deterministically mutated streams** (random byte flips
//!   from `lrm-rng`) plus pure-garbage streams, which may decode to
//!   nonsense (`Ok`) or fail (`Err`) but must never panic.

use lrm_compress::lossless::{pipeline_compress, pipeline_decompress};
use lrm_compress::{Codec, Fpc, Shape, Sz, Zfp};
use lrm_rng::Rng64;

const FLIP_TRIALS: usize = 1200;
const GARBAGE_TRIALS: usize = 500;

/// Every codec configuration the workspace ships, under one trait.
fn codecs() -> Vec<(&'static str, Box<dyn Codec>)> {
    vec![
        ("sz-abs", Box::new(Sz::absolute(1e-3))),
        ("sz-blockrel", Box::new(Sz::block_rel(1e-4))),
        ("zfp-precision", Box::new(Zfp::fixed_precision(16))),
        ("fpc", Box::new(Fpc::new(16))),
    ]
}

/// Smooth field plus noise: realistic enough that every codec exercises
/// its full encode path (runs, literals, exponent spread).
fn test_field(rng: &mut Rng64, shape: Shape) -> Vec<f64> {
    (0..shape.len())
        .map(|i| {
            let x = i as f64 * 0.07;
            (x.sin() * 40.0) + (x * 0.35).cos() * 9.0 + rng.range_f64(-0.5, 0.5)
        })
        .collect()
}

/// Mutates 1–4 bytes of `stream` in place with non-zero xor masks.
fn flip_bytes(rng: &mut Rng64, stream: &mut [u8]) {
    if stream.is_empty() {
        return;
    }
    for _ in 0..1 + rng.range_usize(4) {
        let at = rng.range_usize(stream.len());
        let mask = 1 + rng.range_usize(255) as u8;
        stream[at] ^= mask;
    }
}

#[test]
fn every_prefix_truncation_is_an_error() {
    let shape = Shape::d3(7, 6, 5);
    let mut rng = Rng64::new(0xC0_FFEE);
    let data = test_field(&mut rng, shape);
    for (name, codec) in codecs() {
        let stream = codec.compress(&data, shape);
        for cut in 0..stream.len() {
            assert!(
                codec.decompress(&stream[..cut], shape).is_err(),
                "{name}: prefix of {cut}/{} bytes decoded Ok",
                stream.len()
            );
        }
        // The intact stream still decodes, so the loop above really did
        // exercise the success path's neighborhood.
        assert!(
            codec.decompress(&stream, shape).is_ok(),
            "{name}: intact stream"
        );
    }
}

#[test]
fn thousand_byte_flipped_streams_never_panic() {
    let shape = Shape::d3(6, 5, 4);
    let mut rng = Rng64::new(0xBAD_5EED);
    let data = test_field(&mut rng, shape);
    for (name, codec) in codecs() {
        let stream = codec.compress(&data, shape);
        for trial in 0..FLIP_TRIALS {
            let mut mutated = stream.clone();
            flip_bytes(&mut rng, &mut mutated);
            // Ok-with-garbage and Err are both acceptable; a panic or
            // wrong-length success is not.
            if let Ok(out) = codec.decompress(&mutated, shape) {
                assert_eq!(
                    out.len(),
                    shape.len(),
                    "{name}: trial {trial} decoded to the wrong length"
                );
            }
        }
    }
}

#[test]
fn pure_garbage_streams_never_panic() {
    let shape = Shape::d2(16, 16);
    let mut rng = Rng64::new(0xD15EA5E);
    for (name, codec) in codecs() {
        for trial in 0..GARBAGE_TRIALS {
            let len = rng.range_usize(512);
            let garbage = rng.vec_u8(len);
            if let Ok(out) = codec.decompress(&garbage, shape) {
                assert_eq!(
                    out.len(),
                    shape.len(),
                    "{name}: garbage trial {trial} decoded to the wrong length"
                );
            }
        }
    }
}

#[test]
fn lossless_pipeline_survives_truncation_and_flips() {
    let mut rng = Rng64::new(0x10_55);
    // Compressible payload so the LZSS branch (tag 1) is exercised…
    let compressible: Vec<u8> = (0..4096).map(|i| (i % 9) as u8).collect();
    // …and incompressible so the raw branch (tag 0) is too.
    let incompressible = rng.vec_u8(2048);
    for data in [compressible, incompressible] {
        let stream = pipeline_compress(&data);
        for cut in 0..stream.len() {
            // The raw branch stores bytes verbatim, so a truncated
            // stream legitimately decodes to a strict prefix of the
            // original payload — but never to anything else.
            if let Ok(out) = pipeline_decompress(&stream[..cut]) {
                assert!(out.len() < data.len(), "prefix decoded to full length");
                assert_eq!(out.as_slice(), &data[..out.len()]);
            }
        }
        for _ in 0..FLIP_TRIALS {
            let mut mutated = stream.clone();
            flip_bytes(&mut rng, &mut mutated);
            let _ = pipeline_decompress(&mutated);
        }
    }
}
