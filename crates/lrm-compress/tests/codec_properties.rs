//! Cross-codec property tests: every codec honors its contract on
//! arbitrary shaped data, including adversarial shapes.

use lrm_compress::{Codec, Fpc, Shape, Sz, Zfp};
use lrm_rng::Rng64;

/// Random data with a random 1-D/2-D/3-D shape — same distribution the
/// original proptest strategy produced.
fn shaped_data(rng: &mut Rng64) -> (Vec<f64>, Shape) {
    let shape = match rng.range_usize(3) {
        0 => Shape::d1(1 + rng.range_usize(399)),
        1 => Shape::d2(1 + rng.range_usize(23), 1 + rng.range_usize(23)),
        _ => Shape::d3(
            1 + rng.range_usize(9),
            1 + rng.range_usize(9),
            2 + rng.range_usize(8),
        ),
    };
    let data = rng.vec_f64(-1e4, 1e4, shape.len());
    (data, shape)
}

const CASES: u64 = 32;

#[test]
fn fpc_is_lossless_on_any_shape() {
    for seed in 0..CASES {
        let (data, shape) = shaped_data(&mut Rng64::new(seed));
        let f = Fpc::new(12);
        let d = f
            .decompress(&f.compress(&data, shape), shape)
            .expect("decode");
        for (a, b) in data.iter().zip(&d) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

#[test]
fn sz_abs_bound_holds_on_any_shape() {
    for seed in 0..CASES {
        let (data, shape) = shaped_data(&mut Rng64::new(seed));
        let sz = Sz::absolute(1e-2);
        let d = sz
            .decompress(&sz.compress(&data, shape), shape)
            .expect("decode");
        for (a, b) in data.iter().zip(&d) {
            assert!((a - b).abs() <= 1e-2 * 1.000001, "{} vs {}", a, b);
        }
    }
}

#[test]
fn zfp_error_scales_with_magnitude_on_any_shape() {
    for seed in 0..CASES {
        let (data, shape) = shaped_data(&mut Rng64::new(seed));
        let z = Zfp::fixed_precision(40);
        let d = z
            .decompress(&z.compress(&data, shape), shape)
            .expect("decode");
        let maxv = data.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        for (a, b) in data.iter().zip(&d) {
            assert!((a - b).abs() <= maxv * 1e-8 + 1e-12, "{} vs {}", a, b);
        }
    }
}

#[test]
fn compressed_sizes_are_deterministic() {
    for seed in 0..CASES {
        let (data, shape) = shaped_data(&mut Rng64::new(seed));
        let sz = Sz::block_rel(1e-4);
        assert_eq!(sz.compress(&data, shape), sz.compress(&data, shape));
        let z = Zfp::fixed_precision(16);
        assert_eq!(z.compress(&data, shape), z.compress(&data, shape));
    }
}

#[test]
fn all_codecs_handle_single_value_fields() {
    let shape = Shape::d1(1);
    let data = [42.125f64];
    for c in [
        Box::new(Sz::absolute(1e-6)) as Box<dyn Codec>,
        Box::new(Sz::block_rel(1e-6)),
        Box::new(Zfp::fixed_precision(52)),
        Box::new(Fpc::new(8)),
    ] {
        let d = c
            .decompress(&c.compress(&data, shape), shape)
            .expect("decode");
        assert!((d[0] - 42.125).abs() < 1e-3, "{}: {}", c.name(), d[0]);
    }
}

#[test]
fn all_codecs_handle_all_zero_fields() {
    let shape = Shape::d3(6, 5, 4);
    let data = vec![0.0f64; shape.len()];
    for c in [
        Box::new(Sz::absolute(1e-6)) as Box<dyn Codec>,
        Box::new(Sz::block_rel(1e-6)),
        Box::new(Zfp::fixed_precision(16)),
        Box::new(Fpc::new(8)),
    ] {
        let bytes = c.compress(&data, shape);
        let d = c.decompress(&bytes, shape).expect("decode");
        assert!(d.iter().all(|&v| v == 0.0), "{}", c.name());
        assert!(
            bytes.len() < data.len(),
            "{} did not compress zeros",
            c.name()
        );
    }
}

#[test]
fn mixed_magnitudes_respect_block_rel_semantics() {
    // A field spanning 12 orders of magnitude: each scan block's error
    // must key off its own maximum, not the global one.
    let n = 2048usize;
    let shape = Shape::d1(n);
    let data: Vec<f64> = (0..n)
        .map(|i| {
            let block = i / 256;
            10f64.powi(block as i32 - 6) * ((i % 256) as f64 * 0.1).sin()
        })
        .collect();
    let sz = Sz::block_rel(1e-4);
    let d = sz
        .decompress(&sz.compress(&data, shape), shape)
        .expect("decode");
    for (b, chunk) in data.chunks(256).enumerate() {
        let maxv = chunk.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        for (j, &a) in chunk.iter().enumerate() {
            let got = d[b * 256 + j];
            assert!(
                (a - got).abs() <= 1e-4 * maxv * 1.01,
                "block {b}: {a} vs {got} (max {maxv})"
            );
        }
    }
}
