//! Differential suite: the word-level hot-path kernels must be
//! byte-identical to the retained scalar references in
//! `lrm_compress::reference` — on random streams and on chunks of the
//! nine paper datasets. Any divergence here means the rewritten kernels
//! changed the frozen bitstream formats.

use lrm_compress::bitstream::{BitReader, BitWriter};
use lrm_compress::lossless::{huffman_decode, huffman_encode, lzss_compress, lzss_decompress};
use lrm_compress::reference::{
    decode_ints_ref, encode_ints_ref, huffman_decode_ref, huffman_encode_ref, lzss_compress_ref,
    lzss_decompress_ref, RefBitReader, RefBitWriter,
};
use lrm_compress::zfp::codec::{decode_ints, encode_ints, int2uint};
use lrm_datasets::registry::{generate, DatasetKind, SizeClass};
use lrm_rng::Rng64;

// ---------------------------------------------------------------------------
// Bitstream: random op sequences, fast vs scalar, byte-identical.
// ---------------------------------------------------------------------------

#[test]
fn bitstream_writer_matches_reference_on_1k_random_streams() {
    let mut rng = Rng64::new(0xB17);
    for _ in 0..1000 {
        let mut fast = BitWriter::new();
        let mut slow = RefBitWriter::new();
        let ops = 1 + rng.range_usize(120);
        for _ in 0..ops {
            if rng.bool(0.25) {
                let b = rng.range_u64(2);
                fast.write_bit(b);
                slow.write_bit(b);
            } else {
                let n = rng.range_u64(65) as u32;
                let v = rng.next_u64();
                fast.write_bits(v, n);
                slow.write_bits(v, n);
            }
            assert_eq!(fast.len_bits(), slow.len_bits());
        }
        assert_eq!(fast.into_bytes(), slow.into_bytes());
    }
}

#[test]
fn bitstream_reader_matches_reference_on_1k_random_streams() {
    let mut rng = Rng64::new(0xB18);
    for _ in 0..1000 {
        let len = rng.range_usize(48);
        let bytes = rng.vec_u8(len);
        let mut fast = BitReader::new(&bytes);
        let mut slow = RefBitReader::new(&bytes);
        // Deliberately read ~25% past the end to cover zero-extension.
        let mut budget = bytes.len() * 10 + 80;
        while budget > 0 {
            let n = rng.range_u64(65) as u32;
            assert_eq!(fast.read_bits(n), slow.read_bits(n));
            assert_eq!(fast.bit_pos(), slow.bit_pos());
            budget = budget.saturating_sub(n.max(1) as usize);
        }
    }
}

// ---------------------------------------------------------------------------
// Huffman: encode bytes and decode results, fast vs scalar.
// ---------------------------------------------------------------------------

#[test]
fn huffman_matches_reference_on_1k_random_streams() {
    let mut rng = Rng64::new(0x4F);
    for i in 0..1000 {
        // Sweep alphabet regimes: tiny, SZ-like dense, and sparse-huge.
        let syms: Vec<u64> = match i % 3 {
            0 => (0..rng.range_usize(400))
                .map(|_| rng.range_u64(4))
                .collect(),
            1 => (0..rng.range_usize(400))
                .map(|_| 32768 + rng.range_u64(200))
                .collect(),
            _ => (0..rng.range_usize(100))
                .map(|_| rng.next_u64() >> rng.range_u64(60))
                .collect(),
        };
        let fast = huffman_encode(&syms);
        assert_eq!(fast, huffman_encode_ref(&syms), "stream {i}");
        assert_eq!(huffman_decode(&fast), huffman_decode_ref(&fast));
        assert_eq!(huffman_decode(&fast), Ok(syms));
    }
}

#[test]
fn huffman_decode_matches_reference_on_corrupted_streams() {
    let syms: Vec<u64> = (0..2000).map(|i| (i * i) % 97).collect();
    let good = huffman_encode(&syms);
    let mut rng = Rng64::new(0x50);
    for _ in 0..600 {
        let mut bad = good.clone();
        for _ in 0..1 + rng.range_usize(3) {
            let i = rng.range_usize(bad.len());
            bad[i] ^= 1 << rng.range_u64(8);
        }
        assert_eq!(huffman_decode(&bad), huffman_decode_ref(&bad));
    }
    for cut in 0..good.len().min(300) {
        assert_eq!(
            huffman_decode(&good[..cut]),
            huffman_decode_ref(&good[..cut])
        );
    }
}

// ---------------------------------------------------------------------------
// LZSS: compressed bytes and decode results, fast vs scalar.
// ---------------------------------------------------------------------------

#[test]
fn lzss_matches_reference_on_1k_random_streams() {
    let mut rng = Rng64::new(0x17);
    for i in 0..1000 {
        let n = rng.range_usize(3000);
        let data: Vec<u8> = match i % 3 {
            0 => rng.vec_u8(n),                                      // noise
            1 => (0..n).map(|j| (j % (1 + i % 40)) as u8).collect(), // periodic
            _ => (0..n).map(|_| rng.range_u64(4) as u8).collect(),   // tiny alphabet
        };
        let fast = lzss_compress(&data);
        assert_eq!(fast, lzss_compress_ref(&data), "stream {i}");
        assert_eq!(lzss_decompress(&fast), lzss_decompress_ref(&fast));
        assert_eq!(lzss_decompress(&fast), Ok(data));
    }
}

#[test]
fn lzss_matches_reference_at_the_window_edge() {
    // Noise with an 8- to 64-byte run copied exactly 65,536 bytes later:
    // the only match for the copy lies one window length back, one byte
    // past what a `u16` offset can name.
    let mut rng = Rng64::new(0x18);
    for len in [8usize, 9, 64] {
        let mut data = rng.vec_u8(70_000);
        data.copy_within(1_000..1_000 + len, 1_000 + (1 << 16));
        let fast = lzss_compress(&data);
        assert_eq!(fast, lzss_compress_ref(&data), "run of {len}");
        assert_eq!(lzss_decompress(&fast), lzss_decompress_ref(&fast));
        assert_eq!(
            lzss_decompress(&fast).map(|d| d == data),
            Ok(true),
            "run of {len}"
        );
    }
}

// ---------------------------------------------------------------------------
// ZFP plane coder: encoded planes and decoded coefficients, fast vs scalar.
// ---------------------------------------------------------------------------

#[test]
fn zfp_plane_coder_matches_reference_on_1k_random_blocks() {
    let mut rng = Rng64::new(0x2F);
    for i in 0..1000 {
        let size = [4usize, 16, 64][i % 3];
        // Negabinary-mapped 62-bit fixed-point values, with occasional
        // all-zero and sparse blocks.
        let uints: Vec<u64> = (0..size)
            .map(|_| {
                if rng.bool(0.2) {
                    0
                } else {
                    int2uint((rng.next_u64() >> rng.range_u64(62)) as i64)
                }
            })
            .collect();
        let maxprec = 1 + rng.range_u64(64) as u32;

        let mut fast_w = BitWriter::new();
        encode_ints(&uints, maxprec, &mut fast_w);
        let mut ref_w = BitWriter::new();
        encode_ints_ref(&uints, maxprec, &mut ref_w);
        assert_eq!(fast_w.len_bits(), ref_w.len_bits(), "block {i}");
        let bytes = fast_w.into_bytes();
        assert_eq!(bytes, ref_w.into_bytes(), "block {i}");

        let mut fast_out = vec![0u64; size];
        decode_ints(&mut fast_out, maxprec, &mut BitReader::new(&bytes));
        let mut ref_out = vec![0u64; size];
        decode_ints_ref(&mut ref_out, maxprec, &mut BitReader::new(&bytes));
        assert_eq!(fast_out, ref_out, "block {i}");
    }
}

// ---------------------------------------------------------------------------
// Real dataset chunks: every kernel family over the paper's nine fields.
// ---------------------------------------------------------------------------

#[test]
fn kernels_match_reference_on_dataset_chunks() {
    for kind in DatasetKind::ALL {
        let field = generate(kind, SizeClass::Tiny).full;

        // LZSS over the raw little-endian bytes of the field (the shape
        // SZ's final stage sees after Huffman).
        let bytes: Vec<u8> = field
            .data
            .iter()
            .take(4096)
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let fast = lzss_compress(&bytes);
        assert_eq!(fast, lzss_compress_ref(&bytes), "{kind:?} lzss");
        assert_eq!(lzss_decompress(&fast), lzss_decompress_ref(&fast));

        // Huffman over SZ-like quantization codes derived from the field.
        let lo = field.data.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = field.data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let scale = if hi > lo { 65535.0 / (hi - lo) } else { 0.0 };
        let codes: Vec<u64> = field
            .data
            .iter()
            .take(8192)
            .map(|v| ((v - lo) * scale) as u64)
            .collect();
        let fast = huffman_encode(&codes);
        assert_eq!(fast, huffman_encode_ref(&codes), "{kind:?} huffman");
        assert_eq!(huffman_decode(&fast), huffman_decode_ref(&fast));
        assert_eq!(huffman_decode(&fast), Ok(codes));

        // ZFP plane coder over gathered 4^d blocks of the field.
        let ndims = field.shape.ndims();
        let bsize = 1usize << (2 * ndims);
        let mut blk = vec![0.0f64; bsize];
        let mut fast_w = BitWriter::new();
        let mut ref_w = BitWriter::new();
        for b in lrm_compress::zfp::block::block_coords(field.shape).take(64) {
            lrm_compress::zfp::block::gather(&field.data, field.shape, b, &mut blk);
            // Same fixed-point mapping encode_block uses, with a nominal
            // block exponent: the plane coder only sees integers.
            let uints: Vec<u64> = blk.iter().map(|&v| int2uint((v * 1e6) as i64)).collect();
            encode_ints(&uints, 16, &mut fast_w);
            encode_ints_ref(&uints, 16, &mut ref_w);
        }
        let fast_bytes = fast_w.into_bytes();
        assert_eq!(fast_bytes, ref_w.into_bytes(), "{kind:?} zfp planes");
    }
}

// ---------------------------------------------------------------------------
// Whole-codec safety net: artifacts encoded by the word-level kernels
// still decode through the public Codec API on every dataset.
// ---------------------------------------------------------------------------

#[test]
fn codecs_roundtrip_every_dataset_after_rewrite() {
    use lrm_compress::{Codec, Fpc, Sz, Zfp};
    for kind in DatasetKind::ALL {
        let field = generate(kind, SizeClass::Tiny).full;
        let codecs: Vec<Box<dyn Codec>> = vec![
            Box::new(Sz::block_rel(1e-5)),
            Box::new(Zfp::fixed_precision(16)),
            Box::new(Fpc::new(20)),
        ];
        for c in &codecs {
            let enc = c.compress(&field.data, field.shape);
            let dec = c
                .decompress(&enc, field.shape)
                .unwrap_or_else(|e| panic!("{kind:?}/{}: {e:?}", c.name()));
            assert_eq!(dec.len(), field.data.len(), "{kind:?}/{}", c.name());
        }
    }
}
