//! Zero-run-length coding for sparse symbol streams.
//!
//! The Wavelet preconditioner produces matrices dominated by exact zeros
//! after thresholding; encoding runs of zeros compactly is what makes its
//! "sparse matrix" representation (Table III) pay off.

use super::varint::{decode_uvarint, encode_uvarint};

/// Hard ceiling on the symbol count a stream may declare: 2^27 symbols
/// is a 1 GiB `u64` buffer, far beyond any matrix this workspace
/// produces. A corrupt or hostile varint cannot commit the decoder to
/// more than this, no matter what the header claims.
const MAX_DECODED_SYMBOLS: usize = 1 << 27;

/// Encodes a `u64` symbol stream as alternating (zero-run-length,
/// literal-run) segments, each varint-prefixed.
///
/// Layout: repeat { zrun: uvarint, nlit: uvarint, nlit literals } until
/// all symbols are covered.
pub fn rle_encode_zeros(symbols: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_uvarint(symbols.len() as u64, &mut out);
    let mut i = 0;
    while i < symbols.len() {
        let run_start = i;
        while i < symbols.len() && symbols[i] == 0 {
            i += 1;
        }
        let zrun = (i - run_start) as u64;
        let lit_start = i;
        while i < symbols.len() && symbols[i] != 0 {
            i += 1;
        }
        encode_uvarint(zrun, &mut out);
        encode_uvarint((i - lit_start) as u64, &mut out);
        for &s in &symbols[lit_start..i] {
            encode_uvarint(s, &mut out);
        }
    }
    out
}

/// Inverse of [`rle_encode_zeros`]. Returns `None` on corrupt input,
/// including a declared symbol count above `MAX_DECODED_SYMBOLS`.
pub fn rle_decode_zeros(data: &[u8]) -> Option<Vec<u64>> {
    let mut pos = 0;
    let total = decode_uvarint(data, &mut pos)? as usize;
    if total > MAX_DECODED_SYMBOLS {
        return None;
    }
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        let zrun = decode_uvarint(data, &mut pos)? as usize;
        let nlit = decode_uvarint(data, &mut pos)? as usize;
        if out.len() + zrun + nlit > total {
            return None;
        }
        out.resize(out.len() + zrun, 0);
        for _ in 0..nlit {
            out.push(decode_uvarint(data, &mut pos)?);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed() {
        let s = vec![0, 0, 0, 5, 7, 0, 0, 1, 0, 0, 0, 0, 9];
        assert_eq!(rle_decode_zeros(&rle_encode_zeros(&s)), Some(s));
    }

    #[test]
    fn roundtrip_all_zeros_is_tiny() {
        let s = vec![0u64; 100_000];
        let e = rle_encode_zeros(&s);
        assert!(
            e.len() < 16,
            "all-zero stream should be a few bytes, got {}",
            e.len()
        );
        assert_eq!(rle_decode_zeros(&e), Some(s));
    }

    #[test]
    fn roundtrip_no_zeros() {
        let s: Vec<u64> = (1..=500).collect();
        assert_eq!(rle_decode_zeros(&rle_encode_zeros(&s)), Some(s));
    }

    #[test]
    fn roundtrip_empty() {
        assert_eq!(rle_decode_zeros(&rle_encode_zeros(&[])), Some(vec![]));
    }

    #[test]
    fn corrupt_input_returns_none() {
        assert_eq!(rle_decode_zeros(&[0x80]), None);
        // Claims 10 symbols but provides none.
        let mut buf = Vec::new();
        encode_uvarint(10, &mut buf);
        assert_eq!(rle_decode_zeros(&buf), None);
    }

    #[test]
    fn absurd_declared_total_is_rejected_before_allocating() {
        // A few bytes claiming u64::MAX symbols must fail fast, not
        // commit the decoder to a giant buffer.
        let mut buf = Vec::new();
        encode_uvarint(u64::MAX, &mut buf);
        encode_uvarint(u64::MAX, &mut buf); // zrun
        encode_uvarint(0, &mut buf); // nlit
        assert_eq!(rle_decode_zeros(&buf), None);
    }

    #[test]
    fn sparse_stream_compresses() {
        let mut s = vec![0u64; 10_000];
        for i in (0..10_000).step_by(503) {
            s[i] = i as u64;
        }
        let e = rle_encode_zeros(&s);
        assert!(e.len() < 500);
        assert_eq!(rle_decode_zeros(&e), Some(s));
    }
}
