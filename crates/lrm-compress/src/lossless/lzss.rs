//! LZSS dictionary compression (the LZ77 stage of SZ's pipeline).
//!
//! Byte-oriented, 64 KiB sliding window, greedy hash-chain matching.
//! Token format: groups of 8 tokens share a flag byte (bit i set = token i
//! is a match). A literal is one byte; a match is a little-endian `u16`
//! offset (1-based distance, so at most 65,535 back) followed by a length
//! byte storing `length - MIN_MATCH`.

use crate::error::{DecodeError, DecodeResult};

const WINDOW: usize = 1 << 16;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = MIN_MATCH + 255;
const MAX_CHAIN: usize = 64;
const HASH_BITS: u32 = 15;

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    ((v.wrapping_mul(0x9E37_79B1)) >> (32 - HASH_BITS)) as usize
}

/// Unaligned little-endian load of 8 bytes at `i`; zero-fills if fewer
/// than 8 bytes remain (callers only rely on fully in-bounds loads).
#[inline]
fn load_u64(data: &[u8], i: usize) -> u64 {
    let mut w = [0u8; 8];
    if let Some(s) = data.get(i..i.saturating_add(8)) {
        w.copy_from_slice(s);
    }
    u64::from_le_bytes(w)
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, capped at
/// `limit`. Compares 8 bytes per step — XOR plus `trailing_zeros` finds
/// the first differing byte — with a scalar tail. Both `a + limit` and
/// `b + limit` must be within `data` (the caller derives `limit` from
/// `data.len()`), so the word loads never cross the end.
#[inline]
fn match_len(data: &[u8], a: usize, b: usize, limit: usize) -> usize {
    let mut l = 0;
    while l + 8 <= limit {
        let x = load_u64(data, a + l) ^ load_u64(data, b + l);
        if x != 0 {
            return l + (x.trailing_zeros() >> 3) as usize;
        }
        l += 8;
    }
    while l < limit && data.get(a + l) == data.get(b + l) {
        l += 1;
    }
    l
}

/// Compresses `data`. The output begins with the original length as a
/// little-endian `u32`.
pub fn lzss_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());

    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev = vec![usize::MAX; data.len()];

    let mut i = 0;
    let mut flags_pos = out.len();
    out.push(0);
    let mut flag_bit = 0u32;

    macro_rules! bump_flags {
        () => {
            flag_bit += 1;
            if flag_bit == 8 {
                flag_bit = 0;
                flags_pos = out.len();
                out.push(0);
            }
        };
    }

    while i < data.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= data.len() {
            let h = hash4(data, i);
            let mut cand = head[h];
            let mut chain = 0;
            while cand != usize::MAX && i - cand < WINDOW && chain < MAX_CHAIN {
                let limit = (data.len() - i).min(MAX_MATCH);
                let l = match_len(data, cand, i, limit);
                if l > best_len {
                    best_len = l;
                    best_dist = i - cand;
                    if l == limit {
                        break;
                    }
                }
                cand = prev[cand];
                chain += 1;
            }
            // Insert current position into the chain.
            prev[i] = head[h];
            head[h] = i;
        }

        if best_len >= MIN_MATCH {
            out[flags_pos] |= 1 << flag_bit;
            out.extend_from_slice(&(best_dist as u16).to_le_bytes());
            out.push((best_len - MIN_MATCH) as u8);
            // Index the skipped positions so later matches can refer back.
            let end = (i + best_len).min(data.len().saturating_sub(MIN_MATCH - 1));
            let mut j = i + 1;
            while j < end {
                let h = hash4(data, j);
                prev[j] = head[h];
                head[h] = j;
                j += 1;
            }
            i += best_len;
        } else {
            out.push(data[i]);
            i += 1;
        }
        bump_flags!();
    }
    out
}

/// Inverse of [`lzss_compress`]. Returns a [`DecodeError`] on corrupt
/// input (out-of-range offsets or truncated stream); never panics.
pub fn lzss_decompress(data: &[u8]) -> DecodeResult<Vec<u8>> {
    let header: [u8; 4] =
        data.get(..4)
            .and_then(|s| s.try_into().ok())
            .ok_or(DecodeError::Truncated {
                what: "lzss length header",
            })?;
    let n = u32::from_le_bytes(header) as usize;
    // Each output byte costs at least 1/8 of a flag bit plus (amortized)
    // one token byte per literal or per MIN_MATCH matched bytes, so a
    // valid stream of payload p bytes never decodes past p * (MAX_MATCH+1)
    // outputs. Cap the pre-allocation by that bound to keep a corrupt
    // length field from triggering a huge allocation up front.
    let cap = n.min(data.len().saturating_mul(MAX_MATCH + 1));
    let mut out = Vec::with_capacity(cap);
    let mut pos = 4;
    let mut flags = 0u8;
    let mut flag_bit = 8u32; // force read of first flag byte
    while out.len() < n {
        if flag_bit == 8 {
            flags = *data.get(pos).ok_or(DecodeError::Truncated {
                what: "lzss flag byte",
            })?;
            pos += 1;
            flag_bit = 0;
        }
        if flags & (1 << flag_bit) != 0 {
            let (dist, len) = match data.get(pos..pos.saturating_add(3)) {
                Some(&[d0, d1, l]) => (
                    u16::from_le_bytes([d0, d1]) as usize,
                    l as usize + MIN_MATCH,
                ),
                _ => {
                    return Err(DecodeError::Truncated {
                        what: "lzss match token",
                    })
                }
            };
            pos += 3;
            if dist < 1 || dist > out.len() {
                return Err(DecodeError::Corrupt {
                    what: "lzss match offset out of range",
                });
            }
            let start = out.len() - dist;
            if dist >= len {
                // Non-overlapping: one chunked copy (memcpy-class).
                let stop = start + len; // <= out.len() because len <= dist
                out.extend_from_within(start..stop);
            } else {
                // Overlapping run with period `dist`: each pass copies the
                // whole materialized tail, doubling the run per iteration
                // instead of pushing byte by byte.
                let mut remaining = len;
                while remaining > 0 {
                    let chunk = (out.len() - start).min(remaining);
                    let stop = start + chunk; // <= out.len() by the min above
                    out.extend_from_within(start..stop);
                    remaining -= chunk;
                }
            }
        } else {
            out.push(*data.get(pos).ok_or(DecodeError::Truncated {
                what: "lzss literal",
            })?);
            pos += 1;
        }
        flag_bit += 1;
    }
    if out.len() != n {
        return Err(DecodeError::Corrupt {
            what: "lzss decoded length mismatch",
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_repetitive() {
        let data: Vec<u8> = b"abcabcabcabcabcabc".repeat(100);
        let c = lzss_compress(&data);
        assert!(c.len() < data.len() / 4);
        assert_eq!(lzss_decompress(&c).expect("decode"), data);
    }

    #[test]
    fn roundtrip_empty() {
        let c = lzss_compress(&[]);
        assert_eq!(lzss_decompress(&c).expect("decode"), Vec::<u8>::new());
    }

    #[test]
    fn roundtrip_short_inputs() {
        for n in 0..16usize {
            let data: Vec<u8> = (0..n as u8).collect();
            assert_eq!(
                lzss_decompress(&lzss_compress(&data)).expect("decode"),
                data
            );
        }
    }

    #[test]
    fn roundtrip_random() {
        let mut rng = lrm_rng::Rng64::new(11);
        let data: Vec<u8> = rng.vec_u8(50_000);
        assert_eq!(
            lzss_decompress(&lzss_compress(&data)).expect("decode"),
            data
        );
    }

    #[test]
    fn roundtrip_overlapping_match() {
        // Runs force overlapping copies (dist < len).
        let data = vec![7u8; 1000];
        let c = lzss_compress(&data);
        assert!(c.len() < 40);
        assert_eq!(lzss_decompress(&c).expect("decode"), data);
    }

    #[test]
    fn roundtrip_long_range_match() {
        let mut data = vec![0u8; 40_000];
        for i in 0..1000 {
            data[i] = (i % 251) as u8;
            data[30_000 + i] = (i % 251) as u8;
        }
        assert_eq!(
            lzss_decompress(&lzss_compress(&data)).expect("decode"),
            data
        );
    }

    #[test]
    fn match_one_window_back_is_not_taken() {
        // 70,000 xorshift64 bytes with bytes 100..108 copied exactly one
        // window length later. A distance of 65,536 does not fit the u16
        // offset: written, it wrapped to offset 0, which the decoder
        // rejects as out of range.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut data: Vec<u8> = (0..70_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        data.copy_within(100..108, 100 + WINDOW);
        assert_eq!(
            lzss_decompress(&lzss_compress(&data)).expect("decode"),
            data
        );
    }

    #[test]
    fn matches_scalar_reference_bytes() {
        use crate::reference::{lzss_compress_ref, lzss_decompress_ref};
        let mut rng = lrm_rng::Rng64::new(21);
        for _ in 0..20 {
            let n = rng.range_usize(20_000);
            // Mixed regime: runs, structure, and noise.
            let data: Vec<u8> = (0..n)
                .map(|j| {
                    if rng.bool(0.5) {
                        (j % 17) as u8
                    } else {
                        rng.range_u64(5) as u8
                    }
                })
                .collect();
            let fast = lzss_compress(&data);
            assert_eq!(fast, lzss_compress_ref(&data));
            assert_eq!(
                lzss_decompress(&fast).expect("decode"),
                lzss_decompress_ref(&fast).expect("ref decode")
            );
        }
    }

    #[test]
    fn prop_roundtrip_small_alphabet() {
        // Small alphabets maximize match density; sweep lengths 0..4000.
        for seed in 0..48u64 {
            let mut rng = lrm_rng::Rng64::new(seed);
            let n = rng.range_usize(4000);
            let data: Vec<u8> = (0..n).map(|_| rng.range_u64(8) as u8).collect();
            assert_eq!(
                lzss_decompress(&lzss_compress(&data)).expect("decode"),
                data
            );
        }
    }
}
