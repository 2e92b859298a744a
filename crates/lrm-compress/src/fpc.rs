//! FPC: lossless compressor for IEEE-754 doubles.
//!
//! Reimplements Burtscher & Ratanaworabhan (IEEE TC 2009): each double is
//! predicted by two hash-table predictors — **FCM** (finite context on
//! recent values) and **DFCM** (finite context on recent deltas) — the
//! closer prediction is XORed with the true value, and the residual is
//! stored as a 4-bit header (1 predictor-selector bit + 3-bit
//! leading-zero-byte count) plus the non-zero low bytes.
//!
//! The paper runs FPC at *level 20 with a 2^24-byte table*; [`Fpc::new`]
//! takes the same level parameter (log2 of table entries).
//!
//! Both tables start every call all zero, but a call pays for its data,
//! not for its tables. Each thread keeps one pair of tables for levels up
//! to 20 (`KEPT_LEVEL`), and a call at such a level uses their prefix.
//! Afterwards it zeroes the slots it wrote by replaying its hash
//! sequence. Only then does the pair go back to the thread: a call that
//! returns an error or unwinds drops it instead. Levels 21–24 allocate
//! their tables per call.

use crate::bitstream::ByteReader;
use crate::error::{DecodeError, DecodeResult};
use crate::{Codec, Shape};
use std::cell::Cell;

/// FPC codec with a configurable table size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fpc {
    /// log2 of the number of entries in each predictor table.
    level: u32,
}

impl Default for Fpc {
    fn default() -> Self {
        Self::new(20)
    }
}

impl Fpc {
    /// Creates an FPC codec. `level` is the log2 of predictor-table
    /// entries, clamped to 4..=24 (level 20 matches the paper's setup:
    /// 2^20 entries x 8 bytes = 2^23 bytes per table, two tables = 2^24
    /// bytes total).
    pub fn new(level: u32) -> Self {
        Self {
            level: level.clamp(4, 24),
        }
    }

    fn table_entries(&self) -> usize {
        1usize << self.level
    }
}

/// Highest level whose predictor tables a thread keeps between calls:
/// the paper's level 20, two tables of 8 MiB. A call above it allocates
/// its own pair, so a request naming level 24 cannot pin 256 MiB on every
/// thread that ever served one.
const KEPT_LEVEL: u32 = 20;

thread_local! {
    /// This thread's FCM and DFCM tables for levels up to [`KEPT_LEVEL`].
    /// They are all zero whenever they sit here: a call takes them out
    /// and puts them back only once it has zeroed what it wrote, so a
    /// call that returns an error or unwinds drops them, and the next
    /// call starts from fresh tables.
    static KEPT: Cell<Option<(Vec<u64>, Vec<u64>)>> = const { Cell::new(None) };
}

struct Predictors {
    fcm: Vec<u64>,
    dfcm: Vec<u64>,
    fcm_hash: usize,
    dfcm_hash: usize,
    last: u64,
    mask: usize,
}

impl Predictors {
    /// Predictors over all-zero tables of at least `entries` slots, of
    /// which the first `entries` are used: this thread's kept tables when
    /// they are large enough, else a fresh pair.
    fn new(entries: usize) -> Self {
        let kept = if entries <= 1 << KEPT_LEVEL {
            KEPT.try_with(Cell::take).ok().flatten()
        } else {
            None
        };
        let (fcm, dfcm) = match kept {
            Some((fcm, dfcm)) if fcm.len() >= entries => (fcm, dfcm),
            _ => (vec![0; entries], vec![0; entries]),
        };
        Self {
            fcm,
            dfcm,
            fcm_hash: 0,
            dfcm_hash: 0,
            last: 0,
            mask: entries - 1,
        }
    }

    /// Returns (fcm prediction, dfcm prediction) for the next value.
    #[inline]
    fn predict(&self) -> (u64, u64) {
        (
            self.fcm[self.fcm_hash],
            self.dfcm[self.dfcm_hash].wrapping_add(self.last),
        )
    }

    /// Feeds the true value through both predictors (identical on encode
    /// and decode paths).
    #[inline]
    fn update(&mut self, val: u64) {
        let delta = val.wrapping_sub(self.last);
        self.fcm[self.fcm_hash] = val;
        self.dfcm[self.dfcm_hash] = delta;
        self.advance(val, delta);
    }

    /// Moves both hashes, and the last value, past `val`.
    #[inline]
    fn advance(&mut self, val: u64, delta: u64) {
        self.fcm_hash = ((self.fcm_hash << 6) ^ (val >> 48) as usize) & self.mask;
        self.dfcm_hash = ((self.dfcm_hash << 2) ^ (delta >> 40) as usize) & self.mask;
        self.last = val;
    }

    /// Zeroes what feeding `values` from the start wrote, and gives the
    /// tables back to this thread if their level is kept.
    fn release(mut self, values: &[f64]) {
        if self.mask + 1 > 1 << KEPT_LEVEL {
            return;
        }
        // The same hash sequence as the call, writing zeros.
        (self.fcm_hash, self.dfcm_hash, self.last) = (0, 0, 0);
        for v in values {
            let val = v.to_bits();
            self.fcm[self.fcm_hash] = 0;
            self.dfcm[self.dfcm_hash] = 0;
            self.advance(val, val.wrapping_sub(self.last));
        }
        let Self { fcm, dfcm, .. } = self;
        let _ = KEPT.try_with(|kept| kept.set(Some((fcm, dfcm))));
    }
}

/// Encodes a leading-zero-byte count (0..=8, 4 excluded) into 3 bits.
#[inline]
fn encode_lzb(cnt: u32) -> u32 {
    let cnt = if cnt == 4 { 3 } else { cnt };
    if cnt > 4 {
        cnt - 1
    } else {
        cnt
    }
}

/// Inverse of [`encode_lzb`].
#[inline]
fn decode_lzb(code: u32) -> u32 {
    if code > 3 {
        code + 1
    } else {
        code
    }
}

impl Codec for Fpc {
    fn name(&self) -> &'static str {
        "FPC"
    }

    fn compress(&self, data: &[f64], shape: Shape) -> Vec<u8> {
        assert_eq!(data.len(), shape.len(), "fpc: data/shape mismatch");
        let n = data.len();
        let mut pred = Predictors::new(self.table_entries());

        let header_len = n.div_ceil(2);
        let mut headers = vec![0u8; header_len];
        let mut residuals: Vec<u8> = Vec::with_capacity(n * 4);

        for (i, &v) in data.iter().enumerate() {
            let val = v.to_bits();
            let (p1, p2) = pred.predict();
            let x1 = val ^ p1;
            let x2 = val ^ p2;
            let (sel, xor) = if x1 <= x2 { (0u8, x1) } else { (1u8, x2) };
            let lzb = (xor.leading_zeros() / 8).min(8);
            let code = encode_lzb(lzb);
            let nbytes = 8 - decode_lzb(code); // bytes actually stored
            let nibble = (sel << 3) | code as u8;
            if i % 2 == 0 {
                headers[i / 2] = nibble << 4;
            } else {
                headers[i / 2] |= nibble;
            }
            // Store the low `nbytes` bytes, most significant first.
            for b in (0..nbytes).rev() {
                residuals.push((xor >> (8 * b)) as u8);
            }
            pred.update(val);
        }
        pred.release(data);

        let mut out = Vec::with_capacity(8 + headers.len() + residuals.len());
        out.extend_from_slice(&(n as u64).to_le_bytes());
        out.extend_from_slice(&headers);
        out.extend_from_slice(&residuals);
        out
    }

    fn decompress(&self, bytes: &[u8], shape: Shape) -> DecodeResult<Vec<f64>> {
        let mut r = ByteReader::new(bytes);
        let n64 = r.u64("fpc header")?;
        if n64 != shape.len() as u64 {
            return Err(DecodeError::ShapeMismatch {
                expected: shape.len(),
                found: usize::try_from(n64).unwrap_or(usize::MAX),
            });
        }
        let n = shape.len();
        let header_len = n.div_ceil(2);
        let headers = r.take(header_len, "fpc nibble headers")?;
        let mut rpos = 8 + header_len;

        let mut pred = Predictors::new(self.table_entries());
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let nibble = if i % 2 == 0 {
                // lint:allow(no-index): i / 2 < header_len = ceil(n / 2) by construction
                headers[i / 2] >> 4
            } else {
                // lint:allow(no-index): i / 2 < header_len = ceil(n / 2) by construction
                headers[i / 2] & 0xf
            };
            let sel = (nibble >> 3) & 1;
            let code = (nibble & 0x7) as u32;
            let nbytes = (8 - decode_lzb(code)) as usize;
            let mut xor = 0u64;
            for _ in 0..nbytes {
                let b = *bytes.get(rpos).ok_or(DecodeError::Truncated {
                    what: "fpc residual bytes",
                })?;
                xor = (xor << 8) | b as u64;
                rpos += 1;
            }
            let (p1, p2) = pred.predict();
            let p = if sel == 0 { p1 } else { p2 };
            let val = xor ^ p;
            out.push(f64::from_bits(val));
            pred.update(val);
        }
        pred.release(&out);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[f64]) {
        let shape = Shape::d1(data.len());
        let f = Fpc::new(16);
        let c = f.compress(data, shape);
        let d = f.decompress(&c, shape).expect("decode");
        assert_eq!(d.len(), data.len());
        for (a, b) in data.iter().zip(&d) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn roundtrip_is_bit_exact_on_smooth_data() {
        let data: Vec<f64> = (0..5000)
            .map(|i| (i as f64 * 0.001).sin() * 100.0)
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn roundtrip_handles_special_values() {
        roundtrip(&[
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            1e-310, // subnormal
            f64::MAX,
        ]);
    }

    #[test]
    fn roundtrip_empty_and_single() {
        roundtrip(&[]);
        roundtrip(&[42.0]);
    }

    #[test]
    fn roundtrip_random_bits() {
        let mut rng = lrm_rng::Rng64::new(13);
        let data: Vec<f64> = (0..2000).map(|_| rng.any_f64_bits()).collect();
        roundtrip(&data);
    }

    #[test]
    fn repetitive_data_compresses() {
        let data: Vec<f64> = (0..8000).map(|i| (i % 16) as f64).collect();
        let f = Fpc::new(16);
        let ratio = f.ratio(&data, Shape::d1(data.len()));
        assert!(ratio > 2.0, "ratio {ratio}");
    }

    #[test]
    fn random_data_does_not_explode() {
        let mut rng = lrm_rng::Rng64::new(14);
        let data: Vec<f64> = rng.vec_f64(-1.0, 1.0, 4000);
        let f = Fpc::default();
        let c = f.compress(&data, Shape::d1(data.len()));
        // Worst case: 0.5 header byte + 8 residual bytes per value + 8.
        assert!(c.len() <= data.len() * 9 + 8);
    }

    #[test]
    fn short_input_is_truncated_error() {
        let f = Fpc::new(12);
        for len in 0..8 {
            let r = f.decompress(&vec![0u8; len], Shape::d1(4));
            assert_eq!(
                r,
                Err(DecodeError::Truncated { what: "fpc header" }),
                "len {len}"
            );
        }
    }

    #[test]
    fn count_mismatch_is_shape_error() {
        let f = Fpc::new(12);
        let data = [1.0, 2.0, 3.0];
        let c = f.compress(&data, Shape::d1(3));
        assert_eq!(
            f.decompress(&c, Shape::d1(5)),
            Err(DecodeError::ShapeMismatch {
                expected: 5,
                found: 3,
            })
        );
    }

    #[test]
    fn truncated_residuals_are_error_not_panic() {
        let f = Fpc::new(12);
        let data: Vec<f64> = (0..64).map(|i| (i as f64).sqrt()).collect();
        let shape = Shape::d1(data.len());
        let c = f.compress(&data, shape);
        for cut in 0..c.len() {
            assert!(f.decompress(&c[..cut], shape).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn lzb_code_roundtrip() {
        for cnt in [0u32, 1, 2, 3, 5, 6, 7, 8] {
            assert_eq!(decode_lzb(encode_lzb(cnt)), cnt);
        }
        // Count 4 is stored as 3 (one extra zero byte stored).
        assert_eq!(decode_lzb(encode_lzb(4)), 3);
    }

    #[test]
    fn level_is_clamped() {
        assert_eq!(Fpc::new(0).table_entries(), 16);
        assert_eq!(Fpc::new(99).table_entries(), 1 << 24);
        assert_eq!(Fpc::new(20).table_entries(), 1 << 20);
    }

    #[test]
    fn smoother_deltas_compress_better() {
        // Constant-step ramp: DFCM predicts perfectly after warm-up.
        let ramp: Vec<f64> = (0..4000).map(|i| i as f64).collect();
        let mut rng = lrm_rng::Rng64::new(15);
        let noise: Vec<f64> = rng.vec_f64(0.0, 4000.0, 4000);
        let f = Fpc::new(18);
        let shape = Shape::d1(4000);
        assert!(f.ratio(&ramp, shape) > 1.5 * f.ratio(&noise, shape));
    }

    /// Slots in this thread's kept FCM table, if it holds one.
    fn kept_entries() -> Option<usize> {
        let kept = KEPT.with(Cell::take);
        let entries = kept.as_ref().map(|(fcm, _)| fcm.len());
        KEPT.with(|k| k.set(kept));
        entries
    }

    #[test]
    fn no_table_state_crosses_calls_on_one_thread() {
        // Interleaved levels and lengths on this thread: a level-12 call
        // on the prefix of level-20 tables, a level-12 call with more
        // values than slots, 2^18 values at level 20, level 24 between
        // them, and now and then a decode that fails partway. Every
        // stream must equal the one a fresh thread writes, and decode
        // back bit for bit.
        let mut rng = lrm_rng::Rng64::new(16);
        let smooth: Vec<f64> = (0..1 << 18).map(|i| (i as f64 * 0.01).sin()).collect();
        let noisy: Vec<f64> = (0..5000).map(|_| rng.any_f64_bits()).collect();
        // (level, values, end with a decode that fails partway)
        let calls: [(u32, &[f64], bool); 9] = [
            (12, &noisy[..100], false),
            (20, &noisy, false),
            (24, &smooth[..3000], false),
            (12, &noisy, true),
            (20, &smooth, false),
            (12, &smooth[..700], false),
            (24, &noisy, false),
            (20, &noisy[..4000], true),
            (12, &noisy[..900], false),
        ];
        for (level, data, fail) in calls {
            let f = Fpc::new(level);
            let shape = Shape::d1(data.len());
            let fresh = std::thread::scope(|s| s.spawn(|| f.compress(data, shape)).join())
                .expect("fresh thread");
            // A compress after the previous call, a decode after the
            // compress, and a compress after the decode.
            let c = f.compress(data, shape);
            assert_eq!(c, fresh, "level {level}, {} values", data.len());
            let d = f.decompress(&c, shape).expect("decode");
            assert!(data.iter().zip(&d).all(|(a, b)| a.to_bits() == b.to_bits()));
            assert_eq!(f.compress(data, shape), fresh, "level {level}");

            // Levels 12 and 20 leave tables at least their size with the
            // thread; level 24 leaves none larger than level 20's.
            let kept = kept_entries().expect("kept tables");
            if level == 24 {
                assert!(kept <= 1 << 20, "{kept} slots kept");
            } else {
                assert!(kept >= 1 << level, "{kept} slots kept");
            }
            if fail {
                // Out of residual bytes at the last value, after nearly
                // every slot was written: the tables are dropped.
                assert!(f.decompress(&c[..c.len() - 1], shape).is_err());
                assert_eq!(kept_entries(), None, "level {level}");
            }
        }
    }

    #[test]
    fn prop_bit_exact_roundtrip_any_bits() {
        // Full IEEE-754 domain: subnormals, infinities, NaNs included.
        for seed in 0..48u64 {
            let mut rng = lrm_rng::Rng64::new(seed);
            let n = rng.range_usize(500);
            let data: Vec<f64> = (0..n).map(|_| rng.any_f64_bits()).collect();
            let shape = Shape::d1(data.len());
            let f = Fpc::new(12);
            let d = f
                .decompress(&f.compress(&data, shape), shape)
                .expect("decode");
            for (a, b) in data.iter().zip(&d) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
