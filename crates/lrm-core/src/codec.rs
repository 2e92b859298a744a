//! Lossy-codec selection with the paper's dual error bounds.
//!
//! Section V-B: "different relative error bounds are applied to the
//! original data and delta" — the delta is much smaller in magnitude, so
//! holding it to the original's relative bound would over-spend bits.
//! The paper's settings, reproduced by the constructors here:
//!
//! * SZ — block-based point-wise relative `1e-5` for original data /
//!   reduced representations, `1e-3` for deltas;
//! * ZFP — fixed precision 16 bits for original data, 8 bits for deltas;
//! * FPC — lossless, for the Fig. 3 baseline bars and for callers that
//!   need bit-exact deltas.
//!
//! [`LossyCodec`] is a serializable *configuration*; [`LossyCodec::as_codec`]
//! instantiates the matching [`Codec`] implementation, and `LossyCodec`
//! itself implements [`Codec`] by delegation, so it can be passed anywhere
//! a `&dyn Codec` is expected.

use lrm_compress::{ByteReader, Codec, DecodeError, DecodeResult, Fpc, Shape, Sz, Zfp};

/// A concrete lossy-codec configuration, serializable into artifact
/// metadata.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossyCodec {
    /// SZ with the paper's (block-based) point-wise relative bound.
    SzRel(f64),
    /// SZ with an absolute bound.
    SzAbs(f64),
    /// ZFP in fixed-precision mode.
    ZfpPrecision(u32),
    /// FPC lossless compression at the given table level (4..=24).
    /// Through a reduced model the delta is exact, but the field is
    /// exact only to the f64 rounding of the model's subtraction and the
    /// decoder's addition (`|x − x̂| ≤ 2⁻⁵¹ · max|x|`); Direct is
    /// bit-exact.
    FpcLossless(u32),
}

impl LossyCodec {
    /// Instantiates the concrete compressor this configuration names.
    ///
    /// This is the single point where configuration becomes
    /// implementation; every compress/decompress path funnels through it.
    pub fn as_codec(&self) -> Box<dyn Codec> {
        match *self {
            LossyCodec::SzRel(rel) => Box::new(Sz::block_rel(rel)),
            LossyCodec::SzAbs(abs) => Box::new(Sz::absolute(abs)),
            LossyCodec::ZfpPrecision(p) => Box::new(Zfp::fixed_precision(p)),
            LossyCodec::FpcLossless(level) => Box::new(Fpc::new(level)),
        }
    }

    /// Compresses `data` under this codec.
    pub fn compress(&self, data: &[f64], shape: Shape) -> Vec<u8> {
        self.as_codec().compress(data, shape)
    }

    /// Decompresses a buffer produced by [`LossyCodec::compress`].
    /// Corrupt or truncated input is reported as a [`DecodeError`];
    /// this never panics.
    pub fn decompress(&self, bytes: &[u8], shape: Shape) -> DecodeResult<Vec<f64>> {
        self.as_codec().decompress(bytes, shape)
    }

    /// Decompresses a buffer this codec itself just produced, where a
    /// decode failure would mean an encoder bug rather than bad input.
    ///
    /// # Panics
    /// Panics if the stream does not decode — only use on freshly
    /// encoded, trusted bytes.
    pub(crate) fn decompress_own(&self, bytes: &[u8], shape: Shape) -> Vec<f64> {
        self.as_codec()
            .decompress(bytes, shape)
            .expect("decode of freshly encoded stream")
    }

    /// Short display name for experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            LossyCodec::SzRel(_) | LossyCodec::SzAbs(_) => "SZ",
            LossyCodec::ZfpPrecision(_) => "ZFP",
            LossyCodec::FpcLossless(_) => "FPC",
        }
    }

    /// Serializes into 9 bytes (tag + parameter).
    pub fn to_bytes(&self) -> [u8; 9] {
        let mut out = [0u8; 9];
        match *self {
            LossyCodec::SzRel(r) => {
                out[0] = 0;
                out[1..].copy_from_slice(&r.to_le_bytes());
            }
            LossyCodec::SzAbs(a) => {
                out[0] = 1;
                out[1..].copy_from_slice(&a.to_le_bytes());
            }
            LossyCodec::ZfpPrecision(p) => {
                out[0] = 2;
                out[1..9].copy_from_slice(&(p as u64).to_le_bytes());
            }
            LossyCodec::FpcLossless(level) => {
                out[0] = 3;
                out[1..9].copy_from_slice(&(level as u64).to_le_bytes());
            }
        }
        out
    }

    /// Inverse of [`LossyCodec::to_bytes`]. An SZ bound that is not
    /// finite and positive is [`DecodeError::Corrupt`]: no encoder writes
    /// one, and the SZ constructors reject it.
    pub fn from_bytes(b: &[u8]) -> DecodeResult<Self> {
        let mut r = ByteReader::new(b);
        let tag = r.u8("lossy-codec descriptor")?;
        let raw = r.u64("lossy-codec descriptor")?;
        let param = f64::from_bits(raw);
        // Tags 0 and 1 are SZ, whose constructors assert this domain.
        if tag <= 1 && !(param.is_finite() && param > 0.0) {
            return Err(DecodeError::Corrupt {
                what: "lossy-codec sz bound",
            });
        }
        match tag {
            0 => Ok(LossyCodec::SzRel(param)),
            1 => Ok(LossyCodec::SzAbs(param)),
            2 => Ok(LossyCodec::ZfpPrecision(raw as u32)),
            3 => Ok(LossyCodec::FpcLossless(raw as u32)),
            tag => Err(DecodeError::UnknownTag {
                what: "lossy-codec descriptor",
                tag,
            }),
        }
    }
}

/// [`LossyCodec`] is itself a [`Codec`]: the enum delegates to the
/// compressor it configures, so pipeline code can treat configurations
/// and concrete codecs uniformly.
impl Codec for LossyCodec {
    fn name(&self) -> &'static str {
        LossyCodec::name(self)
    }

    fn compress(&self, data: &[f64], shape: Shape) -> Vec<u8> {
        LossyCodec::compress(self, data, shape)
    }

    fn decompress(&self, bytes: &[u8], shape: Shape) -> DecodeResult<Vec<f64>> {
        LossyCodec::decompress(self, bytes, shape)
    }
}

/// The paper's SZ setting: rel `1e-5` for originals/representations,
/// rel `1e-3` for deltas.
pub fn sz_paper_bounds() -> (LossyCodec, LossyCodec) {
    (LossyCodec::SzRel(1e-5), LossyCodec::SzRel(1e-3))
}

/// The paper's ZFP setting: 16-bit precision for originals, 8-bit for
/// deltas.
pub fn zfp_paper_bounds() -> (LossyCodec, LossyCodec) {
    (LossyCodec::ZfpPrecision(16), LossyCodec::ZfpPrecision(8))
}

/// The FPC baseline as a [`LossyCodec`] configuration (level 20, as in
/// the paper's Fig. 3 bars).
pub fn fpc_paper_codec() -> LossyCodec {
    LossyCodec::FpcLossless(20)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every variant, for exhaustive serialization tests.
    fn all_variants() -> [LossyCodec; 4] {
        [
            LossyCodec::SzRel(1e-5),
            LossyCodec::SzAbs(0.25),
            LossyCodec::ZfpPrecision(16),
            LossyCodec::FpcLossless(20),
        ]
    }

    #[test]
    fn codec_bytes_roundtrip_all_variants() {
        for c in all_variants() {
            assert_eq!(LossyCodec::from_bytes(&c.to_bytes()), Ok(c));
        }
        assert_eq!(
            LossyCodec::from_bytes(&[9; 9]),
            Err(DecodeError::UnknownTag {
                what: "lossy-codec descriptor",
                tag: 9
            })
        );
        assert!(matches!(
            LossyCodec::from_bytes(&[0]),
            Err(DecodeError::Truncated { .. })
        ));
        // SZ bounds outside the constructors' domain (finite and > 0)
        // are corrupt descriptors, not codecs that panic when built.
        for c in [
            LossyCodec::SzRel(f64::NAN),
            LossyCodec::SzRel(-1.0),
            LossyCodec::SzRel(0.0),
            LossyCodec::SzAbs(f64::INFINITY),
        ] {
            assert_eq!(
                LossyCodec::from_bytes(&c.to_bytes()),
                Err(DecodeError::Corrupt {
                    what: "lossy-codec sz bound"
                }),
                "{c:?}"
            );
        }
    }

    #[test]
    fn compress_decompress_dispatches() {
        let shape = Shape::d1(100);
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.1).sin() + 2.0).collect();
        for c in [
            LossyCodec::SzRel(1e-4),
            LossyCodec::SzAbs(1e-4),
            LossyCodec::ZfpPrecision(32),
            LossyCodec::FpcLossless(12),
        ] {
            let d = c
                .decompress(&c.compress(&data, shape), shape)
                .expect("decode");
            for (a, b) in data.iter().zip(&d) {
                assert!((a - b).abs() < 1e-3, "{c:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn fpc_variant_is_bit_exact() {
        let shape = Shape::d1(257);
        let data: Vec<f64> = (0..257).map(|i| (i as f64 * 0.7).tan()).collect();
        let c = LossyCodec::FpcLossless(12);
        let d = c
            .decompress(&c.compress(&data, shape), shape)
            .expect("decode");
        for (a, b) in data.iter().zip(&d) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn trait_and_inherent_methods_agree() {
        let shape = Shape::d1(64);
        let data: Vec<f64> = (0..64).map(|i| (i as f64 * 0.2).cos()).collect();
        for c in all_variants() {
            let via_enum = c.compress(&data, shape);
            let via_box = c.as_codec().compress(&data, shape);
            let via_dyn = (&c as &dyn Codec).compress(&data, shape);
            assert_eq!(via_enum, via_box, "{c:?}");
            assert_eq!(via_enum, via_dyn, "{c:?}");
            assert_eq!(
                c.name(),
                c.as_codec().name().split('-').next().unwrap_or("")
            );
        }
    }

    #[test]
    fn paper_bounds_are_as_published() {
        let (o, d) = sz_paper_bounds();
        assert_eq!(o, LossyCodec::SzRel(1e-5));
        assert_eq!(d, LossyCodec::SzRel(1e-3));
        let (o, d) = zfp_paper_bounds();
        assert_eq!(o, LossyCodec::ZfpPrecision(16));
        assert_eq!(d, LossyCodec::ZfpPrecision(8));
        assert_eq!(fpc_paper_codec(), LossyCodec::FpcLossless(20));
    }
}
