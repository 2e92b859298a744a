//! The pipeline artifact's `meta` stream: a fixed 49-byte record
//! carrying the model tag, codecs, and shapes that
//! [`crate::pipeline`]'s reconstruction phase needs.
//!
//! Layout (all integers LE):
//!
//! | offset | size | field                          |
//! |--------|------|--------------------------------|
//! | 0      | 1    | model tag                      |
//! | 1      | 4    | model parameter, `u32`         |
//! | 5      | 9    | original-field codec           |
//! | 14     | 9    | delta codec                    |
//! | 23     | 24   | shape + aux shape, 6 × `u32`   |
//! | 47     | 1    | 1-D scan flag                  |
//!
//! This module is registered under `[decode]` (and `[taint]`) in
//! `lint.toml`: decoding treats the bytes as hostile — every field is
//! read through [`ByteReader`], which bounds-checks each access and
//! validates both shapes against element-count overflow before anything
//! is sized from them.

use crate::codec::LossyCodec;
use crate::pipeline::ReducedModelKind;
use lrm_compress::{ByteReader, DecodeError, DecodeResult, Shape};

/// Exact length of the encoded record.
const META_LEN: usize = 1 + 4 + 9 + 9 + 24 + 1;

/// The decoded `meta` stream.
pub(crate) struct Meta {
    pub tag: u8,
    pub param: u32,
    pub orig: LossyCodec,
    pub delta: LossyCodec,
    pub shape: Shape,
    pub aux_shape: Shape,
    pub scan_1d: bool,
}

pub(crate) fn encode_meta(
    model: ReducedModelKind,
    orig: &LossyCodec,
    delta: &LossyCodec,
    shape: Shape,
    aux_shape: Shape,
    scan_1d: bool,
) -> Vec<u8> {
    let (tag, param) = model.tag();
    let mut out = Vec::with_capacity(META_LEN);
    out.push(tag);
    out.extend_from_slice(&param.to_le_bytes());
    out.extend_from_slice(&orig.to_bytes());
    out.extend_from_slice(&delta.to_bytes());
    for d in shape.dims {
        out.extend_from_slice(&(d as u32).to_le_bytes());
    }
    for d in aux_shape.dims {
        out.extend_from_slice(&(d as u32).to_le_bytes());
    }
    out.push(scan_1d as u8);
    out
}

pub(crate) fn decode_meta(b: &[u8]) -> DecodeResult<Meta> {
    let mut r = ByteReader::new(b.get(..META_LEN).ok_or(DecodeError::Truncated {
        what: "pipeline meta",
    })?);
    Ok(Meta {
        tag: r.u8("pipeline meta model tag")?,
        param: r.u32("pipeline meta model param")?,
        orig: LossyCodec::from_bytes(r.take(9, "pipeline meta codec")?)?,
        delta: LossyCodec::from_bytes(r.take(9, "pipeline meta codec")?)?,
        shape: r.shape("pipeline meta shape")?,
        aux_shape: r.shape("pipeline meta aux shape")?,
        scan_1d: r.u8("pipeline meta scan flag")? != 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codec() -> LossyCodec {
        LossyCodec::SzRel(1e-5)
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let bytes = encode_meta(
            ReducedModelKind::MultiBase(7),
            &codec(),
            &codec(),
            Shape { dims: [4, 5, 6] },
            Shape { dims: [2, 3, 1] },
            true,
        );
        assert_eq!(bytes.len(), META_LEN);
        let meta = decode_meta(&bytes).expect("roundtrip");
        assert_eq!(meta.tag, 2);
        assert_eq!(meta.param, 7);
        assert_eq!(meta.shape.dims, [4, 5, 6]);
        assert_eq!(meta.aux_shape.dims, [2, 3, 1]);
        assert!(meta.scan_1d);
    }

    #[test]
    fn truncated_record_is_typed() {
        let bytes = encode_meta(
            ReducedModelKind::Direct,
            &codec(),
            &codec(),
            Shape { dims: [1, 1, 1] },
            Shape { dims: [0, 0, 0] },
            false,
        );
        for cut in 0..bytes.len() {
            assert!(
                decode_meta(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn overflowing_shape_is_rejected() {
        let mut bytes = encode_meta(
            ReducedModelKind::Direct,
            &codec(),
            &codec(),
            Shape { dims: [1, 1, 1] },
            Shape { dims: [0, 0, 0] },
            false,
        );
        // Max out all three primary extents so the element count
        // overflows usize.
        for i in 23..35 {
            bytes[i] = 0xff;
        }
        assert!(decode_meta(&bytes).is_err());
    }
}
