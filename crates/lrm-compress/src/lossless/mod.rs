//! Shared lossless substrate: entropy coding and dictionary compression.
//!
//! SZ 1.4 post-processes its quantization codes with Huffman coding and a
//! dictionary compressor; this module provides both stages plus the small
//! varint primitive the codecs share.

use crate::error::{DecodeError, DecodeResult};

pub mod huffman;
pub mod lzss;
pub mod varint;

pub use huffman::{huffman_decode, huffman_encode, HuffmanDecoder};
pub use lzss::{lzss_compress, lzss_decompress};
pub use varint::{decode_uvarint, encode_uvarint};

/// Compresses a byte buffer with the full lossless pipeline used as SZ's
/// final stage: LZSS dictionary compression. Returns whichever of
/// {raw, lzss} is smaller, prefixed with a 1-byte tag.
pub fn pipeline_compress(data: &[u8]) -> Vec<u8> {
    let lz = lzss_compress(data);
    if lz.len() + 1 < data.len() + 1 {
        let mut out = Vec::with_capacity(lz.len() + 1);
        out.push(1u8);
        out.extend_from_slice(&lz);
        out
    } else {
        let mut out = Vec::with_capacity(data.len() + 1);
        out.push(0u8);
        out.extend_from_slice(data);
        out
    }
}

/// Inverse of [`pipeline_compress`]. An empty buffer or unknown tag
/// byte yields a [`DecodeError`]; never panics.
pub fn pipeline_decompress(data: &[u8]) -> DecodeResult<Vec<u8>> {
    let (&tag, rest) = data.split_first().ok_or(DecodeError::Truncated {
        what: "lossless pipeline tag",
    })?;
    match tag {
        0 => Ok(rest.to_vec()),
        1 => lzss_decompress(rest),
        tag => Err(DecodeError::UnknownTag {
            what: "lossless pipeline",
            tag,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_roundtrip_compressible() {
        let data: Vec<u8> = (0..10_000).map(|i| (i % 7) as u8).collect();
        let c = pipeline_compress(&data);
        assert!(c.len() < data.len());
        assert_eq!(pipeline_decompress(&c).expect("decode"), data);
    }

    #[test]
    fn pipeline_roundtrip_incompressible() {
        let mut rng = lrm_rng::Rng64::new(3);
        let data: Vec<u8> = rng.vec_u8(4096);
        let c = pipeline_compress(&data);
        assert_eq!(pipeline_decompress(&c).expect("decode"), data);
        // Never expands by more than the tag byte plus LZSS worst case guard.
        assert!(c.len() <= data.len() + 1);
    }

    #[test]
    fn pipeline_roundtrip_empty() {
        let c = pipeline_compress(&[]);
        assert_eq!(pipeline_decompress(&c).expect("decode"), Vec::<u8>::new());
    }

    #[test]
    fn pipeline_empty_stream_is_truncated_error() {
        // Regression: this used to panic via split_first().expect(...).
        assert_eq!(
            pipeline_decompress(&[]),
            Err(DecodeError::Truncated {
                what: "lossless pipeline tag"
            })
        );
    }

    #[test]
    fn pipeline_unknown_tag_is_error() {
        assert!(matches!(
            pipeline_decompress(&[9, 1, 2, 3]),
            Err(DecodeError::UnknownTag { tag: 9, .. })
        ));
    }
}
