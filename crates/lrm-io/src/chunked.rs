//! Multi-chunk artifact container for the chunk-parallel pipeline.
//!
//! The chunk engine decomposes a field into z-slabs and compresses each
//! slab independently; the result is one [`ChunkedArtifact`]: a
//! self-describing header (format version, global dims, chunk count,
//! per-chunk directory) followed by the per-chunk payloads, each of which
//! is a complete single-chunk [`Artifact`](crate::Artifact) stream.
//!
//! # Wire layout (version 1)
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 4    | magic `"LRMC"` |
//! | 4      | 2    | format version (`1`) |
//! | 6      | 12   | global dims, 3 × `u32` LE |
//! | 18     | 4    | chunk count `C`, `u32` LE |
//! | 22     | 25·C | chunk directory (below) |
//! | …      | —    | concatenated chunk payloads |
//!
//! Each directory entry is 25 bytes: `z_offset: u32`, `dims: 3 × u32`,
//! `model_tag: u8`, `payload_len: u64` (all LE). Payload `i` starts where
//! payload `i-1` ends; the directory carries lengths, not offsets, so the
//! container can be streamed out without back-patching.
//!
//! # Versioning
//!
//! * A stream starting with `"LRM1"` is a **version-0** single-chunk
//!   artifact — the format that predates chunking.
//!   [`ChunkedArtifact::from_bytes`] wraps it as a one-chunk container
//!   with unknown dims (`[0, 0, 0]`), so every pre-chunking artifact
//!   still decodes.
//! * Version numbers only grow; decoders reject versions they don't
//!   know rather than guessing at the layout.

use lrm_compress::{ByteReader, DecodeError, DecodeResult};

/// Magic bytes identifying a chunked artifact stream.
const MAGIC: &[u8; 4] = b"LRMC";

/// Magic of the version-0 (single-chunk) artifact format.
const MAGIC_V0: &[u8; 4] = b"LRM1";

/// Current wire-format version.
pub const FORMAT_VERSION: u16 = 1;

/// Bytes per chunk-directory entry.
const ENTRY_LEN: usize = 25;
/// Hard ceiling on the directory's declared chunk count. 2^20 chunks
/// is a 25 MiB directory — orders of magnitude past any real grid
/// partition — so a corrupt count field fails typed instead of sizing
/// buffers from hostile bytes.
pub const MAX_CHUNK_COUNT: usize = 1 << 20;

/// Bytes before the chunk directory starts.
const HEADER_LEN: usize = 22;

/// Directory entry describing one chunk of a [`ChunkedArtifact`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEntry {
    /// First global z-plane covered by this chunk.
    pub z_offset: u32,
    /// Chunk dims `[nx, ny, nz]`.
    pub dims: [u32; 3],
    /// Reduced-model tag the chunk was preconditioned with (the same tag
    /// stored inside the chunk's own metadata; surfaced here so tooling
    /// can inspect a container without parsing payloads).
    pub model_tag: u8,
}

/// A multi-chunk compressed snapshot: header + per-chunk payloads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChunkedArtifact {
    /// Global field dims `[nx, ny, nz]` (all zero when wrapped from a
    /// version-0 stream, which carries its own shape in chunk metadata).
    pub global_dims: [u32; 3],
    chunks: Vec<(ChunkEntry, Vec<u8>)>,
}

impl ChunkedArtifact {
    /// An empty container for the given global dims.
    pub fn new(global_dims: [u32; 3]) -> Self {
        Self {
            global_dims,
            chunks: Vec::new(),
        }
    }

    /// Appends a chunk. Chunks must be pushed in ascending `z_offset`
    /// order, tiling the field: the decoder joins them in directory
    /// order and rejects any other directory.
    pub fn push(&mut self, entry: ChunkEntry, payload: Vec<u8>) {
        self.chunks.push((entry, payload));
    }

    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// True when no chunks are present.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Iterates `(entry, payload)` pairs in directory order.
    pub fn chunks(&self) -> impl Iterator<Item = (&ChunkEntry, &[u8])> {
        self.chunks.iter().map(|(e, p)| (e, p.as_slice()))
    }

    /// Total payload bytes across chunks (excludes header overhead, like
    /// [`Artifact::payload_bytes`](crate::Artifact::payload_bytes)).
    pub fn payload_bytes(&self) -> usize {
        self.chunks.iter().map(|(_, p)| p.len()).sum()
    }

    /// Serialized size: header + directory + payloads.
    pub fn nbytes(&self) -> usize {
        HEADER_LEN + self.chunks.len() * ENTRY_LEN + self.payload_bytes()
    }

    /// Serializes into the version-1 wire layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.nbytes());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        for d in self.global_dims {
            out.extend_from_slice(&d.to_le_bytes());
        }
        out.extend_from_slice(&(self.chunks.len() as u32).to_le_bytes());
        for (e, p) in &self.chunks {
            out.extend_from_slice(&e.z_offset.to_le_bytes());
            for d in e.dims {
                out.extend_from_slice(&d.to_le_bytes());
            }
            out.push(e.model_tag);
            out.extend_from_slice(&(p.len() as u64).to_le_bytes());
        }
        for (_, p) in &self.chunks {
            out.extend_from_slice(p);
        }
        out
    }

    /// Parses a chunked stream, or wraps a version-0 single-chunk stream
    /// as a one-chunk container. Returns a [`DecodeError`] on any
    /// structural error (bad magic, unknown version, truncation); never
    /// panics.
    pub fn from_bytes(b: &[u8]) -> DecodeResult<Self> {
        if b.get(..4) == Some(MAGIC_V0.as_slice()) {
            // Version-0 backward compatibility: the whole stream is one
            // chunk; its shape lives in its own metadata. Validate the
            // wrapped stream here so a truncated v0 artifact is rejected
            // at the container boundary instead of deep in a decoder.
            crate::Artifact::from_bytes(b)?;
            return Ok(Self {
                global_dims: [0, 0, 0],
                chunks: vec![(
                    ChunkEntry {
                        z_offset: 0,
                        dims: [0, 0, 0],
                        model_tag: 0,
                    },
                    b.to_vec(),
                )],
            });
        }
        let mut r = ByteReader::new(b);
        let mut header = ByteReader::new(r.take(HEADER_LEN, "chunked header")?);
        if header.take(4, "chunked header")? != MAGIC {
            return Err(DecodeError::Corrupt {
                what: "chunked magic",
            });
        }
        let version = header.u16("chunked version")?;
        if version != FORMAT_VERSION {
            return Err(DecodeError::UnsupportedVersion {
                found: version.min(u8::MAX as u16) as u8,
                supported: FORMAT_VERSION as u8,
            });
        }
        let global_dims = [
            header.u32("chunked header field")?,
            header.u32("chunked header field")?,
            header.u32("chunked header field")?,
        ];
        let count = header.u32("chunked header field")? as usize;
        if count > MAX_CHUNK_COUNT {
            return Err(DecodeError::Corrupt {
                what: "chunked chunk count",
            });
        }

        // The whole directory must also fit before anything is allocated,
        // so a corrupt count cannot trigger a huge up-front allocation.
        let dir_len = count.checked_mul(ENTRY_LEN).ok_or(DecodeError::Corrupt {
            what: "chunked directory size overflow",
        })?;
        let mut dir = ByteReader::new(r.take(dir_len, "chunked directory")?);
        let mut chunks = Vec::with_capacity(count);
        for _ in 0..count {
            let entry = ChunkEntry {
                z_offset: dir.u32("chunked entry")?,
                dims: [
                    dir.u32("chunked entry")?,
                    dir.u32("chunked entry")?,
                    dir.u32("chunked entry")?,
                ],
                model_tag: dir.u8("chunked entry tag")?,
            };
            let len = dir.u64("chunked entry length")? as usize;
            chunks.push((entry, r.take(len, "chunked payload")?.to_vec()));
        }
        r.finish("chunked trailing bytes")?;
        Ok(Self {
            global_dims,
            chunks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ChunkedArtifact {
        let mut c = ChunkedArtifact::new([16, 16, 16]);
        c.push(
            ChunkEntry {
                z_offset: 0,
                dims: [16, 16, 8],
                model_tag: 4,
            },
            vec![1, 2, 3, 4, 5],
        );
        c.push(
            ChunkEntry {
                z_offset: 8,
                dims: [16, 16, 8],
                model_tag: 4,
            },
            vec![9, 9],
        );
        c
    }

    #[test]
    fn header_roundtrips() {
        let c = sample();
        let bytes = c.to_bytes();
        assert_eq!(bytes.len(), c.nbytes());
        let d = ChunkedArtifact::from_bytes(&bytes).expect("parse");
        assert_eq!(c, d);
        assert_eq!(d.global_dims, [16, 16, 16]);
        assert_eq!(d.len(), 2);
        let parts: Vec<_> = d.chunks().collect();
        assert_eq!(parts[0].0.z_offset, 0);
        assert_eq!(parts[1].0.z_offset, 8);
        assert_eq!(parts[0].1, &[1, 2, 3, 4, 5]);
        assert_eq!(parts[1].1, &[9, 9]);
    }

    #[test]
    fn absurd_chunk_count_is_rejected_before_allocating() {
        // A header claiming u32::MAX chunks (a ~100 GiB directory) must
        // fail typed at the MAX_CHUNK_COUNT ceiling, not size buffers
        // from a hostile count field.
        let mut bytes = sample().to_bytes();
        bytes[18..22].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            ChunkedArtifact::from_bytes(&bytes),
            Err(DecodeError::Corrupt { .. })
        ));
    }

    #[test]
    fn empty_container_roundtrips() {
        let c = ChunkedArtifact::new([4, 4, 4]);
        let d = ChunkedArtifact::from_bytes(&c.to_bytes()).expect("parse");
        assert!(d.is_empty());
        assert_eq!(d.global_dims, [4, 4, 4]);
    }

    #[test]
    fn version0_stream_wraps_as_single_chunk() {
        // A pre-chunking artifact begins with "LRM1"; it must come back
        // as a one-chunk container holding the stream verbatim.
        let mut a = crate::Artifact::new();
        a.push("meta", vec![7, 7, 7]);
        a.push("delta", vec![1, 2, 3]);
        let v0 = a.to_bytes();
        let c = ChunkedArtifact::from_bytes(&v0).expect("v0 wrap");
        assert_eq!(c.len(), 1);
        assert_eq!(c.global_dims, [0, 0, 0]);
        let (entry, payload) = c.chunks().next().expect("one chunk");
        assert_eq!(entry.z_offset, 0);
        assert_eq!(payload, &v0[..]);
    }

    #[test]
    fn corrupt_streams_are_rejected() {
        let good = sample().to_bytes();
        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            ChunkedArtifact::from_bytes(&bad),
            Err(DecodeError::Corrupt { .. })
        ));
        // Unknown (future) version.
        let mut bad = good.clone();
        bad[4] = 99;
        assert!(matches!(
            ChunkedArtifact::from_bytes(&bad),
            Err(DecodeError::UnsupportedVersion { .. })
        ));
        // Truncated payload.
        assert!(ChunkedArtifact::from_bytes(&good[..good.len() - 1]).is_err());
        // Truncated directory.
        assert!(ChunkedArtifact::from_bytes(&good[..30]).is_err());
        // Trailing garbage.
        let mut bad = good.clone();
        bad.push(0);
        assert!(matches!(
            ChunkedArtifact::from_bytes(&bad),
            Err(DecodeError::Corrupt { .. })
        ));
        // Too short for a header.
        assert!(ChunkedArtifact::from_bytes(b"LRMC").is_err());
    }

    #[test]
    fn truncated_v0_wrap_is_rejected() {
        // A stream that starts with the v0 magic but is otherwise
        // truncated must error at the container boundary, not deep in a
        // decoder downstream.
        let mut a = crate::Artifact::new();
        a.push("meta", vec![9; 32]);
        let v0 = a.to_bytes();
        for cut in 5..v0.len() {
            assert!(
                ChunkedArtifact::from_bytes(&v0[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn payload_accounting_matches() {
        let c = sample();
        assert_eq!(c.payload_bytes(), 7);
        assert_eq!(c.nbytes(), 22 + 2 * 25 + 7);
    }
}
