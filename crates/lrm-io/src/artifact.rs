//! Self-describing binary container for compressed outputs.
//!
//! A preconditioned snapshot is several byte streams (reduced
//! representation, compressed delta, metadata); the [`Artifact`] bundles
//! named sections into one buffer with a magic header and length-prefixed
//! layout, so it can be written as a single object and parsed back
//! without external framing.

use lrm_compress::{ByteReader, DecodeError, DecodeResult};

/// Magic bytes identifying an artifact stream.
const MAGIC: &[u8; 4] = b"LRM1";

/// A named-section binary container.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Artifact {
    sections: Vec<(String, Vec<u8>)>,
}

impl Artifact {
    /// An empty artifact.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a named section (names need not be unique; lookup returns
    /// the first match).
    pub fn push(&mut self, name: impl Into<String>, bytes: Vec<u8>) {
        self.sections.push((name.into(), bytes));
    }

    /// First section with `name`.
    pub fn get(&self, name: &str) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_slice())
    }

    /// Iterates `(name, bytes)` pairs in insertion order.
    pub fn sections(&self) -> impl Iterator<Item = (&str, &[u8])> {
        self.sections
            .iter()
            .map(|(n, b)| (n.as_str(), b.as_slice()))
    }

    /// Number of sections.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// True when no sections are present.
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Total payload bytes across sections (the artifact's "compressed
    /// size" for ratio computations; header overhead excluded).
    pub fn payload_bytes(&self) -> usize {
        self.sections.iter().map(|(_, b)| b.len()).sum()
    }

    /// Serializes: magic, section count, then per section a
    /// length-prefixed name and length-prefixed payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.payload_bytes());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (name, bytes) in &self.sections {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            out.extend_from_slice(bytes);
        }
        out
    }

    /// Parses a buffer produced by [`Artifact::to_bytes`]. Returns a
    /// [`DecodeError`] on bad magic or truncation; never panics.
    pub fn from_bytes(data: &[u8]) -> DecodeResult<Self> {
        let mut r = ByteReader::new(data);
        let mut header = ByteReader::new(r.take(8, "artifact header")?);
        if header.take(4, "artifact header")? != MAGIC {
            return Err(DecodeError::Corrupt {
                what: "artifact magic",
            });
        }
        let count = header.u32("artifact section count")? as usize;
        // A section costs at least 12 bytes (name length + payload
        // length); cap the pre-allocation so a corrupt count cannot
        // trigger a huge allocation before the truncation is detected.
        let mut sections = Vec::with_capacity(count.min(data.len() / 12));
        for _ in 0..count {
            let nlen = r.u32("artifact name length")? as usize;
            let name = std::str::from_utf8(r.take(nlen, "artifact section name")?)
                .map_err(|_| DecodeError::Corrupt {
                    what: "artifact name not utf-8",
                })?
                .to_string();
            let blen = r.u64("artifact payload length")? as usize;
            let bytes = r.take(blen, "artifact section payload")?.to_vec();
            sections.push((name, bytes));
        }
        Ok(Self { sections })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_multiple_sections() {
        let mut a = Artifact::new();
        a.push("reduced", vec![1, 2, 3]);
        a.push("delta", vec![4; 1000]);
        a.push("meta", Vec::new());
        let b = Artifact::from_bytes(&a.to_bytes()).expect("roundtrip");
        assert_eq!(a, b);
        assert_eq!(b.get("delta").map(|s| s.len()), Some(1000));
        assert_eq!(b.get("meta"), Some(&[][..]));
        assert_eq!(b.get("missing"), None);
    }

    #[test]
    fn payload_bytes_counts_sections_only() {
        let mut a = Artifact::new();
        a.push("x", vec![0; 10]);
        a.push("y", vec![0; 5]);
        assert_eq!(a.payload_bytes(), 15);
        assert!(a.to_bytes().len() > 15);
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert!(Artifact::from_bytes(b"NOPE\x00\x00\x00\x00").is_err());
        assert!(Artifact::from_bytes(&[]).is_err());
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let mut a = Artifact::new();
        a.push("s", vec![7; 64]);
        let bytes = a.to_bytes();
        assert!(Artifact::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn empty_artifact_roundtrips() {
        let a = Artifact::new();
        let b = Artifact::from_bytes(&a.to_bytes()).expect("roundtrip");
        assert!(b.is_empty());
    }

    #[test]
    fn unicode_names_roundtrip() {
        let mut a = Artifact::new();
        a.push("δ-delta", vec![1]);
        let b = Artifact::from_bytes(&a.to_bytes()).expect("roundtrip");
        assert_eq!(b.get("δ-delta"), Some(&[1][..]));
    }
}
