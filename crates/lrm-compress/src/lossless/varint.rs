//! LEB128 variable-length integers.

/// Appends `v` to `out` as an unsigned LEB128 varint.
pub fn encode_uvarint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes an unsigned LEB128 varint starting at `data[pos]`, advancing
/// `pos`. Returns `None` on truncated or over-long (>10 byte) input.
pub fn decode_uvarint(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = data.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uvarint_roundtrip_edge_values() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            encode_uvarint(v, &mut buf);
            let mut pos = 0;
            assert_eq!(decode_uvarint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn uvarint_small_values_are_one_byte() {
        let mut buf = Vec::new();
        encode_uvarint(127, &mut buf);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn uvarint_truncated_returns_none() {
        let mut pos = 0;
        assert_eq!(decode_uvarint(&[0x80], &mut pos), None);
        let mut pos = 0;
        assert_eq!(decode_uvarint(&[], &mut pos), None);
    }

    #[test]
    fn multiple_varints_in_sequence() {
        let mut buf = Vec::new();
        for v in 0..100u64 {
            encode_uvarint(v * v, &mut buf);
        }
        let mut pos = 0;
        for v in 0..100u64 {
            assert_eq!(decode_uvarint(&buf, &mut pos), Some(v * v));
        }
        assert_eq!(pos, buf.len());
    }
}
