//! Field import/export — bring your own data.
//!
//! The format is the bare little-endian `f64` stream HPC codes dump, with
//! the shape supplied by the caller, for interoperating with existing
//! files.

use crate::field::Field;
use lrm_compress::Shape;
use std::fs;
use std::io::{Read, Write};
use std::path::Path;

/// Writes the bare little-endian doubles of `field` (no header) — the
/// format the paper's datasets live in on disk.
pub fn write_raw(field: &Field, path: impl AsRef<Path>) -> std::io::Result<()> {
    let mut f = fs::File::create(path)?;
    for v in &field.data {
        f.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// Reads a bare little-endian double stream, checking that the byte count
/// matches `shape`.
pub fn read_raw(
    path: impl AsRef<Path>,
    shape: Shape,
    name: impl Into<String>,
) -> std::io::Result<Field> {
    let mut bytes = Vec::new();
    fs::File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() != shape.len() * 8 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "raw field: {} bytes on disk but shape {:?} needs {}",
                bytes.len(),
                shape.dims,
                shape.len() * 8
            ),
        ));
    }
    let data: Vec<f64> = bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect();
    Ok(Field::new(name, data, shape))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("lrm-fieldio-{name}-{}", std::process::id()))
    }

    fn sample() -> Field {
        let shape = Shape::d3(4, 3, 2);
        let data: Vec<f64> = (0..24).map(|i| (i as f64 * 0.7).sin() * 1e3).collect();
        Field::new("sample/field", data, shape)
    }

    #[test]
    fn raw_roundtrip() {
        let f = sample();
        let p = tmp("raw");
        write_raw(&f, &p).expect("write");
        let g = read_raw(&p, f.shape, "sample/field").expect("read");
        assert_eq!(f, g);
    }

    #[test]
    fn raw_rejects_wrong_shape() {
        let f = sample();
        let p = tmp("rawbad");
        write_raw(&f, &p).expect("write");
        assert!(read_raw(&p, Shape::d1(7), "x").is_err());
    }

    #[test]
    fn raw_bytes_are_bit_exact() {
        // The raw format must match Field data bit-for-bit (it is what
        // compression ratios are measured against).
        let f = sample();
        let p = tmp("bits");
        write_raw(&f, &p).expect("write");
        let on_disk = fs::read(&p).expect("read");
        assert_eq!(on_disk.len(), f.nbytes());
        for (i, v) in f.data.iter().enumerate() {
            assert_eq!(&on_disk[i * 8..(i + 1) * 8], &v.to_le_bytes());
        }
    }
}
