//! Fixture: lengths read off the wire must be clamped before they size
//! an allocation (`wire-alloc-unclamped`, intraprocedural cases).

const MAX_SAMPLES: usize = 1 << 20;

// Bad: a decode fn's integer parameter is a wire length by convention,
// and it flows straight into the capacity.
fn decode_samples(count: u32) -> Vec<u8> {
    let n = count as usize;
    Vec::with_capacity(n) //~ wire-alloc-unclamped
}

// Bad: framed-reader accessors seed taint; `vec![_; n]` repeat counts
// and `set_len` are sinks.
fn decode_block(header: &mut Reader) -> Vec<u8> {
    let n = header.u32("count") as usize;
    let mut v = vec![0u8; n]; //~ wire-alloc-unclamped
    // SAFETY: fixture illustration; the capacity above covers `n`.
    unsafe { v.set_len(n) }; //~ wire-alloc-unclamped
    v
}

// Bad: `payload_len` is wire data wherever it appears.
fn frame_body(payload_len: usize) -> Vec<u8> {
    vec![0u8; payload_len] //~ wire-alloc-unclamped
}

// Bad: the shared byte reader's varint and shape accessors seed taint
// like its fixed-width ones.
fn decode_table(r: &mut ByteReader) -> Result<(Vec<u16>, Vec<f64>), Error> {
    let n = r.varint("table length")? as usize;
    let shape = r.shape("table shape")?;
    let table = Vec::with_capacity(n); //~ wire-alloc-unclamped
    let grid = vec![0.0; shape.len()]; //~ wire-alloc-unclamped
    Ok((table, grid))
}

// Bad: so does a length read as a `u64`.
fn decode_section(r: &mut ByteReader) -> Vec<u8> {
    let len = r.u64("section length")? as usize;
    Vec::with_capacity(len) //~ wire-alloc-unclamped
}

// Good: `.min()` clamps before sizing.
fn decode_clamped(count: u32) -> Vec<u8> {
    let n = (count as usize).min(MAX_SAMPLES);
    Vec::with_capacity(n)
}

// Good: a MAX_* guard sanitizes the length for the rest of the fn.
fn decode_guarded(count: u32) -> Option<Vec<u8>> {
    let n = count as usize;
    if n > MAX_SAMPLES {
        return None;
    }
    Some(Vec::with_capacity(n))
}

// Good: the fallible `take(..)?` is this repo's bounds-checked reader
// take — a validated read, not an allocation.
fn decode_payload(r: &mut Reader) -> Result<Vec<u8>, Error> {
    let n = r.u32("len")? as usize;
    let raw = r.take(n, "body")?;
    Ok(raw.to_vec())
}
