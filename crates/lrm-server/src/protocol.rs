//! The framed wire protocol spoken by `lrm-server` (LRMP).
//!
//! Every message — request or response — travels as one **frame**
//! behind a fixed 24-byte header:
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 4    | magic `"LRMP"` |
//! | 4      | 2    | version `2`, `u16` LE |
//! | 6      | 1    | message kind |
//! | 7      | 1    | reserved (`0`) |
//! | 8      | 8    | payload length, `u64` LE |
//! | 16     | 8    | request id, `u64` LE |
//! | 24     | —    | payload |
//!
//! Any other version is rejected as [`DecodeError::UnsupportedVersion`].
//! The request id lets a client pipeline many requests over one
//! persistent connection — the server tags each response frame with the
//! id of the request it answers, and responses may arrive **out of
//! order**. Clients never issue id [`CONNECTION_REQUEST_ID`] (`0`): the
//! server uses it for connection-level replies sent before any request
//! id is known (a bad header, a header timeout, a `max_connections`
//! refusal).
//!
//! Request kinds occupy `0x00..0x80`, success responses `0x80..0xE0`,
//! and typed error responses `0xE0..`. The payload layout per kind is
//! documented on [`Request`] and [`Response`]. The `0x06..0x0A` request
//! kinds are the chunk-streaming family: a `CompressStreamBegin` (or
//! `DecompressStreamBegin`) frame opens a stream under its request id,
//! any number of `StreamChunk` frames append bytes to it, and
//! `StreamEnd` closes it; the server starts compressing completed
//! z-slabs while later chunks are still arriving and answers with one
//! ordinary `Compressed`/`Decompressed` response for the whole stream.
//!
//! The decoder follows the repo's hardened decode-path contract (see
//! DESIGN.md, "Decode-path contract & lint rules"): every parse is
//! `try_into`/`get`-based, malformed input maps to a typed
//! [`DecodeError`], and nothing on this path panics on hostile bytes.
//! `crates/lrm-server/src/protocol.rs` is registered in `lint.toml`
//! under both `[decode]` and `[wire]`.

use lrm_compress::{DecodeError, DecodeResult, Shape};
use lrm_core::{CompressionReport, LossyCodec, ReducedModelKind};

/// Magic bytes opening every frame.
pub const MAGIC: &[u8; 4] = b"LRMP";

/// The protocol version every frame carries. Decoders reject any other
/// value rather than guessing at the layout.
pub const PROTOCOL_V2: u16 = 2;

/// Bytes before the payload starts.
pub const HEADER_LEN: usize = 24;

/// The request id of connection-level replies. Clients never issue it,
/// so a response carrying it answers whichever request the client is
/// waiting on.
pub const CONNECTION_REQUEST_ID: u64 = 0;

/// Request kinds (`0x00..0x80`).
pub const REQ_PING: u8 = 0x00;
/// Compress a field under a configured model/codec pair.
pub const REQ_COMPRESS: u8 = 0x01;
/// Reconstruct a field from artifact bytes.
pub const REQ_DECOMPRESS: u8 = 0x02;
/// Summary statistics for a field.
pub const REQ_FIELD_STATS: u8 = 0x03;
/// Run model selection for a field.
pub const REQ_SELECT_MODEL: u8 = 0x04;
/// Drain in-flight requests and stop the server.
pub const REQ_SHUTDOWN: u8 = 0x05;
/// Open a chunk-streamed compress under this frame's request id; the
/// payload is the compress metadata (no samples).
pub const REQ_COMPRESS_STREAM_BEGIN: u8 = 0x06;
/// Append raw bytes to the stream opened under this frame's request id.
pub const REQ_STREAM_CHUNK: u8 = 0x07;
/// Close the stream opened under this frame's request id.
pub const REQ_STREAM_END: u8 = 0x08;
/// Open a chunk-streamed decompress: artifact bytes follow in
/// `StreamChunk` frames.
pub const REQ_DECOMPRESS_STREAM_BEGIN: u8 = 0x09;

/// Success response kinds (`0x80..0xE0`).
pub const RESP_PONG: u8 = 0x80;
/// Compression succeeded; payload carries report + artifact.
pub const RESP_COMPRESSED: u8 = 0x81;
/// Decompression succeeded; payload carries shape + samples.
pub const RESP_DECOMPRESSED: u8 = 0x82;
/// Field statistics.
pub const RESP_STATS: u8 = 0x83;
/// Model-selection outcome.
pub const RESP_SELECTED: u8 = 0x84;
/// Shutdown acknowledged; the server drains and exits.
pub const RESP_SHUTDOWN_ACK: u8 = 0x85;

/// Typed error response kinds (`0xE0..`).
pub const RESP_ERR_BUSY: u8 = 0xE0;
/// Request payload exceeds the server's configured maximum.
pub const RESP_ERR_TOO_LARGE: u8 = 0xE1;
/// The per-request deadline elapsed before a reply was ready.
pub const RESP_ERR_TIMEOUT: u8 = 0xE2;
/// The request frame or payload failed to decode.
pub const RESP_ERR_MALFORMED: u8 = 0xE3;
/// The request decoded but execution failed.
pub const RESP_ERR_INTERNAL: u8 = 0xE4;

/// A parsed frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Message kind byte.
    pub kind: u8,
    /// Request id tagging the frame.
    pub request_id: u64,
    /// Payload length in bytes.
    pub payload_len: u64,
}

/// One decoded frame: kind, request id, raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message kind byte (one of the `REQ_*`/`RESP_*` constants once
    /// interpreted; raw here).
    pub kind: u8,
    /// Request id tagging the frame.
    pub request_id: u64,
    /// Payload bytes, exactly as framed.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Serializes a frame: 24-byte header (with request id) + payload.
    pub fn encode(kind: u8, request_id: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&PROTOCOL_V2.to_le_bytes());
        out.push(kind);
        out.push(0);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&request_id.to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// Incremental header parse for the streaming socket reader:
    /// `Ok(Some(header))` once the full header is present, `Ok(None)`
    /// when `b` is a consistent prefix that needs more bytes, and a
    /// typed [`DecodeError`] the moment the bytes can no longer open a
    /// valid frame. Validates eagerly, so garbage is rejected after as
    /// few bytes as possible.
    pub fn parse_header_prefix(b: &[u8]) -> DecodeResult<Option<FrameHeader>> {
        let probe = b.len().min(4);
        if b.get(..probe) != MAGIC.get(..probe) {
            return Err(DecodeError::Corrupt {
                what: "frame magic",
            });
        }
        let Some(version) = b
            .get(4..6)
            .and_then(|s| s.try_into().ok())
            .map(u16::from_le_bytes)
        else {
            return Ok(None);
        };
        if version != PROTOCOL_V2 {
            return Err(DecodeError::UnsupportedVersion {
                found: version.min(u8::MAX as u16) as u8,
                supported: PROTOCOL_V2 as u8,
            });
        }
        if let Some(reserved) = b.get(7) {
            if *reserved != 0 {
                return Err(DecodeError::Corrupt {
                    what: "frame reserved byte",
                });
            }
        }
        if b.len() < HEADER_LEN {
            return Ok(None);
        }
        let kind = *b
            .get(6)
            .ok_or(DecodeError::Truncated { what: "frame kind" })?;
        let payload_len = b
            .get(8..16)
            .and_then(|s| s.try_into().ok())
            .map(u64::from_le_bytes)
            .ok_or(DecodeError::Truncated {
                what: "frame length",
            })?;
        let request_id = b
            .get(16..24)
            .and_then(|s| s.try_into().ok())
            .map(u64::from_le_bytes)
            .ok_or(DecodeError::Truncated {
                what: "frame request id",
            })?;
        Ok(Some(FrameHeader {
            kind,
            request_id,
            payload_len,
        }))
    }

    /// Parses the fixed header of an exact buffer. Truncation is a typed
    /// error (unlike [`Frame::parse_header_prefix`], which reports it as
    /// "need more bytes").
    pub fn parse_header(b: &[u8]) -> DecodeResult<FrameHeader> {
        Frame::parse_header_prefix(b)?.ok_or(DecodeError::Truncated {
            what: "frame header",
        })
    }

    /// Parses one complete frame from an exact byte buffer: header,
    /// payload, and nothing after it. Every structural defect — bad
    /// magic, unknown version, truncation, trailing bytes — is a typed
    /// [`DecodeError`]; this never panics.
    pub fn from_bytes(b: &[u8]) -> DecodeResult<Frame> {
        let header = Frame::parse_header(b)?;
        let len = usize::try_from(header.payload_len).map_err(|_| DecodeError::Corrupt {
            what: "frame length exceeds address space",
        })?;
        let total = HEADER_LEN.checked_add(len).ok_or(DecodeError::Corrupt {
            what: "frame length overflow",
        })?;
        let payload = b.get(HEADER_LEN..total).ok_or(DecodeError::Truncated {
            what: "frame payload",
        })?;
        if b.len() != total {
            return Err(DecodeError::Corrupt {
                what: "frame trailing bytes",
            });
        }
        Ok(Frame {
            kind: header.kind,
            request_id: header.request_id,
            payload: payload.to_vec(),
        })
    }
}

// ---------------------------------------------------------------------------
// Payload cursor
// ---------------------------------------------------------------------------

/// Bounds-checked cursor over a payload; every accessor returns a typed
/// error instead of panicking.
struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(b: &'a [u8]) -> Self {
        Self { b, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> DecodeResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(DecodeError::Corrupt { what })?;
        let s = self
            .b
            .get(self.pos..end)
            .ok_or(DecodeError::Truncated { what })?;
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> DecodeResult<u8> {
        Ok(*self
            .take(1, what)?
            .first()
            .ok_or(DecodeError::Truncated { what })?)
    }

    fn u16(&mut self, what: &'static str) -> DecodeResult<u16> {
        self.take(2, what)?
            .try_into()
            .map(u16::from_le_bytes)
            .map_err(|_| DecodeError::Truncated { what })
    }

    fn u32(&mut self, what: &'static str) -> DecodeResult<u32> {
        self.take(4, what)?
            .try_into()
            .map(u32::from_le_bytes)
            .map_err(|_| DecodeError::Truncated { what })
    }

    fn u64(&mut self, what: &'static str) -> DecodeResult<u64> {
        self.take(8, what)?
            .try_into()
            .map(u64::from_le_bytes)
            .map_err(|_| DecodeError::Truncated { what })
    }

    fn f64(&mut self, what: &'static str) -> DecodeResult<f64> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Remaining bytes (consumes the cursor's tail).
    fn rest(&mut self) -> &'a [u8] {
        let s = self.b.get(self.pos..).unwrap_or(&[]);
        self.pos = self.b.len();
        s
    }

    /// Errors unless the payload was consumed exactly.
    fn finish(&self, what: &'static str) -> DecodeResult<()> {
        if self.pos == self.b.len() {
            Ok(())
        } else {
            Err(DecodeError::Corrupt { what })
        }
    }
}

/// A grid shape as framed on the wire: 3 × `u32` extents, validated so
/// the element count cannot overflow (nor commit the decoder to absurd
/// buffers before the sample count is checked against the payload).
fn decode_shape(r: &mut Reader<'_>) -> DecodeResult<Shape> {
    let d0 = r.u32("shape extent")? as usize;
    let d1 = r.u32("shape extent")? as usize;
    let d2 = r.u32("shape extent")? as usize;
    d0.checked_mul(d1.max(1))
        .and_then(|p| p.checked_mul(d2.max(1)))
        .ok_or(DecodeError::Corrupt {
            what: "shape overflow",
        })?;
    Ok(Shape { dims: [d0, d1, d2] })
}

fn encode_shape(out: &mut Vec<u8>, shape: Shape) {
    for d in shape.dims {
        out.extend_from_slice(&(d as u32).to_le_bytes());
    }
}

/// Decodes the remaining payload as `shape.len()` LE `f64` samples.
fn decode_samples(r: &mut Reader<'_>, shape: Shape) -> DecodeResult<Vec<f64>> {
    let count = shape.len();
    let nbytes = count.checked_mul(8).ok_or(DecodeError::Corrupt {
        what: "sample count overflow",
    })?;
    let raw = r.take(nbytes, "field samples")?;
    // Sized from bytes already in memory, not from the claimed count:
    // `take` has bounds-checked `raw` against the real payload, so a
    // hostile shape cannot commit the decoder to a larger buffer.
    let mut data = Vec::with_capacity(raw.len() / 8);
    for c in raw.chunks_exact(8) {
        let bits = c
            .try_into()
            .map(u64::from_le_bytes)
            .map_err(|_| DecodeError::Truncated {
                what: "field sample",
            })?;
        data.push(f64::from_bits(bits));
    }
    if data.len() != count {
        return Err(DecodeError::ShapeMismatch {
            expected: count,
            found: data.len(),
        });
    }
    Ok(data)
}

fn encode_samples(out: &mut Vec<u8>, data: &[f64]) {
    out.reserve(data.len() * 8);
    for v in data {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

// ---------------------------------------------------------------------------
// Reduced-model wire tags
// ---------------------------------------------------------------------------

/// Inverse of [`ReducedModelKind::tag`]. `DuoModel` (tag 3) is rejected:
/// it needs an auxiliary coarse field no request carries, and accepting
/// it would put a panic within reach of the wire.
pub fn model_from_tag(tag: u8, param: u32) -> DecodeResult<ReducedModelKind> {
    match tag {
        0 => Ok(ReducedModelKind::Direct),
        1 => Ok(ReducedModelKind::OneBase),
        2 => Ok(ReducedModelKind::MultiBase((param as usize).max(1))),
        3 => Err(DecodeError::Corrupt {
            what: "DuoModel cannot be served (needs an aux field)",
        }),
        4 => Ok(ReducedModelKind::Pca),
        5 => Ok(ReducedModelKind::Svd),
        6 => Ok(ReducedModelKind::Wavelet),
        7 => Ok(ReducedModelKind::PcaBlocked((param as usize).max(1))),
        8 => Ok(ReducedModelKind::SvdBlocked((param as usize).max(1))),
        9 => Ok(ReducedModelKind::SvdRandomized),
        tag => Err(DecodeError::UnknownTag {
            what: "reduced-model",
            tag,
        }),
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A compression job: model + dual-bound codecs + the field itself.
///
/// Payload layout: the [`CompressStreamMeta`] layout, then `shape.len()`
/// LE `f64` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressRequest {
    /// The reduced model to precondition with.
    pub model: ReducedModelKind,
    /// Codec/bound for original data and reduced representations.
    pub orig: LossyCodec,
    /// Codec/bound for deltas.
    pub delta: LossyCodec,
    /// Compress the delta as a flat 1-D stream.
    pub scan_1d: bool,
    /// Requested z-slab chunk count (`0` = server default).
    pub chunks: u16,
    /// Field extents.
    pub shape: Shape,
    /// Field samples, `shape.len()` of them.
    pub data: Vec<f64>,
}

/// A model-selection job.
///
/// Payload layout: `exhaustive` `u8`, orig codec (9 B), delta codec
/// (9 B), shape 3 × `u32`, then `shape.len()` LE `f64` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectRequest {
    /// Force full-field candidate trials instead of the cheap strided
    /// subsample.
    pub exhaustive: bool,
    /// Codec/bound for original data and reduced representations.
    pub orig: LossyCodec,
    /// Codec/bound for deltas.
    pub delta: LossyCodec,
    /// Field extents.
    pub shape: Shape,
    /// Field samples, `shape.len()` of them.
    pub data: Vec<f64>,
}

/// Metadata opening a chunk-streamed compress: everything a
/// [`CompressRequest`] carries except the samples, which follow in
/// [`Request::StreamChunk`] frames as raw LE `f64` bytes.
///
/// Payload layout: model tag `u8`, model param `u32`, orig codec (9 B),
/// delta codec (9 B), `scan_1d` `u8`, chunk count `u16`, shape 3 ×
/// `u32`. No samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressStreamMeta {
    /// The reduced model to precondition with.
    pub model: ReducedModelKind,
    /// Codec/bound for original data and reduced representations.
    pub orig: LossyCodec,
    /// Codec/bound for deltas.
    pub delta: LossyCodec,
    /// Compress the delta as a flat 1-D stream.
    pub scan_1d: bool,
    /// Requested z-slab chunk count (`0` = server default).
    pub chunks: u16,
    /// Field extents; chunk bytes must total `shape.len() * 8`.
    pub shape: Shape,
}

impl CompressRequest {
    /// Joins stream metadata and the field samples into one request.
    pub(crate) fn from_meta(meta: CompressStreamMeta, data: Vec<f64>) -> Self {
        Self {
            model: meta.model,
            orig: meta.orig,
            delta: meta.delta,
            scan_1d: meta.scan_1d,
            chunks: meta.chunks,
            shape: meta.shape,
            data,
        }
    }

    /// Everything this request carries except the samples.
    pub(crate) fn meta(&self) -> CompressStreamMeta {
        CompressStreamMeta {
            model: self.model,
            orig: self.orig,
            delta: self.delta,
            scan_1d: self.scan_1d,
            chunks: self.chunks,
            shape: self.shape,
        }
    }
}

/// Writes the compress metadata layout shared by [`Request::Compress`]
/// and [`Request::CompressStreamBegin`].
fn encode_compress_meta(out: &mut Vec<u8>, m: &CompressStreamMeta) {
    let (tag, param) = m.model.tag();
    out.push(tag);
    out.extend_from_slice(&param.to_le_bytes());
    out.extend_from_slice(&m.orig.to_bytes());
    out.extend_from_slice(&m.delta.to_bytes());
    out.push(m.scan_1d as u8);
    out.extend_from_slice(&m.chunks.to_le_bytes());
    encode_shape(out, m.shape);
}

/// Inverse of [`encode_compress_meta`].
fn decode_compress_meta(r: &mut Reader<'_>) -> DecodeResult<CompressStreamMeta> {
    let tag = r.u8("compress model tag")?;
    let param = r.u32("compress model param")?;
    let model = model_from_tag(tag, param)?;
    let orig = LossyCodec::from_bytes(r.take(9, "compress orig codec")?)?;
    let delta = LossyCodec::from_bytes(r.take(9, "compress delta codec")?)?;
    let scan_1d = r.u8("compress scan_1d flag")? != 0;
    let chunks = r.u16("compress chunk count")?;
    let shape = decode_shape(r)?;
    Ok(CompressStreamMeta {
        model,
        orig,
        delta,
        scan_1d,
        chunks,
        shape,
    })
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; the payload is echoed back verbatim.
    Ping {
        /// Opaque bytes the server echoes in [`Response::Pong`].
        echo: Vec<u8>,
    },
    /// Compress a field (see [`CompressRequest`]).
    Compress(CompressRequest),
    /// Reconstruct a field; the payload is the artifact stream verbatim
    /// (version-0 single-chunk or version-1 chunked container).
    Decompress {
        /// Artifact bytes as produced by a compress response.
        artifact: Vec<u8>,
    },
    /// Summary statistics; payload is shape + samples.
    FieldStats {
        /// Field extents.
        shape: Shape,
        /// Field samples.
        data: Vec<f64>,
    },
    /// Model selection (see [`SelectRequest`]).
    SelectModel(SelectRequest),
    /// Drain in-flight requests and stop the server. Empty payload.
    Shutdown,
    /// Open a chunk-streamed compress under this frame's request id
    /// (see [`CompressStreamMeta`]).
    CompressStreamBegin(CompressStreamMeta),
    /// Append raw bytes to the open stream with this frame's request
    /// id: field samples (LE `f64` bytes) for a compress stream,
    /// artifact bytes for a decompress stream.
    StreamChunk {
        /// The chunk bytes, appended verbatim.
        bytes: Vec<u8>,
    },
    /// Close the open stream with this frame's request id; the server
    /// answers with one ordinary `Compressed`/`Decompressed` response.
    /// Empty payload.
    StreamEnd,
    /// Open a chunk-streamed decompress under this frame's request id;
    /// artifact bytes follow in [`Request::StreamChunk`] frames. Empty
    /// payload.
    DecompressStreamBegin,
}

impl Request {
    /// This request's frame kind byte.
    pub fn kind(&self) -> u8 {
        match self {
            Request::Ping { .. } => REQ_PING,
            Request::Compress(_) => REQ_COMPRESS,
            Request::Decompress { .. } => REQ_DECOMPRESS,
            Request::FieldStats { .. } => REQ_FIELD_STATS,
            Request::SelectModel(_) => REQ_SELECT_MODEL,
            Request::Shutdown => REQ_SHUTDOWN,
            Request::CompressStreamBegin(_) => REQ_COMPRESS_STREAM_BEGIN,
            Request::StreamChunk { .. } => REQ_STREAM_CHUNK,
            Request::StreamEnd => REQ_STREAM_END,
            Request::DecompressStreamBegin => REQ_DECOMPRESS_STREAM_BEGIN,
        }
    }

    /// Serializes the payload (frame header excluded).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Ping { echo } => out.extend_from_slice(echo),
            Request::Compress(c) => {
                encode_compress_meta(&mut out, &c.meta());
                encode_samples(&mut out, &c.data);
            }
            Request::Decompress { artifact } => out.extend_from_slice(artifact),
            Request::FieldStats { shape, data } => {
                encode_shape(&mut out, *shape);
                encode_samples(&mut out, data);
            }
            Request::SelectModel(s) => {
                out.push(s.exhaustive as u8);
                out.extend_from_slice(&s.orig.to_bytes());
                out.extend_from_slice(&s.delta.to_bytes());
                encode_shape(&mut out, s.shape);
                encode_samples(&mut out, &s.data);
            }
            Request::Shutdown => {}
            Request::CompressStreamBegin(m) => encode_compress_meta(&mut out, m),
            Request::StreamChunk { bytes } => out.extend_from_slice(bytes),
            Request::StreamEnd => {}
            Request::DecompressStreamBegin => {}
        }
        out
    }

    /// Serializes into one complete frame tagged with `request_id`.
    pub fn to_frame(&self, request_id: u64) -> Vec<u8> {
        Frame::encode(self.kind(), request_id, &self.encode_payload())
    }

    /// Decodes a request from a frame's kind byte and payload. Every
    /// defect is a typed [`DecodeError`]; this never panics on hostile
    /// bytes.
    pub fn decode(kind: u8, payload: &[u8]) -> DecodeResult<Request> {
        let mut r = Reader::new(payload);
        match kind {
            REQ_PING => Ok(Request::Ping {
                echo: r.rest().to_vec(),
            }),
            REQ_COMPRESS => {
                let meta = decode_compress_meta(&mut r)?;
                let data = decode_samples(&mut r, meta.shape)?;
                r.finish("compress trailing bytes")?;
                Ok(Request::Compress(CompressRequest::from_meta(meta, data)))
            }
            REQ_DECOMPRESS => Ok(Request::Decompress {
                artifact: r.rest().to_vec(),
            }),
            REQ_FIELD_STATS => {
                let shape = decode_shape(&mut r)?;
                let data = decode_samples(&mut r, shape)?;
                r.finish("stats trailing bytes")?;
                Ok(Request::FieldStats { shape, data })
            }
            REQ_SELECT_MODEL => {
                let exhaustive = r.u8("select exhaustive flag")? != 0;
                let orig = LossyCodec::from_bytes(r.take(9, "select orig codec")?)?;
                let delta = LossyCodec::from_bytes(r.take(9, "select delta codec")?)?;
                let shape = decode_shape(&mut r)?;
                let data = decode_samples(&mut r, shape)?;
                r.finish("select trailing bytes")?;
                Ok(Request::SelectModel(SelectRequest {
                    exhaustive,
                    orig,
                    delta,
                    shape,
                    data,
                }))
            }
            REQ_SHUTDOWN => {
                r.finish("shutdown trailing bytes")?;
                Ok(Request::Shutdown)
            }
            REQ_COMPRESS_STREAM_BEGIN => {
                let meta = decode_compress_meta(&mut r)?;
                r.finish("stream-begin trailing bytes")?;
                Ok(Request::CompressStreamBegin(meta))
            }
            REQ_STREAM_CHUNK => Ok(Request::StreamChunk {
                bytes: r.rest().to_vec(),
            }),
            REQ_STREAM_END => {
                r.finish("stream-end trailing bytes")?;
                Ok(Request::StreamEnd)
            }
            REQ_DECOMPRESS_STREAM_BEGIN => {
                r.finish("decompress-stream-begin trailing bytes")?;
                Ok(Request::DecompressStreamBegin)
            }
            tag => Err(DecodeError::UnknownTag {
                what: "request kind",
                tag,
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Size accounting as framed on the wire (fixed-width mirror of
/// [`CompressionReport`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireReport {
    /// Uncompressed input bytes.
    pub raw_bytes: u64,
    /// Bytes of the reduced representation.
    pub rep_bytes: u64,
    /// Bytes of the compressed delta.
    pub delta_bytes: u64,
}

impl WireReport {
    /// Converts from the pipeline's report.
    pub fn from_report(r: &CompressionReport) -> Self {
        Self {
            raw_bytes: r.raw_bytes as u64,
            rep_bytes: r.rep_bytes as u64,
            delta_bytes: r.delta_bytes as u64,
        }
    }

    /// Compression ratio: raw / (representation + delta).
    pub fn ratio(&self) -> f64 {
        self.raw_bytes as f64 / (self.rep_bytes + self.delta_bytes).max(1) as f64
    }
}

/// Field statistics as framed on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldStatsReply {
    /// Sample count.
    pub count: u64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population variance.
    pub variance: f64,
    /// Shannon entropy of the LE byte stream, bits/byte.
    pub byte_entropy: f64,
}

/// One candidate trial in a [`SelectReply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialReport {
    /// The model tried.
    pub model: ReducedModelKind,
    /// Uncompressed bytes the trial saw (the subsample when sampling).
    pub raw_bytes: u64,
    /// Stored bytes the trial produced.
    pub total_bytes: u64,
}

impl TrialReport {
    /// Compression ratio of the trial.
    pub fn ratio(&self) -> f64 {
        self.raw_bytes as f64 / self.total_bytes.max(1) as f64
    }
}

/// Model-selection outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectReply {
    /// The winning model.
    pub winner: ReducedModelKind,
    /// Whether trials ran on a strided subsample (false = full field).
    pub sampled: bool,
    /// Every trial, sorted best-first.
    pub trials: Vec<TrialReport>,
}

/// Which typed error a server error frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerErrorKind {
    /// The server is at its in-flight limit; retry later.
    Busy,
    /// The request payload exceeds the configured maximum.
    TooLarge,
    /// The per-request deadline elapsed.
    Timeout,
    /// The request frame or payload failed to decode.
    Malformed,
    /// The request decoded but execution failed.
    Internal,
}

impl ServerErrorKind {
    /// The frame kind byte for this error.
    pub fn kind_byte(&self) -> u8 {
        match self {
            ServerErrorKind::Busy => RESP_ERR_BUSY,
            ServerErrorKind::TooLarge => RESP_ERR_TOO_LARGE,
            ServerErrorKind::Timeout => RESP_ERR_TIMEOUT,
            ServerErrorKind::Malformed => RESP_ERR_MALFORMED,
            ServerErrorKind::Internal => RESP_ERR_INTERNAL,
        }
    }

    /// Display name matching the protocol documentation.
    pub fn name(&self) -> &'static str {
        match self {
            ServerErrorKind::Busy => "busy",
            ServerErrorKind::TooLarge => "too-large",
            ServerErrorKind::Timeout => "timeout",
            ServerErrorKind::Malformed => "malformed",
            ServerErrorKind::Internal => "internal",
        }
    }
}

/// A decoded server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Echo of a [`Request::Ping`] payload.
    Pong {
        /// The request's echo bytes, verbatim.
        echo: Vec<u8>,
    },
    /// Compression result: size report + artifact stream (a version-1
    /// chunked container when the server chunked the field, else a
    /// version-0 single-chunk stream).
    Compressed {
        /// Size accounting.
        report: WireReport,
        /// The self-describing artifact bytes.
        artifact: Vec<u8>,
    },
    /// Decompression result: shape + samples.
    Decompressed {
        /// Field extents.
        shape: Shape,
        /// Reconstructed samples.
        data: Vec<f64>,
    },
    /// Field statistics.
    Stats(FieldStatsReply),
    /// Model-selection outcome.
    Selected(SelectReply),
    /// Shutdown acknowledged.
    ShutdownAck,
    /// A typed error frame. The message is human-readable context.
    Error {
        /// Which error class.
        kind: ServerErrorKind,
        /// Human-readable context (UTF-8; lossy-decoded on read).
        message: String,
    },
}

impl Response {
    /// This response's frame kind byte.
    pub fn kind(&self) -> u8 {
        match self {
            Response::Pong { .. } => RESP_PONG,
            Response::Compressed { .. } => RESP_COMPRESSED,
            Response::Decompressed { .. } => RESP_DECOMPRESSED,
            Response::Stats(_) => RESP_STATS,
            Response::Selected(_) => RESP_SELECTED,
            Response::ShutdownAck => RESP_SHUTDOWN_ACK,
            Response::Error { kind, .. } => kind.kind_byte(),
        }
    }

    /// Serializes the payload (frame header excluded).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Pong { echo } => out.extend_from_slice(echo),
            Response::Compressed { report, artifact } => {
                out.extend_from_slice(&report.raw_bytes.to_le_bytes());
                out.extend_from_slice(&report.rep_bytes.to_le_bytes());
                out.extend_from_slice(&report.delta_bytes.to_le_bytes());
                out.extend_from_slice(artifact);
            }
            Response::Decompressed { shape, data } => {
                encode_shape(&mut out, *shape);
                encode_samples(&mut out, data);
            }
            Response::Stats(s) => {
                out.extend_from_slice(&s.count.to_le_bytes());
                for v in [s.min, s.max, s.mean, s.variance, s.byte_entropy] {
                    out.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            Response::Selected(s) => {
                let (tag, param) = s.winner.tag();
                out.push(tag);
                out.extend_from_slice(&param.to_le_bytes());
                out.push(s.sampled as u8);
                out.extend_from_slice(
                    &(s.trials.len().min(u16::MAX as usize) as u16).to_le_bytes(),
                );
                for t in s.trials.iter().take(u16::MAX as usize) {
                    let (tag, param) = t.model.tag();
                    out.push(tag);
                    out.extend_from_slice(&param.to_le_bytes());
                    out.extend_from_slice(&t.raw_bytes.to_le_bytes());
                    out.extend_from_slice(&t.total_bytes.to_le_bytes());
                }
            }
            Response::ShutdownAck => {}
            Response::Error { message, .. } => out.extend_from_slice(message.as_bytes()),
        }
        out
    }

    /// Serializes into one complete frame tagged with `request_id`.
    pub fn to_frame(&self, request_id: u64) -> Vec<u8> {
        Frame::encode(self.kind(), request_id, &self.encode_payload())
    }

    /// Decodes a response from a frame's kind byte and payload. Every
    /// defect is a typed [`DecodeError`]; this never panics on hostile
    /// bytes.
    pub fn decode(kind: u8, payload: &[u8]) -> DecodeResult<Response> {
        let mut r = Reader::new(payload);
        match kind {
            RESP_PONG => Ok(Response::Pong {
                echo: r.rest().to_vec(),
            }),
            RESP_COMPRESSED => {
                let report = WireReport {
                    raw_bytes: r.u64("compressed raw bytes")?,
                    rep_bytes: r.u64("compressed rep bytes")?,
                    delta_bytes: r.u64("compressed delta bytes")?,
                };
                Ok(Response::Compressed {
                    report,
                    artifact: r.rest().to_vec(),
                })
            }
            RESP_DECOMPRESSED => {
                let shape = decode_shape(&mut r)?;
                let data = decode_samples(&mut r, shape)?;
                r.finish("decompressed trailing bytes")?;
                Ok(Response::Decompressed { shape, data })
            }
            RESP_STATS => {
                let reply = FieldStatsReply {
                    count: r.u64("stats count")?,
                    min: r.f64("stats min")?,
                    max: r.f64("stats max")?,
                    mean: r.f64("stats mean")?,
                    variance: r.f64("stats variance")?,
                    byte_entropy: r.f64("stats entropy")?,
                };
                r.finish("stats trailing bytes")?;
                Ok(Response::Stats(reply))
            }
            RESP_SELECTED => {
                let tag = r.u8("selected winner tag")?;
                let param = r.u32("selected winner param")?;
                let winner = model_from_tag(tag, param)?;
                let sampled = r.u8("selected sampled flag")? != 0;
                let count = r.u16("selected trial count")? as usize;
                let mut trials = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    let tag = r.u8("trial model tag")?;
                    let param = r.u32("trial model param")?;
                    trials.push(TrialReport {
                        model: model_from_tag(tag, param)?,
                        raw_bytes: r.u64("trial raw bytes")?,
                        total_bytes: r.u64("trial total bytes")?,
                    });
                }
                r.finish("selected trailing bytes")?;
                Ok(Response::Selected(SelectReply {
                    winner,
                    sampled,
                    trials,
                }))
            }
            RESP_SHUTDOWN_ACK => {
                r.finish("shutdown-ack trailing bytes")?;
                Ok(Response::ShutdownAck)
            }
            RESP_ERR_BUSY | RESP_ERR_TOO_LARGE | RESP_ERR_TIMEOUT | RESP_ERR_MALFORMED
            | RESP_ERR_INTERNAL => {
                let err_kind = match kind {
                    RESP_ERR_BUSY => ServerErrorKind::Busy,
                    RESP_ERR_TOO_LARGE => ServerErrorKind::TooLarge,
                    RESP_ERR_TIMEOUT => ServerErrorKind::Timeout,
                    RESP_ERR_MALFORMED => ServerErrorKind::Malformed,
                    _ => ServerErrorKind::Internal,
                };
                Ok(Response::Error {
                    kind: err_kind,
                    message: String::from_utf8_lossy(r.rest()).into_owned(),
                })
            }
            tag => Err(DecodeError::UnknownTag {
                what: "response kind",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_compress() -> Request {
        Request::Compress(CompressRequest {
            model: ReducedModelKind::OneBase,
            orig: LossyCodec::SzRel(1e-5),
            delta: LossyCodec::SzRel(1e-3),
            scan_1d: true,
            chunks: 4,
            shape: Shape::d3(3, 2, 2),
            data: (0..12).map(|i| i as f64 * 0.25 - 1.0).collect(),
        })
    }

    #[test]
    fn frame_roundtrips() {
        let bytes = Frame::encode(REQ_PING, 0, b"hello");
        assert_eq!(bytes.len(), HEADER_LEN + 5);
        let f = Frame::from_bytes(&bytes).expect("frame");
        assert_eq!(f.kind, REQ_PING);
        assert_eq!(f.request_id, 0);
        assert_eq!(f.payload, b"hello");
    }

    #[test]
    fn v2_frame_roundtrips_with_request_id() {
        let bytes = Frame::encode(REQ_PING, 0xDEAD_BEEF_0042, b"hello");
        assert_eq!(&bytes[..4], MAGIC);
        assert_eq!(&bytes[4..6], &PROTOCOL_V2.to_le_bytes());
        let f = Frame::from_bytes(&bytes).expect("frame");
        assert_eq!(f.kind, REQ_PING);
        assert_eq!(f.request_id, 0xDEAD_BEEF_0042);
        assert_eq!(f.payload, b"hello");
    }

    #[test]
    fn header_prefix_parses_incrementally() {
        let bytes = Frame::encode(REQ_STREAM_CHUNK, 7, &[1, 2, 3]);
        // Consistent prefixes ask for more bytes rather than erroring.
        for cut in 0..HEADER_LEN {
            assert_eq!(
                Frame::parse_header_prefix(&bytes[..cut]).expect("prefix"),
                None,
                "cut {cut}"
            );
        }
        let header = Frame::parse_header_prefix(&bytes[..HEADER_LEN])
            .expect("header")
            .expect("complete");
        assert_eq!(header.kind, REQ_STREAM_CHUNK);
        assert_eq!(header.request_id, 7);
        assert_eq!(header.payload_len, 3);

        // Bad magic is rejected from the very first divergent byte.
        assert!(Frame::parse_header_prefix(b"X").is_err());
        assert!(Frame::parse_header_prefix(b"LRMX").is_err());
        // Any other version, including the retired 16-byte version 1, is
        // rejected as soon as it is visible.
        for version in [1u8, 9] {
            assert!(matches!(
                Frame::parse_header_prefix(&[b'L', b'R', b'M', b'P', version, 0]),
                Err(DecodeError::UnsupportedVersion { .. })
            ));
        }
    }

    #[test]
    fn every_request_roundtrips() {
        let requests = vec![
            Request::Ping {
                echo: vec![1, 2, 3],
            },
            sample_compress(),
            Request::Decompress {
                artifact: vec![9; 40],
            },
            Request::FieldStats {
                shape: Shape::d2(4, 2),
                data: (0..8).map(|i| (i as f64).sin()).collect(),
            },
            Request::SelectModel(SelectRequest {
                exhaustive: true,
                orig: LossyCodec::ZfpPrecision(16),
                delta: LossyCodec::ZfpPrecision(8),
                shape: Shape::d1(6),
                data: vec![0.5; 6],
            }),
            Request::Shutdown,
            Request::CompressStreamBegin(CompressStreamMeta {
                model: ReducedModelKind::MultiBase(2),
                orig: LossyCodec::SzRel(1e-5),
                delta: LossyCodec::SzRel(1e-3),
                scan_1d: false,
                chunks: 3,
                shape: Shape::d3(4, 4, 6),
            }),
            Request::StreamChunk {
                bytes: vec![0xAB; 17],
            },
            Request::StreamEnd,
            Request::DecompressStreamBegin,
        ];
        for req in requests {
            let frame = Frame::from_bytes(&req.to_frame(31)).expect("frame");
            assert_eq!(frame.request_id, 31);
            let back = Request::decode(frame.kind, &frame.payload).expect("request");
            assert_eq!(req, back);
        }
    }

    #[test]
    fn every_response_roundtrips() {
        let responses = vec![
            Response::Pong { echo: vec![7; 9] },
            Response::Compressed {
                report: WireReport {
                    raw_bytes: 4096,
                    rep_bytes: 100,
                    delta_bytes: 300,
                },
                artifact: vec![1, 2, 3],
            },
            Response::Decompressed {
                shape: Shape::d3(2, 2, 2),
                data: vec![1.5; 8],
            },
            Response::Stats(FieldStatsReply {
                count: 8,
                min: -1.0,
                max: 2.0,
                mean: 0.5,
                variance: 0.25,
                byte_entropy: 3.7,
            }),
            Response::Selected(SelectReply {
                winner: ReducedModelKind::Pca,
                sampled: true,
                trials: vec![
                    TrialReport {
                        model: ReducedModelKind::Pca,
                        raw_bytes: 1000,
                        total_bytes: 90,
                    },
                    TrialReport {
                        model: ReducedModelKind::Direct,
                        raw_bytes: 1000,
                        total_bytes: 250,
                    },
                ],
            }),
            Response::ShutdownAck,
            Response::Error {
                kind: ServerErrorKind::Busy,
                message: "at capacity".into(),
            },
        ];
        for resp in responses {
            let frame = Frame::from_bytes(&resp.to_frame(99)).expect("frame");
            assert_eq!(frame.request_id, 99);
            let back = Response::decode(frame.kind, &frame.payload).expect("response");
            assert_eq!(resp, back);
        }
    }

    #[test]
    fn nan_samples_survive_the_wire_bitwise() {
        // Samples travel as raw bits, so NaN payloads and signed zeros
        // are preserved exactly (the codecs decide how to handle them).
        let req = Request::FieldStats {
            shape: Shape::d1(3),
            data: vec![f64::NAN, -0.0, f64::INFINITY],
        };
        let frame = Frame::from_bytes(&req.to_frame(1)).expect("frame");
        let Request::FieldStats { data, .. } =
            Request::decode(frame.kind, &frame.payload).expect("request")
        else {
            panic!("wrong variant");
        };
        assert!(data[0].is_nan());
        assert_eq!(data[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(data[2], f64::INFINITY);
    }

    #[test]
    fn corrupt_frames_are_typed_errors() {
        let good = sample_compress().to_frame(5);
        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            Frame::from_bytes(&bad),
            Err(DecodeError::Corrupt { .. })
        ));
        // Future version.
        let mut bad = good.clone();
        bad[4] = 99;
        assert!(matches!(
            Frame::from_bytes(&bad),
            Err(DecodeError::UnsupportedVersion { .. })
        ));
        // Nonzero reserved byte.
        let mut bad = good.clone();
        bad[7] = 1;
        assert!(matches!(
            Frame::from_bytes(&bad),
            Err(DecodeError::Corrupt { .. })
        ));
        // Trailing garbage.
        let mut bad = good.clone();
        bad.push(0);
        assert!(matches!(
            Frame::from_bytes(&bad),
            Err(DecodeError::Corrupt { .. })
        ));
        // Truncation anywhere is an error.
        for cut in 0..good.len() {
            assert!(Frame::from_bytes(&good[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn shape_data_mismatch_is_rejected() {
        // Claim 1000 samples but ship 12.
        let Request::Compress(c) = sample_compress() else {
            unreachable!()
        };
        let mut meta = c.meta();
        meta.shape = Shape::d3(10, 10, 10);
        let mut payload = Vec::new();
        encode_compress_meta(&mut payload, &meta);
        encode_samples(&mut payload, &c.data);
        assert!(Request::decode(REQ_COMPRESS, &payload).is_err());
    }

    #[test]
    fn duo_model_tag_is_rejected_on_the_wire() {
        assert!(model_from_tag(3, 0).is_err());
        for tag in [0u8, 1, 2, 4, 5, 6, 7, 8, 9] {
            let model = model_from_tag(tag, 2).expect("tag");
            assert_eq!(model.tag().0, tag);
        }
        assert!(matches!(
            model_from_tag(42, 0),
            Err(DecodeError::UnknownTag { .. })
        ));
    }

    #[test]
    fn unknown_kinds_are_typed_errors() {
        assert!(matches!(
            Request::decode(0x7F, &[]),
            Err(DecodeError::UnknownTag { .. })
        ));
        assert!(matches!(
            Response::decode(0x42, &[]),
            Err(DecodeError::UnknownTag { .. })
        ));
    }
}
