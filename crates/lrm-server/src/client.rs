//! Session-based blocking client for the framed protocol.
//!
//! [`Connection`] holds one persistent TCP session speaking LRMP v2:
//! [`Connection::send`] writes a request frame tagged with a fresh
//! request id and returns a [`RequestHandle`]; [`Connection::wait`]
//! reads response frames — stashing out-of-order arrivals — until the
//! handle's response lands. Many requests can be in flight at once over
//! the one socket (pipelining), and [`Connection::call`] is the
//! blocking send-then-wait convenience. The chunk-streaming helpers
//! ([`Connection::compress_streamed`], [`Connection::decompress_streamed`])
//! ship a large field as `Begin`/`Chunk`/`End` sub-frames so the server
//! starts compressing while bytes are still arriving.
//!
//! Server-side error frames surface as [`ClientError::Server`] with the
//! typed [`ServerErrorKind`], so callers (and the loopback tests) can
//! match on `Busy`/`TooLarge`/`Timeout` rather than string-compare
//! messages.
//!
//! The response-reading path is decode-hardened (registered under
//! `[decode]` in `lint.toml`): headers and payloads are parsed with the
//! typed [`DecodeError`] machinery and nothing here panics on a hostile
//! peer.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use lrm_compress::{DecodeError, Shape};

use crate::protocol::{
    CompressRequest, CompressStreamMeta, FieldStatsReply, Frame, FrameHeader, Request, Response,
    SelectReply, SelectRequest, ServerErrorKind, WireReport, CONNECTION_REQUEST_ID, HEADER_LEN,
};

/// Hard ceiling on a response payload the client will buffer; a header
/// claiming more is treated as a protocol violation rather than an
/// allocation request.
const MAX_RESPONSE_PAYLOAD: u64 = 1 << 31;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write, timeout).
    Io(std::io::Error),
    /// The server's response frame failed to decode.
    Decode(DecodeError),
    /// The server answered with a typed error frame.
    Server {
        /// Which error class the server reported.
        kind: ServerErrorKind,
        /// The server's human-readable context.
        message: String,
    },
    /// The server answered with a response of the wrong kind for the
    /// request (protocol confusion; carries the kind byte received).
    Unexpected {
        /// The frame kind byte received.
        kind: u8,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Decode(e) => write!(f, "bad response frame: {e}"),
            ClientError::Server { kind, message } => {
                write!(f, "server error ({}): {message}", kind.name())
            }
            ClientError::Unexpected { kind } => {
                write!(f, "unexpected response kind 0x{kind:02X}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<DecodeError> for ClientError {
    fn from(e: DecodeError) -> Self {
        ClientError::Decode(e)
    }
}

/// Result alias for client calls.
pub type ClientResult<T> = Result<T, ClientError>;

/// A ticket for one in-flight request on a [`Connection`]; redeem it
/// with [`Connection::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestHandle {
    id: u64,
}

impl RequestHandle {
    /// The wire request id this handle tracks.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// One persistent LRMP v2 session: a socket, a request-id counter, and
/// a stash for responses that arrived before anyone waited on them.
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    next_id: u64,
    stash: HashMap<u64, Response>,
}

impl Connection {
    /// Opens a session to `addr` with a 30 s socket timeout.
    pub fn open(addr: impl ToSocketAddrs) -> ClientResult<Connection> {
        Connection::open_with_timeout(addr, Duration::from_secs(30))
    }

    /// Opens a session with an explicit socket timeout (connect, read,
    /// and write).
    pub fn open_with_timeout(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> ClientResult<Connection> {
        let addr = resolve(addr)?;
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let _ = stream.set_nodelay(true);
        Ok(Connection {
            stream,
            next_id: 1,
            stash: HashMap::new(),
        })
    }

    /// Writes one request frame under a fresh request id and returns
    /// the handle to wait on. Does not block on the response, so many
    /// requests can be pipelined before the first [`Connection::wait`].
    pub fn send(&mut self, request: &Request) -> ClientResult<RequestHandle> {
        let id = self.fresh_id();
        self.stream.write_all(&request.to_frame(id))?;
        Ok(RequestHandle { id })
    }

    /// Blocks until the response for `handle` arrives, stashing any
    /// other pipelined responses that land first. A typed server error
    /// frame becomes [`ClientError::Server`].
    pub fn wait(&mut self, handle: RequestHandle) -> ClientResult<Response> {
        loop {
            if let Some(response) = self.stash.remove(&handle.id) {
                return surface(response);
            }
            let (header, payload) = read_frame(&mut self.stream)?;
            let response = Response::decode(header.kind, &payload)?;
            // A connection-level reply (e.g. a Busy verdict at accept
            // time) answers before the server knows any request id, so
            // it addresses whichever request is being waited on.
            let id = if header.request_id == CONNECTION_REQUEST_ID {
                handle.id
            } else {
                header.request_id
            };
            self.stash.insert(id, response);
        }
    }

    /// Blocking convenience: send one request and wait for its
    /// response.
    pub fn call(&mut self, request: &Request) -> ClientResult<Response> {
        let handle = self.send(request)?;
        self.wait(handle)
    }

    /// Liveness probe; returns the echoed bytes.
    pub fn ping(&mut self, echo: &[u8]) -> ClientResult<Vec<u8>> {
        match self.call(&Request::Ping {
            echo: echo.to_vec(),
        })? {
            Response::Pong { echo } => Ok(echo),
            other => Err(unexpected(&other)),
        }
    }

    /// Compresses a field; returns the size report and artifact bytes.
    pub fn compress(&mut self, request: CompressRequest) -> ClientResult<(WireReport, Vec<u8>)> {
        match self.call(&Request::Compress(request))? {
            Response::Compressed { report, artifact } => Ok((report, artifact)),
            other => Err(unexpected(&other)),
        }
    }

    /// Reconstructs a field from artifact bytes.
    pub fn decompress(&mut self, artifact: &[u8]) -> ClientResult<(Shape, Vec<f64>)> {
        match self.call(&Request::Decompress {
            artifact: artifact.to_vec(),
        })? {
            Response::Decompressed { shape, data } => Ok((shape, data)),
            other => Err(unexpected(&other)),
        }
    }

    /// Summary statistics for a field.
    pub fn field_stats(&mut self, shape: Shape, data: &[f64]) -> ClientResult<FieldStatsReply> {
        match self.call(&Request::FieldStats {
            shape,
            data: data.to_vec(),
        })? {
            Response::Stats(reply) => Ok(reply),
            other => Err(unexpected(&other)),
        }
    }

    /// Runs model selection on a field.
    pub fn select_model(&mut self, request: SelectRequest) -> ClientResult<SelectReply> {
        match self.call(&Request::SelectModel(request))? {
            Response::Selected(reply) => Ok(reply),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the server to drain and stop.
    pub fn shutdown(&mut self) -> ClientResult<()> {
        match self.call(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Compresses a field by streaming its samples in `chunk_bytes`
    /// slices (`Begin`/`Chunk`/`End`), so the server overlaps compute
    /// with the upload. Returns the size report and artifact bytes.
    pub fn compress_streamed(
        &mut self,
        meta: CompressStreamMeta,
        data: &[f64],
        chunk_bytes: usize,
    ) -> ClientResult<(WireReport, Vec<u8>)> {
        let mut bytes = Vec::with_capacity(data.len() * 8);
        for v in data {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        let handle =
            self.stream_request(&Request::CompressStreamBegin(meta), &bytes, chunk_bytes)?;
        match self.wait(handle)? {
            Response::Compressed { report, artifact } => Ok((report, artifact)),
            other => Err(unexpected(&other)),
        }
    }

    /// Reconstructs a field by streaming the artifact bytes in
    /// `chunk_bytes` slices.
    pub fn decompress_streamed(
        &mut self,
        artifact: &[u8],
        chunk_bytes: usize,
    ) -> ClientResult<(Shape, Vec<f64>)> {
        let handle = self.stream_request(&Request::DecompressStreamBegin, artifact, chunk_bytes)?;
        match self.wait(handle)? {
            Response::Decompressed { shape, data } => Ok((shape, data)),
            other => Err(unexpected(&other)),
        }
    }

    /// Opens a stream with `begin`, ships `bytes` as chunk frames under
    /// the same request id, and closes it with `End`.
    fn stream_request(
        &mut self,
        begin: &Request,
        bytes: &[u8],
        chunk_bytes: usize,
    ) -> ClientResult<RequestHandle> {
        let id = self.fresh_id();
        self.stream.write_all(&begin.to_frame(id))?;
        for chunk in bytes.chunks(chunk_bytes.max(1)) {
            let frame = Request::StreamChunk {
                bytes: chunk.to_vec(),
            }
            .to_frame(id);
            self.stream.write_all(&frame)?;
        }
        self.stream.write_all(&Request::StreamEnd.to_frame(id))?;
        Ok(RequestHandle { id })
    }

    /// The next request id, skipping [`CONNECTION_REQUEST_ID`] on wrap.
    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        id
    }
}

/// Reads one complete response frame from the socket.
fn read_frame(stream: &mut TcpStream) -> ClientResult<(FrameHeader, Vec<u8>)> {
    let mut head = [0u8; HEADER_LEN];
    stream.read_exact(&mut head)?;
    let header = Frame::parse_header(&head)?;
    if header.payload_len > MAX_RESPONSE_PAYLOAD {
        return Err(ClientError::Decode(DecodeError::Corrupt {
            what: "response length exceeds the client's buffer ceiling",
        }));
    }
    let payload_len = usize::try_from(header.payload_len).map_err(|_| {
        ClientError::Decode(DecodeError::Corrupt {
            what: "response length exceeds address space",
        })
    })?;
    let mut payload = vec![0u8; payload_len];
    stream.read_exact(&mut payload)?;
    Ok((header, payload))
}

/// Maps typed server error frames to `Err`, everything else to `Ok`.
fn surface(response: Response) -> ClientResult<Response> {
    if let Response::Error { kind, message } = response {
        return Err(ClientError::Server { kind, message });
    }
    Ok(response)
}

fn resolve(addr: impl ToSocketAddrs) -> ClientResult<SocketAddr> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| ClientError::Io(std::io::Error::other("address resolved to nothing")))
}

fn unexpected(response: &Response) -> ClientError {
    ClientError::Unexpected {
        kind: response.kind(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        let msgs = [
            ClientError::Io(std::io::Error::other("boom")).to_string(),
            ClientError::Decode(DecodeError::Truncated { what: "header" }).to_string(),
            ClientError::Server {
                kind: ServerErrorKind::Busy,
                message: "full".into(),
            }
            .to_string(),
            ClientError::Unexpected { kind: 0x42 }.to_string(),
        ];
        assert!(msgs[0].contains("boom"));
        assert!(msgs[1].contains("header"));
        assert!(msgs[2].contains("busy"));
        assert!(msgs[3].contains("0x42"));
    }

    #[test]
    fn request_ids_are_fresh_and_nonzero() {
        // `fresh_id` must never hand out 0 (the connection-level reply
        // id) even after wrapping.
        let mut next = u64::MAX;
        let wrapped = {
            let id = next;
            next = next.wrapping_add(1).max(1);
            (id, next)
        };
        assert_eq!(wrapped.0, u64::MAX);
        assert_eq!(wrapped.1, 1);
    }
}
