//! Adversarial length-field tests against a live server: hostile
//! *declared* sizes — `u64::MAX` frame payload lengths, overflowing
//! shape extents, `u32::MAX` chunked-artifact counts, saturated stream
//! chunk counts — must be answered with typed `TooLarge`/`Malformed`
//! frames, never sized into an allocation, and must leave the server
//! serving. The static side of the same contract is `lrm-lint`'s
//! `wire-alloc-unclamped` pack over `protocol.rs`/`chunked.rs`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use lrm_core::{LossyCodec, ReducedModelKind};
use lrm_server::protocol::{
    HEADER_LEN, REQ_COMPRESS, REQ_COMPRESS_STREAM_BEGIN, REQ_PING, RESP_ERR_MALFORMED,
    RESP_ERR_TOO_LARGE,
};
use lrm_server::{
    ClientError, CompressRequest, CompressStreamMeta, Connection, Frame, Request, Server,
    ServerConfig, ServerErrorKind, ServerStats, Shape,
};

fn start(config: ServerConfig) -> (SocketAddr, std::thread::JoinHandle<ServerStats>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.serve().expect("serve"));
    (addr, handle)
}

/// Sends raw bytes, half-closes, and returns the kind byte of the
/// *first* response frame the server answers with (a hostile stream
/// may draw more than one error frame before the close).
fn send_raw(addr: SocketAddr, bytes: &[u8]) -> Option<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream.write_all(bytes).expect("write");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).ok()?;
    let header = Frame::parse_header(&reply).ok()?;
    let total = HEADER_LEN + usize::try_from(header.payload_len).ok()?;
    Frame::from_bytes(reply.get(..total)?).ok().map(|f| f.kind)
}

/// Proves the server still answers a fresh connection, then stops it.
fn assert_alive_then_shutdown(addr: SocketAddr) {
    let mut conn = Connection::open(addr).expect("open");
    assert_eq!(conn.ping(b"alive").expect("ping"), b"alive");
    conn.shutdown().expect("shutdown");
}

/// A tiny but well-formed compress request payload.
fn small_compress_payload() -> Vec<u8> {
    let shape = Shape::d3(4, 3, 2);
    Request::Compress(CompressRequest {
        model: ReducedModelKind::OneBase,
        orig: LossyCodec::SzRel(1e-5),
        delta: LossyCodec::SzRel(1e-3),
        scan_1d: false,
        chunks: 1,
        shape,
        data: (0..shape.len()).map(|i| i as f64 * 0.25).collect(),
    })
    .encode_payload()
}

/// Byte offset of the shape extents inside compress / stream-begin
/// payloads: model tag (1) + param (4) + two 9-byte codecs + scan_1d
/// flag (1) + chunk count (2).
const SHAPE_OFFSET: usize = 1 + 4 + 9 + 9 + 1 + 2;

#[test]
fn declared_u64_max_payload_length_gets_typed_too_large() {
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });

    // A header claiming a u64::MAX payload: the length check must
    // answer TooLarge from the header alone — nothing is allocated or
    // read for a payload that will never arrive.
    let mut frame = Frame::encode(REQ_PING, 0xDEAD_BEEF, &[]);
    frame[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
    assert_eq!(send_raw(addr, &frame), Some(RESP_ERR_TOO_LARGE));

    // The server is still serving normal requests afterwards.
    assert_alive_then_shutdown(addr);
    handle.join().expect("join");
}

#[test]
fn overflowing_shape_in_compress_gets_typed_malformed() {
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });

    // Overwrite the three shape extents with u32::MAX each: the element
    // count overflows usize, so the decoder must reject the shape
    // before sizing the sample buffer from it.
    let mut payload = small_compress_payload();
    for i in 0..3 {
        payload[SHAPE_OFFSET + 4 * i..SHAPE_OFFSET + 4 * (i + 1)]
            .copy_from_slice(&u32::MAX.to_le_bytes());
    }
    // Layout canary: the mutation must hit the shape field, and the
    // payload decoder must reject it locally too.
    assert!(Request::decode(REQ_COMPRESS, &payload).is_err());

    let frame = Frame::encode(REQ_COMPRESS, 1, &payload);
    assert_eq!(send_raw(addr, &frame), Some(RESP_ERR_MALFORMED));

    assert_alive_then_shutdown(addr);
    handle.join().expect("join");
}

#[test]
fn stream_begin_with_overflowing_shape_gets_typed_malformed() {
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });

    // The streaming path decodes the same shape layout; a hostile
    // stream-begin must die typed before any chunk buffer exists.
    let mut payload = Request::CompressStreamBegin(CompressStreamMeta {
        model: ReducedModelKind::OneBase,
        orig: LossyCodec::SzRel(1e-5),
        delta: LossyCodec::SzRel(1e-3),
        scan_1d: false,
        chunks: 2,
        shape: Shape::d3(4, 3, 2),
    })
    .encode_payload();
    for i in 0..3 {
        payload[SHAPE_OFFSET + 4 * i..SHAPE_OFFSET + 4 * (i + 1)]
            .copy_from_slice(&u32::MAX.to_le_bytes());
    }
    assert!(Request::decode(REQ_COMPRESS_STREAM_BEGIN, &payload).is_err());

    let frame = Frame::encode(REQ_COMPRESS_STREAM_BEGIN, 41, &payload);
    assert_eq!(send_raw(addr, &frame), Some(RESP_ERR_MALFORMED));

    assert_alive_then_shutdown(addr);
    handle.join().expect("join");
}

#[test]
fn u32_max_chunk_count_artifact_gets_typed_malformed() {
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });

    // A chunked-artifact container whose header claims u32::MAX chunks
    // (25-byte directory entries × u32::MAX would be ~100 GiB). The
    // decoder's chunk-count ceiling must reject it typed; the server
    // wraps that in a Malformed reply.
    let mut artifact = Vec::new();
    artifact.extend_from_slice(b"LRMC");
    artifact.extend_from_slice(&1u16.to_le_bytes()); // format version
    for d in [16u32, 16, 16] {
        artifact.extend_from_slice(&d.to_le_bytes());
    }
    artifact.extend_from_slice(&u32::MAX.to_le_bytes()); // chunk count

    let mut conn = Connection::open(addr).expect("open");
    match conn.decompress(&artifact) {
        Err(ClientError::Server {
            kind: ServerErrorKind::Malformed,
            ..
        }) => {}
        other => panic!("expected Malformed frame, got {other:?}"),
    }

    assert_eq!(conn.ping(b"alive").expect("ping"), b"alive");
    conn.shutdown().expect("shutdown");
    handle.join().expect("join");
}

#[test]
fn streamed_chunks_beyond_max_payload_get_typed_too_large() {
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        max_payload: 1024,
        ..ServerConfig::default()
    });

    // Under streaming the per-frame length check still applies: a
    // chunk frame declaring more than max_payload is refused from its
    // header, so a stream cannot smuggle in an oversized buffer.
    let id = 9u64;
    let mut bytes = Vec::new();
    bytes.extend_from_slice(
        &Request::CompressStreamBegin(CompressStreamMeta {
            model: ReducedModelKind::OneBase,
            orig: LossyCodec::SzRel(1e-5),
            delta: LossyCodec::SzRel(1e-3),
            scan_1d: false,
            chunks: 1,
            shape: Shape::d3(64, 64, 64),
        })
        .to_frame(id),
    );
    bytes.extend_from_slice(
        &Request::StreamChunk {
            bytes: vec![0u8; 4096],
        }
        .to_frame(id),
    );
    assert_eq!(send_raw(addr, &bytes), Some(RESP_ERR_TOO_LARGE));

    assert_alive_then_shutdown(addr);
    handle.join().expect("join");
}

#[test]
fn saturated_stream_chunk_count_is_clamped_not_amplified() {
    let (addr, handle) = start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });

    // A declared chunk count of u16::MAX on a 6-plane field: the engine
    // clamps parallelism to the z extent, so a hostile count cannot
    // multiply buffers or workers. The request must simply succeed.
    let shape = Shape::d3(5, 4, 6);
    let data: Vec<f64> = (0..shape.len()).map(|i| (i as f64 * 0.17).sin()).collect();
    let meta = CompressStreamMeta {
        model: ReducedModelKind::OneBase,
        orig: LossyCodec::SzRel(1e-5),
        delta: LossyCodec::SzRel(1e-3),
        scan_1d: true,
        chunks: u16::MAX,
        shape,
    };
    let mut conn = Connection::open(addr).expect("open");
    let (report, artifact) = conn
        .compress_streamed(meta, &data, 512)
        .expect("streamed compress");
    assert_eq!(report.raw_bytes as usize, data.len() * 8);

    let (got_shape, got) = conn
        .decompress_streamed(&artifact, 512)
        .expect("decompress");
    assert_eq!(got_shape, shape);
    assert_eq!(got.len(), data.len());

    conn.shutdown().expect("shutdown");
    handle.join().expect("join");
}
