//! Adversarial length-field tests against a live server: hostile
//! *declared* sizes — `u64::MAX` frame payload lengths, overflowing
//! shape extents, `u32::MAX` chunked-artifact counts, saturated chunk
//! counts — must be answered with typed `TooLarge`/`Malformed`
//! frames, never sized into an allocation, and must leave the server
//! serving. The static side of the same contract is `lrm-lint`'s
//! `wire-alloc-unclamped` pack over `protocol.rs`/`chunked.rs`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use lrm_compress::{Codec, Sz};
use lrm_core::{LossyCodec, Pipeline, PipelineConfig, ReducedModelKind};
use lrm_datasets::{generate, DatasetKind, Field, SizeClass};
use lrm_io::{Artifact, ChunkedArtifact};
use lrm_server::protocol::{
    HEADER_LEN, REQ_COMPRESS, REQ_PING, RESP_ERR_MALFORMED, RESP_ERR_TOO_LARGE,
};
use lrm_server::{
    ClientError, CompressRequest, Connection, Frame, Request, Server, ServerConfig,
    ServerErrorKind, ServerStats, Shape,
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

/// Byte offset of the shape extents inside compress payloads: model tag
/// (1) + param (4) + two 9-byte codecs + scan_1d flag (1) + chunk count
/// (2).
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

/// Decompresses `artifact` over `conn` and requires a `Malformed` reply.
fn assert_decompress_malformed(conn: &mut Connection, artifact: &[u8]) {
    match conn.decompress(artifact) {
        Err(ClientError::Server {
            kind: ServerErrorKind::Malformed,
            ..
        }) => {}
        other => panic!("expected Malformed frame, got {other:?}"),
    }
}

#[test]
fn chunk_directory_that_does_not_tile_the_field_gets_typed_malformed() {
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });

    // A 16³ artifact in four chunks, re-framed without its last
    // directory entry: decoding it would zero the last four planes.
    let field = generate(DatasetKind::Heat3d, SizeClass::Tiny).full;
    let bytes = Pipeline::builder().chunks(4).build().compress(&field).bytes;
    let container = ChunkedArtifact::from_bytes(&bytes).expect("parse");
    let mut crafted = ChunkedArtifact::new(container.global_dims);
    for (e, p) in container.chunks().take(3) {
        crafted.push(*e, p.to_vec());
    }

    let mut conn = Connection::open(addr).expect("open");
    assert_decompress_malformed(&mut conn, &crafted.to_bytes());
    assert_eq!(conn.ping(b"alive").expect("ping"), b"alive");
    conn.shutdown().expect("shutdown");
    handle.join().expect("join");
}

#[test]
fn sz_stream_that_contradicts_the_meta_codec_gets_typed_malformed() {
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });

    // A Direct artifact whose meta says SzRel(1e-5) but whose delta is
    // an `Sz::absolute(1.0)` stream, or a `Sz::block_rel(1e-3)` stream
    // with the header bits of 1e-5 (only its exponent table differs).
    let field = generate(DatasetKind::Heat3d, SizeClass::Tiny).full;
    let artifact = Pipeline::from_config(PipelineConfig::sz(ReducedModelKind::Direct))
        .compress(&field)
        .bytes;
    let mut rewritten = Sz::block_rel(1e-3).compress(&field.data, field.shape);
    rewritten[1..9].copy_from_slice(&1e-5f64.to_le_bytes());
    let parsed = Artifact::from_bytes(&artifact).expect("parse");
    let mut conn = Connection::open(addr).expect("open");
    for delta in [
        Sz::absolute(1.0).compress(&field.data, field.shape),
        rewritten,
    ] {
        let mut crafted = Artifact::new();
        for (name, section) in parsed.sections() {
            let section = match name {
                "delta" => delta.clone(),
                _ => section.to_vec(),
            };
            crafted.push(name, section);
        }
        assert_decompress_malformed(&mut conn, &crafted.to_bytes());
    }
    assert_eq!(conn.ping(b"alive").expect("ping"), b"alive");
    conn.shutdown().expect("shutdown");
    handle.join().expect("join");
}

#[test]
fn projection_model_on_a_field_below_2d_gets_typed_malformed() {
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });

    // A multi-base artifact whose meta shape (three u32 extents at bytes
    // 23..35) says [5, 1, 0], an empty 1-D field, with an empty FPC delta
    // to match. The encoder never writes one; the decoder used to clamp
    // its group count to 1..=0, and a panicking worker answers
    // `Internal`, not `Malformed`.
    let fpc = LossyCodec::FpcLossless(12);
    let cfg = PipelineConfig {
        orig: fpc,
        delta: fpc,
        ..PipelineConfig::sz(ReducedModelKind::MultiBase(4))
    };
    let field = generate(DatasetKind::Heat3d, SizeClass::Tiny).full;
    let artifact = Pipeline::from_config(cfg).compress(&field).bytes;
    let parsed = Artifact::from_bytes(&artifact).expect("parse");
    let mut crafted = Artifact::new();
    for (name, section) in parsed.sections() {
        let section = match name {
            "meta" => {
                let mut meta = section.to_vec();
                for (i, d) in [5u32, 1, 0].iter().enumerate() {
                    meta[23 + 4 * i..27 + 4 * i].copy_from_slice(&d.to_le_bytes());
                }
                meta
            }
            "delta" => fpc.compress(&[], Shape::d3(5, 1, 0)),
            _ => section.to_vec(),
        };
        crafted.push(name, section);
    }

    let mut conn = Connection::open(addr).expect("open");
    assert_decompress_malformed(&mut conn, &crafted.to_bytes());
    assert_eq!(conn.ping(b"alive").expect("ping"), b"alive");
    conn.shutdown().expect("shutdown");
    handle.join().expect("join");
}

#[test]
fn projection_model_compress_of_a_1d_field_gets_typed_malformed() {
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });

    // One-base and multi-base need a field of at least two dimensions.
    // Building either pipeline on the 1-D Wave field trips the
    // projection's assert, and a panicking worker answers `Internal`,
    // not `Malformed`.
    let field = generate(DatasetKind::Wave, SizeClass::Tiny).full;
    assert_eq!(field.shape.ndims(), 1);
    let mut conn = Connection::open(addr).expect("open");
    for model in [ReducedModelKind::OneBase, ReducedModelKind::MultiBase(2)] {
        let request = CompressRequest {
            model,
            orig: LossyCodec::SzRel(1e-5),
            delta: LossyCodec::SzRel(1e-3),
            scan_1d: false,
            chunks: 1,
            shape: field.shape,
            data: field.data.clone(),
        };
        match conn.compress(request) {
            Err(ClientError::Server {
                kind: ServerErrorKind::Malformed,
                message,
            }) => assert!(message.contains(model.name()), "{model:?}: {message}"),
            other => panic!("{model:?}: expected Malformed frame, got {other:?}"),
        }
    }
    assert_eq!(conn.ping(b"alive").expect("ping"), b"alive");
    conn.shutdown().expect("shutdown");
    handle.join().expect("join");
}

#[test]
fn svd_rep_declaring_a_huge_matrix_gets_typed_malformed() {
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });

    // An SVD artifact whose `rep` declares m = n = 65,536 with k = 0 and
    // an empty U stream: rebuilding that base would allocate 32 GiB, an
    // abort no `catch_unwind` can stop. The decoder must check m·n
    // against the delta first.
    let shape = Shape::d2(32, 32);
    let field = Field::new(
        "square",
        (0..shape.len()).map(|i| (i as f64 * 0.1).sin()).collect(),
        shape,
    );
    let cfg = PipelineConfig::sz(ReducedModelKind::Svd);
    let artifact = Pipeline::from_config(cfg).compress(&field).bytes;
    let big = 65_536u32;
    let empty = cfg.orig.compress(&[], Shape::d2(0, big as usize));
    let mut rep = Vec::new();
    for word in [big, big, 0, empty.len() as u32] {
        rep.extend_from_slice(&word.to_le_bytes());
    }
    rep.extend_from_slice(&empty);
    let parsed = Artifact::from_bytes(&artifact).expect("parse");
    let mut crafted = Artifact::new();
    for (name, section) in parsed.sections() {
        let section = if name == "rep" {
            rep.clone()
        } else {
            section.to_vec()
        };
        crafted.push(name, section);
    }

    let mut conn = Connection::open(addr).expect("open");
    match conn.decompress(&crafted.to_bytes()) {
        Err(ClientError::Server {
            kind: ServerErrorKind::Malformed,
            ..
        }) => {}
        other => panic!("expected Malformed frame, got {other:?}"),
    }

    assert_alive_then_shutdown(addr);
    handle.join().expect("join");
}

#[test]
fn duo_model_artifact_with_an_empty_coarse_field_gets_typed_malformed() {
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });

    // A DuoModel artifact whose meta declares a 0×0×0 coarse field and
    // whose `rep` is the orig codec's stream for that empty field. The
    // encoder never writes one; upsampling it would index an empty
    // slice, and a panicking worker answers `Internal`, not `Malformed`.
    let wave = |shape: Shape| {
        let data = (0..shape.len()).map(|i| (i as f64 * 0.1).sin()).collect();
        Field::new("wave", data, shape)
    };
    let cfg = PipelineConfig::sz(ReducedModelKind::DuoModel);
    let artifact = Pipeline::from_config(cfg)
        .compress_with_aux(&wave(Shape::d3(8, 8, 8)), &wave(Shape::d3(4, 4, 4)))
        .bytes;
    let parsed = Artifact::from_bytes(&artifact).expect("parse");
    let mut crafted = Artifact::new();
    for (name, section) in parsed.sections() {
        let section = match name {
            // The aux shape: three u32 extents at meta bytes 35..47.
            "meta" => {
                let mut meta = section.to_vec();
                meta[35..47].fill(0);
                meta
            }
            "rep" => cfg.orig.compress(&[], Shape::d3(0, 0, 0)),
            _ => section.to_vec(),
        };
        crafted.push(name, section);
    }

    let mut conn = Connection::open(addr).expect("open");
    match conn.decompress(&crafted.to_bytes()) {
        Err(ClientError::Server {
            kind: ServerErrorKind::Malformed,
            ..
        }) => {}
        other => panic!("expected Malformed frame, got {other:?}"),
    }

    assert_alive_then_shutdown(addr);
    handle.join().expect("join");
}

#[test]
fn sz_bound_outside_its_domain_gets_typed_malformed() {
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });

    // An artifact whose meta names SZ with a NaN bound (the original
    // codec, meta bytes 5..14). Building that codec would trip the SZ
    // constructor's assert, and a panicking worker answers `Internal`,
    // not `Malformed`.
    let shape = Shape::d3(8, 8, 8);
    let data = (0..shape.len()).map(|i| (i as f64 * 0.1).sin()).collect();
    let artifact = Pipeline::from_config(PipelineConfig::sz(ReducedModelKind::OneBase))
        .compress(&Field::new("wave", data, shape))
        .bytes;
    let parsed = Artifact::from_bytes(&artifact).expect("parse");
    let mut crafted = Artifact::new();
    for (name, section) in parsed.sections() {
        let mut section = section.to_vec();
        if name == "meta" {
            section[5..14].copy_from_slice(&LossyCodec::SzRel(f64::NAN).to_bytes());
        }
        crafted.push(name, section);
    }
    let mut conn = Connection::open(addr).expect("open");
    match conn.decompress(&crafted.to_bytes()) {
        Err(ClientError::Server {
            kind: ServerErrorKind::Malformed,
            ..
        }) => {}
        other => panic!("expected Malformed frame, got {other:?}"),
    }

    // A compress request whose original codec (payload bytes 5..14,
    // after the model tag and parameter) is SZ with a NaN bound.
    let mut payload = small_compress_payload();
    payload[5..14].copy_from_slice(&LossyCodec::SzAbs(f64::NAN).to_bytes());
    let frame = Frame::encode(REQ_COMPRESS, 1, &payload);
    assert_eq!(send_raw(addr, &frame), Some(RESP_ERR_MALFORMED));

    assert_alive_then_shutdown(addr);
    handle.join().expect("join");
}

#[test]
fn wavelet_rep_with_a_non_power_of_two_grid_gets_typed_malformed() {
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });

    // A Wavelet artifact for a 3×5 field whose `rep` declares a 3×5
    // coefficient grid with no entries. The encoder pads both extents
    // to powers of two; the inverse Haar transform asserts on any other
    // grid, and a panicking worker answers `Internal`, not `Malformed`.
    let shape = Shape::d2(5, 3);
    let field = Field::new(
        "3x5",
        (0..shape.len()).map(|i| (i as f64 * 0.4).sin()).collect(),
        shape,
    );
    let cfg = PipelineConfig::sz(ReducedModelKind::Wavelet);
    let artifact = Pipeline::from_config(cfg).compress(&field).bytes;
    let mut sparse = Vec::new();
    sparse.extend_from_slice(&3u32.to_le_bytes());
    sparse.extend_from_slice(&5u32.to_le_bytes());
    sparse.extend_from_slice(&0u64.to_le_bytes());
    let mut rep = Vec::new();
    for word in [3, 5, sparse.len() as u32] {
        rep.extend_from_slice(&word.to_le_bytes());
    }
    rep.extend_from_slice(&sparse);
    let parsed = Artifact::from_bytes(&artifact).expect("parse");
    let mut crafted = Artifact::new();
    for (name, section) in parsed.sections() {
        let section = if name == "rep" {
            rep.clone()
        } else {
            section.to_vec()
        };
        crafted.push(name, section);
    }

    let mut conn = Connection::open(addr).expect("open");
    match conn.decompress(&crafted.to_bytes()) {
        Err(ClientError::Server {
            kind: ServerErrorKind::Malformed,
            ..
        }) => {}
        other => panic!("expected Malformed frame, got {other:?}"),
    }

    assert_alive_then_shutdown(addr);
    handle.join().expect("join");
}

#[test]
fn saturated_chunk_count_is_clamped_not_amplified() {
    let (addr, handle) = start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });

    // A declared chunk count of u16::MAX on a 6-plane field: the engine
    // clamps parallelism to the z extent, so a hostile count cannot
    // multiply buffers or workers. The request must simply succeed.
    let shape = Shape::d3(5, 4, 6);
    let data: Vec<f64> = (0..shape.len()).map(|i| (i as f64 * 0.17).sin()).collect();
    let request = CompressRequest {
        model: ReducedModelKind::OneBase,
        orig: LossyCodec::SzRel(1e-5),
        delta: LossyCodec::SzRel(1e-3),
        scan_1d: true,
        chunks: u16::MAX,
        shape,
        data: data.clone(),
    };
    let mut conn = Connection::open(addr).expect("open");
    let (report, artifact) = conn.compress(request).expect("compress");
    assert_eq!(report.raw_bytes as usize, data.len() * 8);

    let (got_shape, got) = conn.decompress(&artifact).expect("decompress");
    assert_eq!(got_shape, shape);
    assert_eq!(got.len(), data.len());

    conn.shutdown().expect("shutdown");
    handle.join().expect("join");
}
