//! Loopback integration tests: real sockets, real worker pool.
//!
//! Covers the acceptance criteria for the serving layer: ≥ 4 concurrent
//! client threads round-tripping Heat3d/Laplace fields within the
//! requested error bound, a typed `Busy` frame once `max_inflight` or
//! `max_connections` is exceeded (not a hang or a drop), a `Timeout`
//! frame when the deadline elapses mid-request, a `TooLarge` frame for
//! oversized payloads, and shutdown draining in-flight requests before
//! `serve()` returns.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use lrm_core::{LossyCodec, PipelineConfig, ReducedModelKind};
use lrm_datasets::{generate, DatasetKind, SizeClass};
use lrm_server::protocol::{
    MAGIC, REQ_PING, RESP_COMPRESSED, RESP_ERR_MALFORMED, RESP_ERR_TIMEOUT, RESP_PONG,
};
use lrm_server::{
    ClientError, CompressRequest, CompressStreamMeta, Connection, Frame, Request, Response,
    SelectRequest, Server, ServerConfig, ServerErrorKind, ServerStats,
};

fn start(config: ServerConfig) -> (SocketAddr, std::thread::JoinHandle<ServerStats>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.serve().expect("serve"));
    (addr, handle)
}

fn shutdown(addr: SocketAddr) {
    Connection::open(addr)
        .expect("open")
        .shutdown()
        .expect("shutdown");
}

fn compress_request(field: &lrm_datasets::Field, model: ReducedModelKind) -> CompressRequest {
    CompressRequest {
        model,
        orig: LossyCodec::SzRel(1e-5),
        delta: LossyCodec::SzRel(1e-3),
        scan_1d: true,
        chunks: 0,
        shape: field.shape,
        data: field.data.clone(),
    }
}

/// Writes a ping frame in two halves with a pause in between, keeping a
/// worker (or the queue) occupied for `hold`, then half-closes; returns
/// the response frame kind. This is how the tests pin down Busy/drain
/// behavior deterministically.
fn slow_ping(addr: SocketAddr, hold: Duration) -> Option<u8> {
    let frame = Request::Ping {
        echo: vec![0xAB; 64],
    }
    .to_frame(1);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let split = frame.len() / 2;
    stream.write_all(&frame[..split]).expect("first half");
    std::thread::sleep(hold);
    // Best-effort: when the hold outlives the server's deadline the
    // server has already replied and closed, and these may fail.
    let _ = stream.write_all(&frame[split..]);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    read_response_kind(&mut stream)
}

/// Reads the single response frame the server sends before the
/// connection closes and returns its kind byte. A connection stays open
/// after answering a well-framed request, so the caller half-closes
/// first.
fn read_response_kind(stream: &mut TcpStream) -> Option<u8> {
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).ok()?;
    Frame::from_bytes(&bytes).ok().map(|f| f.kind)
}

#[test]
fn concurrent_clients_roundtrip_within_bound() {
    let (addr, handle) = start(ServerConfig {
        threads: 4,
        max_inflight: 16,
        ..ServerConfig::default()
    });

    let heat = generate(DatasetKind::Heat3d, SizeClass::Tiny).full;
    let laplace = generate(DatasetKind::Laplace, SizeClass::Tiny).full;
    let jobs: Vec<(&lrm_datasets::Field, ReducedModelKind)> = vec![
        (&heat, ReducedModelKind::OneBase),
        (&heat, ReducedModelKind::MultiBase(2)),
        (&laplace, ReducedModelKind::OneBase),
        (&laplace, ReducedModelKind::Direct),
        (&heat, ReducedModelKind::Direct),
        (&laplace, ReducedModelKind::MultiBase(2)),
    ];

    std::thread::scope(|s| {
        for (field, model) in &jobs {
            s.spawn(move || {
                let mut conn = Connection::open(addr).expect("open");
                let (report, artifact) = conn
                    .compress(compress_request(field, *model))
                    .expect("compress");
                assert_eq!(report.raw_bytes as usize, field.len() * 8);
                assert!(report.ratio() > 1.0, "{}: no compression", field.name);

                let (shape, data) = conn.decompress(&artifact).expect("decompress");
                assert_eq!(shape, field.shape);
                assert_eq!(data.len(), field.len());
                // Dual-bound SZ: rep at rel 1e-5, delta at rel 1e-3 of
                // their value ranges; 2e-3 of the field range bounds the
                // sum with slack.
                let (lo, hi) = field.min_max();
                let tol = 2e-3 * (hi - lo).max(f64::MIN_POSITIVE);
                let worst = data
                    .iter()
                    .zip(&field.data)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max);
                assert!(
                    worst <= tol,
                    "{}/{}: max err {worst:.3e} > {tol:.3e}",
                    field.name,
                    model.name()
                );
            });
        }
    });

    shutdown(addr);
    let stats = handle.join().expect("join");
    // 6 compress + 6 decompress + 1 shutdown.
    assert_eq!(stats.served, 13);
    assert_eq!(stats.rejected_busy, 0);
}

#[test]
fn stats_and_selection_are_served() {
    let (addr, handle) = start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let field = generate(DatasetKind::Heat3d, SizeClass::Tiny).full;
    let mut conn = Connection::open(addr).expect("open");

    let stats = conn.field_stats(field.shape, &field.data).expect("stats");
    assert_eq!(stats.count as usize, field.len());
    let (lo, hi) = field.min_max();
    assert_eq!(stats.min, lo);
    assert_eq!(stats.max, hi);
    assert!(stats.byte_entropy > 0.0 && stats.byte_entropy <= 8.0);

    let (orig, delta) = lrm_core::sz_paper_bounds();
    let reply = conn
        .select_model(SelectRequest {
            exhaustive: false,
            orig,
            delta,
            shape: field.shape,
            data: field.data.clone(),
        })
        .expect("select");
    assert!(!reply.trials.is_empty());
    assert_eq!(reply.winner, reply.trials[0].model);
    // The server must agree with a local selection run.
    let base = PipelineConfig {
        orig,
        delta,
        ..PipelineConfig::sz(ReducedModelKind::Direct)
    };
    let local = lrm_core::select_best_model_with(
        &field,
        &lrm_core::default_candidates(),
        &base,
        &lrm_core::SelectionOptions::default(),
    )
    .expect("local selection");
    assert_eq!(reply.winner, local.winner);
    assert_eq!(reply.sampled, local.sampled);

    conn.shutdown().expect("shutdown");
    handle.join().expect("join");
}

#[test]
fn over_inflight_request_gets_typed_busy_frame() {
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        max_inflight: 1,
        deadline: Duration::from_secs(20),
        ..ServerConfig::default()
    });

    // Occupy the single in-flight slot with a half-sent ping.
    let holder = std::thread::spawn(move || slow_ping(addr, Duration::from_millis(800)));
    std::thread::sleep(Duration::from_millis(300));

    // The next request must be refused with Busy — not hang, not drop.
    let mut conn = Connection::open(addr).expect("open");
    match conn.ping(b"over capacity") {
        Err(ClientError::Server {
            kind: ServerErrorKind::Busy,
            ..
        }) => {}
        other => panic!("expected Busy frame, got {other:?}"),
    }

    // The held request still completes normally.
    assert_eq!(holder.join().expect("holder"), Some(RESP_PONG));

    // Wait for the slot to free, then shut down.
    let mut acked = false;
    for _ in 0..100 {
        if conn.shutdown().is_ok() {
            acked = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(acked, "shutdown never accepted");
    let stats = handle.join().expect("join");
    assert!(stats.rejected_busy >= 1);
    assert!(stats.served >= 2);
}

#[test]
fn shutdown_drains_inflight_requests() {
    let (addr, handle) = start(ServerConfig {
        threads: 2,
        max_inflight: 4,
        deadline: Duration::from_secs(20),
        ..ServerConfig::default()
    });

    // Worker 1 blocks mid-read on a half-sent ping...
    let holder = std::thread::spawn(move || slow_ping(addr, Duration::from_millis(900)));
    std::thread::sleep(Duration::from_millis(300));

    // ...while worker 2 acks a shutdown request.
    shutdown(addr);

    // The in-flight ping must still be answered before serve() returns.
    assert_eq!(holder.join().expect("holder"), Some(RESP_PONG));
    let stats = handle.join().expect("join");
    assert_eq!(stats.served, 2);
}

#[test]
fn deadline_overrun_gets_typed_timeout_frame() {
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        deadline: Duration::from_millis(250),
        ..ServerConfig::default()
    });

    // Stall far past the deadline mid-payload; the server must answer
    // with a Timeout error frame rather than hanging or dropping.
    let kind = slow_ping(addr, Duration::from_millis(1200));
    assert_eq!(kind, Some(RESP_ERR_TIMEOUT));

    shutdown(addr);
    handle.join().expect("join");
}

#[test]
fn oversized_payload_gets_typed_too_large_frame() {
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        max_payload: 1024,
        ..ServerConfig::default()
    });

    let mut conn = Connection::open(addr).expect("open");
    match conn.ping(&vec![7u8; 4096]) {
        Err(ClientError::Server {
            kind: ServerErrorKind::TooLarge,
            ..
        }) => {}
        other => panic!("expected TooLarge frame, got {other:?}"),
    }
    // A small request on the same connection still succeeds afterwards.
    assert_eq!(conn.ping(b"ok").expect("ping"), b"ok");

    conn.shutdown().expect("shutdown");
    handle.join().expect("join");
}

#[test]
fn hostile_bytes_get_typed_malformed_frame() {
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });

    // Garbage that is not even a frame header. The framing is lost, so
    // the server answers once and closes without waiting for the peer
    // to half-close.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("write");
    assert_eq!(read_response_kind(&mut stream), Some(RESP_ERR_MALFORMED));

    // A well-framed payload that fails request decoding (bad codec tag).
    let mut stream = TcpStream::connect(addr).expect("connect");
    let frame = Frame::encode(0x01, 1, &[0xFF; 40]);
    stream.write_all(&frame).expect("write");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    assert_eq!(read_response_kind(&mut stream), Some(RESP_ERR_MALFORMED));

    shutdown(addr);
    handle.join().expect("join");
}

#[test]
fn pipelined_responses_match_request_ids_out_of_order() {
    let (addr, handle) = start(ServerConfig {
        threads: 2,
        max_inflight: 16,
        ..ServerConfig::default()
    });
    let field = generate(DatasetKind::Heat3d, SizeClass::Tiny).full;

    // One connection, many in-flight requests: a slow compress queued
    // first, then a burst of fast pings. The pongs complete (and are
    // written) before the compress does, so waiting on the compress
    // handle first forces wait() to stash out-of-order responses and
    // match them by request id.
    let mut conn = Connection::open(addr).expect("open");
    let slow = conn
        .send(&Request::Compress(compress_request(
            &field,
            ReducedModelKind::OneBase,
        )))
        .expect("send compress");
    let pings: Vec<_> = (0u8..8)
        .map(|i| {
            let echo = vec![i; 8];
            let handle = conn
                .send(&Request::Ping { echo: echo.clone() })
                .expect("send ping");
            (handle, echo)
        })
        .collect();

    match conn.wait(slow).expect("wait compress") {
        Response::Compressed { report, .. } => {
            assert_eq!(report.raw_bytes as usize, field.len() * 8);
        }
        other => panic!("expected Compressed, got {other:?}"),
    }
    // Collect the pongs in reverse submission order: every reply must
    // land on its own handle regardless of arrival order.
    for (ping, echo) in pings.into_iter().rev() {
        match conn.wait(ping).expect("wait ping") {
            Response::Pong { echo: got } => assert_eq!(got, echo),
            other => panic!("expected Pong, got {other:?}"),
        }
    }

    conn.shutdown().expect("shutdown");
    let stats = handle.join().expect("join");
    // 1 compress + 8 pings + 1 shutdown, all on one connection.
    assert_eq!(stats.served, 10);
    assert_eq!(stats.connections, 1);
}

#[test]
fn v1_header_gets_connection_level_malformed_frame() {
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });

    // A retired version-1 ping: 16-byte header, no request id.
    let mut v1 = MAGIC.to_vec();
    v1.extend_from_slice(&1u16.to_le_bytes());
    v1.extend_from_slice(&[REQ_PING, 0]);
    v1.extend_from_slice(&6u64.to_le_bytes());
    v1.extend_from_slice(b"legacy");
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&v1).expect("write v1 ping");
    // The header cannot be framed, so the reply carries request id 0
    // and the server closes the connection after it.
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("read to close");
    let frame = Frame::from_bytes(&bytes).expect("exactly one frame");
    assert_eq!(frame.kind, RESP_ERR_MALFORMED);
    assert_eq!(frame.request_id, 0);

    // The server keeps serving.
    let mut conn = Connection::open(addr).expect("open");
    assert_eq!(conn.ping(b"alive").expect("ping"), b"alive");
    conn.shutdown().expect("shutdown");
    handle.join().expect("join");
}

#[test]
fn over_max_connections_gets_busy_through_request_id_zero() {
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        max_connections: 1,
        ..ServerConfig::default()
    });

    // The ping round trip proves the first connection is registered.
    let mut held = Connection::open(addr).expect("open");
    assert_eq!(held.ping(b"first").expect("ping"), b"first");

    // The refusal is sent at accept time under request id 0; `wait`
    // hands it to the request being waited on.
    let mut refused = Connection::open(addr).expect("open");
    match refused.ping(b"second") {
        Err(ClientError::Server {
            kind: ServerErrorKind::Busy,
            ..
        }) => {}
        other => panic!("expected Busy frame, got {other:?}"),
    }

    held.shutdown().expect("shutdown");
    let stats = handle.join().expect("join");
    assert_eq!(stats.rejected_busy, 1);
    assert_eq!(stats.connections, 2);
}

#[test]
fn shutdown_drains_inflight_streaming_request() {
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        deadline: Duration::from_secs(20),
        ..ServerConfig::default()
    });
    let field = generate(DatasetKind::Heat3d, SizeClass::Tiny).full;
    let meta = CompressStreamMeta {
        model: ReducedModelKind::OneBase,
        orig: LossyCodec::SzRel(1e-5),
        delta: LossyCodec::SzRel(1e-3),
        scan_1d: true,
        chunks: 2,
        shape: field.shape,
    };
    let mut bytes = Vec::with_capacity(field.len() * 8);
    for v in &field.data {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    // Open a chunk stream and ship only part of the field...
    let id = 7u64;
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream
        .write_all(&Request::CompressStreamBegin(meta).to_frame(id))
        .expect("begin");
    let split = bytes.len() / 3;
    stream
        .write_all(
            &Request::StreamChunk {
                bytes: bytes[..split].to_vec(),
            }
            .to_frame(id),
        )
        .expect("first chunk");
    std::thread::sleep(Duration::from_millis(300));

    // ...let a shutdown land mid-stream...
    shutdown(addr);

    // ...then finish the upload. The drain must keep accepting the
    // stream's remaining frames and answer before serve() returns.
    stream
        .write_all(
            &Request::StreamChunk {
                bytes: bytes[split..].to_vec(),
            }
            .to_frame(id),
        )
        .expect("second chunk");
    stream
        .write_all(&Request::StreamEnd.to_frame(id))
        .expect("end");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("read to close");
    let frame = Frame::from_bytes(&reply).expect("one response frame");
    assert_eq!(frame.request_id, id);
    assert_eq!(frame.kind, RESP_COMPRESSED);

    let stats = handle.join().expect("join");
    // The streamed compress + the shutdown.
    assert_eq!(stats.served, 2);
}

#[test]
fn streamed_compress_matches_unary_artifact() {
    let (addr, handle) = start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let field = generate(DatasetKind::Heat3d, SizeClass::Tiny).full;
    let mut conn = Connection::open(addr).expect("open");

    let mut unary = compress_request(&field, ReducedModelKind::MultiBase(2));
    unary.chunks = 2;
    let (unary_report, unary_artifact) = conn.compress(unary).expect("unary compress");

    let meta = CompressStreamMeta {
        model: ReducedModelKind::MultiBase(2),
        orig: LossyCodec::SzRel(1e-5),
        delta: LossyCodec::SzRel(1e-3),
        scan_1d: true,
        chunks: 2,
        shape: field.shape,
    };
    let (streamed_report, streamed_artifact) = conn
        .compress_streamed(meta, &field.data, 4096)
        .expect("streamed compress");

    // Chunk streaming is a transport optimization: the artifact must be
    // byte-identical to the unary chunked path.
    assert_eq!(streamed_artifact, unary_artifact);
    assert_eq!(streamed_report.raw_bytes, unary_report.raw_bytes);
    assert_eq!(streamed_report.rep_bytes, unary_report.rep_bytes);
    assert_eq!(streamed_report.delta_bytes, unary_report.delta_bytes);

    // And a streamed decompress reconstructs it.
    let (shape, data) = conn
        .decompress_streamed(&streamed_artifact, 1024)
        .expect("streamed decompress");
    assert_eq!(shape, field.shape);
    assert_eq!(data.len(), field.len());

    conn.shutdown().expect("shutdown");
    handle.join().expect("join");
}

#[test]
fn pipeline_depth_overrun_gets_busy_and_connection_survives() {
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        max_inflight: 32,
        max_pipeline_depth: 2,
        ..ServerConfig::default()
    });
    let field = generate(DatasetKind::Heat3d, SizeClass::Tiny).full;

    let mut conn = Connection::open(addr).expect("open");
    // Two slow compresses fill the pipeline; the third request must get
    // a per-request Busy while the connection itself stays usable.
    let first = conn
        .send(&Request::Compress(compress_request(
            &field,
            ReducedModelKind::OneBase,
        )))
        .expect("send 1");
    let second = conn
        .send(&Request::Compress(compress_request(
            &field,
            ReducedModelKind::MultiBase(2),
        )))
        .expect("send 2");
    let third = conn.send(&Request::Ping { echo: vec![9] }).expect("send 3");
    match conn.wait(third) {
        Err(ClientError::Server {
            kind: ServerErrorKind::Busy,
            ..
        }) => {}
        other => panic!("expected Busy, got {other:?}"),
    }
    assert!(matches!(
        conn.wait(first).expect("wait 1"),
        Response::Compressed { .. }
    ));
    assert!(matches!(
        conn.wait(second).expect("wait 2"),
        Response::Compressed { .. }
    ));
    // The same connection accepts new requests after the Busy.
    assert_eq!(conn.ping(b"still here").expect("ping"), b"still here");

    conn.shutdown().expect("shutdown");
    let stats = handle.join().expect("join");
    assert!(stats.rejected_busy >= 1);
    assert_eq!(stats.connections, 1);
}
