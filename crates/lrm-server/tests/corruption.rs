//! Corruption-robustness harness for the wire protocol, mirroring the
//! `lrm-compress`/`lrm-io` harnesses: every strict prefix of a valid
//! frame must be rejected with a typed `DecodeError`, and ≥ 1000
//! deterministically byte-flipped frames fed to the frame and
//! request/response decoders must never panic. The static side of the
//! same contract is enforced by `lrm-lint` on
//! `crates/lrm-server/src/protocol.rs`.

use lrm_core::{LossyCodec, ReducedModelKind};
use lrm_rng::Rng64;
use lrm_server::protocol::{
    CompressRequest, CompressStreamMeta, FieldStatsReply, Frame, Request, Response, SelectReply,
    SelectRequest, ServerErrorKind, TrialReport, WireReport,
};
use lrm_server::Shape;

const FLIP_TRIALS: usize = 1200;
const GARBAGE_TRIALS: usize = 500;

fn sample_requests(rng: &mut Rng64) -> Vec<Request> {
    let shape = Shape::d3(6, 5, 4);
    let data: Vec<f64> = (0..shape.len()).map(|i| (i as f64 * 0.11).sin()).collect();
    vec![
        Request::Ping {
            echo: rng.vec_u8(24),
        },
        Request::Compress(CompressRequest {
            model: ReducedModelKind::MultiBase(2),
            orig: LossyCodec::SzRel(1e-5),
            delta: LossyCodec::SzRel(1e-3),
            scan_1d: true,
            chunks: 2,
            shape,
            data: data.clone(),
        }),
        Request::Decompress {
            artifact: rng.vec_u8(200),
        },
        Request::FieldStats {
            shape: Shape::d2(10, 6),
            data: (0..60).map(|i| (i as f64 * 0.3).cos()).collect(),
        },
        Request::SelectModel(SelectRequest {
            exhaustive: false,
            orig: LossyCodec::ZfpPrecision(16),
            delta: LossyCodec::ZfpPrecision(8),
            shape,
            data,
        }),
        Request::Shutdown,
        // The chunk-streaming kinds.
        Request::CompressStreamBegin(CompressStreamMeta {
            model: ReducedModelKind::OneBase,
            orig: LossyCodec::SzRel(1e-5),
            delta: LossyCodec::SzRel(1e-3),
            scan_1d: false,
            chunks: 3,
            shape,
        }),
        Request::StreamChunk {
            bytes: rng.vec_u8(96),
        },
        Request::StreamEnd,
        Request::DecompressStreamBegin,
    ]
}

fn sample_responses(rng: &mut Rng64) -> Vec<Response> {
    vec![
        Response::Pong {
            echo: rng.vec_u8(16),
        },
        Response::Compressed {
            report: WireReport {
                raw_bytes: 960,
                rep_bytes: 64,
                delta_bytes: 200,
            },
            artifact: rng.vec_u8(264),
        },
        Response::Decompressed {
            shape: Shape::d1(40),
            data: (0..40).map(|i| i as f64 * 0.5).collect(),
        },
        Response::Stats(FieldStatsReply {
            count: 40,
            min: -2.0,
            max: 3.0,
            mean: 0.25,
            variance: 1.5,
            byte_entropy: 4.2,
        }),
        Response::Selected(SelectReply {
            winner: ReducedModelKind::Svd,
            sampled: true,
            trials: vec![
                TrialReport {
                    model: ReducedModelKind::Svd,
                    raw_bytes: 960,
                    total_bytes: 120,
                },
                TrialReport {
                    model: ReducedModelKind::Direct,
                    raw_bytes: 960,
                    total_bytes: 400,
                },
            ],
        }),
        Response::ShutdownAck,
        Response::Error {
            kind: ServerErrorKind::Timeout,
            message: "deadline elapsed".into(),
        },
    ]
}

fn flip_bytes(rng: &mut Rng64, stream: &mut [u8]) {
    if stream.is_empty() {
        return;
    }
    for _ in 0..1 + rng.range_usize(4) {
        let at = rng.range_usize(stream.len());
        let mask = 1 + rng.range_usize(255) as u8;
        stream[at] ^= mask;
    }
}

/// Decodes a mutated frame all the way through: framing first, then the
/// request and response payload decoders (both must tolerate the bytes).
fn decode_fully(bytes: &[u8]) {
    if let Ok(frame) = Frame::from_bytes(bytes) {
        let _ = Request::decode(frame.kind, &frame.payload);
        let _ = Response::decode(frame.kind, &frame.payload);
    }
}

#[test]
fn frame_prefix_truncation_is_always_an_error() {
    let mut rng = Rng64::new(21);
    for req in sample_requests(&mut rng) {
        let bytes = req.to_frame(0x1122_3344_5566_7788);
        for cut in 0..bytes.len() {
            assert!(
                Frame::from_bytes(&bytes[..cut]).is_err(),
                "{:?}: frame prefix of {cut}/{} bytes decoded Ok",
                req.kind(),
                bytes.len()
            );
        }
        assert!(Frame::from_bytes(&bytes).is_ok());
    }
    for resp in sample_responses(&mut rng) {
        let bytes = resp.to_frame(u64::MAX);
        for cut in 0..bytes.len() {
            assert!(
                Frame::from_bytes(&bytes[..cut]).is_err(),
                "{:?}: frame prefix of {cut}/{} bytes decoded Ok",
                resp.kind(),
                bytes.len()
            );
        }
        assert!(Frame::from_bytes(&bytes).is_ok());
    }
}

#[test]
fn payload_prefix_truncation_never_panics_and_structured_kinds_error() {
    // Truncating the payload *with a consistent header length* exercises
    // the payload decoders rather than the frame length check.
    let mut rng = Rng64::new(22);
    for req in sample_requests(&mut rng) {
        let payload = req.encode_payload();
        for cut in 0..payload.len() {
            let result = Request::decode(req.kind(), &payload[..cut]);
            // Ping/Decompress/StreamChunk accept any byte tail by
            // design; the structured kinds must reject every strict
            // prefix.
            if !matches!(
                req,
                Request::Ping { .. } | Request::Decompress { .. } | Request::StreamChunk { .. }
            ) {
                assert!(
                    result.is_err(),
                    "kind {:#04x}: payload prefix {cut}/{} decoded Ok",
                    req.kind(),
                    payload.len()
                );
            }
        }
    }
}

#[test]
fn request_byte_flips_never_panic() {
    let mut rng = Rng64::new(23);
    let frames: Vec<Vec<u8>> = sample_requests(&mut rng)
        .iter()
        .map(|r| r.to_frame(rng.next_u64()))
        .collect();
    let mut trials = 0;
    while trials < FLIP_TRIALS {
        for bytes in &frames {
            let mut mutated = bytes.clone();
            flip_bytes(&mut rng, &mut mutated);
            decode_fully(&mutated);
            trials += 1;
        }
    }
}

#[test]
fn response_byte_flips_never_panic() {
    let mut rng = Rng64::new(24);
    let frames: Vec<Vec<u8>> = sample_responses(&mut rng)
        .iter()
        .map(|r| r.to_frame(rng.next_u64()))
        .collect();
    let mut trials = 0;
    while trials < FLIP_TRIALS {
        for bytes in &frames {
            let mut mutated = bytes.clone();
            flip_bytes(&mut rng, &mut mutated);
            decode_fully(&mutated);
            trials += 1;
        }
    }
}

#[test]
fn garbage_streams_never_panic() {
    let mut rng = Rng64::new(25);
    for _ in 0..GARBAGE_TRIALS {
        let len = rng.range_usize(256);
        decode_fully(&rng.vec_u8(len));
    }
    // Valid magic + garbage tail: the worst case for the header parser.
    for _ in 0..GARBAGE_TRIALS {
        let len = rng.range_usize(256);
        let mut stream = b"LRMP".to_vec();
        stream.extend(rng.vec_u8(len));
        decode_fully(&stream);
    }
    // Valid header claiming a huge payload over a short buffer.
    let mut huge = Frame::encode(0x06, u64::MAX, &[]);
    huge[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(Frame::from_bytes(&huge).is_err());
}
