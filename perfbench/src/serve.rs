//! The served workload, `serve-mixed`: an in-process `lrm-server` on
//! loopback with 2 workers, driven by a closed loop of 2 persistent
//! LRMP v2 connections with one request outstanding each.

use crate::layers::{self, Extra};
use crate::ops::{check, op_list, stream_rng, Inputs, Op, Workload, POOL};
use crate::pipe::{cold_probe, pipeline, SETUP_REPEATS};
use crate::replay;
use crate::report::{median, peak_rss_mb, percentile_ms, Report};
use crate::trace::Tracer;
use lrm_core::{
    default_candidates, LossyCodec, PipelineConfig, ReducedModelKind, SelectionOptions,
};
use lrm_datasets::Field;
use lrm_server::{
    ClientError, CompressRequest, Connection, Request, Response, SelectRequest, Server,
    ServerConfig, ServerErrorKind, ServerStats,
};
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const CONNECTIONS: u64 = 2;
const SERVER_THREADS: usize = 2;
/// Request mix: compress below the first share, decompress below the
/// second, model selection above it.
const COMPRESS_SHARE: f64 = 0.45;
const DECOMPRESS_SHARE: f64 = 0.90;

/// A compress/decompress template primed during set-up.
struct Template {
    op: Op,
    compress: Request,
    decompress: Request,
    artifact: Vec<u8>,
    restored: Vec<f64>,
}

/// A select template with the answer an in-process call gives.
struct Select {
    dataset: usize,
    snapshot: usize,
    request: Request,
    winner: ReducedModelKind,
    trials: usize,
}

struct State {
    inputs: Inputs,
    templates: Vec<Template>,
    selects: Vec<Select>,
    ratio: f64,
    worst: f64,
    addr: SocketAddr,
    server: JoinHandle<std::io::Result<ServerStats>>,
}

fn select_base() -> PipelineConfig {
    let (orig, delta) = lrm_core::sz_paper_bounds();
    PipelineConfig {
        orig,
        delta,
        ..PipelineConfig::sz(ReducedModelKind::Direct)
    }
}

fn select_in_process(field: &Field) -> Option<lrm_core::SelectionOutcome> {
    lrm_core::select_best_model_with(
        field,
        &default_candidates(),
        &select_base(),
        &SelectionOptions::default(),
    )
}

/// Generates the inputs, primes every artifact and expected answer, and
/// starts the server. `probe` runs after input generation and before
/// the first codec call.
fn setup(seed: u64, report: &mut Report, probe: impl FnOnce(&Inputs)) -> std::io::Result<State> {
    let w = Workload::ServeMixed;
    let inputs = Inputs::generate(w);
    probe(&inputs);
    let ops = op_list(w, &inputs, seed);
    let (mut raw, mut stored, mut worst) = (0usize, 0usize, 0.0f64);
    let mut templates = Vec::new();
    for op in ops.iter().flat_map(|op| (0..POOL).map(|p| op.at_pass(p))) {
        let field = inputs.field(&op);
        let pipe = pipeline(w, &op);
        let primed = catch_unwind(AssertUnwindSafe(|| {
            let art = pipe.compress(field);
            let (restored, shape) = pipe.reconstruct(&art.bytes).map_err(|e| e.to_string())?;
            check(&op, field, &restored, shape).map(|err| (art.bytes, restored, err))
        }))
        .unwrap_or_else(|_| Err("priming panicked".to_owned()));
        report.attempted += 1;
        let (artifact, restored, err) = match primed {
            Ok(p) => p,
            Err(why) => {
                report.failed += 1;
                report.note(format!("FAILED priming {op:?}: {why}"));
                continue;
            }
        };
        raw += field.nbytes();
        stored += artifact.len();
        worst = worst.max(err);
        let cfg = pipe.config();
        templates.push(Template {
            op,
            compress: Request::Compress(CompressRequest {
                model: cfg.model,
                orig: cfg.orig,
                delta: cfg.delta,
                scan_1d: false,
                chunks: 1,
                shape: field.shape,
                data: field.data.clone(),
            }),
            decompress: Request::Decompress {
                artifact: artifact.clone(),
            },
            artifact,
            restored,
        });
    }
    let mut selects = Vec::new();
    for (dataset, snapshot) in (0..inputs.fields.len()).flat_map(|d| (0..POOL).map(move |p| (d, p)))
    {
        let field = &inputs.fields[dataset].1[snapshot];
        report.attempted += 1;
        let Some(outcome) = select_in_process(field) else {
            report.failed += 1;
            report.note(format!("FAILED select priming on {}", field.name));
            continue;
        };
        let base = select_base();
        selects.push(Select {
            dataset,
            snapshot,
            request: Request::SelectModel(SelectRequest {
                exhaustive: false,
                orig: base.orig,
                delta: base.delta,
                shape: field.shape,
                data: field.data.clone(),
            }),
            winner: outcome.winner,
            trials: outcome.results.len(),
        });
    }
    let config = ServerConfig {
        threads: SERVER_THREADS,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config)?;
    let addr = server.local_addr()?;
    let server = std::thread::spawn(move || server.serve());
    Connection::open(addr)
        .and_then(|mut c| c.ping(b"ready"))
        .map_err(std::io::Error::other)?;
    Ok(State {
        inputs,
        templates,
        selects,
        ratio: raw as f64 / stored.max(1) as f64,
        worst,
        addr,
        server,
    })
}

fn stop(state: State) -> std::io::Result<ServerStats> {
    Connection::open(state.addr)
        .and_then(|mut c| c.shutdown())
        .map_err(std::io::Error::other)?;
    state
        .server
        .join()
        .map_err(|_| std::io::Error::other("server thread panicked"))?
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Compress = 0,
    Decompress = 1,
    Select = 2,
}

/// One answered request of the timed loop.
#[derive(Clone, Copy)]
struct Sample {
    kind: Kind,
    rt: Duration,
    raw: usize,
}

/// What one client thread saw.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    samples: Vec<Sample>,
    extra: Extra,
}

/// The request a client thread sends: its kind and template index.
fn pick(rng: &mut lrm_rng::Rng64, state: &State) -> (Kind, usize) {
    let u = rng.next_f64();
    if u < COMPRESS_SHARE {
        (Kind::Compress, rng.range_usize(state.templates.len()))
    } else if u < DECOMPRESS_SHARE {
        (Kind::Decompress, rng.range_usize(state.templates.len()))
    } else {
        (Kind::Select, rng.range_usize(state.selects.len()))
    }
}

fn verify(state: &State, kind: Kind, i: usize, response: Response) -> Result<(), String> {
    match (kind, response) {
        (Kind::Compress, Response::Compressed { artifact, .. }) => (artifact
            == state.templates[i].artifact)
            .then_some(())
            .ok_or_else(|| "served artifact differs from the in-process one".to_owned()),
        (Kind::Decompress, Response::Decompressed { shape, data }) => {
            let t = &state.templates[i];
            let ok = shape == state.inputs.field(&t.op).shape
                && data.len() == t.restored.len()
                && data
                    .iter()
                    .zip(&t.restored)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            ok.then_some(())
                .ok_or_else(|| "served reconstruction differs from the in-process one".to_owned())
        }
        (Kind::Select, Response::Selected(reply)) => {
            let s = &state.selects[i];
            (reply.winner == s.winner && reply.trials.len() == s.trials)
                .then_some(())
                .ok_or_else(|| "served selection differs from the in-process one".to_owned())
        }
        (_, other) => Err(format!("unexpected response kind 0x{:02X}", other.kind())),
    }
}

/// What a request asked for, for failure notes.
fn describe(state: &State, kind: Kind, i: usize) -> String {
    match kind {
        Kind::Compress => format!("compress {:?}", state.templates[i].op),
        Kind::Decompress => format!("decompress {:?}", state.templates[i].op),
        Kind::Select => format!("select on dataset {}", state.selects[i].dataset),
    }
}

/// One closed-loop client: sends a request, waits for its response,
/// checks it, and repeats until `until`. With a tracer it also times
/// the protocol codec and replays each request in process.
fn drive(
    state: &State,
    seed: u64,
    conn: u64,
    warmup: bool,
    until: Instant,
    tracer: Option<&Tracer>,
) -> Tally {
    let mut tally = Tally::default();
    let mut connection = match Connection::open(state.addr) {
        Ok(s) => s,
        Err(e) => {
            tally.attempted += 1;
            tally.failed += 1;
            tally.notes.push(format!("FAILED connect: {e}"));
            return tally;
        }
    };
    let mut rng = stream_rng(Workload::ServeMixed, seed, 1000 + conn);
    // Warm-up sends this connection's share of every template once.
    let warm: Vec<(Kind, usize)> = if warmup {
        let t = (0..state.templates.len()).map(|i| (Kind::Compress, i));
        let s = (0..state.selects.len()).map(|i| (Kind::Select, i));
        t.chain(s)
            .filter(|(_, i)| *i as u64 % CONNECTIONS == conn)
            .collect()
    } else {
        Vec::new()
    };
    let mut warm = warm.into_iter();
    let mut next_op = conn << 40;
    loop {
        let (kind, i) = match warm.next() {
            Some(w) => w,
            None if warmup || Instant::now() >= until => break,
            None => pick(&mut rng, state),
        };
        let request = match kind {
            Kind::Compress => &state.templates[i].compress,
            Kind::Decompress => &state.templates[i].decompress,
            Kind::Select => &state.selects[i].request,
        };
        tally.attempted += 1;
        let t = Instant::now();
        let result = connection.call(request);
        let rt = t.elapsed();
        let response = match result {
            Ok(r) => r,
            Err(e) => {
                tally.failed += 1;
                if let ClientError::Server { kind, .. } = &e {
                    match kind {
                        ServerErrorKind::Busy => tally.extra.serve.busy += 1.0,
                        ServerErrorKind::Timeout => tally.extra.serve.timeouts += 1.0,
                        _ => tally.extra.serve.errors += 1.0,
                    }
                }
                tally.notes.push(format!("FAILED request: {e}"));
                if matches!(e, ClientError::Io(_)) {
                    return tally;
                }
                continue;
            }
        };
        if let Some(tracer) = tracer {
            next_op += 1;
            trace_request(
                state, tracer, next_op, kind, i, request, &response, rt, &mut tally,
            );
        }
        if let Err(why) = verify(state, kind, i, response) {
            tally.failed += 1;
            tally.notes.push(format!(
                "FAILED request {}: {why}",
                describe(state, kind, i)
            ));
            continue;
        }
        if warmup {
            continue;
        }
        let raw = match kind {
            Kind::Select => 0,
            _ => state.inputs.field(&state.templates[i].op).nbytes(),
        };
        tally.samples.push(Sample { kind, rt, raw });
    }
    tally
}

/// Times the protocol codec on this request and response, then replays
/// the request in process, untraced and traced, and checks the traced
/// replay rebuilt the same bytes.
#[allow(clippy::too_many_arguments)]
fn trace_request(
    state: &State,
    tracer: &Tracer,
    op: u64,
    kind: Kind,
    i: usize,
    request: &Request,
    response: &Response,
    rt: Duration,
    tally: &mut Tally,
) {
    let t = Instant::now();
    std::hint::black_box(request.encode_payload());
    tally.extra.serve.protocol_encode_s += t.elapsed().as_secs_f64();
    let payload = response.encode_payload();
    let t = Instant::now();
    let decoded = Response::decode(response.kind(), &payload);
    tally.extra.serve.protocol_decode_s += t.elapsed().as_secs_f64();
    if decoded.as_ref() != Ok(response) {
        tally.extra.mismatches += 1;
    }

    let untraced;
    let matches = match kind {
        Kind::Select => {
            let s = &state.selects[i];
            let field = &state.inputs.fields[s.dataset].1[s.snapshot];
            let t = Instant::now();
            std::hint::black_box(select_in_process(field));
            untraced = t.elapsed();
            let outcome = tracer
                .root(op)
                .span("selection.select", |_| select_in_process(field));
            tracer.count(
                "selection.trials",
                outcome.as_ref().map_or(0, |o| o.results.len()) as f64,
            );
            outcome.is_some_and(|o| o.winner == s.winner)
        }
        Kind::Compress | Kind::Decompress => {
            let tpl = &state.templates[i];
            let field = state.inputs.field(&tpl.op);
            let pipe = pipeline(Workload::ServeMixed, &tpl.op);
            let t = Instant::now();
            if matches!(kind, Kind::Compress) {
                std::hint::black_box(pipe.compress(field));
            } else {
                std::hint::black_box(pipe.reconstruct(&tpl.artifact).ok());
            }
            untraced = t.elapsed();
            if matches!(kind, Kind::Compress) {
                replay::compress(tracer.root(op), &pipe, field, &tpl.artifact)
                    .is_ok_and(|r| r.bytes == tpl.artifact)
            } else {
                replay::reconstruct(tracer.root(op), &pipe, &tpl.artifact, field.shape).is_ok_and(
                    |r| {
                        r.iter()
                            .zip(&tpl.restored)
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                    },
                )
            }
        }
    };
    if !matches {
        tally.extra.mismatches += 1;
        tally.failed += 1;
        tally
            .notes
            .push("FAILED traced replay differs from the served answer".to_owned());
    }
    tally.extra.untraced.insert(op, untraced);
    tally.extra.serve.overhead_s += rt.as_secs_f64() - untraced.as_secs_f64();
}

/// Runs the connections' client threads side by side until `until`.
fn drive_all(
    state: &State,
    seed: u64,
    warmup: bool,
    until: Instant,
    tracer: Option<&Tracer>,
) -> Vec<Tally> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| s.spawn(move || drive(state, seed, c, warmup, until, tracer)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| Tally {
                    attempted: 1,
                    failed: 1,
                    notes: vec!["FAILED client thread panicked".to_owned()],
                    ..Tally::default()
                })
            })
            .collect()
    })
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let mut extra = Extra::default();
    let mut setup_times = Vec::new();
    let mut state = None;
    let mut stop_failures = Report::default();
    for _ in 0..if trace { 1 } else { SETUP_REPEATS } {
        if let Some(old) = state.take() {
            if let Err(e) = stop(old) {
                stop_failures.attempted += 1;
                stop_failures.failed += 1;
                stop_failures.note(format!("FAILED stopping a set-up server: {e}"));
            }
        }
        // Only the last set-up's priming counts toward attempted ops.
        let mut scratch = Report::default();
        let t = Instant::now();
        let made = setup(seed, &mut scratch, |inputs| {
            extra.generate_s = t.elapsed().as_secs_f64();
            if trace {
                let probe = &inputs.fields[4].1[0];
                let (sz, _) = lrm_core::sz_paper_bounds();
                let (zfp, _) = lrm_core::zfp_paper_bounds();
                cold_probe(&[sz, zfp, LossyCodec::FpcLossless(20)], probe, &mut extra);
            }
        });
        setup_times.push(t.elapsed().as_secs_f64());
        match made {
            Ok(s) => {
                report.attempted = scratch.attempted + stop_failures.attempted;
                report.failed = scratch.failed + stop_failures.failed;
                report.notes = [&stop_failures.notes[..], &scratch.notes[..]].concat();
                state = Some(s);
            }
            Err(e) => {
                report.attempted += 1;
                report.failed += 1;
                report.note(format!("FAILED set-up: {e}"));
                report.print();
                std::process::exit(1);
            }
        }
    }
    let state = state.expect("at least one set-up");

    let tracer = Tracer::new();
    let mut tallies = drive_all(&state, seed, true, Instant::now(), None);
    let start = Instant::now();
    let timed = drive_all(
        &state,
        seed,
        false,
        start + Duration::from_secs_f64(seconds),
        trace.then_some(&tracer),
    );
    let wall = start.elapsed().as_secs_f64();
    let (ratio, worst) = (state.ratio, state.worst);
    match stop(state) {
        Ok(stats) => extra.serve.busy += stats.rejected_busy as f64,
        Err(e) => {
            report.failed += 1;
            report.note(format!("FAILED server shutdown: {e}"));
        }
    }

    let samples: Vec<Sample> = timed
        .iter()
        .flat_map(|t| t.samples.iter().copied())
        .collect();
    tallies.extend(timed);
    for t in tallies {
        report.attempted += t.attempted;
        report.failed += t.failed;
        report.notes.extend(t.notes);
        let s = t.extra.serve;
        extra.serve.protocol_encode_s += s.protocol_encode_s;
        extra.serve.protocol_decode_s += s.protocol_decode_s;
        extra.serve.overhead_s += s.overhead_s;
        extra.serve.timeouts += s.timeouts;
        extra.serve.errors += s.errors;
        extra.serve.busy += s.busy;
        extra.mismatches += t.extra.mismatches;
        extra.untraced.extend(t.extra.untraced);
    }
    let of_kind = |v: &[Sample], k: Kind| -> Vec<Duration> {
        v.iter().filter(|s| s.kind == k).map(|s| s.rt).collect()
    };
    let by_kind: Vec<Vec<Duration>> = [Kind::Compress, Kind::Decompress, Kind::Select]
        .iter()
        .map(|&k| of_kind(&samples, k))
        .collect();
    report.note(format!(
        "{} timed requests in {wall:.2} s: {} compress, {} decompress, {} select \
         (percentiles over these)",
        samples.len(),
        by_kind[0].len(),
        by_kind[1].len(),
        by_kind[2].len()
    ));
    if trace {
        for (p50, rts) in extra.serve.roundtrip_p50_ms.iter_mut().zip(&by_kind) {
            *p50 = percentile_ms(rts, 0.5);
        }
        let (spans, counters) = tracer.finish();
        layers::put(&mut report, &spans, &counters, &extra);
    } else {
        let all: Vec<Duration> = samples.iter().map(|s| s.rt).collect();
        let rate = |k: Kind| {
            let raw: usize = samples.iter().filter(|s| s.kind == k).map(|s| s.raw).sum();
            raw as f64 / by_kind[k as usize].iter().sum::<Duration>().as_secs_f64() / 1e6
        };
        report.put("setup_s", "s", median(&setup_times));
        report.put("compress_mbps", "MB/s", rate(Kind::Compress));
        report.put("reconstruct_mbps", "MB/s", rate(Kind::Decompress));
        report.put("compress_p50_ms", "ms", percentile_ms(&by_kind[0], 0.5));
        report.put("compress_p90_ms", "ms", percentile_ms(&by_kind[0], 0.9));
        report.put("serve_rps", "req/s", samples.len() as f64 / wall);
        report.put("serve_p50_ms", "ms", percentile_ms(&all, 0.5));
        report.put("serve_p99_ms", "ms", percentile_ms(&all, 0.99));
        report.put("ratio", "x", ratio);
        report.put("max_err_rel", "1", worst);
        report.put("peak_rss_mb", "MB", peak_rss_mb());
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(report: &Report, name: &str) -> f64 {
        report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .expect(name)
    }

    #[test]
    fn served_answers_check_out_and_quality_repeats_for_a_seed() {
        let a = run(7, 0.3, false);
        let b = run(7, 0.3, false);
        assert_eq!((a.failed, b.failed), (0, 0), "{:?}", a.notes);
        for name in ["ratio", "max_err_rel"] {
            assert_eq!(
                metric(&a, name).to_bits(),
                metric(&b, name).to_bits(),
                "{name}"
            );
        }
    }

    #[test]
    fn traced_serve_run_reaches_fpc_and_selection() {
        let r = run(7, 0.3, true);
        assert_eq!(r.failed, 0, "{:?}", r.notes);
        assert!(metric(&r, "compress.fpc_encode_calls") > 0.0);
        assert!(metric(&r, "selection.trials") > 0.0);
        assert_eq!(metric(&r, "trace.replay_mismatches"), 0.0);
    }
}
