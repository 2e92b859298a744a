//! `lrm-cli serve` / `lrm-cli client` — the serving-layer front end.
//!
//! `serve` runs the `lrm-server` event loop in the foreground
//! (announcing `listening on <addr>` so scripts can poll readiness);
//! `client` drives requests against a running server over one
//! persistent [`Connection`]: ping, compress a generated dataset,
//! decompress an artifact file, field statistics, model selection, a
//! compress→decompress `roundtrip` with an error gate, a `pipeline`
//! check that keeps many requests in flight on one socket and matches
//! responses by request id (the CI server-smoke check), and shutdown.

use std::time::Duration;

use lrm_core::ReducedModelKind;
use lrm_datasets::{generate, DatasetKind, Field, SizeClass};
use lrm_server::{
    CompressRequest, Connection, Request, Response, SelectRequest, Server, ServerConfig,
};

fn parse_size(s: &str) -> Option<SizeClass> {
    match s {
        "tiny" => Some(SizeClass::Tiny),
        "small" => Some(SizeClass::Small),
        "paper" => Some(SizeClass::Paper),
        _ => None,
    }
}

/// Parses a model name as the CLI spells it: `direct`, `one-base`,
/// `multi-base:N`, `pca`, `svd`, `wavelet`, `pca-blocked:N`,
/// `svd-blocked:N`.
fn parse_model(s: &str) -> Option<ReducedModelKind> {
    let (name, param) = match s.split_once(':') {
        Some((n, p)) => (n, p.parse::<usize>().ok()?.max(1)),
        None => (s, 0),
    };
    match name {
        "direct" | "original" => Some(ReducedModelKind::Direct),
        "one-base" => Some(ReducedModelKind::OneBase),
        "multi-base" => Some(ReducedModelKind::MultiBase(param.max(2))),
        "pca" => Some(ReducedModelKind::Pca),
        "svd" => Some(ReducedModelKind::Svd),
        "wavelet" => Some(ReducedModelKind::Wavelet),
        "pca-blocked" => Some(ReducedModelKind::PcaBlocked(param.max(2))),
        "svd-blocked" => Some(ReducedModelKind::SvdBlocked(param.max(2))),
        _ => None,
    }
}

/// Flag map over `--key value` pairs plus boolean switches, checked
/// against the subcommand's usage line: `[--key]` there is a switch,
/// `[--key N]` a count, `[--key X]` a number, and `[--key WORD]` any
/// value.
struct Flags {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    /// Rejects, naming the flag, a key `usage` does not list, a key with
    /// no value, and a count or number that does not parse; any other
    /// argument is unexpected.
    fn parse(args: &[String], usage: &str) -> Result<Flags, String> {
        let mut flags = Flags {
            pairs: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if !a.starts_with("--") {
                return Err(format!("unexpected argument {a:?}"));
            } else if usage.contains(&format!("[{a}]")) {
                flags.switches.push(a.clone());
            } else if let Some((_, tail)) = usage.split_once(&format!("[{a} ")) {
                let placeholder = tail.split([' ', ']']).next().unwrap_or("");
                let value = it
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or(format!("{a} needs a value"))?;
                let parses = match placeholder {
                    "N" => value.parse::<usize>().is_ok(),
                    "X" => value.parse::<f64>().is_ok(),
                    _ => true,
                };
                if !parses {
                    return Err(format!("{a} needs a number, got {value:?}"));
                }
                flags.pairs.push((a[2..].to_string(), value.clone()));
            } else {
                return Err(format!("unknown flag {a}"));
            }
        }
        Ok(flags)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    fn usize_or(&self, key: &str, default: usize) -> usize {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

fn fail(msg: &str) -> i32 {
    eprintln!("{msg}");
    2
}

const SERVE_USAGE: &str = "lrm-cli serve [--addr HOST:PORT] [--threads N] [--max-inflight N] \
                           [--max-payload-mb N] [--deadline-secs N] [--chunks N] \
                           [--max-connections N] [--max-pipeline-depth N]";

/// `lrm-cli serve`: bind, announce, serve until a Shutdown request.
pub fn run_serve(args: &[String]) -> i32 {
    let flags = match Flags::parse(args, SERVE_USAGE) {
        Ok(f) => f,
        Err(e) => return fail(&format!("serve: {e}\n{SERVE_USAGE}")),
    };
    let config = ServerConfig {
        threads: flags.usize_or("threads", 0),
        max_inflight: flags.usize_or("max-inflight", 32).max(1),
        max_payload: flags.usize_or("max-payload-mb", 256).max(1) << 20,
        deadline: Duration::from_secs(flags.usize_or("deadline-secs", 30).max(1) as u64),
        default_chunks: flags.usize_or("chunks", 1).max(1),
        max_connections: flags.usize_or("max-connections", 1024).max(1),
        max_pipeline_depth: flags.usize_or("max-pipeline-depth", 64).max(1),
    };
    let addr = flags.get("addr").unwrap_or("127.0.0.1:7421");
    let server = match Server::bind(addr, config) {
        Ok(s) => s,
        Err(e) => return fail(&format!("serve: cannot bind: {e}")),
    };
    match server.local_addr() {
        Ok(a) => println!("lrm-server listening on {a}"),
        Err(e) => return fail(&format!("serve: no local address: {e}")),
    }
    match server.serve() {
        Ok(stats) => {
            println!(
                "lrm-server drained and stopped: {} served, {} rejected busy, {} connections",
                stats.served, stats.rejected_busy, stats.connections
            );
            0
        }
        Err(e) => fail(&format!("serve: {e}")),
    }
}

const CLIENT_USAGE: &str =
    "lrm-cli client <ping|compress|decompress|stats|select|roundtrip|pipeline|shutdown> \
                            [--addr HOST:PORT] [--dataset NAME] [--size tiny|small|paper] \
                            [--model NAME[:N]] [--scan-1d] [--chunks N] [--exhaustive] \
                            [--out FILE] [--in FILE] [--max-err X] [--requests N]";

fn dataset_field(flags: &Flags) -> Result<Field, String> {
    let name = flags.get("dataset").ok_or("missing --dataset")?;
    let kind = DatasetKind::parse(name).ok_or_else(|| format!("unknown dataset {name:?}"))?;
    let size = match flags.get("size") {
        Some(s) => parse_size(s).ok_or_else(|| format!("unknown size {s:?}"))?,
        None => SizeClass::Tiny,
    };
    Ok(generate(kind, size).full)
}

/// Opens the one persistent session every client subcommand runs over.
fn connect(flags: &Flags) -> Result<(Connection, String), String> {
    let addr = flags.get("addr").unwrap_or("127.0.0.1:7421").to_string();
    let conn = Connection::open(addr.as_str()).map_err(|e| format!("cannot reach {addr}: {e}"))?;
    Ok((conn, addr))
}

fn compress_request_from(flags: &Flags, field: &Field) -> Result<CompressRequest, String> {
    let model = match flags.get("model") {
        Some(m) => parse_model(m).ok_or_else(|| format!("unknown model {m:?}"))?,
        None => ReducedModelKind::OneBase,
    };
    let (orig, delta) = lrm_core::sz_paper_bounds();
    Ok(CompressRequest {
        model,
        orig,
        delta,
        scan_1d: flags.has("--scan-1d"),
        chunks: flags.usize_or("chunks", 0).min(u16::MAX as usize) as u16,
        shape: field.shape,
        data: field.data.clone(),
    })
}

/// `lrm-cli client <command>`: one session, human-readable result.
pub fn run_client(args: &[String]) -> i32 {
    let Some(command) = args.first().map(String::as_str) else {
        return fail(CLIENT_USAGE);
    };
    let flags = match Flags::parse(&args[1..], CLIENT_USAGE) {
        Ok(f) => f,
        Err(e) => return fail(&format!("client: {e}\n{CLIENT_USAGE}")),
    };
    let (mut conn, addr) = match connect(&flags) {
        Ok(c) => c,
        Err(e) => return fail(&format!("client: {e}")),
    };
    let outcome = match command {
        "ping" => conn.ping(b"lrm").map(|echo| {
            println!("pong ({} bytes echoed) from {addr}", echo.len());
        }),
        "compress" => dataset_field(&flags)
            .map_err(|e| fail_now(&e))
            .and_then(|field| {
                let req = compress_request_from(&flags, &field).map_err(|e| fail_now(&e))?;
                let model = req.model;
                conn.compress(req).map(|(report, artifact)| {
                    println!(
                        "{} via {}: {} -> {} bytes (ratio {:.2}x)",
                        field.name,
                        model.name(),
                        report.raw_bytes,
                        report.rep_bytes + report.delta_bytes,
                        report.ratio()
                    );
                    if let Some(path) = flags.get("out") {
                        match std::fs::write(path, &artifact) {
                            Ok(()) => println!("artifact written to {path}"),
                            Err(e) => eprintln!("cannot write {path}: {e}"),
                        }
                    }
                })
            }),
        "decompress" => {
            let Some(path) = flags.get("in") else {
                return fail("decompress: missing --in FILE");
            };
            match std::fs::read(path) {
                Ok(bytes) => conn.decompress(&bytes).map(|(shape, data)| {
                    println!(
                        "reconstructed {} values, shape {:?}, from {path}",
                        data.len(),
                        shape.dims
                    );
                }),
                Err(e) => return fail(&format!("cannot read {path}: {e}")),
            }
        }
        "stats" => dataset_field(&flags)
            .map_err(|e| fail_now(&e))
            .and_then(|field| {
                conn.field_stats(field.shape, &field.data).map(|s| {
                    println!(
                        "{}: count {} min {:.6} max {:.6} mean {:.6} variance {:.6e} \
                         byte-entropy {:.3}",
                        field.name, s.count, s.min, s.max, s.mean, s.variance, s.byte_entropy
                    );
                })
            }),
        "select" => dataset_field(&flags)
            .map_err(|e| fail_now(&e))
            .and_then(|field| {
                let (orig, delta) = lrm_core::sz_paper_bounds();
                conn.select_model(SelectRequest {
                    exhaustive: flags.has("--exhaustive"),
                    orig,
                    delta,
                    shape: field.shape,
                    data: field.data.clone(),
                })
                .map(|reply| {
                    println!(
                        "{}: winner {} ({}; {} trials)",
                        field.name,
                        reply.winner.name(),
                        if reply.sampled {
                            "strided sample"
                        } else {
                            "full field"
                        },
                        reply.trials.len()
                    );
                    for t in &reply.trials {
                        println!(
                            "  {:<16} {:>10} -> {:>8} bytes (ratio {:.2}x)",
                            t.model.name(),
                            t.raw_bytes,
                            t.total_bytes,
                            t.ratio()
                        );
                    }
                })
            }),
        "roundtrip" => return run_roundtrip(&mut conn, &flags),
        "pipeline" => return run_pipeline(&mut conn, &flags),
        "shutdown" => conn.shutdown().map(|()| {
            println!("server at {addr} acknowledged shutdown");
        }),
        other => {
            return fail(&format!(
                "client: unknown command {other:?}\n{CLIENT_USAGE}"
            ))
        }
    };
    match outcome {
        Ok(()) => 0,
        Err(e) => fail(&format!("client {command}: {e}")),
    }
}

/// Maps a usage error onto the client-call error type so the two error
/// paths share one exit; prints immediately.
fn fail_now(msg: &str) -> lrm_server::ClientError {
    lrm_server::ClientError::Io(std::io::Error::other(msg.to_string()))
}

/// Compress then decompress one dataset through the server and gate on
/// the worst pointwise error.
fn run_roundtrip(conn: &mut Connection, flags: &Flags) -> i32 {
    let field = match dataset_field(flags) {
        Ok(f) => f,
        Err(e) => return fail(&format!("roundtrip: {e}")),
    };
    let req = match compress_request_from(flags, &field) {
        Ok(r) => r,
        Err(e) => return fail(&format!("roundtrip: {e}")),
    };
    let model = req.model;
    let (report, artifact) = match conn.compress(req) {
        Ok(r) => r,
        Err(e) => return fail(&format!("roundtrip compress: {e}")),
    };
    let (shape, data) = match conn.decompress(&artifact) {
        Ok(r) => r,
        Err(e) => return fail(&format!("roundtrip decompress: {e}")),
    };
    if shape != field.shape || data.len() != field.len() {
        return fail(&format!(
            "roundtrip: shape mismatch, sent {:?} got back {:?}",
            field.shape.dims, shape.dims
        ));
    }
    let worst = data
        .iter()
        .zip(&field.data)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    // Default gate: 2e-3 of the value range, the dual-bound SZ envelope
    // (rep at rel 1e-5 + delta at rel 1e-3) with slack.
    let (lo, hi) = field.min_max();
    let default_tol = 2e-3 * (hi - lo).max(f64::MIN_POSITIVE);
    let tol = flags
        .get("max-err")
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(default_tol);
    println!(
        "{} via {}: ratio {:.2}x, max abs err {worst:.3e} (gate {tol:.3e})",
        field.name,
        model.name(),
        report.ratio()
    );
    if worst.is_finite() && worst <= tol {
        println!("roundtrip OK");
        0
    } else {
        eprintln!("roundtrip FAILED: error exceeds gate");
        1
    }
}

/// Pipelined smoke: queue a compress plus `--requests N` pings on ONE
/// connection before reading anything, then wait on the compress handle
/// first so every pong must be matched to its handle by request id —
/// the CI check that v2 pipelining actually works end to end.
fn run_pipeline(conn: &mut Connection, flags: &Flags) -> i32 {
    let field = match dataset_field(flags) {
        Ok(f) => f,
        Err(e) => return fail(&format!("pipeline: {e}")),
    };
    let req = match compress_request_from(flags, &field) {
        Ok(r) => r,
        Err(e) => return fail(&format!("pipeline: {e}")),
    };
    let n = flags.usize_or("requests", 8).clamp(1, 1024);

    let compress = match conn.send(&Request::Compress(req)) {
        Ok(h) => h,
        Err(e) => return fail(&format!("pipeline send compress: {e}")),
    };
    let mut pings = Vec::with_capacity(n);
    for i in 0..n {
        let echo = (i as u64).to_le_bytes().to_vec();
        match conn.send(&Request::Ping { echo: echo.clone() }) {
            Ok(h) => pings.push((h, echo)),
            Err(e) => return fail(&format!("pipeline send ping {i}: {e}")),
        }
    }
    let ratio = match conn.wait(compress) {
        Ok(Response::Compressed { report, .. }) => report.ratio(),
        Ok(other) => return fail(&format!("pipeline: expected Compressed, got {other:?}")),
        Err(e) => return fail(&format!("pipeline wait compress: {e}")),
    };
    // Reverse order: the stash must hold every out-of-order reply.
    for (handle, echo) in pings.into_iter().rev() {
        match conn.wait(handle) {
            Ok(Response::Pong { echo: got }) if got == echo => {}
            Ok(other) => return fail(&format!("pipeline: mismatched pong, got {other:?}")),
            Err(e) => return fail(&format!("pipeline wait ping: {e}")),
        }
    }
    println!(
        "pipeline OK: 1 compress (ratio {ratio:.2}x) + {n} pings in flight on one connection, \
         all matched by request id"
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_names_parse() {
        assert_eq!(parse_model("direct"), Some(ReducedModelKind::Direct));
        assert_eq!(parse_model("one-base"), Some(ReducedModelKind::OneBase));
        assert_eq!(
            parse_model("multi-base:4"),
            Some(ReducedModelKind::MultiBase(4))
        );
        assert_eq!(
            parse_model("svd-blocked:3"),
            Some(ReducedModelKind::SvdBlocked(3))
        );
        assert_eq!(parse_model("duo"), None);
    }

    fn client_flags(args: &[&str]) -> Result<Flags, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Flags::parse(&args, CLIENT_USAGE)
    }

    #[test]
    fn flags_parse_pairs_switches_and_positional() {
        let f = client_flags(&["--addr", "1.2.3.4:9", "--scan-1d"]).expect("listed");
        assert_eq!(f.get("addr"), Some("1.2.3.4:9"));
        assert!(f.has("--scan-1d"));
        assert_eq!(f.usize_or("missing", 7), 7);
        let e = client_flags(&["--scan-1d", "extra"]).err();
        assert!(e.is_some_and(|e| e.contains("extra")));
    }

    #[test]
    fn misspelt_flag_is_rejected_by_name() {
        let e = client_flags(&["--dataset", "heat3d", "--modle", "svd"]).err();
        assert!(e.is_some_and(|e| e.contains("--modle")));
    }

    #[test]
    fn trailing_flag_without_a_value_is_rejected() {
        let e = client_flags(&["--dataset", "heat3d", "--addr"]).err();
        assert!(e.is_some_and(|e| e.contains("--addr")));
    }

    #[test]
    fn unparsable_count_is_rejected() {
        let e = client_flags(&["--requests", "abc"]).err();
        assert!(e.is_some_and(|e| e.contains("--requests")));
        let f = client_flags(&["--requests", "3", "--max-err", "1e-3"]).expect("numbers");
        assert_eq!(f.usize_or("requests", 8), 3);
    }

    #[test]
    fn serve_and_client_roundtrip_over_loopback() {
        // End-to-end through the CLI entry points (ephemeral port).
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let addr = server.local_addr().expect("addr").to_string();
        let handle = std::thread::spawn(move || server.serve().expect("serve"));

        let args: Vec<String> = [
            "--addr",
            &addr,
            "--dataset",
            "heat3d",
            "--size",
            "tiny",
            "--model",
            "one-base",
            "--scan-1d",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let flags = Flags::parse(&args, CLIENT_USAGE).expect("listed flags");
        let (mut conn, _) = connect(&flags).expect("connect");
        assert_eq!(run_roundtrip(&mut conn, &flags), 0);
        // The pipelined smoke runs over the same session.
        assert_eq!(run_pipeline(&mut conn, &flags), 0);

        conn.shutdown().expect("shutdown");
        handle.join().expect("join");
    }
}
