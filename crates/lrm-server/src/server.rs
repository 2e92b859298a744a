//! Event-driven TCP service: readiness loop, pipelining, worker dispatch.
//!
//! ```text
//!        event loop (serve thread)                 WorkerPool
//!   poll(listener, wake, conns…)                  ┌──────────┐
//!        │ readable                               │ worker 0 │
//!        ├── accept → Conn (persistent)    jobs ─►│ worker 1 │
//!        ├── read → frames → admit/dispatch ──────│   …      │
//!        │            │ over limits               └────┬─────┘
//!        │            └──► typed Busy/TooLarge          │ done +
//!        │ writable                                     ▼ wake byte
//!        └── flush out-buffer  ◄── responses ── completion queue
//! ```
//!
//! The loop owns every socket; workers own every piece of codec work;
//! the completion queue (plus a loopback wake byte) marries them. A
//! connection stays alive across requests: frames carry a request id,
//! many requests may be in flight per connection, and responses are
//! written in completion order — out of order relative to submission.
//! A connection whose framing is lost (a bad header, a header or payload
//! that outlives the deadline, a duplicate or unknown stream id) gets
//! one error frame and closes after it flushes.
//!
//! Backpressure is explicit, typed, and **per-request**: a
//! request-starting frame beyond [`ServerConfig::max_inflight`] (global)
//! or [`ServerConfig::max_pipeline_depth`] (per connection) receives a
//! `Busy` error frame under its own request id (never a hang or a silent
//! drop), a payload beyond [`ServerConfig::max_payload`] receives
//! `TooLarge` before the payload is read, and a request that cannot be
//! read or served within [`ServerConfig::deadline`] receives `Timeout`.
//! Whole connections are only refused (with a `Busy` frame under
//! [`CONNECTION_REQUEST_ID`]) beyond [`ServerConfig::max_connections`].
//!
//! Chunk-streamed requests (`Begin`/`Chunk`/`End`) overlap compute with
//! the upload: each completed z-slab of a streamed compress is
//! dispatched to the pool while later chunks are still arriving, and
//! the slab artifacts are assembled into the same chunked container the
//! unary path produces — byte-identical output.
//!
//! A `Shutdown` request flips the loop into draining: the listener
//! closes, new request-starting frames are refused with `Busy`, but
//! in-flight work — including open streams, whose remaining `Chunk`/
//! `End` frames are still accepted — completes and flushes before
//! [`Server::serve`] returns.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown as NetShutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use lrm_core::{
    default_candidates, selection::SelectionOptions, Pipeline, PipelineConfig, ReducedModelKind,
};
use lrm_datasets::Field;
use lrm_io::{ChunkEntry, ChunkedArtifact};
use lrm_parallel::{Decomposition, WorkerPool};
use lrm_stats::{byte_entropy, bytes_of, Summary};

use crate::poll::{fd_of, poll, PollFd};
use crate::protocol::{
    CompressRequest, CompressStreamMeta, FieldStatsReply, Frame, FrameHeader, Request, Response,
    SelectReply, ServerErrorKind, TrialReport, WireReport, CONNECTION_REQUEST_ID, HEADER_LEN,
    REQ_STREAM_CHUNK, REQ_STREAM_END,
};

/// Tunable limits for a [`Server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads serving requests (`0` = one per available core).
    pub threads: usize,
    /// Maximum request-starting frames awaiting a response across all
    /// connections; beyond this a request receives a typed `Busy`
    /// frame.
    pub max_inflight: usize,
    /// Maximum request payload in bytes; larger frames receive
    /// `TooLarge` before the payload is read.
    pub max_payload: usize,
    /// Per-request deadline covering socket reads and execution; an
    /// overrun receives a `Timeout` frame.
    pub deadline: Duration,
    /// Chunk count used when a compress request leaves it at `0`.
    pub default_chunks: usize,
    /// Maximum simultaneously open connections; beyond this a new
    /// connection is answered with a connection-level `Busy` frame and
    /// closed.
    pub max_connections: usize,
    /// Maximum in-flight requests a single connection may pipeline;
    /// beyond this a request receives `Busy` while the connection
    /// stays open.
    pub max_pipeline_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            max_inflight: 32,
            max_payload: 256 << 20,
            deadline: Duration::from_secs(30),
            default_chunks: 1,
            max_connections: 1024,
            max_pipeline_depth: 64,
        }
    }
}

/// Fluent constructor for a bound [`Server`]: address plus every
/// [`ServerConfig`] knob, replacing the growing positional argument
/// list. `lrm-cli serve` mirrors these as flags.
#[derive(Debug, Clone)]
pub struct ServerBuilder {
    addr: String,
    config: ServerConfig,
}

impl ServerBuilder {
    /// The address to bind (default `127.0.0.1:0`, an ephemeral port).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Worker threads (`0` = one per available core).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Global in-flight request limit.
    pub fn max_inflight(mut self, max_inflight: usize) -> Self {
        self.config.max_inflight = max_inflight;
        self
    }

    /// Request payload byte cap.
    pub fn max_payload(mut self, max_payload: usize) -> Self {
        self.config.max_payload = max_payload;
        self
    }

    /// Per-request deadline.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.config.deadline = deadline;
        self
    }

    /// Default z-slab chunk count for compress requests that leave it
    /// at `0`.
    pub fn default_chunks(mut self, default_chunks: usize) -> Self {
        self.config.default_chunks = default_chunks;
        self
    }

    /// Simultaneous connection cap.
    pub fn max_connections(mut self, max_connections: usize) -> Self {
        self.config.max_connections = max_connections;
        self
    }

    /// Per-connection pipelining depth cap.
    pub fn max_pipeline_depth(mut self, max_pipeline_depth: usize) -> Self {
        self.config.max_pipeline_depth = max_pipeline_depth;
        self
    }

    /// The accumulated configuration.
    pub fn config(&self) -> ServerConfig {
        self.config
    }

    /// Binds the listener and returns the server.
    pub fn bind(self) -> std::io::Result<Server> {
        Server::bind(self.addr.as_str(), self.config)
    }
}

/// Counters reported by [`Server::serve`] after shutdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Responses written for accepted requests (any kind except `Busy`).
    pub served: u64,
    /// Requests (or whole connections) refused with a `Busy` frame.
    pub rejected_busy: u64,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
}

/// A bound-but-not-yet-serving compression service.
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
}

impl Server {
    /// Binds to `addr` (use port `0` for an ephemeral test port).
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server { listener, config })
    }

    /// Starts a builder with the default config on an ephemeral
    /// loopback port.
    pub fn builder() -> ServerBuilder {
        ServerBuilder {
            addr: "127.0.0.1:0".to_owned(),
            config: ServerConfig::default(),
        }
    }

    /// The bound address (the real port when bound to port `0`).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the event loop and worker pool until a `Shutdown` request
    /// arrives, then drains in-flight requests and returns counters.
    ///
    /// The event loop runs on the calling thread; workers run on the
    /// `lrm-parallel` [`WorkerPool`] inside a [`std::thread::scope`], so
    /// every thread is joined before this returns.
    pub fn serve(self) -> std::io::Result<ServerStats> {
        let threads = if self.config.threads == 0 {
            lrm_parallel::available_threads()
        } else {
            self.config.threads
        };
        let pool = WorkerPool::new(threads);
        let config = self.config;
        self.listener.set_nonblocking(true)?;

        // Self-connected loopback pair: workers write one byte to nudge
        // the poll loop when a completion lands.
        let (wake_tx, wake_rx) = wake_pair()?;
        let shared = Shared {
            jobs: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            done: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            wake_tx,
        };

        std::thread::scope(|s| {
            let workers = s.spawn(|| {
                pool.run((0..threads).collect::<Vec<_>>(), |_, _| {
                    worker_loop(&shared, &config)
                })
            });
            let mut ev = EventLoop {
                config,
                shared: &shared,
                listener: Some(self.listener),
                wake_rx,
                conns: HashMap::new(),
                next_conn: 0,
                global_pending: 0,
                draining: false,
                served: 0,
                rejected_busy: 0,
                connections: 0,
                processing_id: 0,
            };
            let result = ev.run();
            shared.stop.store(true, Ordering::SeqCst);
            shared.available.notify_all();
            let _ = workers.join();
            result
        })
    }
}

/// Builds the loopback socket pair the workers use to wake the poll
/// loop. Both ends are nonblocking: a full wake buffer just means a
/// wake is already pending.
fn wake_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let (rx, _) = listener.accept()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    let _ = tx.set_nodelay(true);
    Ok((tx, rx))
}

// ---------------------------------------------------------------------------
// Worker side: jobs, completions
// ---------------------------------------------------------------------------

/// One unit of codec work dispatched to the pool.
struct Job {
    conn: u64,
    request_id: u64,
    accepted: Instant,
    work: Work,
}

enum Work {
    /// A whole decoded request (ping, compress, …).
    Unary(Request),
    /// One z-slab of a chunk-streamed compress.
    Slab {
        index: usize,
        z0: usize,
        dims: [usize; 3],
        data: Vec<f64>,
        meta: CompressStreamMeta,
    },
}

/// A finished unit of work, headed back to the event loop.
struct Done {
    conn: u64,
    request_id: u64,
    accepted: Instant,
    result: DoneResult,
}

enum DoneResult {
    Response(Response),
    Slab {
        index: usize,
        z0: u32,
        dims: [u32; 3],
        report: WireReport,
        bytes: Vec<u8>,
    },
}

/// Queues + flags shared between the event loop and the workers.
struct Shared {
    jobs: Mutex<VecDeque<Job>>,
    available: Condvar,
    done: Mutex<Vec<Done>>,
    stop: AtomicBool,
    wake_tx: TcpStream,
}

impl Shared {
    /// Enqueues a job and wakes one worker.
    fn dispatch(&self, job: Job) {
        let mut q = self.jobs.lock().expect("job queue poisoned");
        q.push_back(job);
        drop(q);
        self.available.notify_one();
    }
}

/// One worker: pop jobs until the stop flag, execute each, push the
/// completion, nudge the poll loop.
fn worker_loop(shared: &Shared, config: &ServerConfig) {
    loop {
        let job = {
            let mut q = shared.jobs.lock().expect("job queue poisoned");
            loop {
                if let Some(j) = q.pop_front() {
                    break Some(j);
                }
                if shared.stop.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _) = shared
                    .available
                    .wait_timeout(q, Duration::from_millis(20))
                    .expect("job queue poisoned");
                q = guard;
            }
            // Guard drops here: jobs never execute under the queue lock.
        };
        let Some(job) = job else {
            return;
        };
        // Model/codec execution walks real numerical kernels; a panic
        // there must kill one request, not a worker thread.
        let result = match std::panic::catch_unwind(AssertUnwindSafe(|| run_work(job.work, config)))
        {
            Ok(r) => r,
            Err(_) => DoneResult::Response(Response::Error {
                kind: ServerErrorKind::Internal,
                message: "request execution panicked".to_owned(),
            }),
        };
        let done = Done {
            conn: job.conn,
            request_id: job.request_id,
            accepted: job.accepted,
            result,
        };
        {
            let mut d = shared.done.lock().expect("completion queue poisoned");
            d.push(done);
        }
        // Nonblocking: a full pipe means a wake is already pending.
        let _ = (&shared.wake_tx).write(&[1]);
    }
}

fn run_work(work: Work, config: &ServerConfig) -> DoneResult {
    match work {
        Work::Unary(request) => DoneResult::Response(execute(&request, config)),
        Work::Slab {
            index,
            z0,
            dims,
            data,
            meta,
        } => {
            // Per-slab compression identical to the unary chunked path:
            // a single-chunk pipeline over the slab field (names are not
            // serialized, so the artifact bytes match exactly).
            let field = Field::new("stream", data, lrm_compress::Shape { dims });
            let artifact = compress_pipeline(&meta, 1).compress(&field);
            DoneResult::Slab {
                index,
                z0: z0 as u32,
                dims: [dims[0] as u32, dims[1] as u32, dims[2] as u32],
                report: WireReport::from_report(&artifact.report),
                bytes: artifact.bytes,
            }
        }
    }
}

/// The pipeline a compress request runs. Parallelism lives across
/// requests (the worker pool), so each pipeline runs single-threaded.
fn compress_pipeline(meta: &CompressStreamMeta, chunks: usize) -> Pipeline {
    Pipeline::builder()
        .model(meta.model)
        .codec(meta.orig)
        .delta_codec(meta.delta)
        .scan_1d(meta.scan_1d)
        .threads(1)
        .chunks(chunks)
        .build()
}

/// The chunk count a compress request asks for, with `0` meaning the
/// server default.
fn requested_chunks(meta: &CompressStreamMeta, config: &ServerConfig) -> usize {
    if meta.chunks == 0 {
        config.default_chunks
    } else {
        meta.chunks as usize
    }
}

/// Executes one decoded unary request against the engine.
fn execute(request: &Request, config: &ServerConfig) -> Response {
    match request {
        Request::Ping { echo } => Response::Pong { echo: echo.clone() },
        Request::Compress(c) => {
            if c.shape.is_empty() {
                return malformed_response("compress request carries an empty field".to_owned());
            }
            let meta = c.meta();
            let pipeline = compress_pipeline(&meta, requested_chunks(&meta, config));
            let field = Field::new("wire", c.data.clone(), c.shape);
            let artifact = pipeline.compress(&field);
            Response::Compressed {
                report: WireReport::from_report(&artifact.report),
                artifact: artifact.bytes,
            }
        }
        Request::Decompress { artifact } => {
            match Pipeline::builder().threads(1).build().reconstruct(artifact) {
                Ok((data, shape)) => Response::Decompressed { shape, data },
                Err(e) => malformed_response(format!("artifact rejected: {e}")),
            }
        }
        Request::FieldStats { shape: _, data } => {
            let s = Summary::of(data);
            Response::Stats(FieldStatsReply {
                count: s.count(),
                min: s.min(),
                max: s.max(),
                mean: s.mean(),
                variance: s.variance(),
                byte_entropy: byte_entropy(&bytes_of(data)),
            })
        }
        Request::SelectModel(sel) => {
            if sel.shape.is_empty() {
                return malformed_response("select request carries an empty field".to_owned());
            }
            let base = PipelineConfig {
                orig: sel.orig,
                delta: sel.delta,
                ..PipelineConfig::sz(ReducedModelKind::Direct)
            };
            let options = SelectionOptions {
                exhaustive: sel.exhaustive,
                ..SelectionOptions::default()
            };
            let field = Field::new("wire", sel.data.clone(), sel.shape);
            match lrm_core::selection::select_best_model_with(
                &field,
                &default_candidates(),
                &base,
                &options,
            ) {
                Some(outcome) => Response::Selected(SelectReply {
                    winner: outcome.winner,
                    sampled: outcome.sampled,
                    trials: outcome
                        .results
                        .iter()
                        .map(|r| TrialReport {
                            model: r.model,
                            raw_bytes: r.report.raw_bytes as u64,
                            total_bytes: r.report.total_bytes() as u64,
                        })
                        .collect(),
                }),
                None => Response::Error {
                    kind: ServerErrorKind::Internal,
                    message: "no applicable candidate model".to_owned(),
                },
            }
        }
        // Shutdown and stream framing are handled in the event loop
        // before dispatch; answered defensively here.
        Request::Shutdown => Response::ShutdownAck,
        Request::CompressStreamBegin(_)
        | Request::StreamChunk { .. }
        | Request::StreamEnd
        | Request::DecompressStreamBegin => {
            malformed_response("stream frames are not unary requests".to_owned())
        }
    }
}

fn timeout_response(context: &str) -> Response {
    Response::Error {
        kind: ServerErrorKind::Timeout,
        message: context.to_owned(),
    }
}

fn malformed_response(context: String) -> Response {
    Response::Error {
        kind: ServerErrorKind::Malformed,
        message: context,
    }
}

// ---------------------------------------------------------------------------
// Event loop side: connections, admission, framing
// ---------------------------------------------------------------------------

/// How long an answered connection lingers to drain peer bytes so the
/// close sends FIN rather than RST — an RST can destroy a response the
/// client has not read yet.
const CLOSE_GRACE: Duration = Duration::from_secs(1);

/// Byte budget for the lingering drain.
const CLOSE_BUDGET: usize = 256 * 1024;

/// Fallback poll timeout when no deadline is imminent.
const IDLE_POLL: Duration = Duration::from_millis(500);

/// A frame whose header has been accepted but whose payload is still
/// arriving. Admission (busy/too-large) already happened at header
/// time, so the payload only needs to be buffered and dispatched.
struct Accepted {
    header: FrameHeader,
    at: Instant,
    /// Whether this frame incremented the pending counters (request-
    /// starting kinds do; stream chunk/end frames ride on an already
    /// counted request).
    counted: bool,
}

/// An open chunk stream (compress or decompress) on one connection.
struct StreamState {
    /// Compress metadata; `None` marks a decompress stream.
    meta: Option<CompressStreamMeta>,
    started: Instant,
    buf: Vec<u8>,
    /// z-slab ranges for a chunked compress; empty = single dispatch at
    /// `End`.
    bounds: Vec<(usize, usize)>,
    next_slab: usize,
    done: Vec<Option<SlabOut>>,
    ended: bool,
}

struct SlabOut {
    z0: u32,
    dims: [u32; 3],
    report: WireReport,
    bytes: Vec<u8>,
}

/// Post-flush lingering state: write side already shut down.
struct Closing {
    deadline: Instant,
    budget: usize,
}

/// One live connection owned by the event loop.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    out: Vec<u8>,
    written: usize,
    cur: Option<Accepted>,
    /// When the first byte of a partial header arrived.
    header_started: Option<Instant>,
    /// Payload bytes still to swallow for an already-answered frame.
    discard: u64,
    /// Request-starting frames awaiting a response.
    pending: usize,
    /// Request ids currently live on this connection (in-flight unary
    /// requests and open streams).
    live: HashSet<u64>,
    streams: HashMap<u64, StreamState>,
    /// Stream ids already answered with an error; their remaining
    /// chunk/end frames are swallowed silently.
    aborted: HashSet<u64>,
    close_after_flush: bool,
    closing: Option<Closing>,
    /// Set at shutdown for connections with a request already arriving:
    /// admission lets their in-progress frames through the drain.
    drain_grace: bool,
    eof: bool,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            written: 0,
            cur: None,
            header_started: None,
            discard: 0,
            pending: 0,
            live: HashSet::new(),
            streams: HashMap::new(),
            aborted: HashSet::new(),
            close_after_flush: false,
            closing: None,
            drain_grace: false,
            eof: false,
            dead: false,
        }
    }

    fn flushed(&self) -> bool {
        self.written == self.out.len()
    }
}

enum Token {
    Wake,
    Listener,
    Conn(u64),
}

struct EventLoop<'a> {
    config: ServerConfig,
    shared: &'a Shared,
    listener: Option<TcpListener>,
    wake_rx: TcpStream,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    global_pending: usize,
    draining: bool,
    served: u64,
    rejected_busy: u64,
    connections: u64,
    /// Id of the connection currently being processed (it is removed
    /// from `conns` while its frames are parsed, so dispatched jobs
    /// carry this instead of a map lookup).
    processing_id: u64,
}

impl EventLoop<'_> {
    fn run(&mut self) -> std::io::Result<ServerStats> {
        loop {
            self.process_completions();
            self.sweep_deadlines();
            self.flush_all();
            self.cleanup();
            if self.draining && self.global_pending == 0 && self.quiescent() {
                break;
            }

            let (mut fds, tokens) = self.build_poll_set();
            poll(&mut fds, Some(self.poll_timeout()))?;

            let mut accept_ready = false;
            let mut ready: Vec<(u64, bool, bool)> = Vec::new();
            for (fd, token) in fds.iter().zip(&tokens) {
                match token {
                    Token::Wake => {
                        if fd.readable() {
                            drain_wake(&self.wake_rx);
                        }
                    }
                    Token::Listener => accept_ready = fd.readable(),
                    Token::Conn(id) => {
                        if fd.ready() {
                            ready.push((*id, fd.readable(), fd.writable()));
                        }
                    }
                }
            }
            if accept_ready {
                self.accept_connections();
            }
            for (id, readable, writable) in ready {
                if readable {
                    self.read_conn(id);
                }
                if writable {
                    self.flush_conn(id);
                }
            }
        }
        Ok(ServerStats {
            served: self.served,
            rejected_busy: self.rejected_busy,
            connections: self.connections,
        })
    }

    /// Whether every connection is at a clean boundary: nothing half
    /// read, no open stream, no pending response, output flushed. The
    /// drain exits only once this holds, so a request whose bytes were
    /// already arriving at shutdown still completes.
    fn quiescent(&self) -> bool {
        self.conns.values().all(|c| {
            c.pending == 0
                && c.streams.is_empty()
                && c.cur.is_none()
                && c.buf.is_empty()
                && c.flushed()
        })
    }

    fn build_poll_set(&self) -> (Vec<PollFd>, Vec<Token>) {
        let mut fds = vec![PollFd::new(fd_of(&self.wake_rx), true, false)];
        let mut tokens = vec![Token::Wake];
        if let Some(listener) = &self.listener {
            fds.push(PollFd::new(fd_of(listener), true, false));
            tokens.push(Token::Listener);
        }
        for (&id, conn) in &self.conns {
            let read = !conn.eof;
            let write = !conn.flushed();
            if read || write {
                fds.push(PollFd::new(fd_of(&conn.stream), read, write));
                tokens.push(Token::Conn(id));
            }
        }
        (fds, tokens)
    }

    /// The nearest deadline across partial frames, open streams, and
    /// lingering closes, as a poll timeout.
    fn poll_timeout(&self) -> Duration {
        let now = Instant::now();
        let mut nearest: Option<Instant> = None;
        let mut consider = |t: Instant| {
            nearest = Some(match nearest {
                Some(n) if n <= t => n,
                _ => t,
            });
        };
        for conn in self.conns.values() {
            if let Some(cl) = &conn.closing {
                consider(cl.deadline);
            }
            if let Some(acc) = &conn.cur {
                consider(acc.at + self.config.deadline);
            } else if let Some(t) = conn.header_started {
                consider(t + self.config.deadline);
            }
            for st in conn.streams.values() {
                consider(st.started + self.config.deadline);
            }
        }
        match nearest {
            Some(t) => t.saturating_duration_since(now).min(IDLE_POLL),
            None => IDLE_POLL,
        }
    }

    // -- accepting ----------------------------------------------------------

    fn accept_connections(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    self.connections += 1;
                    if self.conns.len() >= self.config.max_connections {
                        self.rejected_busy += 1;
                        reject_connection(stream, &self.config);
                        continue;
                    }
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    let id = self.next_conn;
                    self.next_conn += 1;
                    self.conns.insert(id, Conn::new(stream));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                // Transient accept failure (e.g. aborted handshake);
                // keep serving.
                Err(_) => return,
            }
        }
    }

    // -- reading & framing --------------------------------------------------

    fn read_conn(&mut self, id: u64) {
        let Some(mut conn) = self.conns.remove(&id) else {
            return;
        };
        self.processing_id = id;
        let discard_only = conn.closing.is_some() || conn.close_after_flush;
        let mut tmp = [0u8; 64 * 1024];
        loop {
            match conn.stream.read(&mut tmp) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    if discard_only {
                        if let Some(cl) = &mut conn.closing {
                            cl.budget = cl.budget.saturating_sub(n);
                            if cl.budget == 0 {
                                conn.dead = true;
                                break;
                            }
                        }
                        continue;
                    }
                    conn.buf.extend_from_slice(&tmp[..n]);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        if !conn.dead && !discard_only {
            self.parse_frames(&mut conn);
        }
        if conn.eof && !conn.dead {
            self.handle_eof(&mut conn);
        }
        self.conns.insert(id, conn);
    }

    /// Consumes as many complete frames from `conn.buf` as possible,
    /// admitting each at header time and dispatching on payload
    /// completion.
    fn parse_frames(&mut self, conn: &mut Conn) {
        loop {
            if conn.dead || conn.close_after_flush {
                conn.buf.clear();
                conn.header_started = None;
                return;
            }
            // Swallow payload bytes of frames already answered at
            // admission (busy / too-large) without buffering them.
            if conn.discard > 0 {
                let take = usize::try_from(conn.discard)
                    .unwrap_or(usize::MAX)
                    .min(conn.buf.len());
                conn.buf.drain(..take);
                conn.discard -= take as u64;
                if conn.discard > 0 {
                    return;
                }
            }
            if let Some(acc) = &conn.cur {
                // Admission already consumed the header bytes; only the
                // payload remains to buffer. `payload_len` passed the
                // `max_payload` check, so the cast cannot truncate a
                // value the server would accept.
                let payload_len = acc.header.payload_len as usize;
                if conn.buf.len() < payload_len {
                    return;
                }
                let payload: Vec<u8> = conn.buf.drain(..payload_len).collect();
                let Some(acc) = conn.cur.take() else {
                    return;
                };
                conn.header_started = None;
                self.handle_frame(conn, acc, payload);
                continue;
            }
            match Frame::parse_header_prefix(&conn.buf) {
                Ok(None) => {
                    if conn.buf.is_empty() {
                        conn.header_started = None;
                        if conn.streams.is_empty() && conn.discard == 0 {
                            conn.drain_grace = false;
                        }
                    } else if conn.header_started.is_none() {
                        conn.header_started = Some(Instant::now());
                    }
                    return;
                }
                Err(e) => {
                    self.queue_response(
                        conn,
                        CONNECTION_REQUEST_ID,
                        malformed_response(format!("bad frame header: {e}")),
                        true,
                    );
                    // The framing is lost: nothing after this can be
                    // parsed.
                    conn.close_after_flush = true;
                    conn.buf.clear();
                    conn.header_started = None;
                    return;
                }
                Ok(Some(header)) => {
                    self.admit(conn, header);
                }
            }
        }
    }

    /// Admission control at header-accept time: busy/too-large verdicts
    /// are answered immediately (payload swallowed via `discard`);
    /// admitted frames start counting toward the in-flight limits while
    /// their payload arrives.
    fn admit(&mut self, conn: &mut Conn, header: FrameHeader) {
        let id = header.request_id;
        let starting = !matches!(header.kind, REQ_STREAM_CHUNK | REQ_STREAM_END);
        let now = Instant::now();

        let refuse = |this: &mut Self, conn: &mut Conn, response: Response, busy: bool| {
            this.queue_response(conn, id, response, !busy);
            if busy {
                this.rejected_busy += 1;
            }
            conn.buf.drain(..HEADER_LEN);
            conn.discard = header.payload_len;
            conn.header_started = None;
        };

        if starting {
            let draining = self.draining && !conn.drain_grace;
            if draining
                || self.global_pending >= self.config.max_inflight
                || conn.pending >= self.config.max_pipeline_depth
            {
                let message = if draining {
                    "server is draining".to_owned()
                } else if self.global_pending >= self.config.max_inflight {
                    format!("server at max in-flight ({})", self.config.max_inflight)
                } else {
                    format!(
                        "connection at max pipeline depth ({})",
                        self.config.max_pipeline_depth
                    )
                };
                refuse(
                    self,
                    conn,
                    Response::Error {
                        kind: ServerErrorKind::Busy,
                        message,
                    },
                    true,
                );
                return;
            }
            if conn.live.contains(&id) || conn.aborted.contains(&id) {
                refuse(
                    self,
                    conn,
                    malformed_response(format!("request id {id} is already in flight")),
                    false,
                );
                conn.close_after_flush = true;
                return;
            }
        }
        if header.payload_len > self.config.max_payload as u64 {
            let response = Response::Error {
                kind: ServerErrorKind::TooLarge,
                message: format!(
                    "payload of {} bytes exceeds the {} byte limit",
                    header.payload_len, self.config.max_payload
                ),
            };
            refuse(self, conn, response, false);
            // An oversized chunk poisons its whole stream.
            if !starting {
                self.abort_stream_silently(conn, id);
            }
            return;
        }

        conn.buf.drain(..HEADER_LEN);
        conn.header_started = None;
        if starting {
            conn.pending += 1;
            self.global_pending += 1;
            conn.live.insert(id);
        }
        conn.cur = Some(Accepted {
            header,
            at: now,
            counted: starting,
        });
    }

    /// Handles one complete, admitted frame.
    fn handle_frame(&mut self, conn: &mut Conn, acc: Accepted, payload: Vec<u8>) {
        let id = acc.header.request_id;
        let request = match Request::decode(acc.header.kind, &payload) {
            Ok(r) => r,
            Err(e) => {
                if acc.counted {
                    self.finish_request(conn, id);
                }
                self.queue_response(conn, id, malformed_response(e.to_string()), true);
                return;
            }
        };
        drop(payload);
        match request {
            Request::Shutdown => {
                self.finish_request(conn, id);
                self.queue_response(conn, id, Response::ShutdownAck, true);
                self.draining = true;
                self.listener = None;
                // Requests whose bytes had already started arriving
                // keep a grace pass through admission so the drain
                // serves them instead of refusing mid-upload.
                for other in self.conns.values_mut() {
                    if other.cur.is_some()
                        || other.header_started.is_some()
                        || !other.buf.is_empty()
                        || !other.streams.is_empty()
                        || other.discard > 0
                    {
                        other.drain_grace = true;
                    }
                }
                if !conn.buf.is_empty() || !conn.streams.is_empty() {
                    conn.drain_grace = true;
                }
            }
            Request::CompressStreamBegin(meta) => {
                self.open_stream(conn, acc, id, Some(meta));
            }
            Request::DecompressStreamBegin => {
                self.open_stream(conn, acc, id, None);
            }
            Request::StreamChunk { bytes } => self.stream_chunk(conn, id, bytes),
            Request::StreamEnd => self.stream_end(conn, id),
            request => {
                self.shared.dispatch(Job {
                    conn: self.processing_id,
                    request_id: id,
                    accepted: acc.at,
                    work: Work::Unary(request),
                });
            }
        }
    }

    fn open_stream(
        &mut self,
        conn: &mut Conn,
        acc: Accepted,
        id: u64,
        meta: Option<CompressStreamMeta>,
    ) {
        let mut bounds = Vec::new();
        if let Some(meta) = &meta {
            if meta.shape.is_empty() {
                self.finish_request(conn, id);
                self.queue_response(
                    conn,
                    id,
                    malformed_response("stream opens an empty field".to_owned()),
                    true,
                );
                return;
            }
            let Some(nbytes) = meta.shape.len().checked_mul(8) else {
                self.finish_request(conn, id);
                self.queue_response(
                    conn,
                    id,
                    malformed_response("stream field size overflows".to_owned()),
                    true,
                );
                return;
            };
            if nbytes > self.config.max_payload {
                self.finish_request(conn, id);
                let response = Response::Error {
                    kind: ServerErrorKind::TooLarge,
                    message: format!(
                        "streamed field of {nbytes} bytes exceeds the {} byte limit",
                        self.config.max_payload
                    ),
                };
                self.queue_response(conn, id, response, true);
                return;
            }
            let chunks = compress_pipeline(meta, requested_chunks(meta, &self.config))
                .effective_chunks(meta.shape);
            if chunks > 1 {
                let [nx, ny, nz] = meta.shape.dims;
                let decomp = Decomposition::new([nx, ny, nz], [1, 1, chunks]);
                bounds = (0..chunks)
                    .map(|r| {
                        let sd = decomp.subdomain(r);
                        (sd.z.0, sd.z.1)
                    })
                    .collect();
            }
        }
        let done = vec![];
        let mut st = StreamState {
            meta,
            started: acc.at,
            buf: Vec::new(),
            next_slab: 0,
            done,
            ended: false,
            bounds,
        };
        st.done = std::iter::repeat_with(|| None)
            .take(st.bounds.len())
            .collect();
        conn.streams.insert(id, st);
    }

    fn stream_chunk(&mut self, conn: &mut Conn, id: u64, bytes: Vec<u8>) {
        if conn.aborted.contains(&id) {
            return;
        }
        let Some(st) = conn.streams.get_mut(&id) else {
            self.queue_response(
                conn,
                id,
                malformed_response(format!("chunk for unknown stream id {id}")),
                true,
            );
            conn.close_after_flush = true;
            return;
        };
        st.buf.extend_from_slice(&bytes);
        if let Some(meta) = st.meta {
            let nbytes = meta.shape.len().saturating_mul(8);
            if st.buf.len() > nbytes {
                let over = st.buf.len();
                self.abort_stream(
                    conn,
                    id,
                    malformed_response(format!(
                        "stream overruns its field: {over} bytes for a {nbytes} byte field"
                    )),
                );
                return;
            }
            self.pump_stream(conn, id);
        } else if st.buf.len() > self.config.max_payload {
            let over = st.buf.len();
            let max = self.config.max_payload;
            self.abort_stream(
                conn,
                id,
                Response::Error {
                    kind: ServerErrorKind::TooLarge,
                    message: format!(
                        "streamed artifact of {over} bytes exceeds the {max} byte limit"
                    ),
                },
            );
        }
    }

    fn stream_end(&mut self, conn: &mut Conn, id: u64) {
        if conn.aborted.contains(&id) {
            conn.aborted.remove(&id);
            return;
        }
        let Some(st) = conn.streams.get_mut(&id) else {
            self.queue_response(
                conn,
                id,
                malformed_response(format!("end for unknown stream id {id}")),
                true,
            );
            conn.close_after_flush = true;
            return;
        };
        st.ended = true;
        match st.meta {
            Some(meta) => {
                let nbytes = meta.shape.len().saturating_mul(8);
                if st.buf.len() != nbytes {
                    let got = st.buf.len();
                    self.abort_stream(
                        conn,
                        id,
                        malformed_response(format!(
                            "stream ended with {got} of {nbytes} field bytes"
                        )),
                    );
                    return;
                }
                if st.bounds.is_empty() {
                    // Single-chunk field: one whole-field job, same as a
                    // unary compress of the buffered samples.
                    let Some(st) = conn.streams.remove(&id) else {
                        return;
                    };
                    let Some(meta) = st.meta else { return };
                    let request =
                        Request::Compress(CompressRequest::from_meta(meta, samples_of(&st.buf)));
                    self.shared.dispatch(Job {
                        conn: self.processing_id,
                        request_id: id,
                        accepted: st.started,
                        work: Work::Unary(request),
                    });
                } else {
                    self.pump_stream(conn, id);
                    self.try_complete_stream(conn, id);
                }
            }
            None => {
                let Some(st) = conn.streams.remove(&id) else {
                    return;
                };
                self.shared.dispatch(Job {
                    conn: self.processing_id,
                    request_id: id,
                    accepted: st.started,
                    work: Work::Unary(Request::Decompress { artifact: st.buf }),
                });
            }
        }
    }

    /// Dispatches every z-slab whose byte range is fully buffered —
    /// this is where compute overlaps the upload.
    fn pump_stream(&mut self, conn: &mut Conn, id: u64) {
        let Some(st) = conn.streams.get_mut(&id) else {
            return;
        };
        let Some(meta) = st.meta else { return };
        let [nx, ny, _] = meta.shape.dims;
        let plane = nx * ny;
        while st.next_slab < st.bounds.len() {
            let (z0, z1) = st.bounds[st.next_slab];
            let end = z1 * plane * 8;
            if st.buf.len() < end {
                break;
            }
            let data = samples_of(&st.buf[z0 * plane * 8..end]);
            self.shared.dispatch(Job {
                conn: self.processing_id,
                request_id: id,
                accepted: st.started,
                work: Work::Slab {
                    index: st.next_slab,
                    z0,
                    dims: [nx, ny, z1 - z0],
                    data,
                    meta,
                },
            });
            st.next_slab += 1;
        }
    }

    /// Assembles and answers a chunked compress stream once every slab
    /// has completed and `End` has arrived.
    fn try_complete_stream(&mut self, conn: &mut Conn, id: u64) {
        let complete = match conn.streams.get(&id) {
            Some(st) => st.ended && st.done.iter().all(Option::is_some),
            None => false,
        };
        if !complete {
            return;
        }
        let Some(st) = conn.streams.remove(&id) else {
            return;
        };
        let Some(meta) = st.meta else { return };
        let [nx, ny, nz] = meta.shape.dims;
        let tag = meta.model.tag().0;
        let mut container = ChunkedArtifact::new([nx as u32, ny as u32, nz as u32]);
        let mut report = WireReport {
            raw_bytes: (meta.shape.len() * 8) as u64,
            rep_bytes: 0,
            delta_bytes: 0,
        };
        for slab in st.done.into_iter().flatten() {
            report.rep_bytes += slab.report.rep_bytes;
            report.delta_bytes += slab.report.delta_bytes;
            container.push(
                ChunkEntry {
                    z_offset: slab.z0,
                    dims: slab.dims,
                    model_tag: tag,
                },
                slab.bytes,
            );
        }
        self.finish_request(conn, id);
        self.queue_response(
            conn,
            id,
            Response::Compressed {
                report,
                artifact: container.to_bytes(),
            },
            true,
        );
    }

    /// Answers a live stream with `response` and swallows its remaining
    /// frames.
    fn abort_stream(&mut self, conn: &mut Conn, id: u64, response: Response) {
        if conn.streams.remove(&id).is_some() {
            self.finish_request(conn, id);
            conn.aborted.insert(id);
            self.queue_response(conn, id, response, true);
        }
    }

    /// Drops a stream without a response (the error was already
    /// queued by the caller).
    fn abort_stream_silently(&mut self, conn: &mut Conn, id: u64) {
        if conn.streams.remove(&id).is_some() {
            self.finish_request(conn, id);
            conn.aborted.insert(id);
        }
    }

    // -- completions --------------------------------------------------------

    fn process_completions(&mut self) {
        let done = {
            let mut d = self.shared.done.lock().expect("completion queue poisoned");
            std::mem::take(&mut *d)
        };
        let now = Instant::now();
        for item in done {
            let Some(mut conn) = self.conns.remove(&item.conn) else {
                // The connection died while the job ran; its pending
                // count was already released when it was dropped.
                continue;
            };
            self.processing_id = item.conn;
            match item.result {
                DoneResult::Response(response) => {
                    let response = if now.duration_since(item.accepted) > self.config.deadline {
                        timeout_response("deadline elapsed during execution")
                    } else {
                        response
                    };
                    self.finish_request(&mut conn, item.request_id);
                    self.queue_response(&mut conn, item.request_id, response, true);
                }
                DoneResult::Slab {
                    index,
                    z0,
                    dims,
                    report,
                    bytes,
                } => {
                    if now.duration_since(item.accepted) > self.config.deadline {
                        self.abort_stream(
                            &mut conn,
                            item.request_id,
                            timeout_response("deadline elapsed during streamed compression"),
                        );
                    } else if let Some(st) = conn.streams.get_mut(&item.request_id) {
                        if let Some(slot) = st.done.get_mut(index) {
                            *slot = Some(SlabOut {
                                z0,
                                dims,
                                report,
                                bytes,
                            });
                        }
                        self.try_complete_stream(&mut conn, item.request_id);
                    }
                    // A completed slab for an aborted stream is dropped.
                }
            }
            self.conns.insert(item.conn, conn);
        }
    }

    // -- deadlines & lifecycle ----------------------------------------------

    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            let Some(mut conn) = self.conns.remove(&id) else {
                continue;
            };
            self.processing_id = id;
            if conn.closing.as_ref().is_some_and(|cl| now >= cl.deadline) {
                conn.dead = true;
            }
            if conn.closing.is_none() && !conn.dead {
                if let Some(acc) = &conn.cur {
                    if now.duration_since(acc.at) > self.config.deadline {
                        let rid = acc.header.request_id;
                        let counted = acc.counted;
                        conn.cur = None;
                        if counted {
                            self.finish_request(&mut conn, rid);
                        }
                        self.queue_response(
                            &mut conn,
                            rid,
                            timeout_response("deadline elapsed while reading the request payload"),
                            true,
                        );
                        // Mid-frame there is no way to resync.
                        conn.close_after_flush = true;
                    }
                } else if conn
                    .header_started
                    .is_some_and(|t| now.duration_since(t) > self.config.deadline)
                {
                    self.queue_response(
                        &mut conn,
                        CONNECTION_REQUEST_ID,
                        timeout_response("deadline elapsed while reading the frame header"),
                        true,
                    );
                    conn.close_after_flush = true;
                }
                let stalled: Vec<u64> = conn
                    .streams
                    .iter()
                    .filter(|(_, st)| now.duration_since(st.started) > self.config.deadline)
                    .map(|(&sid, _)| sid)
                    .collect();
                for sid in stalled {
                    self.abort_stream(
                        &mut conn,
                        sid,
                        timeout_response("deadline elapsed during streaming"),
                    );
                }
            }
            self.conns.insert(id, conn);
        }
    }

    fn handle_eof(&mut self, conn: &mut Conn) {
        // No more frames will arrive: partial frames and open streams
        // can never complete — release them silently (the peer walked
        // away mid-request; there is nothing useful to answer). Already
        // dispatched requests still get their responses, which the peer
        // may be half-closed-reading.
        if let Some(acc) = conn.cur.take() {
            if acc.counted {
                self.finish_request(conn, acc.header.request_id);
            }
        }
        conn.header_started = None;
        conn.buf.clear();
        conn.discard = 0;
        let open: Vec<u64> = conn.streams.keys().copied().collect();
        for sid in open {
            conn.streams.remove(&sid);
            self.finish_request(conn, sid);
        }
    }

    fn cleanup(&mut self) {
        let now = Instant::now();
        let mut drop_ids = Vec::new();
        for (&id, conn) in self.conns.iter_mut() {
            if conn.close_after_flush
                && conn.closing.is_none()
                && conn.pending == 0
                && conn.streams.is_empty()
                && conn.flushed()
            {
                let _ = conn.stream.shutdown(NetShutdown::Write);
                conn.closing = Some(Closing {
                    deadline: now + CLOSE_GRACE,
                    budget: CLOSE_BUDGET,
                });
            }
            let done = conn.dead
                || (conn.eof && conn.pending == 0 && conn.flushed())
                || (conn.closing.is_some() && conn.eof);
            if done {
                drop_ids.push(id);
            }
        }
        for id in drop_ids {
            if let Some(conn) = self.conns.remove(&id) {
                self.global_pending = self.global_pending.saturating_sub(conn.pending);
            }
        }
    }

    // -- plumbing -----------------------------------------------------------

    fn finish_request(&mut self, conn: &mut Conn, id: u64) {
        conn.pending = conn.pending.saturating_sub(1);
        self.global_pending = self.global_pending.saturating_sub(1);
        conn.live.remove(&id);
    }

    fn queue_response(
        &mut self,
        conn: &mut Conn,
        request_id: u64,
        response: Response,
        count_served: bool,
    ) {
        conn.out.extend_from_slice(&response.to_frame(request_id));
        if count_served {
            self.served += 1;
        }
    }

    fn flush_all(&mut self) {
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.flush_conn(id);
        }
    }

    fn flush_conn(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        while conn.written < conn.out.len() {
            match conn.stream.write(&conn.out[conn.written..]) {
                Ok(0) => {
                    conn.dead = true;
                    break;
                }
                Ok(n) => conn.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        if conn.flushed() && !conn.out.is_empty() {
            conn.out.clear();
            conn.written = 0;
        }
    }
}

/// Decodes a raw LE byte slice into `f64` samples (panic-free: the
/// slice length is a multiple of 8 by construction, and `chunks_exact`
/// ignores any remainder).
fn samples_of(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|c| {
            let mut b = [0u8; 8];
            b.copy_from_slice(c);
            f64::from_bits(u64::from_le_bytes(b))
        })
        .collect()
}

/// Answers a connection the acceptor refuses to register (beyond
/// `max_connections`) with a connection-level `Busy` frame, then closes
/// it without risking an RST.
fn reject_connection(mut stream: TcpStream, config: &ServerConfig) {
    // Some platforms hand accepted sockets the listener's non-blocking
    // flag; request plain blocking I/O with timeouts.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let response = Response::Error {
        kind: ServerErrorKind::Busy,
        message: format!("server at max connections ({})", config.max_connections),
    };
    // lint:allow(blocking-in-event-loop): best-effort Busy reply on a socket being closed; bounded by the 1s write timeout above
    let _ = stream.write_all(&response.to_frame(CONNECTION_REQUEST_ID));
    let _ = stream.shutdown(NetShutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut sink = [0u8; 4096];
    let mut budget: usize = CLOSE_BUDGET;
    loop {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                budget = budget.saturating_sub(n);
                if budget == 0 {
                    break;
                }
            }
        }
    }
}

fn drain_wake(mut wake_rx: &TcpStream) {
    // `Read` is implemented for `&TcpStream`; the socket is
    // nonblocking, so the drain ends on `WouldBlock`.
    let mut sink = [0u8; 256];
    loop {
        match wake_rx.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => continue,
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = ServerConfig::default();
        assert!(c.max_inflight > 0);
        assert!(c.max_payload >= 1 << 20);
        assert!(c.deadline >= Duration::from_secs(1));
        assert!(c.default_chunks >= 1);
        assert!(c.max_connections >= 64);
        assert!(c.max_pipeline_depth >= 1);
    }

    #[test]
    fn builder_accumulates_every_knob() {
        let b = Server::builder()
            .addr("127.0.0.1:0")
            .threads(3)
            .max_inflight(7)
            .max_payload(1 << 20)
            .deadline(Duration::from_secs(5))
            .default_chunks(2)
            .max_connections(99)
            .max_pipeline_depth(11);
        let c = b.config();
        assert_eq!(c.threads, 3);
        assert_eq!(c.max_inflight, 7);
        assert_eq!(c.max_payload, 1 << 20);
        assert_eq!(c.deadline, Duration::from_secs(5));
        assert_eq!(c.default_chunks, 2);
        assert_eq!(c.max_connections, 99);
        assert_eq!(c.max_pipeline_depth, 11);
        let server = b.bind().expect("bind");
        assert_ne!(server.local_addr().expect("addr").port(), 0);
    }

    #[test]
    fn bind_reports_ephemeral_port() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let addr = server.local_addr().expect("addr");
        assert_ne!(addr.port(), 0);
    }

    #[test]
    fn samples_roundtrip_raw_bits() {
        let values = [1.5f64, -0.0, f64::NAN, f64::INFINITY];
        let mut bytes = Vec::new();
        for v in values {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        let back = samples_of(&bytes);
        assert_eq!(back.len(), 4);
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
