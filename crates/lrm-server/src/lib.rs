//! `lrm-server` — a concurrent compression service over `std::net`.
//!
//! The crate has four layers:
//!
//! * [`protocol`] — the framed wire protocol (LRMP v2): a 24-byte header
//!   (magic, version, kind, payload length, `u64` request id) so many
//!   requests can be in flight per connection and responses may arrive
//!   out of order, plus chunk-streaming kinds (`Begin`/`Chunk`/`End`) so
//!   a large field starts compressing while its bytes are still
//!   arriving. The decoder follows the workspace's hardened decode-path
//!   contract and is registered in `lint.toml`.
//! * [`poll`] — a zero-dependency readiness shim over the platform's
//!   `poll(2)` used by the event loop.
//! * [`server`] — a nonblocking readiness event loop owning every
//!   socket, dispatching codec work onto the `lrm-parallel`
//!   [`WorkerPool`] and marrying the two with a completion queue.
//!   Connections persist across requests with explicit per-request
//!   backpressure: max in-flight requests (global and per-connection),
//!   max payload size, and a per-request deadline, each mapped to a
//!   typed error frame (`Busy`, `TooLarge`, `Timeout`). Shutdown drains
//!   in-flight requests — including open streams — before the listener
//!   closes.
//! * [`client`] — a session-based [`Connection`] holding one socket
//!   across many requests (`send` → [`RequestHandle`] → `wait`, or a
//!   blocking `call`), used by `lrm-cli client`, the loopback tests,
//!   and the `serve` bench rows.
//!
//! The server is a consumer of every workspace layer: `lrm-compress`
//! codecs, the `lrm-core` pipeline and model selector, `lrm-io`
//! artifact containers, and the `lrm-parallel` pool.
//!
//! [`WorkerPool`]: lrm_parallel::WorkerPool

pub mod client;
pub mod poll;
pub mod protocol;
pub mod server;

pub use client::{ClientError, ClientResult, Connection, RequestHandle};
pub use lrm_compress::{DecodeError, DecodeResult, Shape};
pub use protocol::{
    CompressRequest, CompressStreamMeta, FieldStatsReply, Frame, FrameHeader, Request, Response,
    SelectReply, SelectRequest, ServerErrorKind, TrialReport, WireReport, PROTOCOL_V2,
};
pub use server::{Server, ServerBuilder, ServerConfig, ServerStats};
