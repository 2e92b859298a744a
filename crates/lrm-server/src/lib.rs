//! `lrm-server` — a concurrent compression service over `std::net`.
//!
//! The crate has four layers:
//!
//! * [`protocol`] — the framed wire protocol (LRMP v2): a 24-byte header
//!   (magic, version, kind, payload length, `u64` request id) so many
//!   requests can be in flight per connection and responses may arrive
//!   out of order. Every frame is one request, answered once. The
//!   decoder follows the workspace's hardened decode-path contract and
//!   is registered in `lint.toml`.
//! * [`poll`] — a zero-dependency readiness shim over the platform's
//!   `poll(2)` used by the event loop.
//! * [`server`] — a nonblocking readiness event loop owning every
//!   socket, dispatching codec work to a fixed set of worker threads
//!   through a job queue, and marrying the two with a completion queue.
//!   Connections persist across requests with explicit per-request
//!   backpressure: max in-flight requests (global and per-connection),
//!   max payload size, and a per-request deadline, each mapped to a
//!   typed error frame (`Busy`, `TooLarge`, `Timeout`). Shutdown drains
//!   in-flight requests before the listener closes.
//! * [`client`] — a session-based [`Connection`] holding one socket
//!   across many requests (`send` → [`RequestHandle`] → `wait`, or a
//!   blocking `call`), used by `lrm-cli client`, the loopback tests,
//!   and perfbench's `serve-mixed` workload.
//!
//! The server is a consumer of the workspace layers: `lrm-compress`
//! codecs, the `lrm-core` pipeline (which writes the `lrm-io` artifact
//! containers) and model selector, and `lrm-parallel`'s count of
//! available cores, which `threads: 0` resolves to.

pub mod client;
pub mod poll;
pub mod protocol;
pub mod server;

pub use client::{ClientError, ClientResult, Connection, RequestHandle};
pub use lrm_compress::{DecodeError, DecodeResult, Shape};
pub use protocol::{
    CompressRequest, FieldStatsReply, Frame, FrameHeader, Request, Response, SelectReply,
    SelectRequest, ServerErrorKind, TrialReport, WireReport, PROTOCOL_V2,
};
pub use server::{Server, ServerConfig, ServerStats};
