//! Thread-based MPI-rank simulation.
//!
//! The paper runs Heat3d on 512 Titan ranks and its *one-base* reduced
//! model requires a mid-plane broadcast plus a delta gather (Algorithm 1).
//! This crate substitutes threads for MPI ranks — same communication
//! pattern, same decomposition arithmetic — so the distributed algorithms
//! can be executed and verified on one machine:
//!
//! * [`comm`] — rank communicator over std mpsc channels with
//!   `broadcast` / `gather` / point-to-point.
//! * [`domain`] — 3-D block decomposition, plane ownership, sub-domain
//!   extraction.
//! * [`pool`] — a worker pool over one shared queue, used by the
//!   chunk-parallel compression engine and the partitioned models.

pub mod comm;
pub mod domain;
pub mod pool;

pub use comm::{run_ranks, RankCtx};
pub use domain::{Decomposition, SubDomain};
pub use pool::{available_threads, WorkerPool};
