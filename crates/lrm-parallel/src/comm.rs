//! Thread-based rank communicator with MPI-style collectives.
//!
//! The paper's *one-base* scheme needs exactly the communication pattern
//! of Algorithm 1: the rank owning the mid-plane **broadcasts** it, every
//! rank computes its local deltas, and the deltas are **gathered**. This
//! module runs N "ranks" as threads connected by std mpsc channels and
//! provides `broadcast` / `gather` / point-to-point with the same
//! semantics, so the algorithm can be exercised and tested in-process
//! without an MPI launcher.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

/// A message: sender rank, user tag, payload.
type Message = (usize, u64, Vec<f64>);

/// Per-rank endpoint of the communicator.
pub struct RankCtx {
    rank: usize,
    size: usize,
    senders: Arc<Vec<Sender<Message>>>,
    receiver: Receiver<Message>,
    /// Out-of-order messages parked until a matching receive.
    parked: Vec<Message>,
}

impl RankCtx {
    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Sends `data` to `to` with `tag`.
    pub fn send(&self, to: usize, tag: u64, data: Vec<f64>) {
        self.senders[to]
            .send((self.rank, tag, data))
            .expect("rank channel closed");
    }

    /// Blocking receive of the next message from `from` with `tag`
    /// (messages with other signatures are parked, preserving order).
    pub fn recv(&mut self, from: usize, tag: u64) -> Vec<f64> {
        if let Some(i) = self
            .parked
            .iter()
            .position(|(f, t, _)| *f == from && *t == tag)
        {
            return self.parked.remove(i).2;
        }
        loop {
            let msg = self.receiver.recv().expect("rank channel closed");
            if msg.0 == from && msg.1 == tag {
                return msg.2;
            }
            self.parked.push(msg);
        }
    }

    /// Broadcast from `root`: the root's `data` is returned on every rank.
    pub fn broadcast(&mut self, root: usize, data: Vec<f64>) -> Vec<f64> {
        const TAG: u64 = u64::MAX - 1;
        if self.rank == root {
            for r in 0..self.size {
                if r != root {
                    self.send(r, TAG, data.clone());
                }
            }
            data
        } else {
            self.recv(root, TAG)
        }
    }

    /// Gather: every rank contributes `data`; the root receives all
    /// contributions ordered by rank and returns `Some`, others `None`.
    pub fn gather(&mut self, root: usize, data: Vec<f64>) -> Option<Vec<Vec<f64>>> {
        const TAG: u64 = u64::MAX - 2;
        if self.rank == root {
            let mut out: Vec<Vec<f64>> = Vec::with_capacity(self.size);
            for r in 0..self.size {
                if r == root {
                    out.push(data.clone());
                } else {
                    out.push(self.recv(r, TAG));
                }
            }
            Some(out)
        } else {
            self.send(root, TAG, data);
            None
        }
    }
}

/// Runs `f` on `size` ranks (one thread each) and returns their results
/// ordered by rank.
///
/// # Panics
/// Panics if any rank panics (the panic is propagated).
pub fn run_ranks<T, F>(size: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut RankCtx) -> T + Sync,
{
    assert!(size >= 1, "run_ranks: need at least one rank");
    let mut senders = Vec::with_capacity(size);
    let mut receivers = Vec::with_capacity(size);
    for _ in 0..size {
        let (s, r) = channel::<Message>();
        senders.push(s);
        receivers.push(r);
    }
    let senders = Arc::new(senders);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(size);
        for (rank, receiver) in receivers.into_iter().enumerate() {
            let senders = Arc::clone(&senders);
            let f = &f;
            handles.push(scope.spawn(move || {
                let mut ctx = RankCtx {
                    rank,
                    size,
                    senders,
                    receiver,
                    parked: Vec::new(),
                };
                f(&mut ctx)
            }));
        }
        // Joined in rank order; a rank's panic resumes with its payload.
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_reaches_every_rank() {
        let results = run_ranks(8, |ctx| {
            let data = if ctx.rank() == 3 {
                vec![1.0, 2.0, 3.0]
            } else {
                Vec::new()
            };
            ctx.broadcast(3, data)
        });
        for r in results {
            assert_eq!(r, vec![1.0, 2.0, 3.0]);
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let results = run_ranks(6, |ctx| {
            let mine = vec![ctx.rank() as f64];
            ctx.gather(0, mine)
        });
        let at_root = results[0].as_ref().expect("root gathers");
        for (i, part) in at_root.iter().enumerate() {
            assert_eq!(part, &vec![i as f64]);
        }
        assert!(results[1..].iter().all(|r| r.is_none()));
    }

    #[test]
    fn point_to_point_roundtrip() {
        let results = run_ranks(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 7, vec![42.0]);
                ctx.recv(1, 8)
            } else {
                let got = ctx.recv(0, 7);
                ctx.send(0, 8, vec![got[0] * 2.0]);
                got
            }
        });
        assert_eq!(results[0], vec![84.0]);
        assert_eq!(results[1], vec![42.0]);
    }

    #[test]
    fn out_of_order_tags_are_parked() {
        let results = run_ranks(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, vec![1.0]);
                ctx.send(1, 2, vec![2.0]);
                Vec::new()
            } else {
                // Receive in the opposite order they were sent.
                let b = ctx.recv(0, 2);
                let a = ctx.recv(0, 1);
                vec![a[0], b[0]]
            }
        });
        assert_eq!(results[1], vec![1.0, 2.0]);
    }

    #[test]
    fn single_rank_degenerates_gracefully() {
        let results = run_ranks(1, |ctx| {
            let b = ctx.broadcast(0, vec![9.0]);
            let g = ctx.gather(0, vec![1.0]).expect("root");
            (b, g.len())
        });
        assert_eq!(results[0].0, vec![9.0]);
        assert_eq!(results[0].1, 1);
    }
}
