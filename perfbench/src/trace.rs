//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. Each span keeps its name, start, end, parent and op
//! id. Spans stay in memory until the run ends, when [`Tracer::finish`]
//! derives every span's self time: its duration minus the part of it
//! that its children cover (children may run on other threads, so
//! coverage is the union of their intervals).

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    start: Instant,
    end: Option<Instant>,
    parent: Option<usize>,
    op: u64,
}

/// A finished span with its derived self time.
#[derive(Debug, Clone)]
pub struct Closed {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    /// Start relative to the parent's start (zero for roots).
    pub offset: Duration,
    pub duration: Duration,
    pub self_time: Duration,
}

/// Collects spans and named counters from any thread.
#[derive(Default)]
pub struct Tracer {
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    /// A context that opens root spans for `op`.
    pub fn root(&self, op: u64) -> Ctx<'_> {
        Ctx {
            tracer: self,
            op,
            parent: None,
        }
    }

    /// Adds `value` to the counter `name`.
    pub fn count(&self, name: &'static str, value: f64) {
        *self
            .counters
            .lock()
            .expect("counter map poisoned")
            .entry(name)
            .or_insert(0.0) += value;
    }

    fn open(&self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name,
            start: Instant::now(),
            end: None,
            parent,
            op,
        });
        spans.len() - 1
    }

    fn close(&self, id: usize) {
        let now = Instant::now();
        self.spans.lock().expect("span store poisoned")[id].end = Some(now);
    }

    /// Ends recording: returns every span with its self time, and the
    /// counters.
    pub fn finish(self) -> (Vec<Closed>, BTreeMap<&'static str, f64>) {
        let spans = self.spans.into_inner().expect("span store poisoned");
        let counters = self.counters.into_inner().expect("counter map poisoned");
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let closed = spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let end = s.end.unwrap_or(s.start);
                let duration = end - s.start;
                let mut kids: Vec<(Instant, Instant)> = children[i]
                    .iter()
                    .map(|&c| {
                        let k = &spans[c];
                        let ks = k.start.clamp(s.start, end);
                        (ks, k.end.unwrap_or(k.start).clamp(ks, end))
                    })
                    .collect();
                kids.sort();
                let mut covered = Duration::ZERO;
                let mut cursor = s.start;
                for (ks, ke) in kids {
                    let from = ks.max(cursor);
                    if ke > from {
                        covered += ke - from;
                        cursor = ke;
                    }
                }
                Closed {
                    name: s.name,
                    op: s.op,
                    parent: s.parent,
                    offset: s.parent.map_or(Duration::ZERO, |p| {
                        s.start.saturating_duration_since(spans[p].start)
                    }),
                    duration,
                    self_time: duration.saturating_sub(covered),
                }
            })
            .collect();
        (closed, counters)
    }
}

/// Where new spans attach: the tracer, the op id, and the parent span.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    tracer: &'a Tracer,
    op: u64,
    parent: Option<usize>,
}

impl<'a> Ctx<'a> {
    /// Runs `f` inside a span named `name`; spans `f` opens through the
    /// context it receives become children of this one.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce(Ctx<'a>) -> R) -> R {
        let id = self.tracer.open(name, self.parent, self.op);
        let r = f(Ctx {
            parent: Some(id),
            ..*self
        });
        self.tracer.close(id);
        r
    }

    /// Adds `value` to the counter `name`.
    pub fn count(&self, name: &'static str, value: f64) {
        self.tracer.count(name, value);
    }
}

/// Per-name totals over a finished trace.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub calls: u64,
    pub duration: Duration,
    pub self_time: Duration,
}

/// Sums durations and self times by span name.
pub fn totals(spans: &[Closed]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.duration += s.duration;
        t.self_time += s.self_time;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_overlap_counts_once() {
        let t = Tracer::new();
        t.root(7).span("outer", |c| {
            c.span("a", |_| std::thread::sleep(Duration::from_millis(20)));
            std::thread::scope(|s| {
                s.spawn(|| c.span("b", |_| std::thread::sleep(Duration::from_millis(20))));
                s.spawn(|| c.span("b", |_| std::thread::sleep(Duration::from_millis(20))));
            });
        });
        let (spans, _) = t.finish();
        let outer = &spans[0];
        assert_eq!(outer.name, "outer");
        assert!(spans.iter().all(|s| s.op == 7));
        // Two overlapping 20 ms children count once, so the outer self
        // time is well under the 40 ms its children slept in sequence.
        assert!(
            outer.self_time < Duration::from_millis(15),
            "{:?}",
            outer.self_time
        );
        let by_name = totals(&spans);
        assert_eq!(by_name["b"].calls, 2);
        assert!(by_name["b"].duration >= Duration::from_millis(40));
    }
}
