//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer's public functions; nothing inside the program is
//! instrumented. A span carries its parent explicitly (sweep jobs run on
//! pool threads, so a thread-local stack would lose the hierarchy), the
//! request it belongs to (point key or campaign id) and the worker
//! thread that ran it. With the tracer off, [`Tracer::span`] is one
//! relaxed load.

use crate::json::Json;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's creation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub name: &'static str,
    pub req: String,
    pub worker: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: AtomicBool,
    next_id: AtomicU32,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Small stable number for the calling thread (0 = first thread seen).
fn worker_id() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! { static ID: u32 = NEXT.fetch_add(1, Ordering::Relaxed); }
    ID.with(|id| *id)
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(enabled),
            next_id: AtomicU32::new(1),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Open a span; it closes when the guard drops. `req` is only
    /// evaluated when the tracer is on.
    pub fn span(&self, name: &'static str, parent: u32, req: impl FnOnce() -> String) -> Guard<'_> {
        if !self.enabled.load(Ordering::Relaxed) {
            return Guard {
                tracer: self,
                open: None,
            };
        }
        let span = Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            req: req(),
            worker: worker_id(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        };
        Guard {
            tracer: self,
            open: Some(span),
        }
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().map_or(0, |s| s.len())
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock: recording never panics")
            .clone()
    }
}

/// An open span.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    open: Option<Span>,
}

impl Guard<'_> {
    /// The span's id, to hand to children; 0 when the tracer is off.
    pub fn id(&self) -> u32 {
        self.open.as_ref().map_or(0, |s| s.id)
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(mut span) = self.open.take() {
            span.end_ns = self.tracer.epoch.elapsed().as_nanos() as u64;
            if let Ok(mut spans) = self.tracer.spans.lock() {
                spans.push(span);
            }
        }
    }
}

/// Total length covered by `intervals` (overlaps counted once).
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut end = 0;
    for (s, e) in intervals {
        let s = s.max(end);
        if e > s {
            covered += e - s;
            end = e;
        }
    }
    covered
}

/// Self time of `span`: its duration minus the part of it its direct
/// children cover. Children that overlap (parallel jobs) count once, so
/// this is the time during which *nothing* below the span ran.
pub fn self_ns(span: &Span, all: &[Span]) -> u64 {
    let children = all
        .iter()
        .filter(|c| c.parent == span.id)
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .collect();
    span.dur_ns() - union_ns(children)
}

/// Per-worker self time of a parallel span such as `exec.par_map`: for
/// each worker that ran a child, the span's duration minus the union of
/// that worker's children — the time the worker spent waiting to be
/// dealt work, or idle at the tail. Sorted by worker.
pub fn self_ns_per_worker(span: &Span, all: &[Span]) -> Vec<(u32, u64)> {
    let mut workers: Vec<u32> = all
        .iter()
        .filter(|c| c.parent == span.id)
        .map(|c| c.worker)
        .collect();
    workers.sort_unstable();
    workers.dedup();
    workers
        .into_iter()
        .map(|w| {
            let mine = all
                .iter()
                .filter(|c| c.parent == span.id && c.worker == w)
                .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
                .collect();
            (w, span.dur_ns() - union_ns(mine))
        })
        .collect()
}

/// The trace file: Chrome trace-event JSON (complete events, `ts`/`dur`
/// in microseconds, `tid` = worker), loadable in Perfetto or
/// `chrome://tracing`; `args` carries the span id, parent id, request
/// and self time so the hierarchy survives without a viewer.
pub fn to_chrome_json(workload: &str, spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            let mut args = vec![
                ("id", Json::Num(f64::from(s.id))),
                ("parent", Json::Num(f64::from(s.parent))),
                ("req", Json::str(s.req.clone())),
                ("self_us", Json::Num(self_ns(s, spans) as f64 / 1e3)),
            ];
            let per_worker = self_ns_per_worker(s, spans);
            if per_worker.len() > 1 {
                let fields = per_worker
                    .iter()
                    .map(|(w, ns)| (w.to_string(), Json::Num(*ns as f64 / 1e3)));
                args.push(("self_us_per_worker", Json::obj(fields)));
            }
            Json::obj([
                ("name", Json::str(s.name)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(f64::from(s.worker))),
                ("args", Json::obj(args)),
            ])
        })
        .collect();
    Json::obj([
        ("workload", Json::str(workload)),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, worker: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            req: String::new(),
            worker,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_counts_overlapping_parallel_children_once() {
        // A 100 ns parent; two workers' children overlap on 30..60.
        let all = vec![
            span(1, 0, 0, 0, 100),
            span(2, 1, 0, 10, 60),
            span(3, 1, 1, 30, 80),
            span(4, 1, 1, 80, 90),
            span(5, 2, 0, 20, 30), // grandchild: not subtracted from the root
        ];
        // Children cover 10..90 => 80 ns; the parent's own time is 20.
        assert_eq!(self_ns(&all[0], &all), 20);
        // Child 2 has one 10 ns child of its own.
        assert_eq!(self_ns(&all[1], &all), 40);
        // A leaf's self time is its duration.
        assert_eq!(self_ns(&all[2], &all), 50);
        // Per worker: worker 0 ran 50 of 100 ns, worker 1 ran 50 + 10.
        assert_eq!(self_ns_per_worker(&all[0], &all), vec![(0, 50), (1, 40)]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let all = vec![
            span(1, 0, 0, 50, 100),
            span(2, 1, 0, 40, 70),
            span(3, 1, 0, 90, 120),
        ];
        assert_eq!(self_ns(&all[0], &all), 50 - 20 - 10);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_hands_out_id_zero() {
        let t = Tracer::new(false);
        {
            let g = t.span("a", 0, || unreachable!("req is lazy"));
            assert_eq!(g.id(), 0);
        }
        assert_eq!(t.len(), 0);
        let t = Tracer::new(true);
        let parent = t.span("parent", 0, || "p".to_string());
        let pid = parent.id();
        drop(t.span("child", pid, || "c".to_string()));
        drop(parent);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("child", pid));
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].id),
            ("parent", 0, pid)
        );
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
    }

    #[test]
    fn chrome_trace_carries_hierarchy_and_self_time() {
        let all = vec![span(1, 0, 0, 0, 10_000), span(2, 1, 3, 2_000, 5_000)];
        let j = to_chrome_json("steady", &all);
        let text = j.encode();
        let back = Json::parse(&text).unwrap();
        let Some(Json::Arr(events)) = back.get("traceEvents") else {
            panic!("{text}")
        };
        assert_eq!(
            events[0]
                .get("args")
                .unwrap()
                .get("self_us")
                .unwrap()
                .as_f64(),
            Some(7.0)
        );
        assert_eq!(events[1].get("tid").unwrap().as_f64(), Some(3.0));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
    }
}
