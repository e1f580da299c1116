//! In-memory spans for the traced run. Spans are recorded in the
//! benchmark's own code around each public call into a layer; a layer
//! that runs inside a child process or a server worker is replayed on the
//! benchmark's thread after the timed operation and recorded under it.
//!
//! A span's self time is its duration minus its children's durations, so
//! an operation's time equals the self times below it plus its residual
//! (its duration minus its direct children's) by definition. What can go
//! wrong is a replay that runs slower than the part of the operation it
//! stands for: a self time or residual then comes out negative. A derived
//! span (an operation minus a replayed part of it) absorbs every gap, so
//! the share of an operation its replayed spans cover is kept too.

use std::collections::BTreeMap;
use std::time::Instant;

use weblab::json::Json;

pub struct Span {
    pub name: &'static str,
    /// Start and end, ms since the tracer was created. A derived span (an
    /// operation minus a replayed part of it) may end before it starts
    /// when the replay ran slower than the original.
    pub start_ms: f64,
    pub end_ms: f64,
    pub parent: Option<usize>,
    pub op: usize,
    /// Computed as a difference, not timed around a call.
    pub derived: bool,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e3
    }

    /// Record a finished interval; returns the span's id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: usize,
    ) -> usize {
        let (start_ms, end_ms) = (self.at(start), self.at(end));
        self.spans.push(Span {
            name,
            start_ms,
            end_ms,
            parent,
            op,
            derived: false,
        });
        self.spans.len() - 1
    }

    /// A child of `parent` covering all of it, for an operation that is a
    /// single public call.
    pub fn whole(&mut self, name: &'static str, parent: usize) -> usize {
        let p = &self.spans[parent];
        let (start_ms, end_ms, op) = (p.start_ms, p.end_ms, p.op);
        self.spans.push(Span {
            name,
            start_ms,
            end_ms,
            parent: Some(parent),
            op,
            derived: false,
        });
        self.spans.len() - 1
    }

    /// Time `f` as a child of `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let op = self.spans[parent].op;
        (out, self.record(name, start, end, Some(parent), op))
    }

    /// A derived child of `parent` lasting `ms`.
    pub fn derived(&mut self, name: &'static str, parent: usize, ms: f64) -> usize {
        let p = &self.spans[parent];
        let (start_ms, op) = (p.start_ms, p.op);
        self.spans.push(Span {
            name,
            start_ms,
            end_ms: start_ms + ms,
            parent: Some(parent),
            op,
            derived: true,
        });
        self.spans.len() - 1
    }

    /// Self time per layer name over the spans below `root`, the part of
    /// the root covered by replayed (not derived) spans, and the root's
    /// residual.
    pub fn breakdown(&self, root: usize) -> (BTreeMap<&'static str, f64>, f64, f64) {
        // an operation's spans are recorded contiguously, root first
        let op = self.spans[root].op;
        let children = |id: usize| {
            self.spans
                .iter()
                .enumerate()
                .skip(id + 1)
                .take_while(move |(_, s)| s.op == op)
                .filter(move |(_, s)| s.parent == Some(id))
                .map(|(c, _)| c)
        };
        let mut layers = BTreeMap::new();
        let mut replayed = 0.0;
        let mut stack: Vec<usize> = children(root).collect();
        while let Some(id) = stack.pop() {
            let kids: Vec<usize> = children(id).collect();
            let own = self.spans[id].ms() - kids.iter().map(|&k| self.spans[k].ms()).sum::<f64>();
            *layers.entry(self.spans[id].name).or_insert(0.0) += own;
            if !self.spans[id].derived {
                replayed += own;
            }
            stack.extend(kids);
        }
        let residual =
            self.spans[root].ms() - children(root).map(|k| self.spans[k].ms()).sum::<f64>();
        (layers, replayed, residual)
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("name", Json::str(s.name)),
                        ("start_ms", Json::Num(s.start_ms)),
                        ("end_ms", Json::Num(s.end_ms)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::num(p as u64)),
                        ),
                        ("op", Json::num(s.op as u64)),
                        ("derived", Json::Bool(s.derived)),
                    ])
                })
                .collect(),
        )
    }
}
