//! The measurement loop shared by every workload: closed-loop operations
//! grouped into slices of about a second, a reference slice after every
//! operation, CPU accounting for the process under test, output checks,
//! and the traced replays' per-layer breakdowns.

use std::collections::BTreeMap;
use std::time::Instant;

use weblab::json::Json;
use weblab::obs;

use crate::kernel::Reference;
use crate::stats::{self, median};
use crate::sys;
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
    /// Work between operations (store compaction): timed into throughput
    /// and CPU, but neither a read nor a write.
    Between,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Read => "read",
            Kind::Write => "write",
            Kind::Between => "between",
        }
    }
}

/// Whose CPU the run charges to the program under test.
#[derive(Debug, Clone, Copy)]
pub enum CpuScope {
    /// Every thread of this process (the program runs in-process).
    Process,
    /// The `weblab` children this process waited for.
    Children,
}

pub struct Sample {
    pub kind: Kind,
    pub raw_ms: f64,
    pub slice: usize,
    pub traced: bool,
    /// Index in `Harness::refs` of the reference timed right after it.
    pub ref_after: usize,
}

#[derive(Default)]
pub struct Slice {
    pub ops: usize,
    /// Time spent in operations and the work between them, ms.
    pub busy_ms: f64,
    pub refs: Vec<f64>,
    cpu_start: f64,
    excluded_cpu: f64,
    pub cpu_ms: f64,
}

/// One traced operation's breakdown: self time per layer and residual.
pub struct Breakdown {
    pub kind: Kind,
    /// Index of the operation's sample.
    pub sample: usize,
    pub layers: BTreeMap<&'static str, f64>,
    /// The part of the operation covered by replayed calls, ms.
    pub replayed: f64,
    pub residual: f64,
    pub total: f64,
}

/// A timed operation's output.
pub struct Op<T> {
    pub out: T,
    /// Root span of a traced operation.
    pub root: Option<usize>,
    /// `weblab::obs` counter deltas over a traced operation.
    pub counters: Option<obs::Snapshot>,
}

/// The steps of one set-up. Each step is normalised by the references
/// timed right before and after it, as an operation is, and the set-up's
/// time is the sum of its steps' times.
pub struct Steps<'h> {
    reference: &'h Reference,
    last_ref: f64,
    raw_ms: f64,
    normalised_ms: f64,
}

impl Steps<'_> {
    pub fn step<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let raw_ms = t.elapsed().as_secs_f64() * 1e3;
        let (after, _) = self.reference.measure();
        self.raw_ms += raw_ms;
        self.normalised_ms +=
            raw_ms * self.reference.nominal_ms() / ((self.last_ref + after) / 2.0);
        self.last_ref = after;
        out
    }
}

pub struct Harness {
    pub reference: Reference,
    scope: CpuScope,
    /// Whether this is the traced run.
    pub trace: bool,
    pub samples: Vec<Sample>,
    pub slices: Vec<Slice>,
    /// Every reference time of the run, in order, ms.
    pub refs: Vec<f64>,
    /// The kernel part of each of `refs`, ms.
    pub ref_kernels: Vec<f64>,
    /// Set-ups: raw ms and the normalisation factor over their steps.
    pub setups: Vec<(f64, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub setup_failed: bool,
    pub failures: Vec<String>,
    pub tracer: Tracer,
    pub breakdowns: Vec<Breakdown>,
    /// Ratio metrics: numerator and denominator.
    pub counts: BTreeMap<&'static str, (f64, f64)>,
    traced_turn: [bool; 3],
}

impl Harness {
    pub fn new(reference: Reference, scope: CpuScope, trace: bool) -> Self {
        Harness {
            reference,
            scope,
            trace,
            samples: Vec::new(),
            slices: Vec::new(),
            refs: Vec::new(),
            ref_kernels: Vec::new(),
            setups: Vec::new(),
            attempted: 0,
            failed: 0,
            setup_failed: false,
            failures: Vec::new(),
            tracer: Tracer::new(),
            breakdowns: Vec::new(),
            counts: BTreeMap::new(),
            traced_turn: [false; 3],
        }
    }

    fn cpu_now(&self) -> f64 {
        match self.scope {
            CpuScope::Process => sys::process_cpu_ms(),
            CpuScope::Children => sys::children_cpu_ms(),
        }
    }

    fn excludable_cpu(&self) -> f64 {
        match self.scope {
            CpuScope::Process => sys::thread_cpu_ms(),
            CpuScope::Children => sys::children_cpu_ms(),
        }
    }

    /// Time a set-up made of steps, each normalised like an operation by
    /// the references timed right before and after it (see [`Steps`]).
    pub fn setup<T>(&mut self, f: impl FnOnce(&mut Steps) -> T) -> T {
        let (last_ref, _) = self.reference.measure();
        let mut steps = Steps {
            reference: &self.reference,
            last_ref,
            raw_ms: 0.0,
            normalised_ms: 0.0,
        };
        let out = f(&mut steps);
        let (raw_ms, normalised_ms) = (steps.raw_ms, steps.normalised_ms);
        self.setups.push((raw_ms, normalised_ms / raw_ms));
        out
    }

    pub fn begin_slice(&mut self) {
        let cpu_start = self.cpu_now();
        self.slices.push(Slice {
            cpu_start,
            ..Slice::default()
        });
    }

    pub fn end_slice(&mut self) {
        let now = self.cpu_now();
        let s = self.slices.last_mut().expect("a slice is open");
        s.cpu_ms = now - s.cpu_start - s.excluded_cpu;
    }

    fn slice(&mut self) -> &mut Slice {
        self.slices.last_mut().expect("a slice is open")
    }

    /// Run benchmark-side work (preparing requests, checks, replays,
    /// references) whose CPU is not the program's.
    pub fn outside<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let c0 = self.excludable_cpu();
        let out = f(self);
        let used = self.excludable_cpu() - c0;
        self.slice().excluded_cpu += used;
        out
    }

    /// Time one reference slice after an operation.
    pub fn reference(&mut self) {
        let (ms, kernel_ms) = self.outside(|h| h.reference.measure());
        self.slice().refs.push(ms);
        self.refs.push(ms);
        self.ref_kernels.push(kernel_ms);
    }

    /// Whether the next operation of `kind` is traced: in the traced run,
    /// every other operation of each kind, so the untraced ones in between
    /// give the tracing overhead.
    pub fn traced_next(&mut self, kind: Kind) -> bool {
        let turn = &mut self.traced_turn[kind as usize];
        *turn = !*turn;
        self.trace && *turn
    }

    /// Time one operation. A traced operation runs with `weblab::obs`
    /// enabled and records a root span; the counter deltas over it are
    /// returned (taken outside the timed interval).
    pub fn op<T>(&mut self, kind: Kind, traced: bool, f: impl FnOnce() -> T) -> Op<T> {
        let before = traced.then(|| {
            obs::enable();
            obs::snapshot()
        });
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let counters = before.map(|b| {
            let delta = obs::snapshot().since(&b);
            obs::disable();
            delta
        });
        let raw_ms = (end - start).as_secs_f64() * 1e3;
        let slice = self.slices.len() - 1;
        let s = self.slice();
        s.busy_ms += raw_ms;
        if kind != Kind::Between {
            s.ops += 1;
        }
        let ref_after = self.refs.len();
        self.samples.push(Sample {
            kind,
            raw_ms,
            slice,
            traced,
            ref_after,
        });
        // operation ids are sample indices
        let op = self.samples.len() - 1;
        let root = traced.then(|| self.tracer.record(kind.name(), start, end, None, op));
        Op {
            out,
            root,
            counters,
        }
    }

    /// Close a traced operation: its breakdown over the spans recorded
    /// below `root`.
    pub fn close(&mut self, root: usize) {
        let (layers, replayed, residual) = self.tracer.breakdown(root);
        let total = self.tracer.spans[root].ms();
        let sample = self.tracer.spans[root].op;
        let kind = self.samples[sample].kind;
        self.breakdowns.push(Breakdown {
            kind,
            sample,
            layers,
            replayed,
            residual,
            total,
        });
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    pub fn check_setup(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.setup_failed = true;
            if self.failures.len() < 8 {
                self.failures.push(format!("set-up: {}", what()));
            }
        }
    }

    /// Add to a ratio metric.
    pub fn count(&mut self, name: &'static str, num: f64, den: f64) {
        let c = self.counts.entry(name).or_insert((0.0, 0.0));
        c.0 += num;
        c.1 += den;
    }

    /// The normalisation factor of a slice, for per-slice quantities
    /// (CPU): nominal over the slice's median reference time.
    pub fn slice_factor(&self, slice: usize) -> f64 {
        self.reference.nominal_ms() / median(&self.slices[slice].refs)
    }

    /// The normalisation factor of one operation: nominal over the mean of
    /// the references timed right before and right after it.
    pub fn factor(&self, sample: usize) -> f64 {
        self.factor_over(sample, &self.refs, self.reference.nominal_ms())
    }

    fn factor_over(&self, sample: usize, refs: &[f64], nominal_ms: f64) -> f64 {
        let after = self.samples[sample].ref_after;
        let before = after.checked_sub(1).unwrap_or(after);
        nominal_ms / ((refs[before] + refs[after]) / 2.0)
    }

    /// Normalised times of the operations of `kind`, traced or not, ms.
    pub fn normalised(&self, kind: Kind, traced: bool) -> Vec<f64> {
        (0..self.samples.len())
            .filter(|&i| self.samples[i].kind == kind && self.samples[i].traced == traced)
            .map(|i| self.samples[i].raw_ms * self.factor(i))
            .collect()
    }

    /// Untraced times of the operations of `kind` normalised by the
    /// reference's kernel part alone, ms: the report's comparison for the
    /// durable reference.
    pub fn normalised_by_kernel(&self, kind: Kind) -> Vec<f64> {
        let nominal = self.reference.nominal_kernel_ms();
        (0..self.samples.len())
            .filter(|&i| self.samples[i].kind == kind && !self.samples[i].traced)
            .map(|i| self.samples[i].raw_ms * self.factor_over(i, &self.ref_kernels, nominal))
            .collect()
    }

    pub fn raw(&self, kind: Kind) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.kind == kind && !s.traced)
            .map(|s| s.raw_ms)
            .collect()
    }

    /// Operations per normalised second of operations and the work between
    /// them, per slice.
    pub fn throughput(&self) -> Vec<f64> {
        let mut busy = vec![0.0; self.slices.len()];
        for (i, s) in self.samples.iter().enumerate() {
            busy[s.slice] += s.raw_ms * self.factor(i);
        }
        self.slices
            .iter()
            .zip(busy)
            .map(|(s, ms)| s.ops as f64 / (ms / 1e3))
            .collect()
    }

    /// CPU of the program per operation, normalised, per slice.
    pub fn cpu_per_op(&self) -> Vec<f64> {
        (0..self.slices.len())
            .map(|i| self.slices[i].cpu_ms / self.slices[i].ops as f64 * self.slice_factor(i))
            .collect()
    }

    /// Unnormalised throughput and CPU per operation, per slice, for the
    /// report.
    pub fn raw_throughput(&self) -> Vec<f64> {
        self.slices
            .iter()
            .map(|s| s.ops as f64 / (s.busy_ms / 1e3))
            .collect()
    }

    pub fn raw_cpu_per_op(&self) -> Vec<f64> {
        self.slices
            .iter()
            .map(|s| s.cpu_ms / s.ops as f64)
            .collect()
    }

    pub fn setup_s(&self) -> Vec<f64> {
        self.setups.iter().map(|(ms, f)| ms * f / 1e3).collect()
    }

    /// Median normalised self time of `layer` over the traced operations
    /// that call it, ms.
    pub fn layer_ms(&self, layer: &str) -> (f64, usize) {
        let v: Vec<f64> = self
            .breakdowns
            .iter()
            .filter_map(|b| b.layers.get(layer).map(|ms| ms * self.factor(b.sample)))
            .collect();
        (stats::median(&v), v.len())
    }

    /// Median normalised residual of traced operations of `kind`, ms.
    pub fn residual_ms(&self, kind: Kind) -> (f64, usize) {
        let v: Vec<f64> = self
            .breakdowns
            .iter()
            .filter(|b| b.kind == kind)
            .map(|b| b.residual * self.factor(b.sample))
            .collect();
        (stats::median(&v), v.len())
    }

    /// Raw operation times and the reference times of every slice, for
    /// the report file.
    pub fn samples_json(&self) -> Json {
        Json::obj(vec![
            (
                "ops",
                Json::Arr(
                    self.samples
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("kind", Json::str(s.kind.name())),
                                ("raw_ms", Json::Num(s.raw_ms)),
                                ("slice", Json::num(s.slice as u64)),
                                ("traced", Json::Bool(s.traced)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "slices",
                Json::Arr(
                    self.slices
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("ops", Json::num(s.ops as u64)),
                                ("busy_ms", Json::Num(s.busy_ms)),
                                ("cpu_ms", Json::Num(s.cpu_ms)),
                                (
                                    "reference_ms",
                                    Json::Arr(s.refs.iter().map(|&r| Json::Num(r)).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "setups",
                Json::Arr(
                    self.setups
                        .iter()
                        .map(|&(ms, f)| Json::Arr(vec![Json::Num(ms), Json::Num(f)]))
                        .collect(),
                ),
            ),
        ])
    }

    /// Per layer and residual, the most negative normalised self time over
    /// the traced operations and how many operations it went negative in:
    /// where a replay ran slower than the part of the operation it stands
    /// for.
    pub fn negative_self_times(&self) -> BTreeMap<String, (f64, usize)> {
        let mut out: BTreeMap<String, (f64, usize)> = BTreeMap::new();
        for b in &self.breakdowns {
            let f = self.factor(b.sample);
            let residual = (format!("residual.{}", b.kind.name()), b.residual);
            let layers = b.layers.iter().map(|(n, &ms)| (n.to_string(), ms));
            for (name, ms) in layers.chain([residual]) {
                if ms < 0.0 {
                    let e = out.entry(name).or_insert((0.0, 0));
                    e.0 = e.0.min(ms * f);
                    e.1 += 1;
                }
            }
        }
        out
    }

    /// Median share of the traced operations of `kind` covered by replayed
    /// calls rather than by derived spans or the residual.
    pub fn replayed_share(&self, kind: Kind) -> (f64, usize) {
        let v: Vec<f64> = self
            .breakdowns
            .iter()
            .filter(|b| b.kind == kind)
            .map(|b| b.replayed / b.total)
            .collect();
        (stats::median(&v), v.len())
    }
}

/// Run `f` with `weblab::obs` enabled; returns the counter deltas.
pub fn observed<T>(f: impl FnOnce() -> T) -> (T, obs::Snapshot) {
    obs::enable();
    let before = obs::snapshot();
    let out = f();
    let delta = obs::snapshot().since(&before);
    obs::disable();
    (out, delta)
}
