//! Scoped-thread parallel execution of inference work units.
//!
//! Every strategy, the engine's and the oracles' in [`crate::oracle`],
//! decomposes into independent *evaluation units* — (call × rule) for the
//! temporal rewrite and state replay, (service × rule) for the grouped
//! pass — each producing a private buffer of [`ProvLink`]s over shared
//! read-only state (the final [`weblab_xml::Document`], the rule set, the
//! element index and the pattern cache). [`run_units`] fans those units out across a
//! `std::thread::scope` worker pool and merges the buffers **in unit
//! order**, so the combined link stream is identical to sequential
//! execution regardless of scheduling; the engine's final sort + dedup then
//! guarantees byte-identical `ProvenanceGraph` output.
//!
//! Workers pull unit indices from a shared atomic counter (work stealing by
//! subtraction): units vary wildly in cost — a call that appended one
//! resource versus one that appended hundreds — and static chunking would
//! leave threads idle behind the largest unit.
//!
//! Std-only by design: the build environment has no registry access, and
//! Rust ≥ 1.63 scoped threads make a dependency-free pool small enough to
//! carry in-tree.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use weblab_obs::{Counter, Gauge, Histogram, Span};

use crate::algebra::ProvLink;

/// Wall time per evaluation unit, nanoseconds. The *count* equals the
/// number of units executed (deterministic); the sum is wall time and is
/// not asserted by tests.
static UNIT_NANOS: Histogram = Histogram::new("prov.executor.unit.duration_ns");
/// Units currently executing across all workers.
static UNITS_INFLIGHT: Gauge = Gauge::new("prov.executor.units.inflight");
/// Worker threads spawned by parallel runs (sequential runs spawn none).
static WORKERS_SPAWNED: Counter = Counter::new("prov.executor.workers.spawned");

/// Degree of parallelism for provenance inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Run every unit on the calling thread (the reference behaviour).
    #[default]
    Sequential,
    /// Use exactly `n` worker threads (`Threads(0)` and `Threads(1)` are
    /// both sequential).
    Threads(usize),
    /// Use `std::thread::available_parallelism()` workers.
    Auto,
}

impl Parallelism {
    /// The number of worker threads this setting resolves to.
    pub fn worker_count(self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

/// Evaluate `unit(0..n_units)` and concatenate the results in unit order.
///
/// `unit` must be a pure function of its index over shared read-only state;
/// it runs concurrently on multiple threads when `par` resolves to more
/// than one worker. The output is exactly
/// `(0..n_units).flat_map(unit).collect()` — scheduling cannot reorder it.
pub fn run_units<F>(par: Parallelism, n_units: usize, unit: F) -> Vec<ProvLink>
where
    F: Fn(usize) -> Vec<ProvLink> + Sync,
{
    // Time every unit identically on the sequential and parallel paths, so
    // `prov.executor.unit.duration_ns` has the same count either way.
    let timed_unit = |idx: usize| {
        let _span = Span::start_with_inflight(&UNIT_NANOS, &UNITS_INFLIGHT);
        unit(idx)
    };

    let workers = par.worker_count().min(n_units);
    if workers <= 1 {
        return (0..n_units).flat_map(timed_unit).collect();
    }
    WORKERS_SPAWNED.add(workers as u64);

    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, Vec<ProvLink>)>> = Mutex::new(Vec::with_capacity(n_units));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // Collect locally, publish once per worker: the mutex is
                // touched `workers` times, not `n_units` times.
                let mut local: Vec<(usize, Vec<ProvLink>)> = Vec::new();
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= n_units {
                        break;
                    }
                    local.push((idx, timed_unit(idx)));
                }
                results.lock().expect("worker panicked").extend(local);
            });
        }
    });

    let mut results = results.into_inner().expect("worker panicked");
    results.sort_by_key(|&(idx, _)| idx);
    results.into_iter().flat_map(|(_, links)| links).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use weblab_xml::NodeId;

    fn mk(i: usize) -> Vec<ProvLink> {
        // deliberately uneven unit sizes
        (0..i % 3)
            .map(|j| ProvLink {
                from: NodeId::from_index(i),
                from_uri: format!("u{i}"),
                to: NodeId::from_index(j),
                to_uri: format!("v{j}"),
            })
            .collect()
    }

    #[test]
    fn parallel_output_is_in_unit_order() {
        let seq = run_units(Parallelism::Sequential, 100, mk);
        for workers in [1, 2, 3, 8, 64] {
            assert_eq!(run_units(Parallelism::Threads(workers), 100, mk), seq);
        }
        assert_eq!(run_units(Parallelism::Auto, 100, mk), seq);
    }

    #[test]
    fn zero_units_is_empty() {
        assert!(run_units(Parallelism::Auto, 0, mk).is_empty());
    }

    #[test]
    fn worker_counts_resolve() {
        assert_eq!(Parallelism::Sequential.worker_count(), 1);
        assert_eq!(Parallelism::Threads(0).worker_count(), 1);
        assert_eq!(Parallelism::Threads(6).worker_count(), 6);
        assert!(Parallelism::Auto.worker_count() >= 1);
    }
}
