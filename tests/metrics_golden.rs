//! Golden counter tests: the paper's running example (Figure 1/3/4) must
//! produce *exactly* the same metrics snapshot on every run, at every
//! worker count.
//!
//! The determinism argument: the pattern cache's `OnceLock` protocol
//! evaluates each distinct `(pattern, state)` key at most once regardless
//! of scheduling, so misses (= actual evaluations, and with them every
//! per-evaluation counter: nodes visited, predicate evaluations, index
//! lookups) depend only on the key set — not on thread interleaving.
//!
//! These tests live in their own integration-test binary (rather than
//! extending `tests/parallel_equivalence.rs` directly, as first sketched)
//! because `weblab_obs` metrics are process-global: any concurrently
//! running test that exercises the engine would pollute the counters.
//! Separate test binaries are separate processes; within this binary the
//! tests serialise on a mutex.

use std::collections::BTreeMap;
use std::sync::Mutex;

use weblab::obs;
use weblab::prov::oracle::{infer_provenance_with, Strategy};
use weblab::prov::{infer_provenance, paper_example, EngineOptions, Parallelism};

static SERIAL: Mutex<()> = Mutex::new(());

/// Run one inference of the paper example with collection on, returning
/// the counter section of the snapshot.
fn counters_for(strategy: Strategy, parallelism: Parallelism) -> BTreeMap<String, u64> {
    obs::reset();
    obs::enable();
    let (doc, trace, rules) = paper_example::build();
    let g = infer_provenance_with(
        &doc,
        &trace,
        &rules,
        strategy,
        &EngineOptions {
            parallelism,
            ..Default::default()
        },
    );
    assert!(!g.links.is_empty());
    let snap = obs::snapshot();
    obs::disable();
    // `obs::reset` zeroes values but keeps registrations, so a counter
    // touched by an earlier test in this process still appears (at 0) in
    // later snapshots. Compare only what this run actually counted. The
    // worker-pool size counter is parallelism-dependent *by design* and is
    // excluded from the worker-count-invariant golden set.
    let mut counters = snap.counters;
    counters.retain(|k, v| *v != 0 && k != "prov.executor.workers.spawned");
    counters
}

fn expect(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
    pairs
        .iter()
        .map(|&(k, v)| (k.to_string(), v))
        .collect()
}

#[test]
fn temporal_rewrite_golden_counters() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // 3 calls × 1 rule each = 3 units; each unit requests its rule's source
    // and target pattern (6 requests over 6 distinct patterns on the final
    // state), so every request is a miss and hits + misses == 2 × units.
    let expected = expect(&[
        ("prov.cache.misses", 6),
        ("prov.engine.links.derived", 3),
        ("prov.engine.links.emitted", 3),
        ("prov.engine.temporal.units", 3),
        ("prov.trace.channel_map.builds", 1),
        ("xpath.eval.nodes_visited", 34),
        ("xpath.eval.predicate_evals", 8),
        ("xpath.index.builds", 1),
        ("xpath.index.lookups", 5),
        ("xpath.pattern.evals", 6),
    ]);
    for workers in [
        Parallelism::Sequential,
        Parallelism::Threads(2),
        Parallelism::Threads(4),
    ] {
        let got = counters_for(Strategy::TemporalRewrite, workers);
        assert_eq!(got, expected, "workers = {workers:?}");
    }
}

#[test]
fn grouped_single_pass_golden_counters() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let expected = expect(&[
        ("prov.cache.misses", 6),
        ("prov.engine.links.derived", 3),
        ("prov.engine.links.emitted", 3),
        ("prov.engine.grouped.units", 3),
        ("prov.trace.channel_map.builds", 1),
        ("xpath.eval.nodes_visited", 34),
        ("xpath.eval.predicate_evals", 8),
        ("xpath.index.builds", 1),
        ("xpath.index.lookups", 5),
        ("xpath.pattern.evals", 6),
    ]);
    for workers in [
        Parallelism::Sequential,
        Parallelism::Threads(2),
        Parallelism::Threads(4),
    ] {
        let got = counters_for(Strategy::GroupedSinglePass, workers);
        assert_eq!(got, expected, "workers = {workers:?}");
    }
}

#[test]
fn state_replay_golden_counters() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Replay evaluates each rule's source on the call's input state and its
    // target on the output state: all 6 (pattern, state) keys are distinct,
    // and the earlier states are smaller, so fewer nodes are visited than
    // on the final state.
    let expected = expect(&[
        ("prov.cache.misses", 6),
        ("prov.engine.links.derived", 3),
        ("prov.engine.links.emitted", 3),
        ("prov.engine.replay.units", 3),
        ("prov.trace.channel_map.builds", 1),
        ("xpath.eval.nodes_visited", 13),
        ("xpath.eval.predicate_evals", 5),
        ("xpath.index.builds", 1),
        ("xpath.index.lookups", 5),
        ("xpath.pattern.evals", 6),
    ]);
    for workers in [
        Parallelism::Sequential,
        Parallelism::Threads(2),
        Parallelism::Threads(4),
    ] {
        let got = counters_for(Strategy::StateReplay, workers);
        assert_eq!(got, expected, "workers = {workers:?}");
    }
}

#[test]
fn executor_histogram_counts_units_and_balances_inflight() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    obs::reset();
    obs::enable();
    let (doc, trace, rules) = paper_example::build();
    for parallelism in [Parallelism::Sequential, Parallelism::Threads(4)] {
        let _ = infer_provenance(
            &doc,
            &trace,
            &rules,
            &EngineOptions {
                parallelism,
                ..Default::default()
            },
        );
    }
    let snap = obs::snapshot();
    obs::disable();
    let h = snap
        .histogram("prov.executor.unit.duration_ns")
        .expect("unit histogram registered");
    assert_eq!(h.count, 6, "3 units per run × 2 runs");
    assert!(h.sum > 0);
    assert_eq!(snap.gauge("prov.executor.units.inflight"), 0);
}

#[test]
fn disabled_collection_records_nothing() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    obs::reset();
    assert!(!obs::enabled());
    let (doc, trace, rules) = paper_example::build();
    let _ = infer_provenance(&doc, &trace, &rules, &EngineOptions::default());
    let snap = obs::snapshot();
    assert_eq!(snap.counter("xpath.pattern.evals"), 0);
    assert_eq!(snap.counter("prov.cache.misses"), 0);
}
