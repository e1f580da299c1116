//! Property tests for the observability counters: structural invariants
//! that must hold on *randomised* workloads, at every worker count.
//!
//! The central one is conservation through the pattern cache: every
//! evaluation unit of the cached strategies requests exactly its rule's
//! source and target table, so
//!
//! ```text
//! prov.cache.hits + prov.cache.misses == 2 × units dispatched
//! prov.cache.misses                  == xpath.pattern.evals
//! ```
//!
//! and, because the cache's `OnceLock` protocol evaluates each distinct
//! `(pattern, state)` key at most once regardless of scheduling, the whole
//! counter snapshot (modulo the deliberately parallelism-dependent
//! worker-pool counter) is identical at 1, 2 and 4 workers.
//!
//! This extends the coverage of `tests/parallel_equivalence.rs` (same
//! workload generator, same sweep) but lives in its own test binary:
//! `weblab_obs` metrics are process-global, and the other binary's tests
//! run concurrently within their process. Tests here serialise on a mutex.

use std::collections::BTreeMap;
use std::sync::Mutex;

use proptest::prelude::*;

use weblab::obs;
use weblab::prov::oracle::{infer_provenance_with, Strategy as ProvStrategy};
use weblab::prov::{infer_provenance, EngineOptions, Parallelism};
use weblab::workflow::generator::synthetic_workload;
use weblab::workflow::Orchestrator;

static SERIAL: Mutex<()> = Mutex::new(());

/// Counter snapshot of one inference run, minus zero-valued registrations
/// left over from earlier tests and the parallelism-dependent pool size.
fn run_counters(
    doc: &weblab::xml::Document,
    trace: &weblab::prov::ExecutionTrace,
    rules: &weblab::prov::RuleSet,
    strategy: ProvStrategy,
    parallelism: Parallelism,
) -> BTreeMap<String, u64> {
    obs::reset();
    obs::enable();
    let _ = infer_provenance_with(
        doc,
        trace,
        rules,
        strategy,
        &EngineOptions {
            parallelism,
            ..Default::default()
        },
    );
    let snap = obs::snapshot();
    obs::disable();
    let mut counters = snap.counters;
    counters.retain(|k, v| *v != 0 && k != "prov.executor.workers.spawned");
    counters
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cache_conservation_and_worker_invariance(
        seed in 0u64..1000,
        n_calls in 1usize..6,
        fanout in 1usize..4,
    ) {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let (mut doc, wf, rules) = synthetic_workload(seed, n_calls, fanout, 0);
        let outcome = Orchestrator::new().execute(&wf, &mut doc).unwrap();

        for (strategy, unit_counter) in [
            (ProvStrategy::StateReplay, "prov.engine.replay.units"),
            (ProvStrategy::TemporalRewrite, "prov.engine.temporal.units"),
            (ProvStrategy::GroupedSinglePass, "prov.engine.grouped.units"),
        ] {
            let base = run_counters(
                &doc, &outcome.trace, &rules, strategy, Parallelism::Sequential,
            );
            let units = base.get(unit_counter).copied().unwrap_or(0);
            let hits = base.get("prov.cache.hits").copied().unwrap_or(0);
            let misses = base.get("prov.cache.misses").copied().unwrap_or(0);
            let evals = base.get("xpath.pattern.evals").copied().unwrap_or(0);

            // every unit requests exactly two tables from the cache
            prop_assert_eq!(hits + misses, 2 * units, "strategy {:?}", strategy);
            // a miss is exactly one pattern evaluation (these strategies
            // route every evaluation through the cache)
            prop_assert_eq!(misses, evals, "strategy {:?}", strategy);

            // the counter snapshot is worker-count-invariant
            for workers in [Parallelism::Threads(2), Parallelism::Threads(4)] {
                let got = run_counters(&doc, &outcome.trace, &rules, strategy, workers);
                prop_assert_eq!(&base, &got, "strategy {:?}, workers {:?}", strategy, workers);
            }
        }
    }

    #[test]
    fn inflight_gauges_settle_to_zero(
        seed in 0u64..1000,
        n_calls in 1usize..5,
    ) {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let (mut doc, wf, rules) = synthetic_workload(seed, n_calls, 2, 0);
        obs::reset();
        obs::enable();
        let outcome = Orchestrator::new().execute(&wf, &mut doc).unwrap();
        let _ = infer_provenance(&doc, &outcome.trace, &rules, &EngineOptions {
            parallelism: Parallelism::Threads(4),
            ..Default::default()
        });
        let snap = obs::snapshot();
        obs::disable();
        for (name, v) in &snap.gauges {
            prop_assert_eq!(*v, 0, "gauge {} leaked", name);
        }
        // the orchestrator counted each service call exactly once
        prop_assert_eq!(snap.counter("workflow.calls"), outcome.trace.len() as u64);
        prop_assert_eq!(snap.counter("workflow.errors"), 0);
    }
}
