//! X12 — Live maintenance vs batch inference.
//!
//! Live provenance maintenance folds each committed call's delta into an
//! epoch snapshot (graph plus reachability index) from the orchestrator's
//! call-completion hook (incremental channel map, shared pattern cache,
//! O(delta) inference per call);
//! batch inference pays the whole cost once at the end. This experiment
//! measures both totals over the same workloads. Expected shape: the
//! summed cost of all live deltas stays within a small constant factor of
//! the single batch pass — the price of having the graph queryable after
//! *every* call instead of only at the end — and does not degrade
//! super-linearly as the workflow grows (the trap a naive per-call
//! re-inference falls into by rebuilding the channel map per delta).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::{Arc, Mutex};

use weblab_prov::{
    infer_provenance, EngineOptions, EpochSnapshot, ExecutionTrace, LiveProvenance,
};
use weblab_workflow::generator::synthetic_workload;
use weblab_workflow::Orchestrator;

fn bench_live_vs_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("x12_live_vs_batch");
    group.sample_size(10);
    for n_calls in [8usize, 24, 48] {
        group.bench_with_input(
            BenchmarkId::new("execute_then_batch", n_calls),
            &n_calls,
            |b, &n| {
                b.iter(|| {
                    let (mut doc, wf, rules) = synthetic_workload(1, n, 4, 5);
                    let outcome = Orchestrator::new().execute(&wf, &mut doc).unwrap();
                    let g = infer_provenance(
                        &doc,
                        &outcome.trace,
                        &rules,
                        &EngineOptions::default(),
                    );
                    black_box(g.links.len())
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("execute_live", n_calls),
            &n_calls,
            |b, &n| {
                b.iter(|| {
                    let (mut doc, wf, rules) = synthetic_workload(1, n, 4, 5);
                    let producer = Mutex::new(
                        LiveProvenance::new(rules, EngineOptions::default())
                            .starting_at(&doc, &ExecutionTrace::default()),
                    );
                    let snap = Arc::new(Mutex::new(EpochSnapshot::empty()));
                    let hook = Arc::clone(&snap);
                    let orch = Orchestrator::new().with_call_hook(Arc::new(
                        move |d, t, i| {
                            let mut lp = producer.lock().unwrap();
                            let delta = lp.observe_call(d, t, i);
                            hook.lock().unwrap().fold(&delta, lp.calls_seen());
                        },
                    ));
                    orch.execute(&wf, &mut doc).unwrap();
                    let links = snap.lock().unwrap().graph.links.len();
                    black_box(links)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_live_vs_batch);
criterion_main!(benches);
