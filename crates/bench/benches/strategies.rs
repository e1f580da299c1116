//! X1 — Evaluation-strategy comparison (the paper's Section 4 argument).
//!
//! Sweeps workflow length over the synthetic workload and measures the
//! four inference strategies of `weblab_prov::oracle` (the temporal
//! rewrite among them is the production engine). Expected shape
//! (recorded in EXPERIMENTS.md): materialising replay is slowest and
//! degrades quadratically; zero-copy replay and per-call TemporalRewrite
//! track each other; GroupedSinglePass wins and grows most slowly,
//! because it evaluates each rule once per service instead of once per
//! call.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use weblab_bench::run_synthetic;
use weblab_prov::oracle::{infer_provenance_with, Strategy};
use weblab_prov::EngineOptions;

fn bench_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("x1_strategies");
    group.sample_size(10);
    for n_calls in [8usize, 24, 48] {
        let executed = run_synthetic(42, n_calls, 4, 0);
        for (name, strategy) in [
            ("replay_materialized", Strategy::MaterializedReplay),
            ("replay_views", Strategy::StateReplay),
            ("temporal_rewrite", Strategy::TemporalRewrite),
            ("grouped_single_pass", Strategy::GroupedSinglePass),
        ] {
            group.bench_with_input(BenchmarkId::new(name, n_calls), &executed, |b, e| {
                let opts = EngineOptions::default();
                b.iter(|| {
                    black_box(
                        infer_provenance_with(&e.doc, &e.trace, &e.rules, strategy, &opts)
                            .links
                            .len(),
                    )
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_strategies);
criterion_main!(benches);
