//! X3 — Eager (intrusive) vs posthoc (non-invasive) provenance.
//!
//! The paper rejects computing provenance inside the orchestrator because
//! it is "intrusive … inefficient since it might slow down the workflow
//! execution … allows for limited optimization". This ablation measures
//! the total cost of (a) execution with eager rule evaluation after every
//! call versus (b) plain execution followed by posthoc inference. Expected
//! shape: plain execution is markedly cheaper than eager execution (the
//! workflow path is not slowed down), and the posthoc inference — which
//! can batch and factorise — keeps the *combined* cost competitive while
//! leaving the choice of when to pay it to the platform.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use weblab_prov::oracle::{infer_provenance_with, Strategy};
use weblab_prov::EngineOptions;
use weblab_workflow::generator::synthetic_workload;
use weblab_workflow::Orchestrator;

fn bench_eager_vs_posthoc(c: &mut Criterion) {
    let mut group = c.benchmark_group("x3_eager_vs_posthoc");
    group.sample_size(10);
    for n_calls in [8usize, 32] {
        group.bench_with_input(
            BenchmarkId::new("execute_plain", n_calls),
            &n_calls,
            |b, &n| {
                b.iter(|| {
                    let (mut doc, wf, _rules) = synthetic_workload(1, n, 4, 5);
                    let outcome = Orchestrator::new().execute(&wf, &mut doc).unwrap();
                    black_box(outcome.trace.len())
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("execute_eager", n_calls),
            &n_calls,
            |b, &n| {
                b.iter(|| {
                    let (mut doc, wf, rules) = synthetic_workload(1, n, 4, 5);
                    let outcome = Orchestrator::eager(rules).execute(&wf, &mut doc).unwrap();
                    black_box(outcome.eager_links.len())
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("execute_then_posthoc", n_calls),
            &n_calls,
            |b, &n| {
                b.iter(|| {
                    let (mut doc, wf, rules) = synthetic_workload(1, n, 4, 5);
                    let outcome = Orchestrator::new().execute(&wf, &mut doc).unwrap();
                    let opts = EngineOptions::default();
                    let strategy = Strategy::GroupedSinglePass;
                    black_box(
                        infer_provenance_with(&doc, &outcome.trace, &rules, strategy, &opts)
                            .links
                            .len(),
                    )
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_eager_vs_posthoc);
criterion_main!(benches);
