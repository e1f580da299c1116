//! X10 — Thread-scaling of the parallel inference executor and the shared
//! pattern-evaluation cache.
//!
//! Fixes the workload (the 48-call synthetic trace of X1) and sweeps the
//! engine's `parallelism` knob over the production temporal rewrite (48
//! independent units sharing one pattern cache). Two reference rows
//! anchor the sweep: `grouped_sequential` is the strongest sequential
//! strategy from X1 (an oracle in `weblab_prov::oracle`), and
//! `percall_uncached` replays the pre-cache temporal path — rewrite both
//! patterns per call, re-evaluate them on the final document, join —
//! which is what `temporal/1` replaces.
//!
//! Expected shape (recorded in EXPERIMENTS.md): `temporal/1` collapses the
//! 2·|calls| pattern evaluations of `percall_uncached` into 2 cached ones,
//! and the thread rows then divide the remaining per-call filter/join work
//! by the worker count — *when the host has cores to give*. On a
//! single-core container the thread rows measure pure executor overhead
//! instead; see the EXPERIMENTS.md note.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use weblab_bench::run_synthetic;
use weblab_prov::oracle::{infer_provenance_with, Strategy};
use weblab_prov::{infer_provenance, join_tables, EngineOptions, Parallelism};
use weblab_xpath::{add_source_constraints, add_target_constraints, eval_pattern};

fn bench_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("x10_threads");
    group.sample_size(10);
    let executed = run_synthetic(42, 48, 4, 0);

    // Sequential reference: the best single-threaded strategy from X1.
    group.bench_with_input(
        BenchmarkId::new("grouped_sequential", 48),
        &executed,
        |b, e| {
            let opts = EngineOptions {
                parallelism: Parallelism::Sequential,
                ..Default::default()
            };
            let strategy = Strategy::GroupedSinglePass;
            b.iter(|| {
                black_box(
                    infer_provenance_with(&e.doc, &e.trace, &e.rules, strategy, &opts)
                        .links
                        .len(),
                )
            });
        },
    );

    // Cache ablation: the pre-cache per-call temporal path — constrain and
    // re-evaluate both rule patterns for every one of the 48 calls.
    group.bench_with_input(
        BenchmarkId::new("percall_uncached", 48),
        &executed,
        |b, e| {
            let view = e.doc.view();
            b.iter(|| {
                let mut n = 0usize;
                for call in &e.trace.calls {
                    for rule in e.rules.rules_for(&call.service) {
                        let s = eval_pattern(
                            &add_source_constraints(&rule.source, call.time),
                            &view,
                        );
                        let t = eval_pattern(
                            &add_target_constraints(&rule.target, &call.service, call.time),
                            &view,
                        );
                        n += join_tables(&s, &t, Default::default()).len();
                    }
                }
                black_box(n)
            });
        },
    );

    // Thread sweep over the 48 per-call units of TemporalRewrite.
    for (name, parallelism) in [
        ("temporal/1", Parallelism::Threads(1)),
        ("temporal/2", Parallelism::Threads(2)),
        ("temporal/4", Parallelism::Threads(4)),
        ("temporal/8", Parallelism::Threads(8)),
        ("temporal/auto", Parallelism::Auto),
    ] {
        group.bench_with_input(BenchmarkId::new(name, 48), &executed, |b, e| {
            let opts = EngineOptions {
                parallelism,
                ..Default::default()
            };
            b.iter(|| {
                black_box(
                    infer_provenance(&e.doc, &e.trace, &e.rules, &opts)
                        .links
                        .len(),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_threads);
criterion_main!(benches);
