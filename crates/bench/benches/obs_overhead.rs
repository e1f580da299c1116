//! X11 — Overhead of the observability layer (`weblab-obs`).
//!
//! Two questions, each answered at micro and engine scale:
//!
//! 1. What does a *disabled* metric cost? The design target is a single
//!    relaxed atomic load and a predictable branch — close enough to free
//!    that instrumentation can stay unconditionally compiled into the hot
//!    paths (`counter_disabled` vs the empty-loop `counter_baseline`).
//! 2. What does *enabled* collection cost end-to-end? `infer_enabled` vs
//!    `infer_disabled` runs the same grouped inference over the 48-call
//!    synthetic trace with collection switched on and off; the gap is the
//!    price of `weblab --metrics`.
//!
//! The micro benches iterate the op 1024× per criterion sample so the
//! measured quantity is the amortised per-op cost, not timer noise.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use weblab_bench::run_synthetic;
use weblab_obs::{Counter, Histogram, Span};
use weblab_prov::oracle::{infer_provenance_with, Strategy};
use weblab_prov::EngineOptions;

static BENCH_COUNTER: Counter = Counter::new("bench.obs.counter");
static BENCH_HIST: Histogram = Histogram::new("bench.obs.histogram");

const OPS: u64 = 1024;

fn bench_micro(c: &mut Criterion) {
    let mut group = c.benchmark_group("x11_obs_micro");

    group.bench_function(BenchmarkId::new("counter_baseline", OPS), |b| {
        weblab_obs::disable();
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..OPS {
                acc = acc.wrapping_add(black_box(i));
            }
            black_box(acc)
        });
    });

    group.bench_function(BenchmarkId::new("counter_disabled", OPS), |b| {
        weblab_obs::disable();
        b.iter(|| {
            for i in 0..OPS {
                BENCH_COUNTER.add(black_box(i) & 1);
            }
        });
    });

    group.bench_function(BenchmarkId::new("counter_enabled", OPS), |b| {
        weblab_obs::enable();
        b.iter(|| {
            for i in 0..OPS {
                BENCH_COUNTER.add(black_box(i) & 1);
            }
        });
        weblab_obs::disable();
    });

    group.bench_function(BenchmarkId::new("span_disabled", OPS), |b| {
        weblab_obs::disable();
        b.iter(|| {
            for _ in 0..OPS {
                let span = Span::start(&BENCH_HIST);
                black_box(&span);
            }
        });
    });

    group.bench_function(BenchmarkId::new("span_enabled", OPS), |b| {
        weblab_obs::enable();
        b.iter(|| {
            for _ in 0..OPS {
                let span = Span::start(&BENCH_HIST);
                black_box(&span);
            }
        });
        weblab_obs::disable();
    });

    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("x11_obs_engine");
    group.sample_size(10);
    let executed = run_synthetic(42, 48, 4, 0);
    let opts = EngineOptions::default();
    let strategy = Strategy::GroupedSinglePass;

    for (name, enabled) in [("infer_disabled", false), ("infer_enabled", true)] {
        group.bench_with_input(BenchmarkId::new(name, 48), &executed, |b, e| {
            if enabled {
                weblab_obs::enable();
            } else {
                weblab_obs::disable();
            }
            b.iter(|| {
                black_box(
                    infer_provenance_with(&e.doc, &e.trace, &e.rules, strategy, &opts)
                        .links
                        .len(),
                )
            });
            weblab_obs::disable();
        });
    }
    group.finish();
}

criterion_group!(benches, bench_micro, bench_engine);
criterion_main!(benches);
