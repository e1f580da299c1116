//! X8 — Incremental versus full materialisation (extension).
//!
//! The paper's Request Manager materialises a provenance graph on first
//! query; our extension re-derives only the links of calls recorded since
//! the cached materialisation. This bench compares re-deriving everything
//! (what a cache-invalidating Request Manager pays after every new call)
//! against deriving just the last call's delta. Expected shape: the delta
//! cost is flat in history length, the full cost grows linearly with it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use weblab_bench::run_synthetic;
use weblab_prov::{infer_links_since, EngineOptions};

fn bench_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("x8_incremental");
    group.sample_size(10);
    for n_calls in [8usize, 32, 96] {
        let executed = run_synthetic(13, n_calls, 4, 0);
        let opts = EngineOptions::default();
        group.bench_with_input(
            BenchmarkId::new("full_rematerialisation", n_calls),
            &executed,
            |b, e| {
                b.iter(|| {
                    black_box(infer_links_since(&e.doc, &e.trace, 0, &e.rules, &opts).len())
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("last_call_delta", n_calls),
            &executed,
            |b, e| {
                let last = e.trace.len() - 1;
                b.iter(|| {
                    black_box(
                        infer_links_since(&e.doc, &e.trace, last, &e.rules, &opts).len(),
                    )
                });
            },
        );
    }
    group.finish();
}

/// X9 — provenance storage (Section 8's future-work item): building the
/// reachability index every snapshot serves from, and its dependency
/// lookup against the plain edge list's scan. Also prints the bytes per
/// link of the execution file the store writes for the same execution.
fn bench_storage(c: &mut Criterion) {
    use weblab_platform::ProvStore;
    use weblab_prov::{infer_provenance, ReachabilityIndex};

    let dir = std::env::temp_dir().join(format!("weblab-x9-store-{}", std::process::id()));
    let mut group = c.benchmark_group("x9_storage");
    group.sample_size(10);
    for n_calls in [16usize, 64] {
        let executed = run_synthetic(29, n_calls, 6, 0);
        let graph = infer_provenance(
            &executed.doc,
            &executed.trace,
            &executed.rules,
            &EngineOptions::default(),
        );
        let links = graph.links.len();
        group.bench_with_input(BenchmarkId::new("build_index", links), &graph, |b, g| {
            b.iter(|| black_box(ReachabilityIndex::from_graph(g).edge_count()));
        });
        let index = ReachabilityIndex::from_graph(&graph);
        let probe = graph.links[links / 2].from_uri.clone();
        group.bench_with_input(
            BenchmarkId::new("deps_edge_list", links),
            &graph,
            |b, g| {
                b.iter(|| black_box(g.dependencies_of(&probe).len()));
            },
        );
        group.bench_with_input(BenchmarkId::new("deps_index", links), &index, |b, idx| {
            b.iter(|| black_box(idx.dependencies_of(&probe).len()));
        });

        let _ = std::fs::remove_dir_all(&dir);
        let store = ProvStore::open(&dir).expect("opening a scratch store");
        store
            .save("x9", &executed.doc, &executed.trace, &graph, 1, false)
            .expect("saving the execution");
        let bytes = exec_file_bytes(&dir);
        println!(
            "x9_storage/exec_file/{links}: {bytes} B, {:.1} B per link",
            bytes as f64 / links as f64
        );
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bytes of the execution files under a store root.
fn exec_file_bytes(root: &std::path::Path) -> u64 {
    let shards = std::fs::read_dir(root).into_iter().flatten().flatten();
    shards
        .filter_map(|shard| std::fs::read_dir(shard.path()).ok())
        .flatten()
        .flatten()
        .filter(|f| f.file_name().to_string_lossy().ends_with(".exec"))
        .filter_map(|f| f.metadata().ok())
        .map(|m| m.len())
        .sum()
}

criterion_group!(benches, bench_incremental, bench_storage);
criterion_main!(benches);
