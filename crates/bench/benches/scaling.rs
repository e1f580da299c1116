//! X2 — Scaling in document size.
//!
//! Fixes the workflow length (8 calls) and sweeps per-call fan-out, so the
//! final document grows from tens to thousands of resources; measures the
//! default strategy end to end plus bare pattern evaluation. Expected
//! shape: near-linear growth for pattern evaluation (Core XPath is linear
//! per axis step) and slightly superlinear growth for full inference
//! (per-call source tables grow with the document). Also prints the
//! document's heap bytes per node (`Document::heap_bytes`) at each size,
//! as built by the workflow and as kept (after `shrink_to_fit`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use weblab_bench::{run_synthetic, wide_document};
use weblab_xml::Document;
use weblab_prov::{infer_provenance, EngineOptions};
use weblab_xpath::{eval_pattern, parse_pattern};

fn bench_inference_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("x2_inference_vs_doc_size");
    group.sample_size(10);
    for fanout in [4usize, 16, 64] {
        let executed = run_synthetic(7, 8, fanout, 0);
        let resources = executed.doc.resource_nodes().len();
        print_bytes_per_node("x2_inference_vs_doc_size", resources, &executed.doc);
        group.throughput(Throughput::Elements(resources as u64));
        for (name, use_index) in [("indexed", true), ("scan", false)] {
            group.bench_with_input(
                BenchmarkId::new(name, resources),
                &executed,
                |b, e| {
                    let opts = EngineOptions {
                        use_index,
                        ..Default::default()
                    };
                    b.iter(|| {
                        black_box(
                            infer_provenance(&e.doc, &e.trace, &e.rules, &opts)
                                .links
                                .len(),
                        )
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_pattern_eval_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("x2_pattern_eval_vs_doc_size");
    group.sample_size(10);
    let pattern = parse_pattern("//Item[$x := @key]").unwrap();
    for leaves in [100usize, 1000, 10000] {
        let doc = wide_document(leaves);
        print_bytes_per_node("x2_pattern_eval_vs_doc_size", leaves, &doc);
        group.throughput(Throughput::Elements(leaves as u64));
        group.bench_with_input(BenchmarkId::from_parameter(leaves), &doc, |b, d| {
            b.iter(|| black_box(eval_pattern(&pattern, &d.view()).len()));
        });
    }
    group.finish();
}

/// Print `doc`'s heap bytes per node, as built and as kept.
fn print_bytes_per_node(group: &str, size: usize, doc: &Document) {
    let nodes = doc.node_count() as f64;
    let mut kept = doc.clone();
    kept.shrink_to_fit();
    println!(
        "{group}/doc_bytes/{size}: {} nodes, {:.1} B per node built, {:.1} B per node kept",
        doc.node_count(),
        doc.heap_bytes() as f64 / nodes,
        kept.heap_bytes() as f64 / nodes
    );
}

criterion_group!(benches, bench_inference_scaling, bench_pattern_eval_scaling);
criterion_main!(benches);
