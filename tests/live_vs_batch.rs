//! Differential tests for live provenance maintenance: the deltas of a
//! [`LiveProvenance`] producer fed one committed call at a time from the
//! orchestrator's call-completion hook, folded into an [`EpochSnapshot`],
//! must build *exactly* the graph a one-shot batch `infer_provenance`
//! derives over the final document and trace — across every strategy,
//! inherit mode and worker count, through parallel blocks, and under fault
//! injection (retried and skipped steps), where rolled-back attempts must
//! leave no residue in the snapshot.
//!
//! The underlying law is the append-only delta decomposition
//! `links(0..n) = links(0..k) ∪ links(k..n)` (DESIGN.md § 9); these tests
//! pin the orchestration-level consequences end to end.

use std::sync::{Arc, Mutex};

use weblab::prov::{
    infer_provenance, paper_example, EngineOptions, EpochSnapshot, ExecutionTrace, InheritMode,
    LiveDelta, LiveProvenance, Parallelism, ProvLink, ProvenanceGraph, RuleSet, Strategy,
};
use weblab::rdf::{export_prov_into, to_turtle, Triple, TripleStore};
use weblab::workflow::generator::{synthetic_workload, SyntheticService};
use weblab::workflow::services::Flaky;
use weblab::workflow::{
    ExecutionOutcome, FaultPolicy, Orchestrator, RetryPolicy, Workflow,
};
use weblab::xml::Document;

/// Every inference configuration the differential sweep covers.
fn all_opts() -> Vec<EngineOptions> {
    let mut out = Vec::new();
    for strategy in [
        Strategy::StateReplay { materialize: false },
        Strategy::TemporalRewrite,
        Strategy::GroupedSinglePass,
    ] {
        for inherit in [
            InheritMode::Off,
            InheritMode::PatternRewrite,
            InheritMode::GraphPropagation,
        ] {
            for parallelism in [
                Parallelism::Sequential,
                Parallelism::Threads(2),
                Parallelism::Threads(4),
            ] {
                out.push(EngineOptions {
                    strategy,
                    inherit,
                    parallelism,
                    ..Default::default()
                });
            }
        }
    }
    out
}

/// A snapshot of `doc` before any call: its Source rows folded in.
fn starting_snapshot(doc: &Document) -> EpochSnapshot {
    let mut snap = EpochSnapshot::empty();
    let delta = LiveDelta {
        links: Vec::new(),
        sources: snap.missing_sources(doc),
    };
    snap.fold(&delta, 0);
    snap
}

/// Execute `wf` over `doc` with a live producer on the orchestrator's call
/// hook, folding its deltas into a snapshot of the input; return the final
/// document, the outcome and the snapshot.
fn run_live(
    mut doc: Document,
    wf: &Workflow,
    rules: &RuleSet,
    opts: EngineOptions,
    fault: Option<FaultPolicy>,
) -> (Document, ExecutionOutcome, EpochSnapshot) {
    let snap = Arc::new(Mutex::new(starting_snapshot(&doc)));
    let producer = Mutex::new(
        LiveProvenance::new(rules.clone(), opts).starting_at(&doc, &ExecutionTrace::default()),
    );
    let hook = Arc::clone(&snap);
    let mut orch = Orchestrator::new().with_call_hook(Arc::new(move |d, t, i| {
        let mut lp = producer.lock().unwrap();
        let delta = lp.observe_call(d, t, i);
        hook.lock().unwrap().fold(&delta, lp.calls_seen());
    }));
    if let Some(f) = fault {
        orch = orch.with_fault(f);
    }
    let outcome = orch.execute(wf, &mut doc).expect("workflow execution");
    drop(orch); // release the hook's clone of the snapshot
    let live = match Arc::try_unwrap(snap) {
        Ok(m) => m.into_inner().unwrap(),
        Err(_) => panic!("snapshot uniquely owned after the orchestrator is dropped"),
    };
    (doc, outcome, live)
}

fn sorted_pairs(g: &ProvenanceGraph) -> Vec<(String, String)> {
    let mut pairs: Vec<(String, String)> = g
        .links
        .iter()
        .map(|l| (l.from_uri.clone(), l.to_uri.clone()))
        .collect();
    pairs.sort();
    pairs.dedup();
    pairs
}

/// Assert the live snapshot's graph equals a fresh batch inference over
/// the final document and trace.
fn assert_live_equals_batch(
    doc: &Document,
    trace: &ExecutionTrace,
    rules: &RuleSet,
    opts: &EngineOptions,
    live: &EpochSnapshot,
    label: &str,
) {
    let batch = infer_provenance(doc, trace, rules, opts);
    let live_graph = &live.graph;
    assert_eq!(
        sorted_pairs(live_graph),
        sorted_pairs(&batch),
        "link sets diverge: {label}"
    );
    assert_eq!(
        live_graph.sources, batch.sources,
        "source tables diverge: {label}"
    );
}

#[test]
fn live_equals_batch_across_strategies_inherit_modes_and_workers() {
    for seed in [3, 17] {
        for opts in all_opts() {
            let (doc, wf, rules) = synthetic_workload(seed, 5, 3, 2);
            let (doc, outcome, live) = run_live(doc, &wf, &rules, opts, None);
            assert!(!live.graph.links.is_empty(), "workload produced no links");
            assert_live_equals_batch(
                &doc,
                &outcome.trace,
                &rules,
                &opts,
                &live,
                &format!("seed {seed}, {opts:?}"),
            );
        }
    }
}

#[test]
fn live_equals_batch_through_parallel_blocks() {
    // fork two branches of fan-out services between sequential stages; the
    // hook only sees branch calls after the join merges them into the main
    // arena, yet the accumulated graph must match batch inference (which
    // applies channel visibility filtering to the whole trace at once)
    for opts in [
        EngineOptions::default(),
        EngineOptions {
            strategy: Strategy::GroupedSinglePass,
            inherit: InheritMode::PatternRewrite,
            ..Default::default()
        },
    ] {
        let mut rules = RuleSet::new();
        rules
            .add_parsed("Synthetic", SyntheticService::rule())
            .unwrap();
        let mut doc = Document::new("Resource");
        let root = doc.root();
        doc.register_resource(root, "weblab://doc/synthetic", None)
            .unwrap();
        let wf = Workflow::new()
            .then(SyntheticService::new(1, 3, 2))
            .then_parallel(vec![
                Workflow::new()
                    .then(SyntheticService::new(2, 2, 2))
                    .then(SyntheticService::new(3, 2, 2)),
                Workflow::new().then(SyntheticService::new(4, 3, 2)),
            ])
            .then(SyntheticService::new(5, 2, 2));
        let (doc, outcome, live) = run_live(doc, &wf, &rules, opts, None);
        let channels: Vec<&str> = outcome
            .trace
            .calls
            .iter()
            .map(|c| c.channel.as_str())
            .collect();
        assert_eq!(channels, vec!["", "0", "0", "1", ""]);
        assert_live_equals_batch(&doc, &outcome.trace, &rules, &opts, &live, &format!("{opts:?}"));
    }
}

#[test]
fn retried_steps_leave_no_rollback_residue_in_the_live_store() {
    let mut rules = RuleSet::new();
    rules
        .add_parsed("Synthetic", SyntheticService::rule())
        .unwrap();
    let mut doc = Document::new("Resource");
    let root = doc.root();
    doc.register_resource(root, "weblab://doc/synthetic", None)
        .unwrap();
    let wf = Workflow::new()
        .then(SyntheticService::new(1, 3, 2))
        .then(Flaky::failing(2))
        .then(SyntheticService::new(2, 3, 2));
    let opts = EngineOptions::default();
    let fault = FaultPolicy::retrying(RetryPolicy::with_max_attempts(3));
    let (doc, outcome, live) = run_live(doc, &wf, &rules, opts, Some(fault));
    // all three steps committed exactly once
    assert_eq!(outcome.trace.len(), 3);
    assert_live_equals_batch(&doc, &outcome.trace, &rules, &opts, &live, "flaky + retry");
    // rolled-back attempts registered probes that were truncated away; the
    // live source table must hold exactly the one committed probe
    let probes = live
        .graph
        .sources
        .iter()
        .filter(|s| s.label.service == "Flaky")
        .count();
    assert_eq!(probes, 1, "rolled-back probes leaked into the live store");
}

#[test]
fn skipped_steps_contribute_nothing_to_the_live_store() {
    let mut rules = RuleSet::new();
    rules
        .add_parsed("Synthetic", SyntheticService::rule())
        .unwrap();
    let mut doc = Document::new("Resource");
    let root = doc.root();
    doc.register_resource(root, "weblab://doc/synthetic", None)
        .unwrap();
    let wf = Workflow::new()
        .then(SyntheticService::new(1, 3, 2))
        .then(Flaky::failing(u32::MAX)) // never succeeds → skipped
        .then(SyntheticService::new(2, 3, 2));
    let opts = EngineOptions::default();
    let (doc, outcome, live) = run_live(doc, &wf, &rules, opts, Some(FaultPolicy::skipping()));
    // the skipped step never committed: two recorded calls only
    assert_eq!(outcome.trace.len(), 2);
    assert_live_equals_batch(&doc, &outcome.trace, &rules, &opts, &live, "flaky + skip");
    assert!(
        !live.graph.sources.iter().any(|s| s.label.service == "Flaky"),
        "a skipped step's rolled-back work reached the live store"
    );
}

#[test]
fn live_turtle_export_is_byte_identical_to_batch_on_the_paper_example() {
    let (doc, trace, rules) = paper_example::build();
    for inherit in [
        InheritMode::Off,
        InheritMode::PatternRewrite,
        InheritMode::GraphPropagation,
    ] {
        let opts = EngineOptions {
            inherit,
            ..Default::default()
        };
        // posthoc replay of the call stream over the final document
        let mut snap = starting_snapshot(&doc);
        let mut live = LiveProvenance::new(rules.clone(), opts)
            .starting_at(&doc, &ExecutionTrace::default());
        for k in 0..trace.calls.len() {
            snap.fold(&live.observe_call(&doc, &trace, k), k + 1);
        }
        let export = |graph: &ProvenanceGraph| -> Vec<Triple> {
            let mut store = TripleStore::new();
            export_prov_into(graph, &mut store);
            store.iter().collect()
        };
        let live_triples = export(&snap.graph);
        let batch_triples = export(&infer_provenance(&doc, &trace, &rules, &opts));
        assert_eq!(
            to_turtle(&live_triples),
            to_turtle(&batch_triples),
            "Turtle output diverges under {inherit:?}"
        );
    }
}

#[test]
fn cli_live_link_store_matches_batch_inference_on_the_stamped_output() {
    use std::process::Command;
    let bin = env!("CARGO_BIN_EXE_weblab");
    let dir = std::env::temp_dir().join(format!("weblab-live-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let stamped = dir.join("stamped.xml");
    let store_dir = dir.join("store");
    let status = Command::new(bin)
        .args([
            "run",
            concat!(env!("CARGO_MANIFEST_DIR"), "/data/sample_corpus.xml"),
            "Normaliser,flaky:2,LanguageExtractor,Translator",
            "--retries",
            "2",
        ])
        // --store implies --live
        .arg("--store")
        .arg(&store_dir)
        .arg("-o")
        .arg(&stamped)
        .status()
        .expect("spawn weblab");
    assert!(status.success(), "weblab run --store failed");

    // the store reads back through its integrity footers, with a fresh
    // snapshot of the live graph at the end of the run…
    let store = weblab::platform::ProvStore::open(&store_dir).unwrap();
    let stored = store.load("sample_corpus").unwrap().expect("execution stored");
    let snapshot = stored.snapshot.expect("fresh snapshot");
    assert!(snapshot.live);
    assert_eq!(snapshot.calls, stored.trace.len());

    // …and its links equal batch inference over the stamped document
    let xml = std::fs::read_to_string(&stamped).unwrap();
    let doc = weblab::xml::parse_document(&xml).unwrap();
    let trace = ExecutionTrace::reconstruct_from(&doc);
    let batch = infer_provenance(
        &doc,
        &trace,
        &weblab::workflow::services::default_rules(),
        &EngineOptions::default(),
    );
    let mut batch_pairs = sorted_pairs(&batch);
    batch_pairs.sort();
    let pairs = |links: &[ProvLink]| {
        let mut pairs: Vec<(String, String)> =
            links.iter().map(|l| (l.from_uri.clone(), l.to_uri.clone())).collect();
        pairs.sort();
        pairs
    };
    assert_eq!(pairs(&snapshot.graph.links), batch_pairs);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
