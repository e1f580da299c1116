//! Perf guard for the reachability index behind `ExecutionHandle`,
//! verified through the deterministic `weblab_obs` counters (own test
//! binary: the metrics registry is process-global, so these tests must not
//! share a process with other engine work; within the binary they
//! serialise on a mutex).
//!
//! The properties under guard: `ExecutionHandle::deps`/`rdeps` (and the
//! structured queries behind `weblab serve`, ranked analytics included)
//! answer from the published reachability index — **zero** full edge-list
//! traversals — and live deltas and batch refreshes alike fold into that
//! published snapshot in place, copying it only while a reader holds the
//! epoch they advance.

use std::sync::{Arc, Mutex as StdMutex};

use weblab::obs;
use weblab::platform::{Mapper, Platform, ProvQuery, QueryOpts, RankDirection};
use weblab::serve::render_response;
use weblab::workflow::generator::generate_corpus;
use weblab::workflow::services::{self, LanguageExtractor, Normaliser, Tokeniser};
use weblab::workflow::Service;

static SERIAL: StdMutex<()> = StdMutex::new(());

const BUILDS: &str = "prov.index.builds";
const HITS: &str = "prov.index.hits";
const TRAVERSALS: &str = "prov.index.traversals";
const COPIES: &str = "platform.snapshot.copies";

fn platform_with_pipeline() -> Platform {
    let rules = services::default_rules();
    let platform = Platform::new(Mapper::native());
    let builtins: Vec<Box<dyn Service>> = vec![
        Box::new(Normaliser),
        Box::new(LanguageExtractor),
        Box::new(Tokeniser),
    ];
    for svc in builtins {
        let texts: Vec<String> = rules
            .rules_for(svc.name())
            .iter()
            .map(|r| r.to_string())
            .collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        platform.register_service(Arc::from(svc), &refs).unwrap();
    }
    platform
}

#[test]
fn indexed_queries_perform_zero_graph_traversals() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let platform = platform_with_pipeline();
    let exec = platform.execution("indexed");
    exec.ingest(generate_corpus(7, 3, 10));
    exec.execute(&["Normaliser", "LanguageExtractor", "Tokeniser"])
        .unwrap();
    let uris: Vec<String> = {
        let snap = exec.snapshot().unwrap();
        snap.graph.sources.iter().map(|s| s.uri.clone()).collect()
    };
    assert!(uris.len() >= 4, "workload produced too few resources");

    obs::reset();
    obs::enable();
    let mut lookups = 0u64;
    for uri in &uris {
        let _ = exec.deps(uri).unwrap();
        let _ = exec.rdeps(uri).unwrap();
        lookups += 2;
        let _ = exec.query(&ProvQuery::Why { uri: uri.clone() }).unwrap();
        let _ = exec
            .query(&ProvQuery::Lineage {
                uri: uri.clone(),
                depth: 3,
            })
            .unwrap();
        let _ = exec
            .query(&ProvQuery::ImpactedBy { uri: uri.clone() })
            .unwrap();
    }
    let snap = obs::snapshot();
    obs::disable();

    // every deps/rdeps answered straight from the index adjacency (the
    // structured queries tick hits on top)…
    assert!(snap.counter(HITS) >= lookups, "every lookup must hit the index");
    // …and neither they nor the structured queries walked the edge list
    assert_eq!(
        snap.counter(TRAVERSALS),
        0,
        "indexed queries must not re-walk the provenance edge list"
    );
    // the index was already built and published before the query storm:
    // answering costs no builds at all
    assert_eq!(snap.counter(BUILDS), 0, "queries must reuse the published index");
}

#[test]
fn ranked_analytics_tick_their_counters_without_traversals() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let platform = platform_with_pipeline();
    let exec = platform.execution("ranked");
    exec.ingest(generate_corpus(7, 3, 10));
    exec.execute(&["Normaliser", "LanguageExtractor", "Tokeniser"])
        .unwrap();
    let uris: Vec<String> = {
        let snap = exec.snapshot().unwrap();
        snap.graph.sources.iter().map(|s| s.uri.clone()).collect()
    };
    assert!(uris.len() >= 4);

    obs::reset();
    obs::enable();
    let ranked = exec
        .rank(&uris[..1], RankDirection::Up, &QueryOpts::default(), &[])
        .unwrap();
    let _ = exec.summary(Some(&uris[0])).unwrap();
    let snap = obs::snapshot();
    obs::disable();

    // the analytics layer instruments itself: one rank query + one
    // summary, the seed always visited, and never an edge-list re-walk —
    // rank expands index adjacency, summary reads precomputed closures
    assert_eq!(snap.counter("prov.rank.queries"), 2);
    assert!(snap.counter("prov.rank.visited") >= ranked.len() as u64);
    assert!(snap.counter("prov.rank.visited") >= 1);
    assert_eq!(snap.counter(TRAVERSALS), 0);
    assert_eq!(snap.counter(BUILDS), 0, "rank must reuse the published index");
}

#[test]
fn live_ingestion_maintains_the_index_incrementally() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let platform = platform_with_pipeline();

    obs::reset();
    obs::enable();
    let exec = platform.execution("incremental");
    exec.ingest(generate_corpus(11, 2, 10));
    exec.enable_live();
    exec.execute(&["Normaliser", "LanguageExtractor"]).unwrap();
    exec.execute(&["Tokeniser"]).unwrap();
    let builds_after_runs = obs::snapshot().counter(BUILDS);
    let epoch_after_runs = exec.snapshot().unwrap().epoch;
    let _ = exec.deps(&exec.snapshot().unwrap().graph.sources[0].uri).unwrap();
    let snap = obs::snapshot();
    obs::disable();

    // one build when the execution's index state is created; every call
    // delta after that is folded in incrementally (no from_graph rebuilds)
    assert_eq!(
        builds_after_runs, 1,
        "live deltas must extend the index, not rebuild it"
    );
    // each committed call published a new epoch
    assert!(
        epoch_after_runs >= 3,
        "expected one published epoch per live call, got {epoch_after_runs}"
    );
    assert_eq!(snap.counter(TRAVERSALS), 0);
    assert!(snap.counter(HITS) >= 1);
}

#[test]
fn live_deltas_fold_in_place_when_no_reader_holds_the_snapshot() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let platform = platform_with_pipeline();
    let exec = platform.execution("in-place");
    exec.ingest(generate_corpus(11, 2, 10));
    exec.enable_live();

    obs::reset();
    obs::enable();
    exec.execute(&["Normaliser", "LanguageExtractor", "Tokeniser"])
        .unwrap();
    let snap = obs::snapshot();
    obs::disable();

    assert_eq!(snap.counter(COPIES), 0, "no reader held the snapshot");
    let published = exec.snapshot().unwrap();
    assert_eq!(published.calls, 3);
    // the catch-up delta (the ingested sources), then one epoch per call
    assert_eq!(published.epoch, 4, "one published epoch per live call");
}

#[test]
fn a_held_snapshot_is_copied_before_a_live_delta_folds_in() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let platform = platform_with_pipeline();
    let exec = platform.execution("held");
    exec.ingest(generate_corpus(11, 2, 10));
    exec.enable_live();
    exec.execute(&["Normaliser"]).unwrap();

    let held = exec.snapshot().unwrap();
    let uris: Vec<String> = held.graph.sources.iter().map(|s| s.uri.clone()).collect();
    let answers = || -> Vec<String> {
        uris.iter()
            .flat_map(|uri| {
                [
                    ProvQuery::Why { uri: uri.clone() },
                    ProvQuery::Lineage {
                        uri: uri.clone(),
                        depth: 3,
                    },
                ]
            })
            .map(|q| render_response(held.epoch, &exec.query_on(&held, &q).unwrap()))
            .collect()
    };
    let epoch = held.epoch;
    let links = held.graph.links.clone();
    let before = answers();

    obs::reset();
    obs::enable();
    exec.execute(&["LanguageExtractor", "Tokeniser"]).unwrap();
    let snap = obs::snapshot();
    obs::disable();

    // the first delta copied the held epoch; the second folded into that
    // copy in place, since no reader holds it
    assert_eq!(snap.counter(COPIES), 1);
    assert_eq!(held.epoch, epoch);
    assert_eq!(held.graph.links, links);
    assert_eq!(
        answers(),
        before,
        "a held snapshot changed under its reader"
    );
    let current = exec.snapshot().unwrap();
    assert_eq!(current.epoch, epoch + 2);
    assert!(current.graph.links.len() > links.len());
}

#[test]
fn batch_refreshes_fold_into_the_published_index() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let platform = platform_with_pipeline();

    obs::reset();
    obs::enable();
    let exec = platform.execution("batch");
    exec.ingest(generate_corpus(11, 2, 10));
    exec.execute(&["Normaliser", "LanguageExtractor"]).unwrap();
    let first = exec.snapshot().unwrap();
    exec.execute(&["Tokeniser"]).unwrap();
    let second = exec.snapshot().unwrap();
    let snap = obs::snapshot();
    obs::disable();

    assert!(!exec.live_enabled());
    // one build when the execution's index state is created; each refresh
    // folds the calls the snapshot lacks into it as a delta
    assert_eq!(
        snap.counter(BUILDS),
        1,
        "batch refreshes must extend the index, not rebuild it"
    );
    // the first refresh folded in place; the second copied the epoch this
    // test still holds in `first`
    assert_eq!(snap.counter(COPIES), 1);
    assert_eq!((first.epoch, first.calls), (1, 2));
    assert_eq!((second.epoch, second.calls), (2, 3));

    // the same graph as an execution that ran every step before its first
    // query
    let whole = platform.execution("whole");
    whole.ingest(generate_corpus(11, 2, 10));
    whole.execute(&["Normaliser", "LanguageExtractor"]).unwrap();
    whole.execute(&["Tokeniser"]).unwrap();
    let oneshot = whole.snapshot().unwrap();
    assert_eq!(oneshot.epoch, 1);
    assert_eq!(second.graph.links, oneshot.graph.links);
    assert_eq!(second.graph.sources, oneshot.graph.sources);
    assert!(first.graph.links.len() < second.graph.links.len());
}

#[test]
fn reads_on_a_fresh_snapshot_never_copy_the_trace() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let platform = platform_with_pipeline();
    let exec = platform.execution("fresh");
    exec.ingest(generate_corpus(11, 2, 10));
    exec.execute(&["Normaliser", "LanguageExtractor"]).unwrap();
    let uri = exec.snapshot().unwrap().graph.sources[0].uri.clone();

    obs::reset();
    obs::enable();
    for _ in 0..10 {
        exec.deps(&uri).unwrap();
    }
    let snap = obs::snapshot();
    obs::disable();

    // the freshness check reads the trace's length, not a copy of it
    assert_eq!(snap.counter("platform.trace_store.reads"), 0);
    assert_eq!(snap.counter(HITS), 10);

    // a run does copy the trace it continues, so the counter can tick
    obs::reset();
    obs::enable();
    exec.execute(&["Tokeniser"]).unwrap();
    let run = obs::snapshot();
    obs::disable();
    assert_eq!(run.counter("platform.trace_store.reads"), 1);
}
