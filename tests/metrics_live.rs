//! Perf guard for live provenance maintenance, verified through the
//! deterministic `weblab_obs` counters (own test binary: the metrics
//! registry is process-global, so these tests must not share a process
//! with other engine work; within the binary they serialise on a mutex).
//!
//! The property under guard: a live producer keeps its channel map
//! *incrementally* (extending it with each committed call's productions)
//! and therefore performs **zero** full `ExecutionTrace::channel_map`
//! builds over an entire execution — while batch inference builds it once,
//! and the naive alternative (re-invoking `infer_links_since` per call)
//! builds it once *per delta*, degrading live runs to O(n²).

use std::sync::{Arc, Mutex as StdMutex};

use weblab::obs;
use weblab::prov::{
    infer_links_since, infer_provenance, EngineOptions, EpochSnapshot, ExecutionTrace,
    LiveProvenance,
};
use weblab::workflow::generator::synthetic_workload;
use weblab::workflow::Orchestrator;

static SERIAL: StdMutex<()> = StdMutex::new(());

const BUILDS: &str = "prov.trace.channel_map.builds";

#[test]
fn live_run_performs_no_full_channel_map_builds() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (mut doc, wf, rules) = synthetic_workload(9, 6, 3, 0);
    obs::reset();
    obs::enable();
    let producer = Arc::new(StdMutex::new(
        LiveProvenance::new(rules, EngineOptions::default())
            .starting_at(&doc, &ExecutionTrace::default()),
    ));
    let live = Arc::new(StdMutex::new(EpochSnapshot::empty()));
    let (hook_lp, hook_snap) = (Arc::clone(&producer), Arc::clone(&live));
    let orch = Orchestrator::new().with_call_hook(Arc::new(move |d, t, i| {
        let mut lp = hook_lp.lock().unwrap();
        let delta = lp.observe_call(d, t, i);
        hook_snap.lock().unwrap().fold(&delta, lp.calls_seen());
    }));
    let outcome = orch.execute(&wf, &mut doc).unwrap();
    let snap = obs::snapshot();
    obs::disable();

    assert_eq!(producer.lock().unwrap().calls_seen(), outcome.trace.len());
    let live = live.lock().unwrap();
    assert_eq!(live.calls, outcome.trace.len());
    assert!(!live.graph.links.is_empty());
    // the incremental channel map made every delta O(delta): not a single
    // full rebuild across the whole execution
    assert_eq!(snap.counter(BUILDS), 0, "live maintenance rebuilt the channel map");
    assert_eq!(snap.counter("live.deltas"), outcome.trace.len() as u64);
    // the links the deltas carried are the links the snapshot holds
    assert_eq!(snap.counter("live.links"), live.graph.links.len() as u64);
}

#[test]
fn batch_builds_once_while_naive_per_delta_loops_build_per_call() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (mut doc, wf, rules) = synthetic_workload(9, 6, 3, 0);
    let outcome = Orchestrator::new().execute(&wf, &mut doc).unwrap();
    let opts = EngineOptions::default();
    let n = outcome.trace.len();

    obs::reset();
    obs::enable();
    let _ = infer_provenance(&doc, &outcome.trace, &rules, &opts);
    let batch_builds = obs::snapshot().counter(BUILDS);

    obs::reset();
    // the naive live loop this feature replaces: one full inference entry
    // point per committed call
    for k in 0..n {
        let _ = infer_links_since(&doc, &outcome.trace, k, &rules, &opts);
    }
    let naive_builds = obs::snapshot().counter(BUILDS);
    obs::disable();

    assert_eq!(batch_builds, 1, "batch inference builds the map exactly once");
    assert_eq!(
        naive_builds, n as u64,
        "per-call re-inference pays one full build per delta"
    );
}
