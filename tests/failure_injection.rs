//! Failure injection: misbehaving services, malformed inputs, and broken
//! rule sets must surface as errors without corrupting stored state.

use std::sync::Arc;

use weblab::platform::store::Header;
use weblab::platform::{Mapper, Platform, PlatformError, ProvStore, ResumePoint};
use weblab::prov::{infer_provenance, EngineOptions, ProvenanceGraph, RuleSet};
use weblab::workflow::generator::generate_corpus;
use weblab::workflow::services::{self, Flaky, LanguageExtractor, Normaliser};
use weblab::workflow::{
    next_time, AttemptStatus, CallContext, FaultPolicy, Orchestrator, RetryPolicy, Service,
    Workflow, WorkflowError,
};
use weblab::xml::{to_xml_string, Document};

/// Fails after partially mutating the document.
struct FailsMidway;

impl Service for FailsMidway {
    fn name(&self) -> &str {
        "FailsMidway"
    }
    fn call(&self, doc: &mut Document, ctx: &mut CallContext) -> Result<(), WorkflowError> {
        let root = doc.root();
        let n = doc.append_element(root, "Partial")?;
        ctx.register(doc, n)?;
        Err(WorkflowError::Service {
            service: "FailsMidway".into(),
            message: "simulated crash".into(),
        })
    }
}

/// Tries to register the same URI twice.
struct DuplicateUri;

impl Service for DuplicateUri {
    fn name(&self) -> &str {
        "DuplicateUri"
    }
    fn call(&self, doc: &mut Document, _ctx: &mut CallContext) -> Result<(), WorkflowError> {
        let root = doc.root();
        let a = doc.append_element(root, "A")?;
        doc.register_resource(a, "dup", None)?;
        let b = doc.append_element(root, "B")?;
        doc.register_resource(b, "dup", None)?; // duplicate → Err
        Ok(())
    }
}

#[test]
fn orchestrator_propagates_service_failures() {
    let wf = Workflow::new().then(Normaliser).then(FailsMidway);
    let mut doc = generate_corpus(1, 1, 20);
    let err = Orchestrator::new().execute(&wf, &mut doc).unwrap_err();
    assert!(matches!(err, WorkflowError::Service { .. }));
    assert!(err.to_string().contains("simulated crash"));
}

#[test]
fn duplicate_uri_registration_fails_the_call() {
    let wf = Workflow::new().then(DuplicateUri);
    let mut doc = Document::new("Resource");
    let err = Orchestrator::new().execute(&wf, &mut doc).unwrap_err();
    assert!(matches!(err, WorkflowError::Xml(_)));
}

#[test]
fn platform_failure_leaves_stored_document_untouched() {
    let p = Platform::new(Mapper::native());
    p.register_service(Arc::new(Normaliser), &[]).unwrap();
    p.register_service(Arc::new(FailsMidway), &[]).unwrap();
    p.ingest("e", generate_corpus(2, 1, 20));
    let before = p.execution("e").with_kept(|d, _| d.node_count()).unwrap();
    let err = p.execute("e", &["Normaliser", "FailsMidway"]).unwrap_err();
    assert!(matches!(err, PlatformError::Workflow(_)));
    // the platform still keeps the pre-execution version (all-or-nothing)
    let (after, calls) = p.execution("e").with_kept(|d, t| (d.node_count(), t.len())).unwrap();
    assert_eq!(before, after);
    // no trace entries were kept either
    assert_eq!(calls, 0);
}

#[test]
fn failing_branch_aborts_the_parallel_block() {
    let wf = Workflow::new().then_parallel(vec![
        Workflow::new().then(Normaliser),
        Workflow::new().then(FailsMidway),
    ]);
    let mut doc = generate_corpus(3, 1, 20);
    assert!(Orchestrator::new().execute(&wf, &mut doc).is_err());
}

#[test]
fn rules_over_missing_structure_yield_empty_graphs_not_errors() {
    let mut rules = RuleSet::new();
    rules
        .add_parsed("Normaliser", "//NoSuchTag[$x := @id] => //AlsoMissing[@ref = $x]")
        .unwrap();
    let wf = Workflow::new().then(Normaliser);
    let mut doc = generate_corpus(4, 1, 20);
    let outcome = Orchestrator::new().execute(&wf, &mut doc).unwrap();
    let g = infer_provenance(&doc, &outcome.trace, &rules, &EngineOptions::default());
    assert!(g.links.is_empty());
    assert!(!g.sources.is_empty()); // the Source table is still populated
}

#[test]
fn recorder_rejects_malformed_and_regressive_responses() {
    let p = Platform::new(Mapper::native());
    p.ingest("e", generate_corpus(5, 1, 20));
    let exec = p.execution("e");
    let before = exec.with_kept(|d, _| d.node_count()).unwrap();
    // malformed XML
    assert!(exec.record_exchange("S", 1, "<broken").is_err());
    // well-formed but missing previously stored content
    assert!(exec.record_exchange("S", 1, "<Resource/>").is_err());
    // neither attempt corrupted the kept document or recorded a call
    let (after, calls) = exec.with_kept(|d, t| (d.node_count(), t.len())).unwrap();
    assert_eq!((after, calls), (before, 0));
}

/// The PR's acceptance scenario: a service that fails twice then succeeds
/// completes under `RetryPolicy { max_attempts: 3 }`, with the final
/// document byte-identical to a clean run and all three attempts recorded.
#[test]
fn service_failing_twice_then_succeeding_is_byte_identical_to_a_clean_run() {
    let mk = |fails| {
        Workflow::new()
            .then(Normaliser)
            .then(Flaky::failing(fails))
            .then(LanguageExtractor)
    };
    let mut clean = generate_corpus(8, 1, 20);
    Orchestrator::new().execute(&mk(0), &mut clean).unwrap();

    let mut faulty = generate_corpus(8, 1, 20);
    let orch = Orchestrator::new()
        .with_fault(FaultPolicy::retrying(RetryPolicy::with_max_attempts(3)));
    let outcome = orch.execute(&mk(2), &mut faulty).unwrap();

    assert_eq!(
        to_xml_string(&clean.view()),
        to_xml_string(&faulty.view()),
        "retried run must be indistinguishable from a first-try run"
    );
    let flaky: Vec<(u32, bool)> = outcome
        .attempts
        .iter()
        .filter(|a| a.service == "Flaky")
        .map(|a| (a.attempt, a.status == AttemptStatus::Succeeded))
        .collect();
    assert_eq!(flaky, vec![(1, false), (2, false), (3, true)]);
    assert_eq!(outcome.trace.len(), 3); // rolled-back attempts never reach the trace
}

/// A skipped step reserves its call instant, and posthoc inference over the
/// gapped trace still works.
#[test]
fn skipped_step_gap_is_tolerated_by_inference() {
    let mut doc = generate_corpus(6, 1, 20);
    let wf = Workflow::new()
        .then(Normaliser)
        .then(Flaky::failing(99))
        .then(LanguageExtractor);
    let orch = Orchestrator::new().with_fault(FaultPolicy::skipping());
    let outcome = orch.execute(&wf, &mut doc).unwrap();
    assert_eq!(outcome.trace.len(), 2);
    assert_eq!(
        outcome.trace.calls[1].time,
        outcome.trace.calls[0].time + 2,
        "the skipped step's instant must stay reserved"
    );
    let g = infer_provenance(
        &doc,
        &outcome.trace,
        &services::default_rules(),
        &EngineOptions::default(),
    );
    assert!(g.is_acyclic());
    assert!(!g.links.is_empty());
}

/// An aborted call's rollback restores node and resource counts exactly —
/// no half-registered resources survive.
#[test]
fn rollback_restores_node_and_resource_counts() {
    let mut doc = generate_corpus(7, 1, 20);
    let before_nodes = doc.node_count();
    let before_resources = doc.resource_nodes().len();
    let wf = Workflow::new().then(FailsMidway);
    let err = Orchestrator::new().execute(&wf, &mut doc).unwrap_err();
    assert!(matches!(err, WorkflowError::Service { .. }));
    assert_eq!(doc.node_count(), before_nodes);
    assert_eq!(doc.resource_nodes().len(), before_resources);
    // the rolled-back registration's uri is free again
    let root = doc.root();
    let n = doc.append_element(root, "Reclaim").unwrap();
    assert!(doc
        .register_resource(n, "weblab://res/FailsMidway-t1-1", None)
        .is_ok());
}

fn link_pairs(g: &ProvenanceGraph) -> Vec<(String, String)> {
    let mut pairs: Vec<(String, String)> = g
        .links
        .iter()
        .map(|l| (l.from_uri.clone(), l.to_uri.clone()))
        .collect();
    pairs.sort();
    pairs
}

/// Crash after the first step, resume from the stored execution and the
/// resume point its file holds: the inferred provenance links match a run
/// that never crashed, and so do the links the store's snapshot holds for
/// the resumed run.
#[test]
fn resume_after_crash_produces_the_same_inferred_links() {
    let dir = std::env::temp_dir().join(format!("weblab-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let full_wf = || Workflow::new().then(Normaliser).then(LanguageExtractor);
    let rules = services::default_rules();
    let opts = EngineOptions::default();

    let mut clean = generate_corpus(9, 1, 20);
    let clean_outcome = Orchestrator::new().execute(&full_wf(), &mut clean).unwrap();

    // first process: run only the first step, storing it with its resume
    // point in one write, then "crash"
    let orch = Orchestrator::new();
    let step_names = full_wf().step_names();
    let mut doc = generate_corpus(9, 1, 20);
    let start = next_time(&doc);
    {
        let store = ProvStore::open(&dir).unwrap();
        orch.execute_resumable(
            &Workflow::new().then(Normaliser),
            &mut doc,
            start,
            0,
            &mut |done, d, o, t| {
                let graph = infer_provenance(d, &o.trace, &rules, &opts);
                let step_names = step_names.clone();
                let point = ResumePoint { completed_steps: done, next_time: t, step_names };
                let header = Header { epoch: done as u64, live: true, checkpoint: Some(point) };
                store.save_with("e", d, &o.trace, &graph, &header).unwrap();
            },
        )
        .unwrap();
    }
    drop(doc); // the crash: in-memory state is gone

    // second process: reload and resume from the resume point
    let store = ProvStore::open(&dir).unwrap();
    let stored = store.load("e").unwrap().unwrap();
    let point = stored.checkpoint.expect("an unfinished run's point");
    assert_eq!(point.completed_steps, 1);
    assert_eq!(point.step_names, step_names);
    let mut resumed = stored.doc;
    let outcome = orch
        .execute_resumable(
            &full_wf(),
            &mut resumed,
            point.next_time,
            point.completed_steps,
            &mut |_, _, _, _| {},
        )
        .unwrap();
    assert_eq!(outcome.trace.len(), 1); // only the remaining step ran
    let mut full_trace = stored.trace;
    full_trace.calls.extend(outcome.trace.calls);

    let g_clean = infer_provenance(&clean, &clean_outcome.trace, &rules, &opts);
    let g_resumed = infer_provenance(&resumed, &full_trace, &rules, &opts);
    assert_eq!(link_pairs(&g_clean), link_pairs(&g_resumed));
    assert!(!g_resumed.links.is_empty());

    // the stored execution holds both runs' calls, and its snapshot holds
    // the clean run's links; the finished run's save carries no point
    store.save("e", &resumed, &full_trace, &g_resumed, 2, true).unwrap();
    let logged = store.load("e").unwrap().unwrap();
    assert_eq!(logged.trace.len(), 2);
    assert_eq!(logged.checkpoint, None);
    let snapshot = logged.snapshot.expect("a fresh snapshot");
    assert_eq!(link_pairs(&snapshot.graph), link_pairs(&g_clean));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sparql_errors_surface_through_the_request_manager() {
    let p = Platform::new(Mapper::native());
    p.register_service(Arc::new(Normaliser), &[]).unwrap();
    p.ingest("e", generate_corpus(6, 1, 20));
    p.execute("e", &["Normaliser"]).unwrap();
    let err = p.execution("e").sparql("SELEKT nonsense").unwrap_err();
    assert!(matches!(err, PlatformError::Sparql(_)));
}
