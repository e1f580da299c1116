//! Replay differential suite: provenance-guided incremental recomputation
//! must be *indistinguishable* from a full re-run on the changed input.
//!
//! For a prior execution, a structure-preserving change to some source
//! artifacts, and the dirty cone (`dirty_cone` over the reachability index
//! of an inherit-mode inference: the `closed_cone` helper below),
//! `Orchestrator::replay` re-executes only the dirty steps and splices
//! every other fragment forward. The differential law checked here, across
//! every inference strategy and worker count and for both live and batch
//! provenance:
//!
//! * the replayed document serialises byte-identically to a full re-run;
//! * the trace records (marks, produced ids, labels) are equal;
//! * the inferred link sets and the Turtle export are equal;
//! * `--proof exact` passes (every reused fragment re-executes
//!   byte-identically) for deterministic services, and fails loudly for a
//!   nondeterministic one, which `--proof concordant` instead grades
//!   within a tolerance.
//!
//! A property-based sweep drives random pipelines and random changed-URI
//! subsets through the same law and pins the *exact* recomputed set: a
//! call is re-executed iff its produced resources intersect the closed
//! cone, and every reused fragment is byte-identical to its original.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use weblab::prov::{
    dirty_cone, infer_provenance, EngineOptions, EpochSnapshot, ExecutionTrace, InheritMode,
    LiveDelta, LiveProvenance, Parallelism, ProvenanceGraph, ReachabilityIndex, Strategy,
};
use weblab::rdf::{export_prov, to_turtle};
use weblab::workflow::services::{
    self, LanguageExtractor, Normaliser, Tokeniser, Translator,
};
use weblab::workflow::{
    CallContext, Orchestrator, ProofMode, Service, Workflow, WorkflowError,
};
use weblab::xml::{to_xml_string, CallLabel, Document};

// ---------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------

/// Build a corpus with one text `NativeContent` per payload, registered as
/// `weblab://src/{i}` with the ingestion label `(Source, 0)`. Rebuilding
/// with an edited payload is the test-side equivalent of re-parsing an
/// edited XML file: same arena shape, changed content.
fn corpus(payloads: &[&str]) -> Document {
    let mut d = Document::new("Resource");
    let root = d.root();
    d.register_resource(root, "weblab://doc/test", None).unwrap();
    for (i, text) in payloads.iter().enumerate() {
        let n = d.append_element(root, "NativeContent").unwrap();
        d.set_attr(n, "mime", "text/plain").unwrap();
        d.register_resource(n, format!("weblab://src/{i}"), Some(CallLabel::new("Source", 0)))
            .unwrap();
        d.append_text(n, *text).unwrap();
    }
    d
}

fn pipeline() -> Workflow {
    Workflow::new()
        .then(Normaliser)
        .then(LanguageExtractor)
        .then(Translator::default())
        .then(Tokeniser)
}

/// The dirty cone of `changed` for a finished execution, computed the way
/// the CLI computes it: inherit-mode inference (so contained resources
/// are linked to their source) and the impacted-by closure over the
/// reachability index.
fn closed_cone(doc: &Document, trace: &ExecutionTrace, changed: &[String]) -> HashSet<String> {
    let rules = services::default_rules();
    let graph = infer_provenance(
        doc,
        trace,
        &rules,
        &EngineOptions {
            inherit: InheritMode::PatternRewrite,
            ..Default::default()
        },
    );
    let index = ReachabilityIndex::from_graph(&graph);
    dirty_cone(&index, changed).into_iter().collect()
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

/// Every engine configuration the differential sweep covers: the three
/// inference strategies crossed with 1/2/4 inference workers.
fn all_opts() -> Vec<EngineOptions> {
    let mut out = Vec::new();
    for strategy in [
        Strategy::StateReplay { materialize: false },
        Strategy::TemporalRewrite,
        Strategy::GroupedSinglePass,
    ] {
        for parallelism in [
            Parallelism::Sequential,
            Parallelism::Threads(2),
            Parallelism::Threads(4),
        ] {
            out.push(EngineOptions {
                strategy,
                parallelism,
                ..Default::default()
            });
        }
    }
    out
}

const PRIOR: [&str; 3] = [
    "le rapport de Geneve est dans la langue de la paix",
    "The report from Geneva is in the language of peace and the data is good.",
    "the archive holds a second report about the data",
];

/// Run the full differential for one changed corpus + dirty set: replay
/// under `--proof exact` must match a fresh full re-run on every axis.
fn assert_replay_equals_rerun(changed_payloads: [&str; 3], changed_uris: &[&str]) {
    let wf = pipeline();
    let mut prior_doc = corpus(&PRIOR);
    let prior = Orchestrator::new().execute(&wf, &mut prior_doc).expect("prior run");

    let changed: Vec<String> = changed_uris.iter().map(|s| s.to_string()).collect();
    let dirty = closed_cone(&prior_doc, &prior.trace, &changed);

    let mut replayed_doc = corpus(&changed_payloads);
    let replayed = Orchestrator::new()
        .replay(&wf, &mut replayed_doc, &prior_doc, &prior.trace, &dirty, ProofMode::Exact)
        .expect("replay");

    let mut full_doc = corpus(&changed_payloads);
    let full = Orchestrator::new().execute(&wf, &mut full_doc).expect("full re-run");

    // Document bytes, trace records and per-fragment identity.
    assert_eq!(
        to_xml_string(&replayed_doc.view()),
        to_xml_string(&full_doc.view()),
        "replayed document diverges from the full re-run"
    );
    assert_eq!(
        replayed.outcome.trace.calls, full.trace.calls,
        "replayed trace diverges from the full re-run"
    );
    assert_eq!(replayed.reused + replayed.recomputed, wf.len());
    assert!(
        replayed.grades.iter().all(|g| g.identical && g.grade == 1.0),
        "a reused fragment failed exact verification: {:?}",
        replayed.grades
    );

    // Link sets and Turtle export, for every strategy and worker count.
    let rules = services::default_rules();
    for opts in all_opts() {
        let a = infer_provenance(&replayed_doc, &replayed.outcome.trace, &rules, &opts);
        let b = infer_provenance(&full_doc, &full.trace, &rules, &opts);
        assert_eq!(
            sorted_pairs(&a),
            sorted_pairs(&b),
            "link sets diverge under {opts:?}"
        );
        assert_eq!(
            to_turtle(&export_prov(&a)),
            to_turtle(&export_prov(&b)),
            "Turtle export diverges under {opts:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Differential matrix
// ---------------------------------------------------------------------

#[test]
fn replay_of_one_changed_source_matches_a_full_rerun() {
    assert_replay_equals_rerun(
        [
            PRIOR[0],
            "The URGENT report from Geneva is in the language of war and the data is bad.",
            PRIOR[2],
        ],
        &["weblab://src/1"],
    );
}

#[test]
fn replay_of_a_multi_artifact_dirty_set_matches_a_full_rerun() {
    assert_replay_equals_rerun(
        [
            "le rapport est dans la langue de la guerre",
            PRIOR[1],
            "the archive holds a REVISED report about the data",
        ],
        &["weblab://src/0", "weblab://src/2"],
    );
}

#[test]
fn noop_replay_reuses_every_fragment() {
    let wf = pipeline();
    let mut prior_doc = corpus(&PRIOR);
    let prior = Orchestrator::new().execute(&wf, &mut prior_doc).expect("prior run");

    let mut replayed_doc = corpus(&PRIOR);
    let replayed = Orchestrator::new()
        .replay(
            &wf,
            &mut replayed_doc,
            &prior_doc,
            &prior.trace,
            &HashSet::new(),
            ProofMode::Exact,
        )
        .expect("no-op replay");
    assert_eq!(replayed.recomputed, 0, "an empty cone must recompute nothing");
    assert_eq!(replayed.reused, wf.len());
    assert_eq!(replayed.splices, wf.len());
    assert_eq!(
        to_xml_string(&replayed_doc.view()),
        to_xml_string(&prior_doc.view()),
        "a no-op replay must reproduce the prior document byte-for-byte"
    );
    assert_eq!(replayed.outcome.trace.calls, prior.trace.calls);
}

#[test]
fn replay_under_live_provenance_matches_batch_inference() {
    let wf = pipeline();
    let mut prior_doc = corpus(&PRIOR);
    let prior = Orchestrator::new().execute(&wf, &mut prior_doc).expect("prior run");
    let changed = vec!["weblab://src/1".to_string()];
    let dirty = closed_cone(&prior_doc, &prior.trace, &changed);
    let changed_payloads = [PRIOR[0], "a different English report entirely", PRIOR[2]];

    let rules = services::default_rules();
    for opts in all_opts() {
        // Live producer fed by the replay orchestrator's call hook, its
        // deltas folded into a snapshot of the input — spliced calls must
        // look exactly like executed ones to it.
        let mut replayed_doc = corpus(&changed_payloads);
        let mut snap = EpochSnapshot::empty();
        let start = LiveDelta {
            links: Vec::new(),
            sources: snap.missing_sources(&replayed_doc),
        };
        snap.fold(&start, 0);
        let snap = Arc::new(Mutex::new(snap));
        let producer = Mutex::new(
            LiveProvenance::new(rules.clone(), opts)
                .starting_at(&replayed_doc, &ExecutionTrace::default()),
        );
        let hook = Arc::clone(&snap);
        let orch = Orchestrator::new().with_call_hook(Arc::new(move |d, t, i| {
            let mut lp = producer.lock().unwrap();
            let delta = lp.observe_call(d, t, i);
            hook.lock().unwrap().fold(&delta, lp.calls_seen());
        }));
        let replayed = orch
            .replay(&wf, &mut replayed_doc, &prior_doc, &prior.trace, &dirty, ProofMode::Trusted)
            .expect("replay");
        drop(orch);
        let live = match Arc::try_unwrap(snap) {
            Ok(m) => m.into_inner().unwrap(),
            Err(_) => panic!("snapshot uniquely owned after the orchestrator is dropped"),
        };

        let batch = infer_provenance(&replayed_doc, &replayed.outcome.trace, &rules, &opts);
        assert_eq!(
            sorted_pairs(&live.graph),
            sorted_pairs(&batch),
            "live provenance diverges from batch over a replayed execution under {opts:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Graded verification of a nondeterministic service
// ---------------------------------------------------------------------

/// A deterministically-shaped but nondeterministically-valued service:
/// each call appends one `Noise` element with nine stable text lines and
/// one process-global nonce line, so a sandbox re-execution matches on
/// 11 of 12 signature lines (Dice ≈ 0.92): enough to clear a lenient
/// concordance tolerance, never byte-identical.
struct Noisy;

static NONCE: AtomicU64 = AtomicU64::new(0);

impl Service for Noisy {
    fn name(&self) -> &str {
        "Noisy"
    }

    fn call(&self, doc: &mut Document, ctx: &mut CallContext) -> Result<(), WorkflowError> {
        let root = doc.root();
        let el = doc.append_element(root, "Noise")?;
        for i in 0..9 {
            doc.append_text(el, format!("stable line {i}"))?;
        }
        let nonce = NONCE.fetch_add(1, Ordering::SeqCst);
        doc.append_text(el, format!("nonce {nonce}"))?;
        ctx.register(doc, el)?;
        Ok(())
    }
}

#[test]
fn exact_proof_rejects_a_nondeterministic_reused_service() {
    let wf = Workflow::new().then(Noisy);
    let mut prior_doc = corpus(&PRIOR);
    let prior = Orchestrator::new().execute(&wf, &mut prior_doc).expect("prior run");

    // Empty cone: the Noisy call is reused, and verification re-executes it.
    let mut replayed_doc = corpus(&PRIOR);
    let err = Orchestrator::new()
        .replay(
            &wf,
            &mut replayed_doc,
            &prior_doc,
            &prior.trace,
            &HashSet::new(),
            ProofMode::Exact,
        )
        .expect_err("exact proof must reject a nondeterministic service");
    let msg = err.to_string();
    assert!(
        msg.contains("nondeterministic"),
        "error should name the failure mode: {msg}"
    );

    // Concordant mode grades the same divergence within a tolerance…
    let mut replayed_doc = corpus(&PRIOR);
    let replayed = Orchestrator::new()
        .replay(
            &wf,
            &mut replayed_doc,
            &prior_doc,
            &prior.trace,
            &HashSet::new(),
            ProofMode::Concordant { tolerance: 0.8 },
        )
        .expect("concordant replay");
    assert_eq!(replayed.grades.len(), 1);
    let g = &replayed.grades[0];
    assert_eq!(g.service, "Noisy");
    assert!(!g.identical);
    assert!(g.grade > 0.8 && g.grade < 1.0, "grade {g:?} outside (0.8, 1)");

    // …and rejects it under a tolerance the grade cannot clear.
    let mut replayed_doc = corpus(&PRIOR);
    let err = Orchestrator::new()
        .replay(
            &wf,
            &mut replayed_doc,
            &prior_doc,
            &prior.trace,
            &HashSet::new(),
            ProofMode::Concordant { tolerance: 0.99 },
        )
        .expect_err("tolerance above the grade must reject");
    assert!(err.to_string().contains("concordance tolerance"));
}

// ---------------------------------------------------------------------
// Property-based sweep
// ---------------------------------------------------------------------

const WORDS: [&str; 8] = ["report", "data", "archive", "peace", "war", "Geneva", "Paris", "good"];

fn payload(seed: u64, salt: u64) -> String {
    let mut words = Vec::new();
    let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(salt);
    for _ in 0..6 {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        words.push(WORDS[(s >> 33) as usize % WORDS.len()]);
    }
    words.join(" ")
}

/// Build the workflow encoded by `stages`: always `Normaliser` first (so
/// units exist), then any subsequence of the analysis services — possibly
/// with repeats, which execute as no-op calls producing empty fragments.
fn workflow_from(stages: &[u8]) -> Workflow {
    let mut wf = Workflow::new().then(Normaliser);
    for &s in stages {
        wf = match s % 3 {
            0 => wf.then(LanguageExtractor),
            1 => wf.then(Translator::default()),
            _ => wf.then(Tokeniser),
        };
    }
    wf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For random pipelines and random changed-source subsets: the set of
    /// re-executed calls is *exactly* the set of prior calls whose
    /// produced resources intersect the closed dirty cone; every reused
    /// fragment re-executes byte-identically (exact proof passes); and the
    /// replayed document equals a full re-run byte-for-byte.
    #[test]
    fn recomputed_set_equals_the_dirty_cone_and_reuse_is_exact(
        stages in prop::collection::vec(any::<u8>(), 0..4),
        n_src in 2usize..5,
        seed in any::<u64>(),
        mask in any::<u32>(),
    ) {
        let wf = workflow_from(&stages);
        let payloads: Vec<String> = (0..n_src).map(|i| payload(seed, i as u64)).collect();
        let refs: Vec<&str> = payloads.iter().map(String::as_str).collect();
        let mut prior_doc = corpus(&refs);
        let prior = Orchestrator::new().execute(&wf, &mut prior_doc).expect("prior run");

        // Mutate the masked subset of sources.
        let changed_uris: Vec<String> = (0..n_src)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| format!("weblab://src/{i}"))
            .collect();
        let changed_payloads: Vec<String> = (0..n_src)
            .map(|i| {
                if mask & (1 << i) != 0 {
                    payload(seed ^ 0xdead_beef, i as u64)
                } else {
                    payloads[i].clone()
                }
            })
            .collect();
        let changed_refs: Vec<&str> = changed_payloads.iter().map(String::as_str).collect();

        let dirty = closed_cone(&prior_doc, &prior.trace, &changed_uris);

        // The expected recomputed set, straight from the cone definition.
        let expected_dirty: HashSet<(String, u64)> = prior
            .trace
            .calls
            .iter()
            .filter(|c| {
                c.produced.iter().any(|&n| {
                    prior_doc.resource(n).is_some_and(|m| dirty.contains(&m.uri))
                })
            })
            .map(|c| (c.service.clone(), c.time))
            .collect();

        let mut replayed_doc = corpus(&changed_refs);
        let replayed = Orchestrator::new()
            .replay(&wf, &mut replayed_doc, &prior_doc, &prior.trace, &dirty, ProofMode::Exact)
            .expect("replay");

        // Under exact proof every reused call is graded, so the reused set
        // is observable: grades ∪ expected_dirty must partition the calls.
        let reused: HashSet<(String, u64)> = replayed
            .grades
            .iter()
            .map(|g| (g.service.clone(), g.time))
            .collect();
        prop_assert_eq!(replayed.recomputed, expected_dirty.len());
        prop_assert_eq!(replayed.reused, prior.trace.calls.len() - expected_dirty.len());
        for c in &prior.trace.calls {
            let key = (c.service.clone(), c.time);
            if expected_dirty.contains(&key) {
                prop_assert!(!reused.contains(&key), "dirty call {key:?} was spliced");
            } else {
                prop_assert!(reused.contains(&key), "clean call {key:?} was re-executed");
            }
        }
        prop_assert!(
            replayed.grades.iter().all(|g| g.identical && g.grade == 1.0),
            "a reused fragment was not byte-identical: {:?}",
            replayed.grades
        );

        let mut full_doc = corpus(&changed_refs);
        let full = Orchestrator::new().execute(&wf, &mut full_doc).expect("full re-run");
        prop_assert_eq!(
            to_xml_string(&replayed_doc.view()),
            to_xml_string(&full_doc.view()),
            "replayed document diverges from the full re-run"
        );
        prop_assert_eq!(&replayed.outcome.trace.calls, &full.trace.calls);
    }
}
