//! Provenance-guided incremental recomputation ("replay").
//!
//! The reachability links of the provenance graph exist to answer *what
//! must change when an input changes*. This module is the executable form
//! of that answer: given a prior execution `e = d₀.c₁…cₙ.dₙ`, a
//! structure-preserving change to the initial state `d₀`, and the **dirty
//! cone** — the set of resource URIs transitively impacted by the changed
//! artifacts (`impacted_by` over the reachability index) — replay
//! re-executes *only* the steps whose produced resources intersect the
//! cone. Every clean step's fragment is **spliced** forward from the prior
//! document instead: its node range is copied with ids remapped and its
//! resource registrations replayed, exactly like a parallel-branch merge,
//! so the trace record it yields is indistinguishable from a fresh call.
//!
//! Because dirty steps run at their *original* instants (`CallRecord::time`
//! is reused, like a retry), the `(service, time)` labels — and therefore
//! the generated URIs — coincide with a full re-run's, which is what makes
//! the headline contract provable: **the replayed document, trace and
//! provenance links are byte-identical to re-running the whole workflow on
//! the changed input**, as long as every reused service is deterministic.
//!
//! ## Graded proof modes
//!
//! Determinism of the reused services is exactly the assumption the splice
//! rests on, so replay can *verify* it, at a cost, per reused step:
//!
//! * [`ProofMode::Trusted`] — no verification; the cone is trusted. This
//!   is the fast path the X16 benchmark measures.
//! * [`ProofMode::Exact`] — each reused step is additionally re-executed
//!   in a **sandbox fork** of the document (the same
//!   `materialize_state`/rollback machinery retries use) and the fresh
//!   fragment must be byte-identical to the spliced one; any divergence —
//!   i.e. a nondeterministic service — fails the replay loudly.
//! * [`ProofMode::Concordant`] — the sandbox comparison grades each
//!   fragment with a similarity score in `[0, 1]` (Dice coefficient over
//!   the fragments' canonical node lines) and accepts nondeterministic
//!   services whose grade clears a tolerance knob, reporting the
//!   per-fragment grades in [`ReplayOutcome::grades`].
//!
//! The `replay.{cone_size,reused,recomputed,splices}` counters and the
//! `replay.verify_ns` / `replay.grade_pct` histograms pin the behaviour
//! for the metrics suite.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use weblab_obs::{Counter, Histogram};
use weblab_prov::{CallRecord, ExecutionTrace};
use weblab_xml::{Document, NodeId, StateMark, Timestamp};

use crate::orchestrator::{next_time, ExecutionOutcome, Orchestrator, Workflow, WorkflowStep};
use crate::service::WorkflowError;

/// Dirty-cone sizes handed to replay (sum over replays).
static REPLAY_CONE_SIZE: Counter = Counter::new("replay.cone_size");
/// Prior calls reused (spliced forward) instead of re-executed.
static REPLAY_REUSED: Counter = Counter::new("replay.reused");
/// Prior calls re-executed because their outputs intersect the cone.
static REPLAY_RECOMPUTED: Counter = Counter::new("replay.recomputed");
/// Fragments spliced from the prior document (one per reused call).
static REPLAY_SPLICES: Counter = Counter::new("replay.splices");
/// Wall time spent in sandbox verification per reused step, nanoseconds.
static REPLAY_VERIFY_NS: Histogram = Histogram::new("replay.verify_ns");
/// Per-fragment verification grades, in percent (100 = byte-identical).
static REPLAY_GRADE_PCT: Histogram = Histogram::new("replay.grade_pct");

/// How strictly a replay must prove that splicing was sound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProofMode {
    /// Trust the cone: no re-execution of reused steps (the fast path).
    Trusted,
    /// Sandbox-re-execute every reused step and require byte/hash identity
    /// of the fresh fragment against the spliced one.
    Exact,
    /// Sandbox-re-execute and grade similarity; accept fragments whose
    /// grade is at least `tolerance` (in `[0, 1]`).
    Concordant {
        /// Minimum acceptable similarity grade.
        tolerance: f64,
    },
}

/// Verification verdict for one reused fragment.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentGrade {
    /// Service of the reused call.
    pub service: String,
    /// Call instant of the reused call.
    pub time: Timestamp,
    /// Similarity of the sandbox re-execution to the spliced fragment
    /// (1.0 = byte-identical).
    pub grade: f64,
    /// Whether the fragments were byte-identical.
    pub identical: bool,
}

/// Result of an incremental replay.
#[derive(Debug, Default)]
pub struct ReplayOutcome {
    /// The new execution's trace (plus attempt log for recomputed steps) —
    /// shaped exactly like a full re-run's [`ExecutionOutcome`].
    pub outcome: ExecutionOutcome,
    /// Size of the dirty cone the replay was given.
    pub cone_size: usize,
    /// Prior calls reused via splicing.
    pub reused: usize,
    /// Prior calls re-executed.
    pub recomputed: usize,
    /// Fragments spliced from the prior document.
    pub splices: usize,
    /// Per-fragment verification grades (empty under
    /// [`ProofMode::Trusted`]).
    pub grades: Vec<FragmentGrade>,
    /// Prior node id → new node id: seeded with the initial-state
    /// correspondence, extended per spliced node and per
    /// positionally-aligned recomputed node.
    idmap: HashMap<NodeId, NodeId>,
}

impl ReplayOutcome {
    /// Map a node id of the *prior* document to its id in the replayed
    /// document: initial-state and spliced nodes always have an image,
    /// recomputed nodes only when their fragment kept its shape. `None`
    /// otherwise.
    pub fn map_node(&self, n: NodeId) -> Option<NodeId> {
        self.idmap.get(&n).copied()
    }
}

fn replay_error(message: impl Into<String>) -> WorkflowError {
    WorkflowError::Service {
        service: "replay".into(),
        message: message.into(),
    }
}

/// Owner partition of the prior document's nodes: `usize::MAX` marks the
/// initial state, any other value indexes the owning call in `calls`. A
/// node's owner is its innermost ancestor-or-self resource whose label
/// names a recorded call; labels outside the trace (the `(Source, 0)`
/// stamps of ingested artifacts) inherit like unlabelled nodes. Parents
/// are always created before children in the append-only arena, so one
/// ascending pass suffices — both for in-memory documents (arena order =
/// creation order) and for documents re-parsed from disk (arena order =
/// document order), which is what makes replay independent of persisted
/// state marks.
fn assign_owners(prior_doc: &Document, calls: &[CallRecord]) -> Vec<usize> {
    let call_of: HashMap<(&str, Timestamp), usize> = calls
        .iter()
        .enumerate()
        .map(|(i, c)| ((c.service.as_str(), c.time), i))
        .collect();
    let mut owner = vec![usize::MAX; prior_doc.node_count()];
    for idx in 0..prior_doc.node_count() {
        let id = NodeId::from_index(idx);
        let own = prior_doc
            .resource(id)
            .and_then(|m| m.label)
            .and_then(|l| call_of.get(&(l.service.as_str(), l.time)).copied());
        owner[idx] = match own {
            Some(k) => k,
            None => prior_doc
                .node(id)
                .ok()
                .and_then(|n| n.parent())
                .map(|p| owner[p.index()])
                .unwrap_or(usize::MAX),
        };
    }
    owner
}

/// Service calls one step contributes to the trace (branches flattened).
fn service_count(step: &WorkflowStep) -> usize {
    match step {
        WorkflowStep::Service(_) => 1,
        WorkflowStep::Parallel(branches) => branches
            .iter()
            .map(|b| b.steps().iter().map(service_count).sum::<usize>())
            .sum(),
    }
}

/// Canonical per-node lines of the fragment `input..output`, with new
/// nodes encoded relative to the fragment base so fragments at different
/// arena offsets compare equal; pre-existing parents keep absolute ids
/// (the compared documents share an identical prefix).
fn fragment_signature(doc: &Document, input: StateMark, output: StateMark) -> Vec<String> {
    let base = input.node_count();
    let enc = |n: NodeId| {
        if n.index() < base {
            format!("o{}", n.index())
        } else {
            format!("n{}", n.index() - base)
        }
    };
    let mut lines = Vec::new();
    for idx in base..output.node_count() {
        let id = NodeId::from_index(idx);
        let node = doc.node(id).expect("fragment node exists");
        let parent = node.parent().map(enc).unwrap_or_else(|| "-".into());
        let attrs: Vec<String> = node.attrs().map(|(k, v)| format!("{k}={v}")).collect();
        let line = match node.kind() {
            weblab_xml::NodeKind::Element { name } => {
                format!("e {name} p{parent} [{}]", attrs.join(","))
            }
            weblab_xml::NodeKind::Text { value } => format!("t {value:?} p{parent}"),
        };
        lines.push(line);
    }
    let registered = output.resource_count() - input.resource_count();
    for n in doc.new_resources_since(input).into_iter().take(registered) {
        let meta = doc.resource(n).expect("registered");
        let label = meta
            .label
            .map(|l| format!("{}@{}", l.service, l.time))
            .unwrap_or_else(|| "-".into());
        lines.push(format!("r {} {} @{}", meta.uri, label, enc(n)));
    }
    lines
}

/// Dice coefficient over two line multisets: `2·|A ∩ B| / (|A| + |B|)`.
fn dice(a: &[String], b: &[String]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let mut counts: HashMap<&str, i64> = HashMap::new();
    for l in a {
        *counts.entry(l.as_str()).or_default() += 1;
    }
    let mut common = 0i64;
    for l in b {
        let c = counts.entry(l.as_str()).or_default();
        if *c > 0 {
            *c -= 1;
            common += 1;
        }
    }
    (2.0 * common as f64) / (a.len() + b.len()) as f64
}

impl Orchestrator {
    /// Incrementally re-execute `workflow` over `doc` (the changed initial
    /// state), reusing fragments of the prior execution
    /// (`prior_doc`/`prior_trace`) for every step whose produced resources
    /// avoid the `dirty` cone. See the module docs for the contract.
    ///
    /// Requirements: `prior_trace` must be complete (one record per
    /// service step — no skipped steps), and `doc` must preserve the
    /// node/resource counts of the prior initial state (the change is a
    /// content change, not a structural one). Call hooks fire for spliced
    /// calls exactly as for executed ones, so a live provenance maintainer
    /// sees the replayed execution as a normal one.
    pub fn replay(
        &self,
        workflow: &Workflow,
        doc: &mut Document,
        prior_doc: &Document,
        prior_trace: &ExecutionTrace,
        dirty: &HashSet<String>,
        proof: ProofMode,
    ) -> Result<ReplayOutcome, WorkflowError> {
        let total: usize = workflow.steps().iter().map(service_count).sum();
        if prior_trace.calls.len() != total {
            return Err(replay_error(format!(
                "prior trace records {} calls but the workflow has {} service steps; \
                 replay needs a complete trace",
                prior_trace.calls.len(),
                total
            )));
        }
        let owner = assign_owners(prior_doc, &prior_trace.calls);
        let initial: Vec<NodeId> = (0..prior_doc.node_count())
            .filter(|&i| owner[i] == usize::MAX)
            .map(NodeId::from_index)
            .collect();
        let initial_resources = initial
            .iter()
            .filter(|&&n| prior_doc.resource(n).is_some())
            .count();
        let mark = doc.mark();
        if mark.node_count() != initial.len() || mark.resource_count() != initial_resources {
            return Err(replay_error(format!(
                "changed document has {} nodes / {} resources but the prior initial state \
                 had {} / {}; replay requires a structure-preserving change",
                mark.node_count(),
                mark.resource_count(),
                initial.len(),
                initial_resources
            )));
        }
        // Seed the id map with the initial-state correspondence: the prior
        // document's initial nodes, in ascending id order, line up with the
        // changed document's nodes one-to-one (same shape, changed content).
        let mut idmap: HashMap<NodeId, NodeId> = HashMap::new();
        for (i, &p) in initial.iter().enumerate() {
            let new_id = NodeId::from_index(i);
            let (a, b) = (
                prior_doc.node(p).map_err(WorkflowError::Xml)?,
                doc.node(new_id).map_err(WorkflowError::Xml)?,
            );
            let compatible = match (a.kind(), b.kind()) {
                (
                    weblab_xml::NodeKind::Element { name: x },
                    weblab_xml::NodeKind::Element { name: y },
                ) => x == y,
                (weblab_xml::NodeKind::Text { .. }, weblab_xml::NodeKind::Text { .. }) => true,
                _ => false,
            };
            if !compatible {
                return Err(replay_error(format!(
                    "changed document diverges from the prior initial state at node {i} \
                     (prior {p:?}); replay requires a structure-preserving change",
                )));
            }
            idmap.insert(p, new_id);
        }
        // Each call's fragment, in ascending id order (creation order in
        // memory, document order after a re-parse — both are parents-first
        // and child-order-preserving, which is all splicing needs).
        let mut fragments: Vec<Vec<NodeId>> = vec![Vec::new(); prior_trace.calls.len()];
        for (idx, &o) in owner.iter().enumerate() {
            if o != usize::MAX {
                fragments[o].push(NodeId::from_index(idx));
            }
        }
        REPLAY_CONE_SIZE.add(dirty.len() as u64);

        let mut result = ReplayOutcome {
            cone_size: dirty.len(),
            ..ReplayOutcome::default()
        };
        let mut time = prior_trace
            .calls
            .first()
            .map(|c| c.time)
            .unwrap_or_else(|| next_time(doc));
        let mut cursor = 0usize;

        for step in workflow.steps() {
            let n = service_count(step);
            let first_call = cursor;
            let range = &prior_trace.calls[cursor..cursor + n];
            cursor += n;
            let step_dirty = range.iter().any(|c| {
                c.produced.iter().any(|&pn| {
                    prior_doc
                        .resource(pn)
                        .map(|m| dirty.contains(m.uri))
                        .unwrap_or(false)
                })
            });
            if step_dirty {
                // Re-execute at the original instants (like a retry), so
                // labels and generated URIs coincide with a full re-run.
                time = range[0].time;
                let new_from = result.outcome.trace.calls.len();
                self.exec_steps(
                    std::slice::from_ref(step),
                    doc,
                    &mut time,
                    "",
                    &mut result.outcome,
                    true,
                )?;
                let new_calls = &result.outcome.trace.calls[new_from..];
                result.recomputed += new_calls.len();
                // Positionally align the recomputed fragments with the
                // prior ones so later spliced calls can attach to nodes a
                // dirty call recreated.
                if new_calls.len() == range.len() {
                    for (k, fresh) in new_calls.iter().enumerate() {
                        let prior_nodes = &fragments[first_call + k];
                        let fresh_count =
                            fresh.output.node_count() - fresh.input.node_count();
                        if prior_nodes.len() == fresh_count {
                            for (off, &p) in prior_nodes.iter().enumerate() {
                                idmap.insert(
                                    p,
                                    NodeId::from_index(fresh.input.node_count() + off),
                                );
                            }
                        }
                    }
                }
                time = range.last().expect("non-empty step").time + 1;
            } else {
                // A sandbox fork of the pre-step state, taken before the
                // splice, when this step must be verified.
                let verify_fork = if proof != ProofMode::Trusted {
                    Some(doc.materialize_state(doc.mark()))
                } else {
                    None
                };
                let splice_from = result.outcome.trace.calls.len();
                for (k, call) in range.iter().enumerate() {
                    splice_call(
                        doc,
                        prior_doc,
                        call,
                        &fragments[first_call + k],
                        &mut idmap,
                        &mut result.outcome,
                    )?;
                    result.reused += 1;
                    result.splices += 1;
                    for hook in &self.call_hooks {
                        hook(
                            doc,
                            &result.outcome.trace,
                            result.outcome.trace.calls.len() - 1,
                        );
                    }
                }
                time = range.last().map(|c| c.time + 1).unwrap_or(time);
                if let Some(mut fork) = verify_fork {
                    let t0 = Instant::now();
                    let mut vt = range.first().map(|c| c.time).unwrap_or(time);
                    let mut sandbox = ExecutionOutcome::default();
                    self.exec_steps(
                        std::slice::from_ref(step),
                        &mut fork,
                        &mut vt,
                        "",
                        &mut sandbox,
                        false,
                    )?;
                    let spliced = &result.outcome.trace.calls[splice_from..];
                    if sandbox.trace.calls.len() != spliced.len() {
                        return Err(replay_error(format!(
                            "replay divergence: verification re-run of a reused step \
                             recorded {} calls where the splice carried {}",
                            sandbox.trace.calls.len(),
                            spliced.len()
                        )));
                    }
                    for (s, f) in spliced.iter().zip(&sandbox.trace.calls) {
                        let sa = fragment_signature(doc, s.input, s.output);
                        let fb = fragment_signature(&fork, f.input, f.output);
                        let identical = sa == fb;
                        let grade = if identical { 1.0 } else { dice(&sa, &fb) };
                        REPLAY_GRADE_PCT.record((grade * 100.0).round() as u64);
                        match proof {
                            ProofMode::Exact if !identical => {
                                return Err(replay_error(format!(
                                    "replay divergence: service {} at t{} re-executed \
                                     differently under --proof exact (grade {grade:.2}); \
                                     the service is nondeterministic or the dirty cone \
                                     under-approximates its dependencies",
                                    s.service, s.time
                                )));
                            }
                            ProofMode::Concordant { tolerance } if grade < tolerance => {
                                return Err(replay_error(format!(
                                    "replay divergence: service {} at t{} grades {grade:.2}, \
                                     below the {tolerance:.2} concordance tolerance",
                                    s.service, s.time
                                )));
                            }
                            _ => {}
                        }
                        result.grades.push(FragmentGrade {
                            service: s.service.clone(),
                            time: s.time,
                            grade,
                            identical,
                        });
                    }
                    REPLAY_VERIFY_NS
                        .record(t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                }
            }
        }
        REPLAY_REUSED.add(result.reused as u64);
        REPLAY_RECOMPUTED.add(result.recomputed as u64);
        REPLAY_SPLICES.add(result.splices as u64);
        result.outcome.eager_links.sort();
        result.outcome.eager_links.dedup();
        result.idmap = idmap;
        Ok(result)
    }
}

/// Splice one reused call forward: copy its node range from the prior
/// document (ids remapped), replay its resource registrations, and record
/// a call with marks taken around the splice — the exact shape of a
/// parallel-branch merge, so downstream consumers cannot tell a spliced
/// call from an executed one.
fn splice_call(
    doc: &mut Document,
    prior_doc: &Document,
    call: &CallRecord,
    nodes: &[NodeId],
    idmap: &mut HashMap<NodeId, NodeId>,
    outcome: &mut ExecutionOutcome,
) -> Result<(), WorkflowError> {
    let map_id = |idmap: &HashMap<NodeId, NodeId>, n: NodeId| -> Result<NodeId, WorkflowError> {
        idmap.get(&n).copied().ok_or_else(|| {
            replay_error(format!(
                "cannot splice {} at t{}: it attaches to a node a recomputed \
                 step reshaped; widen the dirty cone",
                call.service, call.time
            ))
        })
    };
    let new_input = doc.mark();
    for &id in nodes {
        let node = prior_doc.node(id).expect("prior fragment node exists");
        let copy = doc.create_copy(node);
        if let Some(parent) = node.parent() {
            let p = map_id(idmap, parent)?;
            doc.attach(p, copy)?;
        }
        idmap.insert(id, copy);
    }
    // Replay the call's registrations in their recorded order: `produced`
    // is exactly the set of resources the call registered (services
    // register nodes they created; nothing in-tree promotes pre-existing
    // nodes), and both the recorder and the persisted trace format keep
    // its registration order.
    for &n in &call.produced {
        let meta = prior_doc.resource(n).expect("produced node is registered");
        let target = map_id(idmap, n)?;
        doc.register_resource(target, meta.uri, meta.label.cloned())?;
    }
    let new_output = doc.mark();
    let mut record = call.clone();
    record.input = new_input;
    record.output = new_output;
    record.produced = call
        .produced
        .iter()
        .map(|&n| map_id(idmap, n))
        .collect::<Result<Vec<_>, _>>()?;
    outcome.trace.calls.push(record);
    Ok(())
}
