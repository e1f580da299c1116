//! Workflow orchestration (Definition 2) with trace recording.
//!
//! The orchestrator drives a control flow `c₁ … cₙ` over a single document,
//! producing the data flow `d₀ ⊑ d₁ ⊑ … ⊑ dₙ` and the execution trace the
//! provenance engine consumes. It assigns strictly increasing call
//! instants, validates the append-only contract after every call, and
//! optionally computes provenance links *during* execution (the intrusive
//! "eager" mode the paper argues against — kept as the X3 baseline).
//!
//! ## Parallel executions (Section 8 extension)
//!
//! The paper sketches the extension to "more complex execution patterns
//! including nesting and parallel service executions … by adding
//! additional meta-data for identifying different control flow channels".
//! [`Workflow::then_parallel`] adds a block of branches that logically run
//! concurrently: each branch executes on a *fork* of the document taken at
//! the block entry (so sibling branches cannot see each other's output,
//! exactly as concurrent processes could not), and its new fragments are
//! then merged back into the main arena, call by call, preserving resource
//! metadata. Every call record carries its *channel* (a path of branch
//! indices); the provenance engine uses channel compatibility to restrict
//! which resources a parallel call may depend on.

use std::fmt;
use std::sync::Arc;

use weblab_obs::{Counter, Gauge, Histogram, Span};
use weblab_prov::{
    document_state_provenance, EngineOptions, ExecutionTrace, ProvLink, RuleSet,
};
use weblab_xml::{Document, NodeId, Timestamp};

use crate::policy::{FailurePolicy, FaultPolicy};
use crate::service::{CallContext, Service, WorkflowError};

/// Service calls completed successfully (recorded in the trace).
static WORKFLOW_CALLS: Counter = Counter::new("workflow.calls");
/// Service-call attempts that failed (service error or append-only
/// violation); every failed attempt ticks once, retries included.
static WORKFLOW_ERRORS: Counter = Counter::new("workflow.errors");
/// Failed attempts whose document effects were rolled back to the pre-call
/// mark.
static WORKFLOW_ROLLBACKS: Counter = Counter::new("workflow.rollbacks");
/// Retries performed (attempt n+1 started after attempt n failed).
static WORKFLOW_RETRIES: Counter = Counter::new("workflow.retries");
/// Steps abandoned under [`FailurePolicy::Skip`] after their final attempt
/// failed.
static WORKFLOW_SKIPS: Counter = Counter::new("workflow.skips");
/// Scheduled backoff before retries, in nanoseconds.
static BACKOFF_NS: Histogram = Histogram::new("workflow.backoff_ns");
/// Nodes appended per call — the size of each call's new fragment.
static FRAGMENT_NODES: Histogram = Histogram::new("workflow.fragment_nodes");
/// Service calls currently executing. Balanced by the span's drop on every
/// exit path, so it must read 0 after any execution — including a failed
/// one (the failure-injection metrics test pins this).
static CALLS_INFLIGHT: Gauge = Gauge::new("workflow.calls.inflight");

/// One step of a workflow: a service call or a parallel block.
pub enum WorkflowStep {
    /// A single black-box service call.
    Service(Box<dyn Service>),
    /// Branches that logically execute in parallel on forks of the
    /// document taken at block entry, merged back afterwards.
    Parallel(Vec<Workflow>),
}

/// A workflow: an ordered list of steps (Definition 2, plus the Section 8
/// parallel extension).
#[derive(Default)]
pub struct Workflow {
    steps: Vec<WorkflowStep>,
}

impl Workflow {
    /// Empty workflow.
    pub fn new() -> Self {
        Workflow::default()
    }

    /// Append a service step.
    pub fn then(mut self, service: impl Service + 'static) -> Self {
        self.steps.push(WorkflowStep::Service(Box::new(service)));
        self
    }

    /// Append a boxed service step.
    pub fn then_boxed(mut self, service: Box<dyn Service>) -> Self {
        self.steps.push(WorkflowStep::Service(service));
        self
    }

    /// Append a parallel block of branches.
    pub fn then_parallel(mut self, branches: Vec<Workflow>) -> Self {
        self.steps.push(WorkflowStep::Parallel(branches));
        self
    }

    /// Number of steps (a parallel block counts as one step).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the workflow has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The steps, for same-crate engines (the replay planner walks them
    /// alongside a prior trace).
    pub(crate) fn steps(&self) -> &[WorkflowStep] {
        &self.steps
    }

    /// Service names in control-flow order; parallel blocks are rendered
    /// as `[branch0 | branch1 | …]`.
    pub fn step_names(&self) -> Vec<String> {
        self.steps
            .iter()
            .map(|s| match s {
                WorkflowStep::Service(svc) => svc.name().to_string(),
                WorkflowStep::Parallel(branches) => {
                    let inner: Vec<String> = branches
                        .iter()
                        .map(|b| b.step_names().join(","))
                        .collect();
                    format!("[{}]", inner.join(" | "))
                }
            })
            .collect()
    }
}

/// How one attempt at a service call ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttemptStatus {
    /// The attempt completed; its fragment is part of the document and the
    /// call is recorded in the trace.
    Succeeded,
    /// The attempt failed; its document effects were rolled back to the
    /// pre-call mark.
    RolledBack {
        /// The failure, rendered.
        error: String,
    },
    /// All attempts failed and the step was abandoned under
    /// [`FailurePolicy::Skip`], leaving a gap at the call's instant.
    Skipped,
}

/// Record of one attempt at a service call — including rolled-back ones,
/// which never appear in the [`ExecutionTrace`] itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptRecord {
    /// Service name.
    pub service: String,
    /// The call instant the attempt ran at (retries reuse the instant of
    /// the attempt they replace).
    pub time: Timestamp,
    /// 1-based attempt number within the step.
    pub attempt: u32,
    /// Control-flow channel of the step.
    pub channel: String,
    /// How the attempt ended.
    pub status: AttemptStatus,
    /// Backoff scheduled before this attempt started, in nanoseconds
    /// (0 for first attempts).
    pub backoff_ns: u64,
}

/// Result of an execution: the trace plus, in eager mode, the provenance
/// links computed along the way.
#[derive(Debug, Default)]
pub struct ExecutionOutcome {
    /// Trace of the calls (`out(c_i)`, state marks, labels).
    pub trace: ExecutionTrace,
    /// Links computed during execution (eager mode only).
    pub eager_links: Vec<ProvLink>,
    /// Every attempt made, in execution order — successful calls, failed
    /// and rolled-back attempts, and skip markers alike. On a fault-free
    /// run this is one `Succeeded` entry per trace call.
    pub attempts: Vec<AttemptRecord>,
}

/// Observer invoked after every *committed* service call, with the
/// document state at the call's completion, the trace so far, and the
/// index of the new [`weblab_prov::CallRecord`] within it.
///
/// Commit semantics: the hook never fires for rolled-back attempts (their
/// document effects are gone when the retry or abort happens) nor for
/// skipped steps (nothing was recorded), and calls made inside parallel
/// branches fire only once their fork has been merged back into the main
/// arena — with the merged record, whose node ids are main-arena ids. A
/// provenance maintainer subscribed here therefore only ever sees durable
/// state.
pub type CallHook = Arc<dyn Fn(&Document, &ExecutionTrace, usize) + Send + Sync>;

/// The workflow execution engine.
#[derive(Clone, Default)]
pub struct Orchestrator {
    /// Compute provenance during execution using these rules (the
    /// intrusive mode; `None` = non-invasive, provenance is inferred
    /// posthoc from the trace).
    pub eager_rules: Option<RuleSet>,
    /// Fault-tolerance configuration (default: abort on first failure,
    /// after rolling the failed call back).
    pub fault: FaultPolicy,
    /// Call-completion observers (e.g. a live provenance maintainer plus a
    /// serving layer's index updater), fired in subscription order after
    /// every committed call.
    pub call_hooks: Vec<CallHook>,
}

impl fmt::Debug for Orchestrator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Orchestrator")
            .field("eager_rules", &self.eager_rules)
            .field("fault", &self.fault)
            .field("call_hooks", &self.call_hooks.len())
            .finish()
    }
}

impl Orchestrator {
    /// A non-invasive orchestrator (provenance inferred after the fact).
    pub fn new() -> Self {
        Orchestrator::default()
    }

    /// An orchestrator that evaluates mapping rules after every call — the
    /// paper's rejected-but-measured eager alternative.
    pub fn eager(rules: RuleSet) -> Self {
        Orchestrator {
            eager_rules: Some(rules),
            ..Orchestrator::default()
        }
    }

    /// Replace the fault-tolerance policy (builder style).
    pub fn with_fault(mut self, fault: FaultPolicy) -> Self {
        self.fault = fault;
        self
    }

    /// Subscribe a call-completion observer (builder style). See
    /// [`CallHook`] for the commit semantics. Hooks *fan in*: subscribing
    /// several observers is supported, and each committed call notifies all
    /// of them in subscription order.
    pub fn with_call_hook(mut self, hook: CallHook) -> Self {
        self.call_hooks.push(hook);
        self
    }

    /// Subscribe a call-completion observer on an existing orchestrator
    /// (the non-builder form of [`Orchestrator::with_call_hook`]).
    pub fn add_call_hook(&mut self, hook: CallHook) {
        self.call_hooks.push(hook);
    }

    /// Execute `workflow` over `doc`, starting call instants after any
    /// label already present in the document.
    pub fn execute(
        &self,
        workflow: &Workflow,
        doc: &mut Document,
    ) -> Result<ExecutionOutcome, WorkflowError> {
        let start = next_time(doc);
        self.execute_resumable(workflow, doc, start, 0, &mut |_, _, _, _| {})
    }

    /// Execute from an explicit first call instant with checkpoint/resume
    /// support: skip the first `completed` top-level steps (they ran
    /// before a crash and their effects are already in `doc`), and invoke
    /// `checkpoint` after every top-level step that completes, with the
    /// number of steps now completed, the document, the outcome so far,
    /// and the next call instant. The platform runs every pipeline here:
    /// its instants continue past an execution's earlier calls, and a
    /// durable run stores each completed step with a resume point a
    /// crashed execution can be reloaded from.
    ///
    /// A parallel block counts as one step: it either completes as a whole
    /// or is re-run as a whole on resume.
    pub fn execute_resumable<F>(
        &self,
        workflow: &Workflow,
        doc: &mut Document,
        start: Timestamp,
        completed: usize,
        checkpoint: &mut F,
    ) -> Result<ExecutionOutcome, WorkflowError>
    where
        F: FnMut(usize, &Document, &ExecutionOutcome, Timestamp),
    {
        let mut outcome = ExecutionOutcome::default();
        let mut time = start;
        for (i, step) in workflow.steps.iter().enumerate().skip(completed) {
            self.exec_steps(
                std::slice::from_ref(step),
                doc,
                &mut time,
                "",
                &mut outcome,
                true,
            )?;
            checkpoint(i + 1, doc, &outcome, time);
        }
        outcome.eager_links.sort();
        outcome.eager_links.dedup();
        Ok(outcome)
    }

    /// `notify` gates the call hook: true on the main document, false
    /// inside branch forks (a fork's calls only become durable — and get
    /// main-arena node ids — when the fork is merged, at which point the
    /// caller fires the hook per merged record).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn exec_steps(
        &self,
        steps: &[WorkflowStep],
        doc: &mut Document,
        time: &mut Timestamp,
        channel: &str,
        outcome: &mut ExecutionOutcome,
        notify: bool,
    ) -> Result<(), WorkflowError> {
        for step in steps {
            match step {
                WorkflowStep::Service(service) => {
                    self.exec_service(service.as_ref(), doc, time, channel, outcome, notify)?;
                }
                WorkflowStep::Parallel(branches) => {
                    let fork_mark = doc.mark();
                    for (bi, branch) in branches.iter().enumerate() {
                        let child_channel = if channel.is_empty() {
                            bi.to_string()
                        } else {
                            format!("{channel}.{bi}")
                        };
                        // a fork of the document at block entry: the branch
                        // cannot observe sibling output
                        let mut fork = doc.materialize_state(fork_mark);
                        let mut branch_outcome = ExecutionOutcome::default();
                        self.exec_steps(
                            &branch.steps,
                            &mut fork,
                            time,
                            &child_channel,
                            &mut branch_outcome,
                            false,
                        )?;
                        let merged_from = outcome.trace.calls.len();
                        merge_branch(doc, &fork, fork_mark, branch_outcome, outcome)?;
                        if notify {
                            for idx in merged_from..outcome.trace.calls.len() {
                                for hook in &self.call_hooks {
                                    hook(doc, &outcome.trace, idx);
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Run one service step under the fault policy: attempt the call up to
    /// its attempt budget, rolling the document (and thereby the timestamp
    /// counter — retries reuse the same instant) back to the pre-call mark
    /// after every failure, so no failed attempt can leak nodes or
    /// half-registered resources into the containment chain.
    fn exec_service(
        &self,
        service: &dyn Service,
        doc: &mut Document,
        time: &mut Timestamp,
        channel: &str,
        outcome: &mut ExecutionOutcome,
        notify: bool,
    ) -> Result<(), WorkflowError> {
        let name = service.name();
        let disposition = self.fault.failure_for(name);
        let retry = self.fault.retry_for(name);
        let max_attempts = self.fault.max_attempts_for(name);
        let mut attempt = 1u32;
        loop {
            let backoff_ns = if attempt > 1 {
                retry.backoff_ns(name, attempt - 1)
            } else {
                0
            };
            if backoff_ns > 0 {
                BACKOFF_NS.record(backoff_ns);
                std::thread::sleep(std::time::Duration::from_nanos(backoff_ns));
            }
            if weblab_obs::enabled() {
                weblab_obs::counter(&format!("workflow.service.{name}.attempts")).inc();
            }
            let rollback_mark = doc.mark();
            match self.attempt_service(service, doc, *time, channel, outcome) {
                Ok(()) => {
                    outcome.attempts.push(AttemptRecord {
                        service: name.to_string(),
                        time: *time,
                        attempt,
                        channel: channel.to_string(),
                        status: AttemptStatus::Succeeded,
                        backoff_ns,
                    });
                    // the attempt is committed: its fragment is durable and
                    // its trace record final — fire the call hook (but not
                    // for fork-local records, which are only durable once
                    // merged)
                    if notify {
                        for hook in &self.call_hooks {
                            hook(doc, &outcome.trace, outcome.trace.calls.len() - 1);
                        }
                    }
                    *time += 1;
                    return Ok(());
                }
                Err(e) => {
                    WORKFLOW_ERRORS.inc();
                    doc.truncate_to_mark(rollback_mark)
                        .expect("rollback mark was just taken on this document");
                    WORKFLOW_ROLLBACKS.inc();
                    outcome.attempts.push(AttemptRecord {
                        service: name.to_string(),
                        time: *time,
                        attempt,
                        channel: channel.to_string(),
                        status: AttemptStatus::RolledBack {
                            error: e.to_string(),
                        },
                        backoff_ns,
                    });
                    if attempt < max_attempts {
                        WORKFLOW_RETRIES.inc();
                        attempt += 1;
                        continue;
                    }
                    return match disposition {
                        FailurePolicy::Skip => {
                            WORKFLOW_SKIPS.inc();
                            outcome.attempts.push(AttemptRecord {
                                service: name.to_string(),
                                time: *time,
                                attempt,
                                channel: channel.to_string(),
                                status: AttemptStatus::Skipped,
                                backoff_ns: 0,
                            });
                            // reserve the failed call's instant so the gap
                            // is visible in the trace's label sequence
                            *time += 1;
                            Ok(())
                        }
                        FailurePolicy::Abort | FailurePolicy::Retry => Err(e),
                    };
                }
            }
        }
    }

    /// One attempt at a service call: run it, validate append-only
    /// containment, record the trace entry and (in eager mode) the links.
    fn attempt_service(
        &self,
        service: &dyn Service,
        doc: &mut Document,
        time: Timestamp,
        channel: &str,
        outcome: &mut ExecutionOutcome,
    ) -> Result<(), WorkflowError> {
        let input = doc.mark();
        let mut ctx = CallContext::new(service.name(), time);
        // Per-service wall-time histogram, named dynamically. The lookup
        // (format + intern) only happens while collection is enabled; the
        // span itself then balances `workflow.calls.inflight` on every exit
        // path, errors included.
        let span = weblab_obs::enabled().then(|| {
            let hist = weblab_obs::histogram(&format!(
                "workflow.service.{}.duration_ns",
                service.name()
            ));
            Span::start_with_inflight(hist, &CALLS_INFLIGHT)
        });
        let called = service.call(doc, &mut ctx);
        drop(span);
        called?;
        let output = doc.mark();
        validate_append_only(doc, input, output, service.name())?;
        WORKFLOW_CALLS.inc();
        FRAGMENT_NODES.record((output.node_count() - input.node_count()) as u64);
        outcome.trace.record_call_on_channel(
            doc,
            service.name(),
            time,
            input,
            output,
            channel,
        );
        if let Some(rules) = &self.eager_rules {
            let call = outcome.trace.calls.last().expect("just recorded");
            let produced: std::collections::HashSet<NodeId> =
                call.produced.iter().copied().collect();
            let opts = EngineOptions::default();
            let in_view = doc.view_at(input.with_resources_of(output));
            let out_view = doc.view_at(output);
            for rule in rules.rules_for(service.name()) {
                outcome.eager_links.extend(
                    document_state_provenance(rule, &in_view, &out_view, opts.join)
                        .into_iter()
                        .filter(|l| produced.contains(&l.from)),
                );
            }
        }
        Ok(())
    }
}

/// Merge a completed branch fork back into the main arena: per branch
/// call, copy its node range (ids remapped), replay its resource
/// registrations, and record a channel-tagged call in the main trace with
/// marks taken around its own merge. Eager links computed inside the fork
/// are remapped alongside.
fn merge_branch(
    main: &mut Document,
    fork: &Document,
    fork_mark: weblab_xml::StateMark,
    branch_outcome: ExecutionOutcome,
    outcome: &mut ExecutionOutcome,
) -> Result<(), WorkflowError> {
    use std::collections::HashMap;
    let mut idmap: HashMap<NodeId, NodeId> = HashMap::new();
    let fork_nodes = fork_mark.node_count();
    let map_id = |idmap: &HashMap<NodeId, NodeId>, n: NodeId| -> NodeId {
        if n.index() < fork_nodes {
            n // pre-fork nodes keep their ids (materialize preserves them)
        } else {
            *idmap.get(&n).expect("branch node merged before use")
        }
    };

    let fork_resources: Vec<NodeId> = fork.resource_nodes().to_vec();
    for call in &branch_outcome.trace.calls {
        let main_input = main.mark();
        // copy this call's node range
        for idx in call.input.node_count()..call.output.node_count() {
            let id = NodeId::from_index(idx);
            let node = fork.node(id).expect("fork node exists");
            let copy = match node.kind() {
                weblab_xml::NodeKind::Element { name } => main.create_element(name.clone()),
                weblab_xml::NodeKind::Text { value } => main.create_text(value.clone()),
            };
            for (k, v) in node.attrs() {
                if node.name().is_some() {
                    main.set_attr(copy, k.clone(), v.clone())?;
                }
            }
            if let Some(parent) = node.parent() {
                main.attach(map_id(&idmap, parent), copy)?;
            }
            idmap.insert(id, copy);
        }
        // replay this call's resource registrations (including promotions
        // of pre-fork nodes)
        for &n in &fork_resources[call.input.resource_count()..call.output.resource_count()] {
            let meta = fork.resource(n).expect("registered");
            main.register_resource(map_id(&idmap, n), meta.uri.clone(), meta.label.clone())?;
        }
        let main_output = main.mark();
        let mut record = call.clone();
        record.input = main_input;
        record.output = main_output;
        record.produced = call.produced.iter().map(|&n| map_id(&idmap, n)).collect();
        outcome.trace.calls.push(record);
    }
    for mut link in branch_outcome.eager_links {
        link.from = map_id(&idmap, link.from);
        link.to = map_id(&idmap, link.to);
        outcome.eager_links.push(link);
    }
    Ok(())
}

/// First unused call instant: one past the largest label in the document.
pub fn next_time(doc: &Document) -> Timestamp {
    doc.resource_nodes()
        .iter()
        .filter_map(|&n| doc.resource(n).and_then(|m| m.label.as_ref()))
        .map(|l| l.time)
        .max()
        .map(|t| t + 1)
        .unwrap_or(1)
}

/// The arena makes deletions impossible, but a service could still mutate
/// attributes of pre-existing nodes through `set_attr`. Verifying full
/// containment would require a snapshot; instead the orchestrator checks
/// the cheap structural half (monotone node/resource counts) and relies on
/// the arena for the rest.
fn validate_append_only(
    doc: &Document,
    input: weblab_xml::StateMark,
    output: weblab_xml::StateMark,
    service: &str,
) -> Result<(), WorkflowError> {
    if output.node_count() < input.node_count()
        || output.resource_count() < input.resource_count()
    {
        return Err(WorkflowError::AppendViolation {
            service: service.into(),
        });
    }
    let _ = doc;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use weblab_prov::{infer_provenance, EngineOptions};

    struct AppendOne;
    impl Service for AppendOne {
        fn name(&self) -> &str {
            "AppendOne"
        }
        fn call(&self, doc: &mut Document, ctx: &mut CallContext) -> Result<(), WorkflowError> {
            let root = doc.root();
            let n = doc.append_element(root, "Item")?;
            ctx.register(doc, n)?;
            Ok(())
        }
    }

    #[test]
    fn execute_records_one_call_per_step() {
        let wf = Workflow::new().then(AppendOne).then(AppendOne);
        let mut doc = Document::new("Resource");
        let outcome = Orchestrator::new().execute(&wf, &mut doc).unwrap();
        assert_eq!(outcome.trace.len(), 2);
        assert_eq!(outcome.trace.calls[0].time, 1);
        assert_eq!(outcome.trace.calls[1].time, 2);
        assert_eq!(outcome.trace.calls[0].produced.len(), 1);
        assert_eq!(doc.view().children(doc.root()).len(), 2);
    }

    #[test]
    fn time_continues_after_existing_labels() {
        let mut doc = Document::new("Resource");
        let root = doc.root();
        let n = doc.append_element(root, "Old").unwrap();
        doc.register_resource(n, "old", Some(weblab_xml::CallLabel::new("X", 7)))
            .unwrap();
        assert_eq!(next_time(&doc), 8);
        let wf = Workflow::new().then(AppendOne);
        let outcome = Orchestrator::new().execute(&wf, &mut doc).unwrap();
        assert_eq!(outcome.trace.calls[0].time, 8);
    }

    struct LinkedAppend;
    impl Service for LinkedAppend {
        fn name(&self) -> &str {
            "LinkedAppend"
        }
        fn call(&self, doc: &mut Document, ctx: &mut CallContext) -> Result<(), WorkflowError> {
            let root = doc.root();
            // reference the previous item's uri (if any) through @ref
            let prev_uri = doc
                .resource_nodes()
                .iter()
                .rev()
                .find_map(|&n| doc.view().uri(n).map(|u| u.to_string()));
            let n = doc.append_element(root, "Item")?;
            if let Some(u) = prev_uri {
                doc.set_attr(n, "ref", u)?;
            }
            ctx.register(doc, n)?;
            Ok(())
        }
    }

    #[test]
    fn eager_links_match_posthoc_inference() {
        let mut rules = RuleSet::new();
        rules
            .add_parsed("LinkedAppend", "//Item[$x := @id] => //Item[@ref = $x]")
            .unwrap();
        let wf = Workflow::new()
            .then(LinkedAppend)
            .then(LinkedAppend)
            .then(LinkedAppend);
        let mut doc = Document::new("Resource");
        let outcome = Orchestrator::eager(rules.clone())
            .execute(&wf, &mut doc)
            .unwrap();
        let posthoc = infer_provenance(&doc, &outcome.trace, &rules, &EngineOptions::default());
        assert_eq!(outcome.eager_links, posthoc.links);
        assert_eq!(outcome.eager_links.len(), 2); // item2→item1, item3→item2
    }

    #[test]
    fn step_names_reflect_control_flow() {
        let wf = Workflow::new().then(AppendOne).then(LinkedAppend);
        assert_eq!(wf.step_names(), vec!["AppendOne", "LinkedAppend"]);
        assert_eq!(wf.len(), 2);
        assert!(!wf.is_empty());
    }

    /// Parallel branches run on forks, but `time` is threaded sequentially
    /// through them, so two branches can never mint the same `(s, t)` label
    /// — this pins the invariant that the merge relies on.
    #[test]
    fn parallel_branches_never_mint_colliding_labels() {
        let wf = Workflow::new()
            .then(AppendOne)
            .then_parallel(vec![
                Workflow::new().then(AppendOne).then(AppendOne),
                Workflow::new().then(AppendOne),
            ])
            .then(AppendOne);
        let mut doc = Document::new("Resource");
        let outcome = Orchestrator::new().execute(&wf, &mut doc).unwrap();
        let mut seen = std::collections::HashSet::new();
        for &n in doc.resource_nodes() {
            if let Some(label) = doc.resource(n).and_then(|m| m.label.as_ref()) {
                assert!(
                    seen.insert((label.service.clone(), label.time)),
                    "duplicate label {label} minted across parallel branches"
                );
            }
        }
        assert_eq!(seen.len(), 5);
        let times: Vec<_> = outcome.trace.calls.iter().map(|c| c.time).collect();
        let mut dedup = times.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(times.len(), dedup.len(), "trace instants collide: {times:?}");
    }

    struct FailNTimes {
        fail: u32,
        seen: std::sync::atomic::AtomicU32,
    }
    impl Service for FailNTimes {
        fn name(&self) -> &str {
            "FailNTimes"
        }
        fn call(&self, doc: &mut Document, ctx: &mut CallContext) -> Result<(), WorkflowError> {
            let root = doc.root();
            let n = doc.append_element(root, "Item")?;
            ctx.register(doc, n)?;
            let attempt = self
                .seen
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst)
                + 1;
            if attempt <= self.fail {
                return Err(WorkflowError::Service {
                    service: "FailNTimes".into(),
                    message: format!("injected failure on attempt {attempt}"),
                });
            }
            Ok(())
        }
    }

    #[test]
    fn retry_rolls_back_and_reuses_the_call_instant() {
        let wf = Workflow::new().then(AppendOne).then(FailNTimes {
            fail: 2,
            seen: std::sync::atomic::AtomicU32::new(0),
        });
        let mut doc = Document::new("Resource");
        let orch = Orchestrator::new().with_fault(crate::policy::FaultPolicy::retrying(
            crate::policy::RetryPolicy::with_max_attempts(3),
        ));
        let outcome = orch.execute(&wf, &mut doc).unwrap();
        // trace has exactly the two successful calls, at consecutive instants
        assert_eq!(outcome.trace.len(), 2);
        assert_eq!(outcome.trace.calls[1].time, 2);
        // attempt log shows the two rolled-back tries at the same instant
        let statuses: Vec<(u32, bool)> = outcome
            .attempts
            .iter()
            .filter(|a| a.service == "FailNTimes")
            .map(|a| (a.attempt, a.status == AttemptStatus::Succeeded))
            .collect();
        assert_eq!(statuses, vec![(1, false), (2, false), (3, true)]);
        assert!(outcome
            .attempts
            .iter()
            .filter(|a| a.service == "FailNTimes")
            .all(|a| a.time == 2));
        // exactly one FailNTimes item survived the rollbacks
        assert_eq!(doc.view().children(doc.root()).len(), 2);
    }

    #[test]
    fn exhausted_retries_abort_with_the_last_error() {
        let wf = Workflow::new().then(FailNTimes {
            fail: 9,
            seen: std::sync::atomic::AtomicU32::new(0),
        });
        let mut doc = Document::new("Resource");
        let orch = Orchestrator::new().with_fault(crate::policy::FaultPolicy::retrying(
            crate::policy::RetryPolicy::with_max_attempts(2),
        ));
        let before = doc.mark();
        let err = orch.execute(&wf, &mut doc).unwrap_err();
        assert!(matches!(err, WorkflowError::Service { .. }));
        // both attempts rolled back: the document is untouched
        assert_eq!(doc.mark(), before);
    }

    #[test]
    fn skip_policy_leaves_a_gap_and_continues() {
        let wf = Workflow::new()
            .then(FailNTimes {
                fail: 9,
                seen: std::sync::atomic::AtomicU32::new(0),
            })
            .then(AppendOne);
        let mut doc = Document::new("Resource");
        let orch = Orchestrator::new().with_fault(crate::policy::FaultPolicy::skipping());
        let outcome = orch.execute(&wf, &mut doc).unwrap();
        // the failed step is absent from the trace, but its instant is
        // reserved: AppendOne runs at t=2
        assert_eq!(outcome.trace.len(), 1);
        assert_eq!(outcome.trace.calls[0].service, "AppendOne");
        assert_eq!(outcome.trace.calls[0].time, 2);
        assert!(outcome
            .attempts
            .iter()
            .any(|a| a.status == AttemptStatus::Skipped));
    }

    #[test]
    fn resume_skips_completed_steps() {
        // run the full workflow once, checkpointing after each step
        let wf = Workflow::new().then(AppendOne).then(AppendOne).then(AppendOne);
        let orch = Orchestrator::new();
        let mut full = Document::new("Resource");
        let mut marks = Vec::new();
        let mut times = Vec::new();
        orch.execute_resumable(&wf, &mut full, 1, 0, &mut |done, d, _, t| {
            marks.push((done, d.mark()));
            times.push(t);
        })
        .unwrap();
        assert_eq!(marks.len(), 3);
        // replay: rebuild the state after step 1, then resume from there
        let mut resumed = Document::new("Resource");
        orch.execute_resumable(
            &Workflow::new().then(AppendOne),
            &mut resumed,
            1,
            0,
            &mut |_, _, _, _| {},
        )
        .unwrap();
        let outcome = orch
            .execute_resumable(&wf, &mut resumed, times[0], 1, &mut |_, _, _, _| {})
            .unwrap();
        assert_eq!(outcome.trace.len(), 2); // only the remaining steps ran
        assert_eq!(resumed.mark(), full.mark());
        assert_eq!(serialize_both(&full), serialize_both(&resumed));
    }

    fn serialize_both(doc: &Document) -> String {
        weblab_xml::to_xml_string(&doc.view())
    }

    #[test]
    fn call_hooks_fan_in_to_every_subscriber_in_order() {
        let events: Arc<std::sync::Mutex<Vec<(u8, usize)>>> =
            Arc::new(std::sync::Mutex::new(Vec::new()));
        let first = Arc::clone(&events);
        let second = Arc::clone(&events);
        let wf = Workflow::new().then(AppendOne).then(AppendOne);
        let mut doc = Document::new("Resource");
        let orch = Orchestrator::new()
            .with_call_hook(Arc::new(move |_, _, idx| {
                first.lock().unwrap().push((1, idx));
            }))
            .with_call_hook(Arc::new(move |_, _, idx| {
                second.lock().unwrap().push((2, idx));
            }));
        let outcome = orch.execute(&wf, &mut doc).unwrap();
        assert_eq!(outcome.trace.len(), 2);
        // both subscribers saw both commits, in subscription order per call
        assert_eq!(
            *events.lock().unwrap(),
            vec![(1, 0), (2, 0), (1, 1), (2, 1)]
        );
    }

    #[test]
    fn call_hook_fires_once_per_committed_call() {
        let events: Arc<std::sync::Mutex<Vec<(String, Timestamp, usize)>>> =
            Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let hook: CallHook = Arc::new(move |_doc, trace, idx| {
            let c = &trace.calls[idx];
            sink.lock().unwrap().push((c.service.clone(), c.time, idx));
        });
        let wf = Workflow::new()
            .then(AppendOne)
            .then(FailNTimes {
                fail: 2,
                seen: std::sync::atomic::AtomicU32::new(0),
            })
            .then(AppendOne);
        let mut doc = Document::new("Resource");
        let orch = Orchestrator::new()
            .with_fault(crate::policy::FaultPolicy::retrying(
                crate::policy::RetryPolicy::with_max_attempts(3),
            ))
            .with_call_hook(hook);
        let outcome = orch.execute(&wf, &mut doc).unwrap();
        // three committed calls, three hook firings — the two rolled-back
        // FailNTimes attempts fired nothing
        assert_eq!(outcome.trace.len(), 3);
        assert_eq!(
            *events.lock().unwrap(),
            vec![
                ("AppendOne".to_string(), 1, 0),
                ("FailNTimes".to_string(), 2, 1),
                ("AppendOne".to_string(), 3, 2),
            ]
        );
    }

    #[test]
    fn call_hook_skips_skipped_steps() {
        let count = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let sink = Arc::clone(&count);
        let hook: CallHook = Arc::new(move |_, _, _| {
            sink.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        });
        let wf = Workflow::new()
            .then(FailNTimes {
                fail: 9,
                seen: std::sync::atomic::AtomicU32::new(0),
            })
            .then(AppendOne);
        let mut doc = Document::new("Resource");
        let orch = Orchestrator::new()
            .with_fault(crate::policy::FaultPolicy::skipping())
            .with_call_hook(hook);
        orch.execute(&wf, &mut doc).unwrap();
        assert_eq!(count.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn call_hook_sees_merged_records_for_parallel_branches() {
        let seen: Arc<std::sync::Mutex<Vec<(String, usize)>>> =
            Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let hook: CallHook = Arc::new(move |doc, trace, idx| {
            let c = &trace.calls[idx];
            // every produced node id must resolve in the *main* document —
            // fork-local ids would not
            for &n in &c.produced {
                assert!(doc.resource(n).is_some(), "unmerged node id leaked to hook");
            }
            sink.lock().unwrap().push((c.channel.clone(), idx));
        });
        let wf = Workflow::new()
            .then(AppendOne)
            .then_parallel(vec![
                Workflow::new().then(AppendOne).then(AppendOne),
                Workflow::new().then(AppendOne),
            ])
            .then(AppendOne);
        let mut doc = Document::new("Resource");
        let outcome = Orchestrator::new()
            .with_call_hook(hook)
            .execute(&wf, &mut doc)
            .unwrap();
        assert_eq!(outcome.trace.len(), 5);
        let events = seen.lock().unwrap();
        // one firing per trace record, in trace order
        assert_eq!(
            events.iter().map(|(_, i)| *i).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(
            events.iter().map(|(c, _)| c.as_str()).collect::<Vec<_>>(),
            vec!["", "0", "0", "1", ""]
        );
    }
}
