//! The assembled WebLab PROV platform (Figure 5) and its Request Manager.
//!
//! [`Platform`] wires the Recorder, the Service Catalog and the Mapper
//! together, with an optional disk-backed [`ProvStore`] behind them. It
//! keeps one record per execution: Figure 5's Resource Repository entry
//! (the document) and Execution Trace (its calls) under one lock, beside
//! the execution's published [`EpochSnapshot`] (a graph +
//! [`ReachabilityIndex`] pair, its one graph and link store, which every
//! committed live delta and every refresh advances by one epoch).
//! Per-execution behaviour is exposed through [`Platform::execution`],
//! which returns an [`ExecutionHandle`] — the façade the CLI and the
//! `weblab serve` query service are written against. Readers never wait
//! for inference and never re-walk the edge list; a snapshot a reader
//! holds never changes under it.
//!
//! The original per-execution method sprawl (`provenance_graph`,
//! `dependencies_of`, …) is gone: the handle is the one query surface,
//! and with it the v2 protocol's ranked analytics
//! ([`ExecutionHandle::rank`], [`ExecutionHandle::summary`]).

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use std::sync::{Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use weblab_obs::{Counter, Gauge};
use weblab_prov::{
    dirty_cone, CallRecord, EngineOptions, EpochSnapshot, ExecutionTrace, GraphSummary, LiveDelta,
    LiveProvenance, ProvenanceGraph, QueryOpts, RankDirection, RankedEntry, ReachabilityIndex,
    RuleSet,
};
use weblab_rdf::{QueryEngine, Solution, SparqlError};
use weblab_workflow::{
    next_time, ExecutionOutcome, FaultPolicy, Orchestrator, ProofMode, ReplayOutcome, Service,
    Workflow, WorkflowError,
};
use weblab_xml::{Document, Timestamp};

use crate::catalog::{CatalogError, ServiceCatalog, ServiceRules};
use crate::mapper::Mapper;
use crate::query::{prov_store, ProvQuery, QueryAnswer};
use crate::recorder::{self, RecorderError};
use crate::store::{Header, PersistError, ProvStore, ResumePoint};

/// Executions evicted from residency to the attached store.
static EVICTIONS: Counter = Counter::new("store.evictions");
/// Executions currently resident in memory (store attached only).
static RESIDENT: Gauge = Gauge::new("store.resident");
/// Live deltas that copied their execution's snapshot before folding in,
/// because a reader still held the epoch being advanced.
static SNAPSHOT_COPIES: Counter = Counter::new("platform.snapshot.copies");
/// Calls a commit appended to an execution's kept trace.
static RECORDS_WRITTEN: Counter = Counter::new("platform.trace_store.records");
/// Copies of an execution's kept trace (a run's or a replay's prior trace).
static TRACE_READS: Counter = Counter::new("platform.trace_store.reads");

/// Platform-level failure.
#[derive(Debug)]
pub enum PlatformError {
    /// Unknown execution id.
    UnknownExecution(String),
    /// A workflow step names a service with no registered implementation.
    UnknownService(String),
    /// Catalog manipulation failed.
    Catalog(CatalogError),
    /// A service call failed.
    Workflow(WorkflowError),
    /// Recording an exchanged response failed.
    Recorder(RecorderError),
    /// A provenance query failed to parse.
    Sparql(SparqlError),
    /// The attached disk store failed to save or load an execution.
    Store(PersistError),
    /// An ingest or replay named an execution id that already exists,
    /// resident or stored.
    ExecutionExists(String),
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::UnknownExecution(e) => write!(f, "unknown execution {e:?}"),
            PlatformError::UnknownService(s) => write!(f, "no implementation for service {s:?}"),
            PlatformError::Catalog(e) => write!(f, "{e}"),
            PlatformError::Workflow(e) => write!(f, "{e}"),
            PlatformError::Recorder(e) => write!(f, "{e}"),
            PlatformError::Sparql(e) => write!(f, "{e}"),
            PlatformError::Store(e) => write!(f, "store: {e}"),
            PlatformError::ExecutionExists(e) => write!(
                f,
                "execution {e:?} already exists; pick a fresh execution id"
            ),
        }
    }
}

impl std::error::Error for PlatformError {}

impl From<CatalogError> for PlatformError {
    fn from(e: CatalogError) -> Self {
        PlatformError::Catalog(e)
    }
}

impl From<WorkflowError> for PlatformError {
    fn from(e: WorkflowError) -> Self {
        PlatformError::Workflow(e)
    }
}

impl From<RecorderError> for PlatformError {
    fn from(e: RecorderError) -> Self {
        PlatformError::Recorder(e)
    }
}

impl From<SparqlError> for PlatformError {
    fn from(e: SparqlError) -> Self {
        PlatformError::Sparql(e)
    }
}

impl From<PersistError> for PlatformError {
    fn from(e: PersistError) -> Self {
        PlatformError::Store(e)
    }
}

/// A declarative workflow specification over *registered service names*:
/// the platform resolves each name against its service registry and builds
/// the executable [`Workflow`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecStep {
    /// A single service call, by registered name.
    Service(String),
    /// A parallel block of branches (Section 8 extension).
    Parallel(Vec<WorkflowSpec>),
}

/// An ordered list of [`SpecStep`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkflowSpec {
    /// The steps.
    pub steps: Vec<SpecStep>,
}

impl WorkflowSpec {
    /// A sequential spec from service names.
    pub fn sequence(names: &[&str]) -> Self {
        WorkflowSpec {
            steps: names
                .iter()
                .map(|n| SpecStep::Service(n.to_string()))
                .collect(),
        }
    }

    /// Append a service step.
    pub fn then(mut self, name: impl Into<String>) -> Self {
        self.steps.push(SpecStep::Service(name.into()));
        self
    }

    /// Append a parallel block.
    pub fn then_parallel(mut self, branches: Vec<WorkflowSpec>) -> Self {
        self.steps.push(SpecStep::Parallel(branches));
        self
    }
}

/// The assembled platform.
pub struct Platform {
    catalog: RwLock<ServiceCatalog>,
    services: RwLock<HashMap<String, Arc<dyn Service>>>,
    mapper: Mapper,
    fault: RwLock<FaultPolicy>,
    /// Executions in live mode: each of their runs folds one delta per
    /// committed call into the published snapshot. A flag outlives
    /// residency: it survives eviction, `weblab run --live` and a live
    /// serve ingest set it before the execution exists, and a cold load
    /// sets it from the stored snapshot.
    live: RwLock<HashSet<String>>,
    /// One record per resident execution (every execution, without a
    /// store): presence here is residency. A new execution or a cold load
    /// inserts a complete record, an eviction removes it.
    executions: RwLock<HashMap<String, Arc<Execution>>>,
    /// The attached disk store and its residency bookkeeping, when the
    /// platform runs disk-backed (`weblab serve --store`).
    store: RwLock<Option<Arc<StoreState>>>,
}

/// Disk-backed residency: the attached [`ProvStore`] plus the LRU
/// bookkeeping that bounds how many executions stay in memory at once.
struct StoreState {
    store: Arc<ProvStore>,
    /// Executions kept resident before eviction kicks in (at least 1).
    max_resident: usize,
    /// Resident execution ids, least-recently-used first.
    lru: Mutex<Vec<String>>,
    /// Serialises cold loads, so concurrent readers of one evicted
    /// execution trigger a single disk load between them.
    loading: Mutex<()>,
}

/// One execution's record: the document and trace the platform keeps,
/// under one lock, beside the epoch/snapshot machinery around its one
/// [`EpochSnapshot`], the only graph the platform caches. Readers clone an
/// `Arc` of the snapshot and query that epoch for as long as they hold it.
/// Every live delta and every refresh folds into the snapshot in place
/// through [`Arc::make_mut`], under the write lock; only while a reader
/// still holds the epoch being advanced does the fold copy it first
/// (counted under `platform.snapshot.copies`). Lock order is *refresh, then
/// kept, then snapshot*: a refresh computes its delta under a read of the
/// kept state before taking the snapshot's write lock. A run's producer
/// sits behind a mutex only its call hook ever locks.
struct Execution {
    /// A commit appends its calls and swaps the document under one write
    /// lock, so no refresh or write-through pairs a document with another
    /// state's calls.
    kept: RwLock<Kept>,
    snapshot: RwLock<Arc<EpochSnapshot>>,
    /// Serialises refreshes of a stale snapshot, so readers racing on one
    /// publish a single epoch and run inference once between them.
    refresh: Mutex<()>,
    /// Epoch-keyed query engine over the published graph's PROV-O export,
    /// built lazily on the first SPARQL query of an epoch and shared by
    /// the rest — carrying the epoch's plan cache with it.
    engine: Mutex<Option<(u64, Arc<QueryEngine>)>>,
    /// The state the attached store holds of this record — its call count
    /// and header (epoch, live flag and resume point), as last saved or
    /// cold-loaded — so a save of the same state, such as evicting an
    /// execution that only served reads since its cold load, writes
    /// nothing. A commit changes the call count or the resume point (a
    /// durable step skipped under `FailurePolicy::Skip` records no call),
    /// and every publish advances the epoch.
    stored: Mutex<Option<(usize, Header)>>,
}

/// What the platform keeps of an execution.
struct Kept {
    doc: Document,
    trace: ExecutionTrace,
    /// Where an unfinished durable run resumes: set by each of its
    /// checkpoints, cleared by every other commit and by its last step,
    /// and saved with the calls it follows.
    checkpoint: Option<ResumePoint>,
    /// Set by the eviction that wrote this record to the store and removed
    /// it: a commit still holding it keeps into the record the next cold
    /// load makes instead.
    evicted: bool,
}

/// The resume point a durable step commits: `point`, unless it completes
/// every step.
fn unfinished(point: ResumePoint) -> Option<ResumePoint> {
    (point.completed_steps < point.step_names.len()).then_some(point)
}

/// Whether `snap` is published and covers `calls` kept calls.
fn covers(snap: &EpochSnapshot, calls: usize) -> bool {
    snap.epoch > 0 && snap.calls >= calls
}

impl Execution {
    fn new(
        doc: Document,
        trace: ExecutionTrace,
        checkpoint: Option<ResumePoint>,
        snapshot: EpochSnapshot,
    ) -> Self {
        Execution {
            kept: RwLock::new(Kept { doc, trace, checkpoint, evicted: false }),
            snapshot: RwLock::new(Arc::new(snapshot)),
            refresh: Mutex::new(()),
            engine: Mutex::new(None),
            stored: Mutex::new(None),
        }
    }

    fn published(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&self.snapshot.read().expect("lock poisoned"))
    }

    fn kept(&self) -> RwLockReadGuard<'_, Kept> {
        self.kept.read().expect("lock poisoned")
    }

    fn kept_mut(&self) -> RwLockWriteGuard<'_, Kept> {
        self.kept.write().expect("lock poisoned")
    }

    fn calls(&self) -> usize {
        self.kept().trace.len()
    }

    /// Copies of the kept document and trace, taken under one read lock.
    fn copy(&self) -> (Document, ExecutionTrace) {
        TRACE_READS.inc();
        let kept = self.kept();
        (kept.doc.clone(), kept.trace.clone())
    }

    /// Fold a delta into the snapshot as the next epoch
    /// ([`EpochSnapshot::fold`]), bringing it to `calls` folded calls, and
    /// return the result. Once epoch 1 is published, an empty delta that
    /// advances no call is a no-op; the first fold always publishes. A
    /// `settled` fold is the last one for a while (a reader's refresh's or
    /// a save's), so it also releases the spare capacity the folds left.
    fn apply_delta(&self, delta: &LiveDelta, calls: usize, settled: bool) -> Arc<EpochSnapshot> {
        let mut slot = self.snapshot.write().expect("lock poisoned");
        if slot.epoch > 0 && delta.is_empty() && calls <= slot.calls {
            return Arc::clone(&slot);
        }
        if Arc::get_mut(&mut slot).is_none() {
            SNAPSHOT_COPIES.inc();
        }
        let snap = Arc::make_mut(&mut slot);
        snap.fold(delta, calls);
        if settled {
            snap.shrink_to_fit();
        }
        Arc::clone(&slot)
    }

    /// Release the spare capacity a run's folds left in the published
    /// snapshot, in place. An epoch a reader still holds is left as it is:
    /// it is never copied for this.
    fn settle(&self) {
        let mut slot = self.snapshot.write().expect("lock poisoned");
        if let Some(snap) = Arc::get_mut(&mut slot) {
            snap.shrink_to_fit();
        }
    }

    /// Publish a failed live run's rebuilt snapshot, unless the published
    /// one is as far along in epoch and calls.
    fn restore(&self, snap: EpochSnapshot) {
        let mut slot = self.snapshot.write().expect("lock poisoned");
        if slot.epoch >= snap.epoch && slot.calls >= snap.calls {
            return;
        }
        *slot = Arc::new(snap);
    }

    /// The query engine over a snapshot's PROV-O export, cached per epoch
    /// (a new epoch gets a fresh store, dictionary and plan cache).
    fn engine_for(&self, snap: &EpochSnapshot) -> Arc<QueryEngine> {
        let mut cached = self.engine.lock().expect("lock poisoned");
        if let Some((epoch, engine)) = cached.as_ref() {
            if *epoch == snap.epoch {
                return Arc::clone(engine);
            }
        }
        let engine = Arc::new(QueryEngine::new(Arc::new(prov_store(&snap.graph))));
        *cached = Some((snap.epoch, Arc::clone(&engine)));
        engine
    }
}

impl Platform {
    /// Build a platform with the given Mapper configuration.
    pub fn new(mapper: Mapper) -> Self {
        Platform {
            catalog: RwLock::new(ServiceCatalog::new()),
            services: RwLock::new(HashMap::new()),
            mapper,
            fault: RwLock::new(FaultPolicy::default()),
            live: RwLock::new(HashSet::new()),
            executions: RwLock::new(HashMap::new()),
            store: RwLock::new(None),
        }
    }

    /// Replace the fault-tolerance policy applied to every subsequent
    /// execution (default: abort on first failure, after rollback).
    pub fn set_fault_policy(&self, fault: FaultPolicy) {
        *self.fault.write().expect("lock poisoned") = fault;
    }

    /// Access the catalog (read lock).
    pub fn catalog_text(&self) -> String {
        self.catalog.read().expect("lock poisoned").to_text()
    }

    /// Register a service implementation together with its catalog entry
    /// (endpoint/signature defaults plus its mapping rules `M(s)`, in
    /// concrete syntax or already parsed).
    pub fn register_service<'a>(
        &self,
        service: Arc<dyn Service>,
        rules: impl Into<ServiceRules<'a>>,
    ) -> Result<(), PlatformError> {
        let name = service.name().to_string();
        self.catalog.write().expect("lock poisoned").register_simple(&name, rules)?;
        self.services.write().expect("lock poisoned").insert(name, service);
        Ok(())
    }

    /// The per-execution façade: every recording, materialisation and
    /// query operation on one execution, in one place. The handle is
    /// cheap — construct one per request.
    pub fn execution(&self, exec_id: impl Into<String>) -> ExecutionHandle<'_> {
        ExecutionHandle {
            platform: self,
            id: exec_id.into(),
        }
    }

    /// Known execution ids, sorted — the serve daemon's `status` listing.
    /// With a store attached, evicted (disk-only) executions are included.
    pub fn executions(&self) -> Vec<String> {
        let mut ids = self.resident_ids();
        if let Some(ss) = self.store_state() {
            for id in ss.store.execution_ids() {
                if !ids.contains(&id) {
                    ids.push(id);
                }
            }
        }
        ids.sort();
        ids
    }

    /// Ingest an initial document as a new execution. With a store
    /// attached the document is persisted best-effort right away (the
    /// write-through on the next execution repeats it durably).
    pub fn ingest(&self, exec_id: &str, doc: Document) {
        let _ = self.commit(exec_id, &[], doc, None);
    }

    /// Execute a sequential workflow (a sequence of registered service
    /// names) over a stored execution's document, recording every call.
    pub fn execute(&self, exec_id: &str, steps: &[&str]) -> Result<(), PlatformError> {
        self.execute_spec(exec_id, &WorkflowSpec::sequence(steps))
    }

    /// Execute a [`WorkflowSpec`] — possibly containing parallel blocks —
    /// over a stored execution's document. Branch calls are recorded with
    /// their control-flow channels, which the Mapper's inference respects.
    pub fn execute_spec(&self, exec_id: &str, spec: &WorkflowSpec) -> Result<(), PlatformError> {
        let workflow = self.build_workflow(spec)?;
        self.drive(exec_id, &workflow, None).map(drop)
    }

    /// Execute a built [`Workflow`], whose services the registry need not
    /// hold (`weblab run`'s aliases and `flaky:N` instances), and return
    /// the outcome with every attempt made.
    pub fn execute_workflow(
        &self,
        exec_id: &str,
        workflow: &Workflow,
    ) -> Result<ExecutionOutcome, PlatformError> {
        self.drive(exec_id, workflow, None)
    }

    /// Execute a built [`Workflow`] durably in the attached store, step by
    /// step (`weblab run --store`): each completed top-level step commits
    /// the run so far with the point to resume it from, and writes both
    /// through in one save. The last step's commit stores no point, so a
    /// completed run leaves none. A failed run stays at its last durable
    /// state, in memory and on disk alike.
    ///
    /// `input` starts a new execution from that document, committed with
    /// the point for zero steps. `None` resumes the execution from its
    /// kept point, which must name this workflow's steps; an execution
    /// without one (its run finished, or a later commit of another run
    /// cleared it) is refused before any service runs.
    pub fn execute_durable(
        &self,
        exec_id: &str,
        workflow: &Workflow,
        input: Option<Document>,
    ) -> Result<ExecutionOutcome, PlatformError> {
        let refuse = |message: String| PlatformError::Store(PersistError::Resume(message));
        if self.store_state().is_none() {
            return Err(refuse("a durable run needs an attached store".into()));
        }
        let step_names = workflow.step_names();
        let point = match input {
            Some(doc) => {
                if self.execution(exec_id).exists() {
                    return Err(PlatformError::ExecutionExists(exec_id.to_string()));
                }
                let next_time = next_time(&doc);
                let point = ResumePoint { completed_steps: 0, next_time, step_names };
                self.commit(exec_id, &[], doc, unfinished(point.clone()))?;
                point
            }
            None => {
                let kept = self.record(exec_id)?.kept().checkpoint.clone();
                let point = kept.ok_or_else(|| {
                    refuse(format!(
                        "execution {exec_id:?} has no resume point: no durable run of it is \
                         unfinished"
                    ))
                })?;
                if point.step_names != step_names {
                    return Err(refuse(format!(
                        "execution {exec_id:?} was run by a different workflow ({:?}, not {:?})",
                        point.step_names, step_names
                    )));
                }
                point
            }
        };
        self.drive(exec_id, workflow, Some(&point))
    }

    /// The one code path that runs a pipeline and maintains its provenance:
    /// it runs `workflow` over the kept document, folds each committed call
    /// of a live execution into the published snapshot, and commits the
    /// run. `durable` is the checkpoint: the resume point to start from,
    /// after which every completed top-level step is committed with the
    /// next point. Without it the run starts after the kept trace and
    /// commits once, when it completes. A failed live run whose deltas
    /// folded calls it does not keep publishes the kept state's graph.
    fn drive(
        &self,
        exec_id: &str,
        workflow: &Workflow,
        durable: Option<&ResumePoint>,
    ) -> Result<ExecutionOutcome, PlatformError> {
        let rec = self.record(exec_id)?;
        let (mut doc, prior) = rec.copy();
        let after = |start: u64| prior.calls.last().map_or(start, |last| start.max(last.time + 1));
        let (completed, start) = durable
            .map_or_else(|| (0, after(next_time(&doc))), |p| (p.completed_steps, p.next_time));
        let fault = self.fault.read().expect("lock poisoned").clone();
        let mut orch = Orchestrator::new().with_fault(fault);
        let live = self.live_enabled_impl(exec_id).then_some(rec);
        if let Some(rec) = &live {
            // Bring the snapshot up to the run's starting document and
            // prior trace (dropping the refresh's hold, so the run's deltas
            // fold in place), then fold one delta per committed call from a
            // producer positioned there, which the orchestrator owns.
            drop(self.refresh(rec, false));
            let producer =
                LiveProvenance::new(self.rules(), self.mapper.opts).starting_at(&doc, &prior);
            let producer = Mutex::new(producer);
            let (rec, base) = (Arc::clone(rec), prior.len());
            orch = orch.with_call_hook(Arc::new(move |doc, trace, idx| {
                let mut lp = producer.lock().expect("lock poisoned");
                let delta = lp.observe_call(doc, trace, idx);
                rec.apply_delta(&delta, base + lp.calls_seen(), false);
            }));
        }
        // A failed checkpoint stops the checkpoints, not the run; the run
        // then fails with it.
        let (mut committed, mut failed) = (0, None);
        let run = orch.execute_resumable(
            workflow,
            &mut doc,
            start,
            completed,
            &mut |done, doc, outcome, next_time| {
                let (Some(point), None) = (durable, &failed) else {
                    return;
                };
                let point = ResumePoint {
                    completed_steps: done,
                    next_time,
                    step_names: point.step_names.clone(),
                };
                let calls = &outcome.trace.calls[committed..];
                let saved = self.commit(exec_id, calls, doc.clone(), unfinished(point));
                committed = outcome.trace.len();
                failed = saved.err();
            },
        );
        match run.map_err(PlatformError::from).and_then(|outcome| failed.map_or(Ok(outcome), Err)) {
            Ok(outcome) => {
                if durable.is_none() {
                    self.commit(exec_id, &outcome.trace.calls, doc, None)?;
                }
                if let Some(rec) = live {
                    rec.settle();
                }
                Ok(outcome)
            }
            Err(e) => {
                if let Some(rec) = live {
                    let kept = rec.kept();
                    if rec.published().calls > kept.trace.len() {
                        // The run folded calls the platform does not keep:
                        // publish the graph of the kept document and trace
                        // at the next epoch, inferred afresh.
                        let graph = self.mapper.materialize(&kept.doc, &kept.trace, &self.rules());
                        rec.restore(EpochSnapshot {
                            epoch: rec.published().epoch + 1,
                            calls: kept.trace.len(),
                            index: ReachabilityIndex::from_graph(&graph),
                            graph,
                        });
                    }
                }
                Err(e)
            }
        }
    }

    /// Keep an execution's progress, then write it through the attached
    /// store and evict past the residency bound. The record is found
    /// through [`Platform::ensure_resident`], and its new calls, document
    /// and resume point go in under one write lock: a run whose execution
    /// was evicted while it ran lands on top of the stored calls. A new
    /// execution's record is inserted complete. `checkpoint` is set by a
    /// durable run's steps; every other commit passes `None`, so no later
    /// resume re-runs a step over calls it did not make.
    fn commit(
        &self,
        exec_id: &str,
        calls: &[CallRecord],
        mut doc: Document,
        checkpoint: Option<ResumePoint>,
    ) -> Result<(), PlatformError> {
        // A kept document is read and copied, never grown in place (a run
        // grows a copy), so it keeps no spare capacity.
        doc.shrink_to_fit();
        let rec = loop {
            let Some(rec) = self.ensure_resident(exec_id)? else {
                let mut records = self.records();
                if records.contains_key(exec_id) {
                    continue; // a concurrent commit inserted it first
                }
                // `new` counts under `prov.index.builds`: one build per
                // execution index, maintained incrementally afterwards.
                let snapshot =
                    EpochSnapshot { index: ReachabilityIndex::new(), ..EpochSnapshot::empty() };
                let trace = ExecutionTrace { calls: calls.to_vec() };
                let rec = Arc::new(Execution::new(doc, trace, checkpoint, snapshot));
                records.insert(exec_id.to_string(), Arc::clone(&rec));
                drop(records);
                if let Some(ss) = self.store_state() {
                    self.touch_lru(&ss, exec_id);
                }
                break rec;
            };
            let mut kept = rec.kept_mut();
            if kept.evicted {
                continue; // its cold-loaded successor holds the stored calls
            }
            kept.trace.calls.extend_from_slice(calls);
            kept.doc = doc;
            kept.checkpoint = checkpoint;
            drop(kept);
            break rec;
        };
        RECORDS_WRITTEN.add(calls.len() as u64);
        let Some(ss) = self.store_state() else {
            return Ok(());
        };
        let saved = self.write_through(&ss, exec_id, &rec);
        self.evict_excess(&ss, exec_id).and(saved)
    }

    /// Incrementally recompute a prior execution under a changed input
    /// document ([`Platform::recompute`]) and keep the result as a run is
    /// kept, as the new execution `new_id`, live if the prior one is. The
    /// prior execution is left untouched; `new_id` must be fresh.
    pub fn replay_execution(
        &self,
        prior_id: &str,
        new_id: &str,
        mut changed: Document,
        changed_uris: &[String],
        proof: ProofMode,
    ) -> Result<ReplayOutcome, PlatformError> {
        if new_id == prior_id || self.execution(new_id).exists() {
            return Err(PlatformError::ExecutionExists(new_id.to_string()));
        }
        let replayed = self.recompute(prior_id, &mut changed, changed_uris, proof)?;
        if self.live_enabled_impl(prior_id) {
            self.enable_live_impl(new_id);
        }
        self.commit(new_id, &replayed.outcome.trace.calls, changed, None)?;
        Ok(replayed)
    }

    /// The compute half of [`Platform::replay_execution`], which `weblab
    /// replay --from` calls alone: replay the prior execution (cold-loaded
    /// if evicted) under `changed`, in place, and register nothing.
    ///
    /// The dirty cone is [`dirty_cone`] over `changed_uris` in the prior
    /// execution's published [`EpochSnapshot`], unioned with the one over
    /// an inherit-mode inference of the prior execution, so contained
    /// resources are covered; only calls whose produced resources
    /// intersect it are re-executed, every other fragment is spliced
    /// forward from the prior document (see [`Orchestrator::replay`]).
    /// `changed` must be the prior execution's *initial* document with the
    /// changed artifacts edited in place — structure-preserving, same node
    /// arena shape. Only sequential traces of at least one call can be
    /// replayed (parallel-channel traces interleave call ranges, which the
    /// splice planner does not model); either refusal has the `workflow`
    /// error kind, and an id the platform does not hold is
    /// [`PlatformError::UnknownExecution`].
    pub fn recompute(
        &self,
        prior_id: &str,
        changed: &mut Document,
        changed_uris: &[String],
        proof: ProofMode,
    ) -> Result<ReplayOutcome, PlatformError> {
        let rec = self.record(prior_id)?;
        let (prior_doc, prior_trace) = rec.copy();
        let refuse = |message: String| {
            PlatformError::Workflow(WorkflowError::Service { service: "replay".into(), message })
        };
        if prior_trace.calls.is_empty() {
            return Err(refuse(format!(
                "execution {prior_id:?} recorded no calls; there is nothing to replay"
            )));
        }
        if prior_trace.has_parallel_channels() {
            return Err(refuse(
                "cannot replay a parallel-channel trace; re-execute the workflow instead".into(),
            ));
        }
        let names: Vec<&str> = prior_trace.calls.iter().map(|c| c.service.as_str()).collect();
        let workflow = self.build_workflow(&WorkflowSpec::sequence(&names))?;
        let snap = self.refresh(&rec, true);
        // The published snapshot's links may omit containment (inherited)
        // provenance — a fragment's non-anchor resources (a unit's
        // TextContent) would then have no link to the changed source and
        // their consumers would be spliced stale.
        let inherit_graph = weblab_prov::infer_provenance(
            &prior_doc,
            &prior_trace,
            &self.rules(),
            &EngineOptions {
                inherit: weblab_prov::InheritMode::PatternRewrite,
                ..self.mapper.opts
            },
        );
        let inherit_index = ReachabilityIndex::from_graph(&inherit_graph);
        let mut dirty: HashSet<String> =
            dirty_cone(&snap.index, changed_uris).into_iter().collect();
        dirty.extend(dirty_cone(&inherit_index, changed_uris));
        Ok(Orchestrator::new().replay(&workflow, changed, &prior_doc, &prior_trace, &dirty, proof)?)
    }

    fn build_workflow(&self, spec: &WorkflowSpec) -> Result<Workflow, PlatformError> {
        let services = self.services.read().expect("lock poisoned");
        let mut wf = Workflow::new();
        for step in &spec.steps {
            match step {
                SpecStep::Service(name) => {
                    let svc = services
                        .get(name)
                        .cloned()
                        .ok_or_else(|| PlatformError::UnknownService(name.clone()))?;
                    wf = wf.then(svc);
                }
                SpecStep::Parallel(branches) => {
                    let built: Result<Vec<Workflow>, PlatformError> =
                        branches.iter().map(|b| self.build_workflow(b)).collect();
                    wf = wf.then_parallel(built?);
                }
            }
        }
        Ok(wf)
    }

    fn records(&self) -> RwLockWriteGuard<'_, HashMap<String, Arc<Execution>>> {
        self.executions.write().expect("lock poisoned")
    }

    /// The resident record of an execution, without a cold load.
    fn resident(&self, exec_id: &str) -> Option<Arc<Execution>> {
        self.executions.read().expect("lock poisoned").get(exec_id).cloned()
    }

    /// Resident execution ids, sorted.
    fn resident_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> =
            self.executions.read().expect("lock poisoned").keys().cloned().collect();
        ids.sort();
        ids
    }

    /// The catalog's mapping rules, as the Mapper and the live producer
    /// take them.
    fn rules(&self) -> RuleSet {
        self.catalog.read().expect("lock poisoned").rule_set()
    }

    /// The record of an execution, cold-loaded if it was evicted.
    fn record(&self, exec_id: &str) -> Result<Arc<Execution>, PlatformError> {
        self.ensure_resident(exec_id)?
            .ok_or_else(|| PlatformError::UnknownExecution(exec_id.to_string()))
    }

    /// Attach a disk store: every execution is written through to it, and
    /// at most `max_resident` executions stay in memory — the rest answer
    /// queries after a transparent cold load. Executions already resident
    /// are adopted (and persisted on their next operation or eviction).
    pub fn attach_store(&self, store: ProvStore, max_resident: usize) -> Result<(), PlatformError> {
        let ss = Arc::new(StoreState {
            store: Arc::new(store),
            max_resident: max_resident.max(1),
            lru: Mutex::new(Vec::new()),
            loading: Mutex::new(()),
        });
        for id in self.resident_ids() {
            self.touch_lru(&ss, &id);
        }
        *self.store.write().expect("lock poisoned") = Some(Arc::clone(&ss));
        self.evict_excess(&ss, "")
    }

    /// The attached disk store, if any.
    pub fn store(&self) -> Option<Arc<ProvStore>> {
        self.store_state().map(|ss| Arc::clone(&ss.store))
    }

    fn store_state(&self) -> Option<Arc<StoreState>> {
        self.store.read().expect("lock poisoned").clone()
    }

    /// Mark an execution most-recently-used, adding it to the resident set
    /// if it was not tracked yet.
    fn touch_lru(&self, ss: &StoreState, exec_id: &str) {
        let mut lru = ss.lru.lock().expect("lock poisoned");
        if let Some(pos) = lru.iter().position(|id| id == exec_id) {
            let id = lru.remove(pos);
            lru.push(id);
        } else {
            lru.push(exec_id.to_string());
            RESIDENT.inc();
        }
    }

    /// Stop tracking an execution in the resident set.
    fn untrack_lru(&self, ss: &StoreState, exec_id: &str) {
        let mut lru = ss.lru.lock().expect("lock poisoned");
        if let Some(pos) = lru.iter().position(|id| id == exec_id) {
            lru.remove(pos);
            RESIDENT.dec();
        }
    }

    /// The record of an execution, made resident: cold-loaded from the
    /// attached store if it was evicted, as one complete record (document,
    /// trace and stored snapshot). `None` when the execution is neither
    /// resident nor stored.
    fn ensure_resident(&self, exec_id: &str) -> Result<Option<Arc<Execution>>, PlatformError> {
        let Some(ss) = self.store_state() else {
            return Ok(self.resident(exec_id));
        };
        let touched = |rec: Arc<Execution>| {
            self.touch_lru(&ss, exec_id);
            Ok(Some(rec))
        };
        if let Some(rec) = self.resident(exec_id) {
            return touched(rec);
        }
        let loading = ss.loading.lock().expect("lock poisoned");
        // Double-check: a concurrent load may have won the lock first.
        if let Some(rec) = self.resident(exec_id) {
            return touched(rec);
        }
        let Some(mut stored) = ss.store.load(exec_id)? else {
            return Ok(None);
        };
        let live = stored.snapshot.as_ref().is_some_and(|snap| snap.live);
        if live {
            self.enable_live_impl(exec_id);
        }
        // The stored snapshot keeps its *exact* epoch: serve responses
        // embed the epoch, so a cold-loaded execution must answer with the
        // epoch and graph row order it was saved at to stay byte-identical
        // with the resident path.
        let snapshot = stored.resume_snapshot();
        let checkpoint = stored.checkpoint.clone();
        let state = (stored.trace.len(), Header { epoch: snapshot.epoch, live, checkpoint });
        let rec = Arc::new(Execution::new(stored.doc, stored.trace, stored.checkpoint, snapshot));
        *rec.stored.lock().expect("lock poisoned") = Some(state);
        self.records().insert(exec_id.to_string(), Arc::clone(&rec));
        self.touch_lru(&ss, exec_id);
        drop(loading);
        self.evict_excess(&ss, exec_id)?;
        Ok(Some(rec))
    }

    /// Write one execution through to the attached store (document,
    /// calls, current epoch snapshot). No-op without a store.
    fn persist_through(&self, exec_id: &str) -> Result<(), PlatformError> {
        let Some(ss) = self.store_state() else {
            return Ok(());
        };
        let rec = self.record(exec_id)?;
        self.write_through(&ss, exec_id, &rec)
    }

    /// Write a record through to the store, unless its eviction already
    /// did.
    fn write_through(
        &self,
        ss: &StoreState,
        exec_id: &str,
        rec: &Execution,
    ) -> Result<(), PlatformError> {
        let _refresh = rec.refresh.lock().unwrap_or_else(PoisonError::into_inner);
        let kept = rec.kept();
        if kept.evicted {
            return Ok(());
        }
        self.save(ss, exec_id, rec, &kept)
    }

    /// Save a record's document and trace, read in place, with the
    /// snapshot folded up to every kept call. The caller holds the
    /// record's refresh mutex and its kept lock, so no commit lands
    /// between the fold and the save. The fold publishes only what a live
    /// run's start would: with nothing to fold yet, the snapshot stays at
    /// epoch 0, so a store-backed execution numbers its epochs as a
    /// store-less one does. Unlike a run's start, it releases the spare
    /// capacity of the folds. A snapshot a live run in flight has folded
    /// past the kept calls holds links of calls the store does not keep
    /// (and may never, if the run fails): the kept state's graph, inferred
    /// afresh, is saved in its place. The kept resume point is saved with
    /// the calls it follows. A state the store already holds is not
    /// written again.
    fn save(
        &self,
        ss: &StoreState,
        exec_id: &str,
        rec: &Execution,
        kept: &Kept,
    ) -> Result<(), PlatformError> {
        let snap = self.fold_missing(rec, kept, false, true);
        let live = self.live_enabled_impl(exec_id);
        let checkpoint = kept.checkpoint.clone();
        let state = (kept.trace.len(), Header { epoch: snap.epoch, live, checkpoint });
        let mut stored = rec.stored.lock().expect("lock poisoned");
        if stored.as_ref() == Some(&state) {
            return Ok(());
        }
        let ahead = (snap.calls > kept.trace.len())
            .then(|| self.mapper.materialize(&kept.doc, &kept.trace, &self.rules()));
        let graph = ahead.as_ref().unwrap_or(&snap.graph);
        ss.store.save_with(exec_id, &kept.doc, &kept.trace, graph, &state.1)?;
        *stored = Some(state);
        Ok(())
    }

    /// Evict least-recently-used executions until at most `max_resident`
    /// remain, never evicting `protect` (the execution being served).
    fn evict_excess(&self, ss: &StoreState, protect: &str) -> Result<(), PlatformError> {
        loop {
            let victim = {
                let lru = ss.lru.lock().expect("lock poisoned");
                if lru.len() <= ss.max_resident {
                    return Ok(());
                }
                lru.iter().find(|id| id.as_str() != protect).cloned()
            };
            let Some(victim) = victim else {
                return Ok(());
            };
            self.evict_impl(&victim)?;
        }
    }

    /// Persist an execution and drop its record. Returns whether it was
    /// resident. The next query cold-loads it transparently.
    fn evict_impl(&self, exec_id: &str) -> Result<bool, PlatformError> {
        let Some(ss) = self.store_state() else {
            return Ok(false);
        };
        let Some(rec) = self.resident(exec_id) else {
            self.untrack_lru(&ss, exec_id);
            return Ok(false);
        };
        let _refresh = rec.refresh.lock().unwrap_or_else(PoisonError::into_inner);
        let mut kept = rec.kept_mut();
        if kept.evicted {
            return Ok(false); // a concurrent eviction took it
        }
        self.save(&ss, exec_id, &rec, &kept)?;
        kept.evicted = true;
        // Under the cold-load mutex, so no load re-admits the execution
        // between the two removals.
        let _loading = ss.loading.lock().expect("lock poisoned");
        self.records().remove(exec_id);
        self.untrack_lru(&ss, exec_id);
        EVICTIONS.inc();
        Ok(true)
    }

    fn enable_live_impl(&self, exec_id: &str) {
        self.live.write().expect("lock poisoned").insert(exec_id.to_string());
    }

    /// The live flag of a resident (or once resident) execution; for one
    /// not resident, the execution file's `live:` header, read without a
    /// cold load.
    fn live_enabled_impl(&self, exec_id: &str) -> bool {
        self.live.read().expect("lock poisoned").contains(exec_id)
            || (self.resident(exec_id).is_none()
                && self.store_state().is_some_and(|ss| ss.store.stored_live(exec_id)))
    }

    /// A current [`EpochSnapshot`] of the execution — see
    /// [`Platform::refresh`].
    fn snapshot_impl(&self, exec_id: &str) -> Result<Arc<EpochSnapshot>, PlatformError> {
        let rec = self.record(exec_id)?;
        Ok(self.refresh(&rec, true))
    }

    /// The published snapshot if it already covers every kept call, else a
    /// refresh that folds in what it lacks as one delta
    /// ([`Platform::fold_missing`]). A snapshot published mid-execution by
    /// the live hook runs *ahead* of the kept trace (calls reach it only
    /// when the run commits), which is why freshness is `snapshot.calls >=
    /// trace len`, not equality. A reader's refresh always publishes, so
    /// epoch 1 at least, and releases the folds' spare capacity; a live
    /// run's start publishes only a delta that adds something, and keeps
    /// the capacity for the run's deltas to grow into.
    fn refresh(&self, rec: &Execution, reader: bool) -> Arc<EpochSnapshot> {
        let calls = rec.calls();
        let snap = rec.published();
        if covers(&snap, calls) {
            return snap;
        }
        drop(snap);
        // A reader that waited for another's refresh finds it published.
        // The mutex guards no data, so a panicked refresh leaves it usable.
        let _refresh = rec.refresh.lock().unwrap_or_else(PoisonError::into_inner);
        let kept = rec.kept();
        self.fold_missing(rec, &kept, reader, reader)
    }

    /// Fold into the published snapshot what it lacks of the kept state,
    /// read in place under the caller's refresh mutex and kept lock: the
    /// Mapper's links for the calls past the snapshot plus the Source rows
    /// it does not hold yet. A `reader`'s fold publishes even a delta that
    /// adds nothing; a `settled` one releases the spare capacity left by
    /// the folds (see [`Execution::apply_delta`]).
    fn fold_missing(
        &self,
        rec: &Execution,
        kept: &Kept,
        reader: bool,
        settled: bool,
    ) -> Arc<EpochSnapshot> {
        let calls = kept.trace.len();
        let snap = rec.published();
        if covers(&snap, calls) {
            return snap;
        }
        let links = if calls > snap.calls {
            self.mapper.materialize_since(&kept.doc, &kept.trace, snap.calls, &self.rules())
        } else {
            Vec::new()
        };
        let delta = LiveDelta {
            links,
            sources: snap.missing_sources(&kept.doc),
        };
        if !reader && delta.is_empty() && calls <= snap.calls {
            return snap;
        }
        // Release this reader's hold, so the fold need not copy the epoch.
        drop(snap);
        rec.apply_delta(&delta, calls, settled)
    }
}

/// The per-execution façade over [`Platform`]: ingestion, execution,
/// exchange recording, live maintenance and — via published
/// [`EpochSnapshot`]s — index-backed provenance queries. This is the only
/// surface the `weblab serve` query service touches.
///
/// ```
/// use std::sync::Arc;
/// use weblab_platform::{Mapper, Platform};
/// use weblab_workflow::generator::generate_corpus;
/// use weblab_workflow::services::Normaliser;
///
/// let p = Platform::new(Mapper::native());
/// p.register_service(
///     Arc::new(Normaliser),
///     &["//NativeContent[$x := @id] => //TextMediaUnit[@origin = $x]"],
/// ).unwrap();
/// let exec = p.execution("exec-1");
/// exec.ingest(generate_corpus(1, 1, 20));
/// exec.execute(&["Normaliser"]).unwrap();
/// let snap = exec.snapshot().unwrap();
/// assert!(snap.epoch >= 1 && !snap.graph.links.is_empty());
/// ```
pub struct ExecutionHandle<'p> {
    platform: &'p Platform,
    id: String,
}

impl ExecutionHandle<'_> {
    /// The execution id this handle is scoped to.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Whether the execution has an ingested document — resident in
    /// memory, or evicted to the attached store.
    pub fn exists(&self) -> bool {
        self.is_resident()
            || self
                .platform
                .store_state()
                .is_some_and(|ss| ss.store.contains(&self.id))
    }

    /// Whether the execution is resident in memory right now (always true
    /// without an attached store, for executions that exist).
    pub fn is_resident(&self) -> bool {
        self.platform.resident(&self.id).is_some()
    }

    /// Write this execution through to the attached store without
    /// evicting it. No-op when no store is attached.
    pub fn persist(&self) -> Result<(), PlatformError> {
        self.platform.persist_through(&self.id)
    }

    /// Persist this execution and drop its in-memory state; the next query
    /// cold-loads it transparently. Returns whether it was resident.
    /// No-op (returning `false`) when no store is attached.
    pub fn evict(&self) -> Result<bool, PlatformError> {
        self.platform.evict_impl(&self.id)
    }

    /// Ingest an initial document for this execution.
    pub fn ingest(&self, doc: Document) {
        self.platform.ingest(&self.id, doc);
    }

    /// Execute a sequence of registered service names.
    pub fn execute(&self, steps: &[&str]) -> Result<(), PlatformError> {
        self.platform.execute(&self.id, steps)
    }

    /// Execute a [`WorkflowSpec`], possibly with parallel blocks.
    pub fn execute_spec(&self, spec: &WorkflowSpec) -> Result<(), PlatformError> {
        self.platform.execute_spec(&self.id, spec)
    }

    /// Record a call whose effect arrives as a complete response document
    /// (serialised XML with `wl:id`/`wl:s`/`wl:t` metadata), as an
    /// out-of-process service returns it: the response is diffed against
    /// the kept document, its new fragments are merged into a copy of the
    /// canonical arena ([`crate::merge_exchange`]), and the call is
    /// committed like a run's — cold-loaded first if evicted, and written
    /// through the attached store.
    pub fn record_exchange(
        &self,
        service: &str,
        time: Timestamp,
        response_xml: &str,
    ) -> Result<CallRecord, PlatformError> {
        let (doc, call) =
            self.with_kept(|kept, _| recorder::exchange(kept, service, time, response_xml))??;
        self.platform.commit(&self.id, std::slice::from_ref(&call), doc, None)?;
        Ok(call)
    }

    /// Read the kept document and trace in place, under one lock —
    /// cold-loaded like every other handle method. `f` runs under the
    /// lock, so it must not commit to this execution.
    pub fn with_kept<R>(
        &self,
        f: impl FnOnce(&Document, &ExecutionTrace) -> R,
    ) -> Result<R, PlatformError> {
        let rec = self.platform.record(&self.id)?;
        let kept = rec.kept();
        Ok(f(&kept.doc, &kept.trace))
    }

    /// Incrementally recompute this execution under a changed input
    /// document, registering the result as `new_id` — see
    /// [`Platform::replay_execution`].
    pub fn replay(
        &self,
        new_id: &str,
        changed: Document,
        changed_uris: &[String],
        proof: ProofMode,
    ) -> Result<ReplayOutcome, PlatformError> {
        self.platform
            .replay_execution(&self.id, new_id, changed, changed_uris, proof)
    }

    /// Switch this execution to live provenance: every committed call of
    /// its later runs is folded into the published [`EpochSnapshot`] as it
    /// happens, one epoch per delta.
    pub fn enable_live(&self) {
        self.platform.enable_live_impl(&self.id);
    }

    /// Whether live mode is enabled — for an execution not resident, as
    /// its stored snapshot records it.
    pub fn live_enabled(&self) -> bool {
        self.platform.live_enabled_impl(&self.id)
    }

    /// The current snapshot's provenance graph (see
    /// [`ExecutionHandle::snapshot`]).
    pub fn graph(&self) -> Result<ProvenanceGraph, PlatformError> {
        Ok(self.snapshot()?.graph.clone())
    }

    /// A current epoch snapshot — graph + reachability index, unchanged
    /// for as long as the caller holds it. Queries answered on one
    /// snapshot are mutually consistent even while ingestion publishes
    /// newer epochs concurrently.
    pub fn snapshot(&self) -> Result<Arc<EpochSnapshot>, PlatformError> {
        self.platform.snapshot_impl(&self.id)
    }

    /// Direct dependencies of a resource, answered from the reachability
    /// index (no edge-list traversal — counted under `prov.index.hits`).
    pub fn deps(&self, uri: &str) -> Result<Vec<String>, PlatformError> {
        let snap = self.snapshot()?;
        Ok(snap.index.dependencies_of(uri).into_iter().map(String::from).collect())
    }

    /// Direct dependents of a resource, index-answered like
    /// [`ExecutionHandle::deps`].
    pub fn rdeps(&self, uri: &str) -> Result<Vec<String>, PlatformError> {
        let snap = self.snapshot()?;
        Ok(snap.index.dependents_of(uri).into_iter().map(String::from).collect())
    }

    /// Answer a structured provenance query on a current snapshot.
    pub fn query(&self, q: &ProvQuery) -> Result<QueryAnswer, PlatformError> {
        self.query_at(q).map(|(_, answer)| answer)
    }

    /// Like [`ExecutionHandle::query`], also reporting the epoch the
    /// answer was computed at — what the serve protocol echoes back.
    pub fn query_at(&self, q: &ProvQuery) -> Result<(u64, QueryAnswer), PlatformError> {
        let snap = self.snapshot()?;
        let answer = self.query_on(&snap, q)?;
        Ok((snap.epoch, answer))
    }

    /// Answer a structured provenance query on a **pinned** snapshot —
    /// the building block of the serve protocol's `batch` op: every
    /// sub-request of a batch is answered on the same snapshot, so the
    /// whole batch shares one atomic epoch even while live ingestion keeps
    /// publishing newer ones. SPARQL sub-queries still go through the
    /// per-epoch [`QueryEngine`] plan cache, unless the execution was
    /// evicted since the snapshot was pinned.
    pub fn query_on(
        &self,
        snap: &Arc<EpochSnapshot>,
        q: &ProvQuery,
    ) -> Result<QueryAnswer, PlatformError> {
        let engine = || match self.platform.resident(&self.id) {
            Some(rec) => rec.engine_for(snap),
            None => Arc::new(QueryEngine::new(Arc::new(prov_store(&snap.graph)))),
        };
        Ok(q.answer(|| &snap.index, engine)?)
    }

    /// A SPARQL SELECT over this execution's PROV-O export.
    pub fn sparql(&self, text: &str) -> Result<Vec<Solution>, PlatformError> {
        match self.query(&ProvQuery::Sparql { query: text.to_string() })? {
            QueryAnswer::Solutions(sols) => Ok(sols),
            _ => unreachable!("Sparql queries answer with Solutions"),
        }
    }

    /// Ranked relevance (v2): spreading activation from `uris` over the
    /// published snapshot's index, under the shared [`QueryOpts`]
    /// envelope. Scores depend only on the published graph — identical at
    /// every worker count and on live- or batch-built indexes.
    pub fn rank(
        &self,
        uris: &[String],
        direction: RankDirection,
        opts: &QueryOpts,
        weights: &[(String, u32)],
    ) -> Result<Vec<RankedEntry>, PlatformError> {
        match self.query(&ProvQuery::Rank {
            uris: uris.to_vec(),
            direction,
            opts: *opts,
            weights: weights.to_vec(),
        })? {
            QueryAnswer::Ranked(entries) => Ok(entries),
            _ => unreachable!("Rank queries answer with Ranked"),
        }
    }

    /// Aggregate analytics (v2): per-service influence, common-origin
    /// clusters and an optional blast radius — from the snapshot index's
    /// precomputed closure sizes, no traversal.
    pub fn summary(&self, uri: Option<&str>) -> Result<GraphSummary, PlatformError> {
        match self.query(&ProvQuery::Summary { uri: uri.map(String::from) })? {
            QueryAnswer::Summary(s) => Ok(s),
            _ => unreachable!("Summary queries answer with Summary"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use weblab_rdf::vocab::PROV_NS;
    use weblab_workflow::CallContext;
    use weblab_workflow::generator::generate_corpus;
    use weblab_workflow::services::{LanguageExtractor, Normaliser, Translator};

    fn platform() -> Platform {
        let p = Platform::new(Mapper::native());
        p.register_service(
            Arc::new(Normaliser),
            &["//NativeContent[$x := @id] => //TextMediaUnit[@origin = $x]"],
        )
        .unwrap();
        p.register_service(
            Arc::new(LanguageExtractor),
            &["//TextMediaUnit[$x := @id]/TextContent => //TextMediaUnit[$x := @id]/Annotation[Language]"],
        )
        .unwrap();
        p.register_service(
            Arc::new(Translator::default()),
            &["//TextMediaUnit[$x := @id] => //TextMediaUnit[@translation-of = $x]"],
        )
        .unwrap();
        p
    }

    /// The from-scratch oracle: the Mapper's full materialisation of the
    /// execution's current document and trace.
    fn oracle(p: &Platform, id: &str) -> ProvenanceGraph {
        let rules = p.rules();
        p.execution(id).with_kept(|doc, trace| p.mapper.materialize(doc, trace, &rules)).unwrap()
    }

    /// The kept trace of an execution.
    fn trace(p: &Platform, id: &str) -> ExecutionTrace {
        p.execution(id).with_kept(|_, trace| trace.clone()).unwrap()
    }

    /// The snapshot a resident execution has published, without a refresh.
    fn published(p: &Platform, id: &str) -> Arc<EpochSnapshot> {
        p.resident(id).expect("resident").published()
    }

    fn assert_same_graph(got: &ProvenanceGraph, want: &ProvenanceGraph) {
        assert_eq!(got.links, want.links);
        assert_eq!(got.sources, want.sources);
    }

    #[test]
    fn end_to_end_execution_and_query() {
        let p = platform();
        p.ingest("exec-1", generate_corpus(3, 2, 25));
        p.execute(
            "exec-1",
            &["Normaliser", "LanguageExtractor", "Translator"],
        )
        .unwrap();
        let exec = p.execution("exec-1");
        let graph = exec.graph().unwrap();
        assert!(!graph.links.is_empty());
        assert!(graph.is_acyclic());
        assert_same_graph(&graph, &oracle(&p, "exec-1"));
        // SPARQL over the execution's PROV-O export
        let sols = exec
            .sparql(&format!(
                "PREFIX prov: <{PROV_NS}> SELECT ?d ?s WHERE {{ ?d prov:wasDerivedFrom ?s . }}"
            ))
            .unwrap();
        assert_eq!(sols.len(), graph.links.len());
    }

    #[test]
    fn query_triggers_materialisation_once() {
        let p = platform();
        p.ingest("e", generate_corpus(5, 1, 20));
        p.execute("e", &["Normaliser"]).unwrap();
        let exec = p.execution("e");
        let state = p.resident("e").unwrap();
        assert_eq!(
            state.published().epoch,
            0,
            "nothing materialised before the query"
        );
        exec.sparql("SELECT ?s WHERE { ?s <p> ?o . }").unwrap();
        let snap = state.published();
        assert_eq!((snap.epoch, snap.calls), (1, 1));
        assert_same_graph(&snap.graph, &oracle(&p, "e"));
        // a second query reuses the published snapshot
        exec.sparql("SELECT ?s WHERE { ?s <p> ?o . }").unwrap();
        assert!(Arc::ptr_eq(&snap, &state.published()));
    }

    #[test]
    fn execute_makes_materialisation_stale_and_delta_restores_it() {
        let p = platform();
        p.ingest("e", generate_corpus(5, 1, 20));
        p.execute("e", &["Normaliser"]).unwrap();
        let exec = p.execution("e");
        let g1 = exec.graph().unwrap();
        assert_same_graph(&g1, &oracle(&p, "e"));
        p.execute("e", &["LanguageExtractor"]).unwrap();
        // stale: one call not folded into the published snapshot yet
        assert_eq!(published(&p, "e").calls, 1);
        // the refresh folds in the one-call delta, equal to a from-scratch
        // derivation
        let g2 = exec.graph().unwrap();
        assert!(g2.links.len() > g1.links.len());
        assert_same_graph(&g2, &oracle(&p, "e"));
        let snap = exec.snapshot().unwrap();
        assert_eq!((snap.epoch, snap.calls), (2, 2));
    }

    #[test]
    fn unknown_ids_error() {
        let p = platform();
        assert!(matches!(
            p.execute("nope", &["Normaliser"]),
            Err(PlatformError::UnknownExecution(_))
        ));
        p.ingest("e", generate_corpus(1, 1, 10));
        assert!(matches!(
            p.execute("e", &["NoSuchService"]),
            Err(PlatformError::UnknownService(_))
        ));
        assert!(matches!(
            p.execution("other").graph(),
            Err(PlatformError::UnknownExecution(_))
        ));
    }

    #[test]
    fn parallel_spec_execution_records_channels() {
        let p = platform();
        // bilingual corpus processed by two parallel analysis branches
        p.ingest("e", generate_corpus(8, 2, 30));
        let spec = WorkflowSpec::default()
            .then("Normaliser")
            .then_parallel(vec![
                WorkflowSpec::sequence(&["LanguageExtractor"]),
                WorkflowSpec::sequence(&["Translator"]),
            ]);
        p.execute_spec("e", &spec).unwrap();
        let trace = trace(&p, "e");
        let channels: Vec<&str> =
            trace.calls.iter().map(|c| c.channel.as_str()).collect();
        assert_eq!(channels, vec!["", "0", "1"]);
        // provenance still materialises and stays acyclic
        let g = p.execution("e").graph().unwrap();
        assert!(g.is_acyclic());
        // the Translator branch could not see the sibling's annotations:
        // every Translator dependency predates the fork
        for l in &g.links {
            if l.from_uri.contains("Translator") {
                assert!(!l.to_uri.contains("LanguageExtractor"));
            }
        }
    }

    #[test]
    fn unknown_service_in_spec_is_reported() {
        let p = platform();
        p.ingest("e", generate_corpus(1, 1, 10));
        let spec = WorkflowSpec::default()
            .then_parallel(vec![WorkflowSpec::sequence(&["Nope"])]);
        assert!(matches!(
            p.execute_spec("e", &spec),
            Err(PlatformError::UnknownService(_))
        ));
    }

    #[test]
    fn flaky_service_retries_transparently_under_a_retry_policy() {
        use weblab_workflow::services::Flaky;
        use weblab_workflow::RetryPolicy;
        let p = platform();
        p.register_service(Arc::new(Flaky::failing(2)), &[]).unwrap();
        p.set_fault_policy(FaultPolicy::retrying(RetryPolicy::with_max_attempts(3)));
        p.ingest("e", generate_corpus(1, 1, 10));
        p.execute("e", &["Normaliser", "Flaky"]).unwrap();
        // both steps made it into the trace exactly once: the two failed
        // attempts were rolled back before recording
        let trace = trace(&p, "e");
        let services: Vec<&str> = trace.calls.iter().map(|c| c.service.as_str()).collect();
        assert_eq!(services, vec!["Normaliser", "Flaky"]);
        // and the rolled-back attempts left no probes behind
        let doc = p.execution("e").with_kept(|doc, _| doc.clone()).unwrap();
        let v = doc.view();
        let probes = v
            .descendants(doc.root())
            .filter(|&n| v.name(n) == Some("FlakyProbe"))
            .count();
        assert_eq!(probes, 1);
    }

    #[test]
    fn live_graph_matches_batch_after_execution() {
        let p = platform();
        let exec = p.execution("e");
        exec.ingest(generate_corpus(4, 2, 25));
        exec.enable_live();
        let spec = WorkflowSpec::default()
            .then("Normaliser")
            .then_parallel(vec![
                WorkflowSpec::sequence(&["LanguageExtractor"]),
                WorkflowSpec::sequence(&["Translator"]),
            ]);
        p.execute_spec("e", &spec).unwrap();
        // what the live deltas published, before any reader's refresh
        let live = published(&p, "e");
        assert_eq!(live.calls, 3);
        assert_same_graph(&live.graph, &oracle(&p, "e"));
        assert_same_graph(&exec.graph().unwrap(), &live.graph);
        assert!(!live.graph.links.is_empty());
    }

    #[test]
    fn live_queries_answer_without_rematerialisation() {
        let p = platform();
        let exec = p.execution("e");
        exec.ingest(generate_corpus(3, 1, 20));
        exec.enable_live();
        assert!(exec.live_enabled());
        p.execute("e", &["Normaliser", "LanguageExtractor"]).unwrap();
        // the live deltas already published the whole graph: querying it
        // needs no refresh
        let published = published(&p, "e");
        assert_eq!(published.calls, 2);
        let batch = oracle(&p, "e");
        for l in &batch.links {
            let deps = exec.deps(&l.from_uri).unwrap();
            assert!(deps.contains(&l.to_uri));
            let rdeps = exec.rdeps(&l.to_uri).unwrap();
            assert!(rdeps.contains(&l.from_uri));
        }
        assert_eq!(exec.snapshot().unwrap().epoch, published.epoch);
    }

    #[test]
    fn live_enabled_late_catches_up_on_prior_calls() {
        let p = platform();
        let exec = p.execution("e");
        exec.ingest(generate_corpus(3, 1, 20));
        p.execute("e", &["Normaliser"]).unwrap();
        exec.enable_live(); // after one call already recorded
        p.execute("e", &["LanguageExtractor", "Translator"]).unwrap();
        let live = published(&p, "e");
        assert_same_graph(&live.graph, &oracle(&p, "e"));
        assert_same_graph(&exec.graph().unwrap(), &live.graph);
        let trace = trace(&p, "e");
        assert_eq!(live.calls, trace.calls.len());
    }

    #[test]
    fn live_ignores_rolled_back_attempts() {
        use weblab_workflow::services::Flaky;
        use weblab_workflow::RetryPolicy;
        let p = platform();
        p.register_service(Arc::new(Flaky::failing(2)), &[]).unwrap();
        p.set_fault_policy(FaultPolicy::retrying(RetryPolicy::with_max_attempts(3)));
        let exec = p.execution("e");
        exec.ingest(generate_corpus(2, 1, 15));
        exec.enable_live();
        p.execute("e", &["Normaliser", "Flaky", "LanguageExtractor"]).unwrap();
        let live = published(&p, "e");
        assert_same_graph(&live.graph, &oracle(&p, "e"));
        // only committed calls were folded in — one per workflow step
        assert_eq!(live.calls, 3);
    }

    #[test]
    fn non_live_dependency_queries_fall_back_to_batch() {
        let p = platform();
        let exec = p.execution("e");
        exec.ingest(generate_corpus(2, 1, 15));
        p.execute("e", &["Normaliser"]).unwrap();
        assert!(!exec.live_enabled());
        let batch = oracle(&p, "e");
        let l = &batch.links[0];
        assert!(exec.deps(&l.from_uri).unwrap().contains(&l.to_uri));
        assert_same_graph(&exec.graph().unwrap(), &batch);
    }

    #[test]
    fn catalog_text_lists_registered_services() {
        let p = platform();
        let text = p.catalog_text();
        assert!(text.contains("[service] Normaliser"));
        assert!(text.contains("rule: //NativeContent"));
    }

    #[test]
    fn executions_keep_independent_graphs() {
        let p = platform();
        p.ingest("a", generate_corpus(1, 1, 15));
        p.ingest("b", generate_corpus(2, 1, 15));
        p.execute("a", &["Normaliser"]).unwrap();
        p.execute("b", &["Normaliser"]).unwrap();
        let ga = p.execution("a").graph().unwrap();
        let gb = p.execution("b").graph().unwrap();
        assert!(!ga.links.is_empty());
        assert!(!gb.links.is_empty());
        assert_same_graph(&ga, &oracle(&p, "a"));
        assert_same_graph(&gb, &oracle(&p, "b"));
        assert_eq!(p.executions(), vec!["a", "b"]);
    }

    #[test]
    fn handle_facade_answers_match_the_graph() {
        let p = platform();
        let exec = p.execution("e");
        exec.ingest(generate_corpus(3, 2, 25));
        exec.execute(&["Normaliser", "LanguageExtractor", "Translator"]).unwrap();
        assert!(exec.exists());
        assert_eq!(exec.id(), "e");
        let graph = exec.graph().unwrap();
        for l in &graph.links {
            let deps: Vec<String> =
                graph.dependencies_of(&l.from_uri).into_iter().map(String::from).collect();
            assert_eq!(exec.deps(&l.from_uri).unwrap(), deps);
            let rdeps: Vec<String> =
                graph.dependents_of(&l.to_uri).into_iter().map(String::from).collect();
            assert_eq!(exec.rdeps(&l.to_uri).unwrap(), rdeps);
        }
        assert_same_graph(&graph, &oracle(&p, "e"));
        assert!(!p.execution("missing").exists());
        assert!(matches!(
            p.execution("missing").snapshot(),
            Err(PlatformError::UnknownExecution(_))
        ));
    }

    #[test]
    fn handle_rank_and_summary_answer_from_the_snapshot() {
        let p = platform();
        let exec = p.execution("e");
        exec.ingest(generate_corpus(3, 2, 25));
        exec.execute(&["Normaliser", "LanguageExtractor", "Translator"]).unwrap();
        let snap = exec.snapshot().unwrap();
        let seed = snap.graph.links[0].to_uri.clone();
        let opts = QueryOpts { limit: 10, ..Default::default() };
        let ranked = exec.rank(std::slice::from_ref(&seed), RankDirection::Up, &opts, &[]).unwrap();
        assert_eq!(ranked[0].uri, seed);
        assert_eq!(ranked[0].score_micro, weblab_prov::rank::SCALE);
        assert!(ranked.len() > 1, "seed should activate dependents");
        // the handle's answer is the rank module's answer on the same index
        assert_eq!(
            ranked,
            weblab_prov::rank::rank(
                &snap.index,
                std::slice::from_ref(&seed),
                RankDirection::Up,
                &opts,
                &[]
            )
        );
        let s = exec.summary(Some(&seed)).unwrap();
        assert_eq!(s.edges, snap.graph.links.len() as u64);
        assert_eq!(
            s.blast.as_ref().unwrap().impacted,
            snap.index.impacted_by(&seed).len() as u64
        );
        assert!(!s.services.is_empty());
    }

    #[test]
    fn live_snapshots_advance_per_delta_and_track_the_live_graph() {
        let p = platform();
        let exec = p.execution("e");
        exec.ingest(generate_corpus(3, 1, 20));
        exec.enable_live();
        assert!(exec.live_enabled());
        exec.execute(&["Normaliser", "LanguageExtractor"]).unwrap();
        let snap = exec.snapshot().unwrap();
        // at least one epoch per committed call (plus the catch-up publish)
        assert!(snap.epoch >= 2, "epoch {} after two live calls", snap.epoch);
        assert_eq!(snap.calls, 2);
        // the published snapshot IS the live graph, which is the batch graph
        assert_same_graph(&snap.graph, &oracle(&p, "e"));
        // freshness: querying again serves the same snapshot
        let again = exec.snapshot().unwrap();
        assert_eq!(again.epoch, snap.epoch);
        // a further call publishes a newer epoch
        exec.execute(&["Translator"]).unwrap();
        let after = exec.snapshot().unwrap();
        assert!(after.epoch > snap.epoch);
        assert_eq!(after.calls, 3);
        assert!(after.graph.links.len() >= snap.graph.links.len());
    }

    #[test]
    fn readers_racing_on_a_stale_batch_snapshot_publish_one_epoch() {
        let p = platform();
        let exec = p.execution("e");
        exec.ingest(generate_corpus(4, 2, 25));
        exec.execute(&["Normaliser"]).unwrap();
        let before = exec.snapshot().unwrap().epoch;
        exec.execute(&["LanguageExtractor", "Translator"]).unwrap();
        let barrier = std::sync::Barrier::new(4);
        let snaps: Vec<Arc<EpochSnapshot>> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        p.execution("e").snapshot().unwrap()
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        for snap in &snaps {
            assert_eq!((snap.epoch, snap.calls), (before + 1, 3));
        }
        assert_same_graph(&snaps[0].graph, &oracle(&p, "e"));
    }

    #[test]
    fn a_reader_racing_a_batch_commit_never_publishes_a_torn_snapshot() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        let p = platform();
        let ids: Vec<String> = (0..50).map(|i| format!("e{i}")).collect();
        let (running, done) = (AtomicUsize::new(0), AtomicBool::new(false));
        std::thread::scope(|s| {
            // reads whichever execution is running while it commits
            s.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    let _ = p.execution(&ids[running.load(Ordering::Relaxed)]).snapshot();
                }
            });
            for (i, id) in ids.iter().enumerate() {
                p.ingest(id, generate_corpus(3, 2, 25));
                running.store(i, Ordering::Relaxed);
                p.execute(id, &["Normaliser", "LanguageExtractor", "Translator"]).unwrap();
            }
            done.store(true, Ordering::Relaxed);
        });
        for id in &ids {
            let snap = p.execution(id).snapshot().unwrap();
            assert_eq!(snap.calls, trace(&p, id).len(), "{id}");
            assert_same_graph(&snap.graph, &oracle(&p, id));
        }
    }

    #[test]
    fn nothing_to_fold_publishes_epoch_1_on_a_refresh_but_not_on_a_live_catch_up() {
        let p = platform();
        let unlabelled = || {
            weblab_xml::parse_document("<R><NativeContent id=\"n\">x</NativeContent></R>").unwrap()
        };
        let batch = p.execution("batch");
        batch.ingest(unlabelled());
        assert_eq!(batch.snapshot().unwrap().epoch, 1);
        assert_eq!(batch.snapshot().unwrap().epoch, 1);
        // the live run's empty catch-up opens no epoch: its one call does
        let live = p.execution("live");
        live.ingest(unlabelled());
        live.enable_live();
        live.execute(&["Normaliser"]).unwrap();
        let snap = live.snapshot().unwrap();
        assert_eq!((snap.epoch, snap.calls), (1, 1));
    }

    /// The resume point the attached store holds for `id`, read from its
    /// execution file's header.
    fn checkpoint(p: &Platform, id: &str) -> Option<ResumePoint> {
        p.store().unwrap().header(id).unwrap().expect("stored").checkpoint
    }

    fn tmpstore(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir()
            .join(format!("weblab-platform-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn evicted_executions_cold_load_with_identical_snapshots() {
        let p = platform();
        let dir = tmpstore("coldload");
        p.attach_store(ProvStore::open(&dir).unwrap(), 8).unwrap();
        let exec = p.execution("e/1");
        exec.ingest(generate_corpus(3, 2, 25));
        exec.execute(&["Normaliser", "LanguageExtractor", "Translator"]).unwrap();
        let before = exec.snapshot().unwrap();
        let why_before = exec.query(&ProvQuery::Why {
            uri: before.graph.links[0].from_uri.clone(),
        })
        .unwrap();

        assert!(exec.evict().unwrap());
        assert!(!exec.is_resident());
        assert!(exec.exists(), "evicted executions still exist");

        // The next query cold-loads transparently and answers at the same
        // epoch with the same graph — byte-identical to the resident path.
        let after = exec.snapshot().unwrap();
        assert!(exec.is_resident());
        assert_eq!(after.epoch, before.epoch);
        assert_eq!(after.calls, before.calls);
        assert_eq!(after.graph.links, before.graph.links);
        assert_eq!(after.graph.sources, before.graph.sources);
        let why_after = exec.query(&ProvQuery::Why {
            uri: before.graph.links[0].from_uri.clone(),
        })
        .unwrap();
        assert_eq!(why_after, why_before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_bounds_residency_and_listings_span_disk() {
        let p = platform();
        let dir = tmpstore("lru");
        p.attach_store(ProvStore::open(&dir).unwrap(), 1).unwrap();
        for id in ["a", "b", "c"] {
            let exec = p.execution(id);
            exec.ingest(generate_corpus(2, 1, 15));
            exec.execute(&["Normaliser"]).unwrap();
        }
        // only the most recent execution stayed resident
        assert_eq!(p.resident_ids(), vec!["c"]);
        assert_eq!(p.executions(), vec!["a", "b", "c"]);
        // touching an evicted one swaps it in and the old resident out
        let g = p.execution("a").graph().unwrap();
        assert!(!g.links.is_empty());
        assert_eq!(p.resident_ids(), vec!["a"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cold_load_restores_live_mode_and_resumes_execution() {
        let p = platform();
        let dir = tmpstore("live");
        p.attach_store(ProvStore::open(&dir).unwrap(), 4).unwrap();
        let exec = p.execution("e");
        exec.ingest(generate_corpus(3, 1, 20));
        exec.enable_live();
        exec.execute(&["Normaliser"]).unwrap();
        assert!(exec.evict().unwrap());

        // The cold load restores the stored snapshot and the live flag; the
        // next run's producer starts where that snapshot stands.
        exec.execute(&["LanguageExtractor", "Translator"]).unwrap();
        assert!(exec.live_enabled(), "live mode survives eviction");
        let live = published(&p, "e");
        assert_same_graph(&live.graph, &oracle(&p, "e"));
        assert_same_graph(&exec.graph().unwrap(), &live.graph);
        // The published Source table took no re-delivered row twice and
        // equals that of an execution that stayed resident throughout.
        let sources = exec.snapshot().unwrap().graph.sources.clone();
        let mut uris: Vec<&str> = sources.iter().map(|s| s.uri.as_str()).collect();
        uris.sort_unstable();
        uris.dedup();
        assert_eq!(uris.len(), sources.len(), "duplicate Source rows");
        let resident = platform();
        let r = resident.execution("e");
        r.ingest(generate_corpus(3, 1, 20));
        r.enable_live();
        r.execute(&["Normaliser"]).unwrap();
        r.execute(&["LanguageExtractor", "Translator"]).unwrap();
        assert_eq!(sources, r.snapshot().unwrap().graph.sources);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_evicted_live_execution_ends_like_a_resident_one() {
        let run = |p: &Platform, evict: bool| {
            let exec = p.execution("e");
            exec.ingest(generate_corpus(3, 1, 20));
            exec.enable_live();
            exec.execute(&["Normaliser"]).unwrap();
            if evict {
                assert!(exec.evict().unwrap());
            }
            exec.execute(&["LanguageExtractor", "Translator"]).unwrap();
            exec.snapshot().unwrap()
        };
        let resident = run(&platform(), false);
        let p = platform();
        let dir = tmpstore("parity");
        p.attach_store(ProvStore::open(&dir).unwrap(), 4).unwrap();
        let evicted = run(&p, true);
        // the store-backed ingest and the cold load publish nothing a
        // resident run does not: same epoch, same graph, same Source table
        assert_eq!((evicted.epoch, evicted.calls), (resident.epoch, resident.calls));
        assert_eq!(resident.epoch, 4, "sources, then one epoch per live call");
        assert_same_graph(&evicted.graph, &resident.graph);
        assert_same_graph(&evicted.graph, &oracle(&p, "e"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_live_run_publishes_the_kept_state() {
        use weblab_workflow::services::Flaky;
        let p = platform();
        p.register_service(Arc::new(Flaky::failing(100)), &[]).unwrap();
        let exec = p.execution("e");
        exec.ingest(generate_corpus(3, 1, 20));
        exec.enable_live();
        let before = exec.snapshot().unwrap().epoch;
        // the two committed calls' deltas were folded before the third
        // step failed, and the platform keeps neither call
        assert!(exec.execute(&["Normaliser", "LanguageExtractor", "Flaky"]).is_err());
        let failed = exec.snapshot().unwrap();
        assert_eq!(failed.calls, 0);
        assert_eq!(failed.epoch, before + 3, "two deltas, then the republish");
        assert_same_graph(&failed.graph, &oracle(&p, "e"));
        exec.execute(&["Normaliser"]).unwrap();
        let clean = exec.snapshot().unwrap();
        assert_eq!(clean.calls, 1);
        assert_same_graph(&clean.graph, &oracle(&p, "e"));
    }

    #[test]
    fn a_write_through_with_nothing_to_fold_publishes_no_epoch() {
        let p = platform();
        let dir = tmpstore("epoch0");
        p.attach_store(ProvStore::open(&dir).unwrap(), 4).unwrap();
        let exec = p.execution("e");
        exec.ingest(weblab_xml::parse_document("<R><NativeContent id=\"n\">x</NativeContent></R>").unwrap());
        // stored at epoch 0, as a store-less ingest publishes nothing
        assert_eq!(published(&p, "e").epoch, 0);
        assert!(exec.evict().unwrap());
        // the cold load restores epoch 0, and a reader publishes epoch 1
        let snap = exec.snapshot().unwrap();
        assert_eq!((snap.epoch, snap.calls), (1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_durable_run_failing_at_its_third_step_keeps_two_steps_in_memory_and_on_disk() {
        use weblab_workflow::services::Flaky;
        let p = platform();
        p.register_service(Arc::new(Flaky::failing(100)), &[]).unwrap();
        let dir = tmpstore("durable");
        p.attach_store(ProvStore::open(&dir).unwrap(), 1).unwrap();
        p.execution("e").enable_live();
        let spec = WorkflowSpec::sequence(&["Normaliser", "LanguageExtractor", "Flaky", "Translator"]);
        let wf = p.build_workflow(&spec).unwrap();
        let input = generate_corpus(3, 1, 20);
        assert!(p.execute_durable("e", &wf, Some(input)).is_err());

        // resident: the two completed steps, committed
        let xml = |p: &Platform| {
            p.execution("e").with_kept(|doc, _| weblab_xml::to_xml_string(&doc.view())).unwrap()
        };
        let doc = xml(&p);
        let trace = trace(&p, "e");
        let snap = published(&p, "e");
        assert_eq!((trace.len(), snap.calls), (2, 2));
        assert_eq!(snap.epoch, 3, "the input's Source rows, then one epoch per call");
        assert_same_graph(&snap.graph, &oracle(&p, "e"));
        let point = checkpoint(&p, "e").expect("unfinished");
        assert_eq!((point.completed_steps, point.next_time), (2, 3));

        // cold-loaded by a fresh platform: the same document, trace and
        // snapshot
        let cold = platform();
        cold.attach_store(ProvStore::open(&dir).unwrap(), 1).unwrap();
        let cold_snap = cold.execution("e").snapshot().unwrap();
        assert_eq!(xml(&cold), doc);
        assert_eq!(self::trace(&cold, "e").calls, trace.calls);
        assert_eq!((cold_snap.epoch, cold_snap.calls), (snap.epoch, snap.calls));
        assert_same_graph(&cold_snap.graph, &snap.graph);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_store_holds_one_file_per_execution_and_a_resume_point_only_while_a_run_is_unfinished() {
        use std::os::unix::fs::MetadataExt;
        use weblab_workflow::services::Flaky;
        let dir = tmpstore("one-file");
        let shard_files = || {
            let shards = std::fs::read_dir(&dir).unwrap().flatten().filter(|e| e.path().is_dir());
            shards.flat_map(|shard| std::fs::read_dir(shard.path()).unwrap().flatten())
        };
        let files = || -> Vec<String> {
            let mut names: Vec<String> =
                shard_files().map(|f| f.file_name().to_string_lossy().into_owned()).collect();
            names.sort();
            names
        };
        // each save replaces its file, so an unchanged inode means no save
        let inodes = || -> Vec<u64> {
            let mut inodes: Vec<(String, u64)> = shard_files()
                .map(|f| (f.file_name().to_string_lossy().into_owned(), f.metadata().unwrap().ino()))
                .collect();
            inodes.sort();
            inodes.into_iter().map(|(_, ino)| ino).collect()
        };
        let p = platform();
        p.register_service(Arc::new(Flaky::failing(1)), &[]).unwrap();
        p.attach_store(ProvStore::open(&dir).unwrap(), 1).unwrap();
        // an ingest
        p.execution("a").ingest(generate_corpus(2, 1, 20));
        assert_eq!(files(), ["a.exec"]);
        // a live run, whose ingest evicted "a"
        let b = p.execution("b");
        b.ingest(generate_corpus(2, 1, 20));
        b.enable_live();
        b.execute(&["Normaliser", "LanguageExtractor"]).unwrap();
        assert!(!p.execution("a").is_resident());
        assert_eq!(files(), ["a.exec", "b.exec"]);
        // an eviction, which rewrites nothing the store already holds
        let written = inodes();
        assert!(b.evict().unwrap());
        assert_eq!(files(), ["a.exec", "b.exec"]);
        assert_eq!(inodes(), written);
        // a durable run keeps its resume point in its one file only while
        // it is unfinished
        let spec = WorkflowSpec::sequence(&["Normaliser", "Flaky", "Translator"]);
        let wf = p.build_workflow(&spec).unwrap();
        assert!(p.execute_durable("c", &wf, Some(generate_corpus(2, 1, 20))).is_err());
        assert_eq!(files(), ["a.exec", "b.exec", "c.exec"]);
        assert_eq!(checkpoint(&p, "c").map(|point| point.completed_steps), Some(1));
        p.execute_durable("c", &wf, None).unwrap();
        assert_eq!(files(), ["a.exec", "b.exec", "c.exec"]);
        assert_eq!(checkpoint(&p, "c"), None);
        drop(p);
        // a restart serves every execution from its one file, and the
        // reads' cold loads and evictions write none
        let written = inodes();
        let restarted = platform();
        restarted.attach_store(ProvStore::open(&dir).unwrap(), 1).unwrap();
        for id in ["a", "b", "c"] {
            restarted.execution(id).snapshot().unwrap();
        }
        assert_eq!(files(), ["a.exec", "b.exec", "c.exec"]);
        assert_eq!(inodes(), written);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A service that adds nothing and records the completed step count
    /// the attached store holds for `e` when it is called.
    struct Probe {
        store: Arc<ProvStore>,
        seen: Mutex<Vec<Option<usize>>>,
    }

    impl Service for Probe {
        fn name(&self) -> &str {
            "Probe"
        }

        fn call(&self, _: &mut Document, _: &mut CallContext) -> Result<(), WorkflowError> {
            let header = self.store.header("e").unwrap().expect("stored");
            self.seen.lock().unwrap().push(header.checkpoint.map(|point| point.completed_steps));
            Ok(())
        }
    }

    #[test]
    fn a_skipped_durable_step_stores_its_resume_point_before_the_next_step_runs() {
        use weblab_workflow::services::Flaky;
        let p = platform();
        let dir = tmpstore("skipped");
        p.attach_store(ProvStore::open(&dir).unwrap(), 1).unwrap();
        let probe = Arc::new(Probe { store: p.store().unwrap(), seen: Mutex::new(Vec::new()) });
        p.register_service(Arc::new(Flaky::failing(100)), &[]).unwrap();
        p.register_service(Arc::clone(&probe) as Arc<dyn Service>, &[]).unwrap();
        p.set_fault_policy(FaultPolicy::skipping());
        p.execution("e").enable_live();
        let spec = WorkflowSpec::sequence(&["Normaliser", "Flaky", "Probe"]);
        let wf = p.build_workflow(&spec).unwrap();
        let outcome = p.execute_durable("e", &wf, Some(generate_corpus(3, 1, 20))).unwrap();
        let skipped = |a: &weblab_workflow::AttemptRecord| {
            a.status == weblab_workflow::AttemptStatus::Skipped
        };
        assert_eq!(outcome.attempts.iter().filter(|a| skipped(a)).count(), 1);
        // the skipped step recorded no call and published no epoch, yet its
        // point reached the file before the third step ran
        assert_eq!(*probe.seen.lock().unwrap(), [Some(2)]);
        assert_eq!(checkpoint(&p, "e"), None, "the completed run stores no point");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_daemon_that_cold_loads_an_unfinished_run_keeps_it_resumable() {
        use weblab_workflow::services::Flaky;
        let spec =
            WorkflowSpec::sequence(&["Flaky", "Normaliser", "LanguageExtractor", "Translator"]);
        // registered resources, none of them labelled: no Source row
        let input = || {
            weblab_xml::parse_document(
                "<Resource wl:id=\"weblab://doc/0\"><NativeContent wl:id=\"weblab://src/0\" \
                 id=\"n\">the text is in the language of peace</NativeContent></Resource>",
            )
            .unwrap()
        };
        // `fails` is how many calls the Flaky step fails before it succeeds
        let run = |dir: &std::path::Path, fails: u32| {
            let p = platform();
            p.register_service(Arc::new(Flaky::failing(fails)), &[]).unwrap();
            p.attach_store(ProvStore::open(dir).unwrap(), 1).unwrap();
            p.execution("e").enable_live();
            let wf = p.build_workflow(&spec).unwrap();
            (p.execute_durable("e", &wf, Some(input())).map(drop), p)
        };
        let stored = |p: &Platform| p.store().unwrap().load("e").unwrap().expect("stored");

        // the first step of an unlabelled input aborts: stored at epoch 0,
        // with the point for zero completed steps
        let dir = tmpstore("unfinished");
        let (aborted, p) = run(&dir, 1);
        assert!(aborted.is_err());
        let before = stored(&p);
        assert_eq!(before.snapshot.as_ref().map(|snap| snap.epoch), Some(0));
        assert_eq!(before.checkpoint.as_ref().map(|point| point.completed_steps), Some(0));
        drop(p);

        // a daemon cold-loads it, publishes epoch 1 for a read, and saves
        // that epoch as it evicts it, with the point beside it
        let daemon = platform();
        daemon.register_service(Arc::new(Flaky::failing(0)), &[]).unwrap();
        daemon.attach_store(ProvStore::open(&dir).unwrap(), 1).unwrap();
        assert_eq!(daemon.execution("e").snapshot().unwrap().epoch, 1);
        assert!(daemon.execution("e").evict().unwrap());
        let after = stored(&daemon);
        assert_eq!(after.snapshot.as_ref().map(|snap| snap.epoch), Some(1));
        assert_eq!(after.checkpoint, before.checkpoint);

        // so the run resumes, to the calls, links and document of a run
        // that never failed
        let wf = daemon.build_workflow(&spec).unwrap();
        daemon.execute_durable("e", &wf, None).unwrap();
        assert_eq!(checkpoint(&daemon, "e"), None);
        let clean_dir = tmpstore("uninterrupted");
        let (clean, clean_platform) = run(&clean_dir, 0);
        clean.unwrap();
        let (resumed, clean) = (stored(&daemon), stored(&clean_platform));
        assert_eq!(resumed.trace.calls, clean.trace.calls);
        let xml = |s: &crate::StoredExecution| weblab_xml::to_xml_string(&s.doc.view());
        assert_eq!(xml(&resumed), xml(&clean));
        let graph = |s: crate::StoredExecution| s.snapshot.expect("a snapshot").graph;
        let (resumed, clean) = (graph(resumed), graph(clean));
        assert!(!resumed.links.is_empty());
        assert_same_graph(&resumed, &clean);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&clean_dir);
    }

    #[test]
    fn another_runs_commit_drops_the_resume_point_and_a_resume_is_refused() {
        use weblab_workflow::services::Flaky;
        let p = platform();
        p.register_service(Arc::new(Flaky::failing(100)), &[]).unwrap();
        let dir = tmpstore("dropped");
        p.attach_store(ProvStore::open(&dir).unwrap(), 1).unwrap();
        let wf = p.build_workflow(&WorkflowSpec::sequence(&["Normaliser", "Flaky"])).unwrap();
        assert!(p.execute_durable("e", &wf, Some(generate_corpus(2, 1, 20))).is_err());
        assert!(checkpoint(&p, "e").is_some());

        // a plain run stores its call and drops the point in one save
        p.execute("e", &["LanguageExtractor"]).unwrap();
        assert_eq!(checkpoint(&p, "e"), None);
        let path = std::fs::read_dir(&dir).unwrap().flatten().filter(|e| e.path().is_dir());
        let file = path.flat_map(|shard| std::fs::read_dir(shard.path()).unwrap().flatten());
        let file = file.map(|f| f.path()).next().expect("the execution file");
        let bytes = std::fs::read(&file).unwrap();

        // a resume then has no point to continue from: refused before any
        // service runs, leaving the file as it was
        match p.execute_durable("e", &wf, None) {
            Err(PlatformError::Store(PersistError::Resume(m))) => {
                assert!(m.contains("has no resume point"), "{m}");
            }
            other => panic!("expected the store refusal, got {other:?}"),
        }
        assert_eq!(trace(&p, "e").len(), 2);
        assert_eq!(std::fs::read(&file).unwrap(), bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// LanguageExtractor behind a gate: a call announces itself on
    /// `entered`, waits for `release`, then runs, or fails if `fail`.
    struct Gated {
        entered: Mutex<mpsc::Sender<()>>,
        release: Mutex<mpsc::Receiver<()>>,
        fail: bool,
    }

    impl Service for Gated {
        fn name(&self) -> &str {
            "LanguageExtractor"
        }

        fn call(&self, doc: &mut Document, ctx: &mut CallContext) -> Result<(), WorkflowError> {
            self.entered.lock().unwrap().send(()).unwrap();
            self.release.lock().unwrap().recv().unwrap();
            if self.fail {
                let (service, message) = ("LanguageExtractor".into(), "gated failure".into());
                return Err(WorkflowError::Service { service, message });
            }
            LanguageExtractor.call(doc, ctx)
        }
    }

    /// Run `before`, then the gated LanguageExtractor, on execution `a` of
    /// a platform that keeps one execution resident; while the gated call
    /// waits, ingest `b`, which evicts `a`.
    fn run_evicted_midway(
        p: &Platform,
        before: Workflow,
        fail: bool,
    ) -> Result<ExecutionOutcome, PlatformError> {
        let (entered, on_entry) = mpsc::channel();
        let (release, on_release) = mpsc::channel();
        let gated = Gated { entered: Mutex::new(entered), release: Mutex::new(on_release), fail };
        let workflow = before.then(gated);
        std::thread::scope(|s| {
            let run = s.spawn(|| p.execute_workflow("a", &workflow));
            on_entry.recv().unwrap();
            p.execution("b").ingest(generate_corpus(2, 1, 15));
            assert!(!p.execution("a").is_resident(), "ingesting b evicts a mid-run");
            release.send(()).unwrap();
            run.join().unwrap()
        })
    }

    #[test]
    fn a_run_whose_execution_is_evicted_midway_lands_on_the_stored_calls() {
        let p = platform();
        let dir = tmpstore("midrun");
        p.attach_store(ProvStore::open(&dir).unwrap(), 1).unwrap();
        let a = p.execution("a");
        a.ingest(generate_corpus(3, 1, 20));
        a.execute(&["Normaliser"]).unwrap();
        run_evicted_midway(&p, Workflow::new(), false).unwrap();
        let services = |p: &Platform| -> Vec<String> {
            trace(p, "a").calls.into_iter().map(|c| c.service).collect()
        };
        assert_eq!(services(&p), ["Normaliser", "LanguageExtractor"]);
        let snap = a.snapshot().unwrap();
        assert_eq!(snap.calls, 2);
        assert_same_graph(&snap.graph, &oracle(&p, "a"));

        let cold = platform();
        cold.attach_store(ProvStore::open(&dir).unwrap(), 1).unwrap();
        assert_eq!(services(&cold), ["Normaliser", "LanguageExtractor"]);
        let cold_snap = cold.execution("a").snapshot().unwrap();
        assert_eq!(cold_snap.calls, 2);
        assert_same_graph(&cold_snap.graph, &oracle(&cold, "a"));
        assert_same_graph(&cold_snap.graph, &snap.graph);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_live_run_evicted_midway_stores_no_link_of_a_call_it_does_not_keep() {
        let p = platform();
        let dir = tmpstore("liveahead");
        p.attach_store(ProvStore::open(&dir).unwrap(), 1).unwrap();
        let a = p.execution("a");
        a.enable_live();
        a.ingest(generate_corpus(3, 1, 20));
        // Normaliser's delta is folded before the eviction saves `a`; the
        // run then fails, so the platform keeps neither call
        assert!(run_evicted_midway(&p, Workflow::new().then(Normaliser), true).is_err());
        let restarted = platform();
        restarted.attach_store(ProvStore::open(&dir).unwrap(), 1).unwrap();
        for p in [&p, &restarted] {
            let snap = p.execution("a").snapshot().unwrap();
            assert_eq!((snap.calls, trace(p, "a").len()), (0, 0));
            assert_same_graph(&snap.graph, &oracle(p, "a"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn commits_racing_evictions_lose_no_call() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let p = platform();
        let dir = tmpstore("race");
        p.attach_store(ProvStore::open(&dir).unwrap(), 4).unwrap();
        p.execution("a").ingest(generate_corpus(2, 1, 15));
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    p.execution("a").evict().unwrap();
                }
            });
            for _ in 0..20 {
                p.execute("a", &["Normaliser"]).unwrap();
            }
            done.store(true, Ordering::Relaxed);
        });
        assert_eq!(trace(&p, "a").len(), 20);
        let restarted = platform();
        restarted.attach_store(ProvStore::open(&dir).unwrap(), 4).unwrap();
        assert_eq!(trace(&restarted, "a").len(), 20);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_exchange_cold_loads_an_evicted_execution_and_is_written_through() {
        let p = platform();
        let dir = tmpstore("exchange");
        p.attach_store(ProvStore::open(&dir).unwrap(), 1).unwrap();
        let input = generate_corpus(3, 1, 20);
        p.execution("a").ingest(input.clone());
        p.execution("b").ingest(generate_corpus(2, 1, 15));
        let a = p.execution("a");
        assert!(!a.is_resident());
        // the remote side runs each service on its own copy and returns it
        let mut remote = input;
        let mut respond = |service: &dyn Service, time| {
            service.call(&mut remote, &mut CallContext::new(service.name(), time)).unwrap();
            weblab_xml::to_xml_string(&remote.view())
        };
        let call = a.record_exchange("Normaliser", 1, &respond(&Normaliser, 1)).unwrap();
        assert!(a.is_resident() && !call.produced.is_empty());
        a.record_exchange("LanguageExtractor", 2, &respond(&LanguageExtractor, 2)).unwrap();
        let snap = a.snapshot().unwrap();
        assert_eq!(snap.calls, 2);
        assert!(!snap.graph.links.is_empty());
        assert_same_graph(&snap.graph, &oracle(&p, "a"));

        // a restart with no eviction in between serves both calls
        let restarted = platform();
        restarted.attach_store(ProvStore::open(&dir).unwrap(), 1).unwrap();
        let cold = restarted.execution("a").snapshot().unwrap();
        assert_eq!((cold.calls, trace(&restarted, "a").len()), (2, 2));
        assert_same_graph(&cold.graph, &snap.graph);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_fresh_platform_serves_a_previous_platforms_store() {
        let dir = tmpstore("restart");
        let (before_epoch, before_links) = {
            let p = platform();
            p.attach_store(ProvStore::open(&dir).unwrap(), 4).unwrap();
            let exec = p.execution("e");
            exec.ingest(generate_corpus(3, 2, 25));
            exec.execute(&["Normaliser", "Translator"]).unwrap();
            let snap = exec.snapshot().unwrap();
            (snap.epoch, snap.graph.links.clone())
        };
        // simulated restart: new platform, same directory
        let p = platform();
        p.attach_store(ProvStore::open(&dir).unwrap(), 4).unwrap();
        let exec = p.execution("e");
        assert!(exec.exists());
        assert!(!exec.is_resident());
        let snap = exec.snapshot().unwrap();
        assert_eq!(snap.epoch, before_epoch);
        assert_eq!(snap.graph.links, before_links);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unexecuted_executions_serve_source_only_snapshots() {
        let p = platform();
        let exec = p.execution("e");
        exec.ingest(generate_corpus(2, 1, 15));
        let snap = exec.snapshot().unwrap();
        assert_eq!(snap.calls, 0);
        assert!(snap.epoch >= 1);
        assert!(snap.graph.links.is_empty());
        // acquisition resources are already queryable: each is its own why
        for s in &snap.graph.sources {
            match exec.query(&ProvQuery::Why { uri: s.uri.clone() }).unwrap() {
                QueryAnswer::Why(w) => {
                    assert!(w.links.is_empty());
                    assert!(w.resources.contains(&s.uri));
                }
                other => panic!("unexpected answer {other:?}"),
            }
        }
    }

    /// A 40-native corpus, as perfbench's serve-resident writes ingest,
    /// stamped by the five-service media pipeline as execution `e`, run
    /// live or not.
    fn media_run(live: bool) -> Platform {
        use weblab_workflow::services::{EntityExtractor, Tokeniser};
        let p = platform();
        p.register_service(Arc::new(Tokeniser), &[]).unwrap();
        p.register_service(Arc::new(EntityExtractor), &[]).unwrap();
        p.ingest("e", generate_corpus(7, 40, 40));
        if live {
            p.execution("e").enable_live();
        }
        let pipeline = [
            "Normaliser",
            "LanguageExtractor",
            "Translator",
            "Tokeniser",
            "EntityExtractor",
        ];
        p.execute("e", &pipeline).unwrap();
        p
    }

    #[test]
    fn a_kept_stamped_document_holds_at_most_100_bytes_per_node() {
        let (bytes, nodes) = media_run(false)
            .execution("e")
            .with_kept(|doc, _| (doc.heap_bytes(), doc.node_count()))
            .unwrap();
        assert!(nodes > 900, "the pipeline stamped {nodes} nodes");
        assert!(bytes <= 100 * nodes, "{bytes} B for {nodes} nodes: {} B/node", bytes / nodes);
    }

    #[test]
    fn a_run_leaves_an_index_of_at_most_128_bytes_per_resource_and_no_spare_capacity() {
        for live in [false, true] {
            // a live run's folds are settled when it commits, a batch run's
            // one fold by the refresh that publishes it
            let snap = media_run(live).execution("e").snapshot().unwrap();
            let (bytes, resources) = (snap.index.heap_bytes(), snap.index.resource_count());
            assert!(resources > 300, "the pipeline registered {resources} resources");
            assert!(
                bytes <= 128 * resources,
                "{bytes} B for {resources} resources: {} B/resource (live {live})",
                bytes / resources
            );
            assert_eq!(
                snap.heap_bytes(),
                EpochSnapshot::clone(&snap).heap_bytes(),
                "the folds left spare capacity (live {live})"
            );
        }
    }
}
