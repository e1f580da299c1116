//! The assembled WebLab PROV platform (Figure 5) and its Request Manager.
//!
//! [`Platform`] wires the Recorder, Resource Repository, Execution Trace
//! store, Service Catalog and Mapper together, with an optional disk-backed
//! [`ProvStore`] behind them.
//! Per-execution behaviour is exposed through [`Platform::execution`],
//! which returns an [`ExecutionHandle`] — the façade the CLI and the
//! `weblab serve` query service are written against. The handle answers
//! reachability queries from a published [`EpochSnapshot`] (a graph +
//! [`ReachabilityIndex`] pair, the execution's one graph and link store,
//! which every committed live delta and every refresh advances by one
//! epoch), so readers never wait for inference and never re-walk the edge
//! list; a snapshot a reader holds never changes under it.
//!
//! The original per-execution method sprawl (`provenance_graph`,
//! `dependencies_of`, …) is gone: the handle is the one query surface,
//! and with it the v2 protocol's ranked analytics
//! ([`ExecutionHandle::rank`], [`ExecutionHandle::summary`]).

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use std::sync::{Mutex, PoisonError, RwLock};
use weblab_obs::{Counter, Gauge};
use weblab_prov::{
    dirty_cone, CallRecord, EngineOptions, EpochSnapshot, GraphSummary, LiveDelta,
    LiveProvenance, ProvenanceGraph, QueryOpts, RankDirection, RankedEntry, ReachabilityIndex,
};
use weblab_rdf::{QueryEngine, Solution, SparqlError};
use weblab_workflow::{
    next_time, ExecutionOutcome, FaultPolicy, Orchestrator, ProofMode, ReplayOutcome, Service,
    Workflow, WorkflowError,
};
use weblab_xml::Document;

use crate::catalog::{CatalogError, ServiceCatalog};
use crate::mapper::{Mapper, MapperError, MapperStrategy};
use crate::query::{prov_store, ProvQuery, QueryAnswer};
use crate::recorder::{Recorder, RecorderError};
use crate::repository::ResourceRepository;
use crate::store::{PersistError, ProvStore, ResumePoint};
use crate::trace_store::TraceStore;

/// Executions evicted from residency to the attached store.
static EVICTIONS: Counter = Counter::new("store.evictions");
/// Executions currently resident in memory (store attached only).
static RESIDENT: Gauge = Gauge::new("store.resident");
/// Live deltas that copied their execution's snapshot before folding in,
/// because a reader still held the epoch being advanced.
static SNAPSHOT_COPIES: Counter = Counter::new("platform.snapshot.copies");

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
    /// Recording failed.
    Recorder(RecorderError),
    /// Provenance materialisation failed.
    Mapper(MapperError),
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
            PlatformError::Mapper(e) => write!(f, "{e}"),
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

impl From<MapperError> for PlatformError {
    fn from(e: MapperError) -> Self {
        PlatformError::Mapper(e)
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
    repository: Arc<ResourceRepository>,
    traces: Arc<TraceStore>,
    recorder: Recorder,
    catalog: RwLock<ServiceCatalog>,
    services: RwLock<HashMap<String, Arc<dyn Service>>>,
    mapper: Mapper,
    fault: RwLock<FaultPolicy>,
    /// Executions in live mode: each of their runs folds one delta per
    /// committed call into the published snapshot. A flag survives
    /// eviction, and a cold load sets it from the stored snapshot.
    live: RwLock<HashSet<String>>,
    /// Per-execution reachability index state backing [`ExecutionHandle`]
    /// queries and the `weblab serve` daemon.
    index_states: RwLock<HashMap<String, Arc<IndexState>>>,
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

/// Per-execution epoch/snapshot machinery around the execution's one
/// [`EpochSnapshot`], the only graph the platform caches. Readers clone an
/// `Arc` of it and query that epoch for as long as they hold it. Every
/// live delta and every refresh folds into the snapshot in place through
/// [`Arc::make_mut`], under the write lock; only while a reader still
/// holds the epoch being advanced does the fold copy it first (counted
/// under `platform.snapshot.copies`). Lock order is *refresh, then
/// snapshot*: a refresh computes its delta before taking the write lock. A
/// run's producer sits behind a mutex only its call hook ever locks.
struct IndexState {
    snapshot: RwLock<Arc<EpochSnapshot>>,
    /// Serialises refreshes of a stale snapshot, so readers racing on one
    /// publish a single epoch and run inference once between them.
    refresh: Mutex<()>,
    /// Epoch-keyed query engine over the published graph's PROV-O export,
    /// built lazily on the first SPARQL query of an epoch and shared by
    /// the rest — carrying the epoch's plan cache with it.
    engine: Mutex<Option<(u64, Arc<QueryEngine>)>>,
}

impl IndexState {
    fn new() -> Self {
        IndexState {
            snapshot: RwLock::new(Arc::new(EpochSnapshot {
                // `new` counts under `prov.index.builds`: one build per
                // execution index, maintained incrementally afterwards.
                index: ReachabilityIndex::new(),
                ..EpochSnapshot::empty()
            })),
            refresh: Mutex::new(()),
            engine: Mutex::new(None),
        }
    }

    fn published(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&self.snapshot.read().expect("lock poisoned"))
    }

    /// Fold a delta into the snapshot as the next epoch
    /// ([`EpochSnapshot::fold`]), bringing it to `calls` folded calls, and
    /// return the result. Once epoch 1 is published, an empty delta that
    /// advances no call is a no-op; the first fold always publishes.
    fn apply_delta(&self, delta: &LiveDelta, calls: usize) -> Arc<EpochSnapshot> {
        let mut slot = self.snapshot.write().expect("lock poisoned");
        if slot.epoch > 0 && delta.is_empty() && calls <= slot.calls {
            return Arc::clone(&slot);
        }
        if Arc::get_mut(&mut slot).is_none() {
            SNAPSHOT_COPIES.inc();
        }
        Arc::make_mut(&mut slot).fold(delta, calls);
        Arc::clone(&slot)
    }

    /// Publish a rebuilt snapshot: a cold load's, at its *exact* persisted
    /// epoch (serve responses embed the epoch, so a cold-loaded execution
    /// must answer with the epoch and graph row order it was saved at to
    /// stay byte-identical with the resident path), or a failed live run's.
    /// Skipped when the published one is as far along in epoch and calls.
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
        let repository = Arc::new(ResourceRepository::new());
        let traces = Arc::new(TraceStore::new());
        Platform {
            recorder: Recorder {
                repository: Arc::clone(&repository),
                traces: Arc::clone(&traces),
            },
            repository,
            traces,
            catalog: RwLock::new(ServiceCatalog::new()),
            services: RwLock::new(HashMap::new()),
            mapper,
            fault: RwLock::new(FaultPolicy::default()),
            live: RwLock::new(HashSet::new()),
            index_states: RwLock::new(HashMap::new()),
            store: RwLock::new(None),
        }
    }

    /// Replace the fault-tolerance policy applied to every subsequent
    /// execution (default: abort on first failure, after rollback).
    pub fn set_fault_policy(&self, fault: FaultPolicy) {
        *self.fault.write().expect("lock poisoned") = fault;
    }

    /// Access the underlying Recorder (e.g. for out-of-process exchanges).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Access the catalog (read lock).
    pub fn catalog_text(&self) -> String {
        self.catalog.read().expect("lock poisoned").to_text()
    }

    /// Register a service implementation together with its catalog entry
    /// (endpoint/signature defaults plus its mapping rules `M(s)`).
    pub fn register_service(
        &self,
        service: Arc<dyn Service>,
        rules: &[&str],
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
        let mut ids = self.repository.execution_ids();
        if let Some(ss) = self.store_state() {
            for id in ss.store.execution_ids() {
                if !ids.contains(&id) {
                    ids.push(id);
                }
            }
            ids.sort();
        }
        ids
    }

    /// Ingest an initial document as a new execution. With a store
    /// attached the document is persisted best-effort right away (the
    /// write-through on the next execution repeats it durably).
    pub fn ingest(&self, exec_id: &str, doc: Document) {
        let _ = self.commit(exec_id, &[], doc);
    }

    /// Execute a sequential workflow (a sequence of registered service
    /// names) over a stored execution's document, recording every call.
    pub fn execute(&self, exec_id: &str, steps: &[&str]) -> Result<(), PlatformError> {
        self.execute_spec(exec_id, &WorkflowSpec::sequence(steps))
    }

    /// Execute a [`WorkflowSpec`] — possibly containing parallel blocks —
    /// over a stored execution's document. Branch calls are recorded with
    /// their control-flow channels, which the Mapper's strategies respect
    /// during inference.
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
    /// step (`weblab run --store`): after each completed top-level step the
    /// run so far is committed, written through and recorded as the resume
    /// point, which is cleared when the run completes. A failed run stays
    /// at its last durable state, in memory and on disk alike.
    ///
    /// `input` starts a new execution from that document, writing the
    /// point for zero steps before the ingest's first save. `None` resumes
    /// the stored execution from its point, which must name this
    /// workflow's steps and witness the stored log's call count.
    pub fn execute_durable(
        &self,
        exec_id: &str,
        workflow: &Workflow,
        input: Option<Document>,
    ) -> Result<ExecutionOutcome, PlatformError> {
        let refuse = |message: String| PlatformError::Store(PersistError::Resume(message));
        let ss = self
            .store_state()
            .ok_or_else(|| refuse("a durable run needs an attached store".into()))?;
        let step_names = workflow.step_names();
        let point = match input {
            Some(doc) => {
                if self.execution(exec_id).exists() {
                    return Err(PlatformError::ExecutionExists(exec_id.to_string()));
                }
                let point = ResumePoint {
                    completed_steps: 0,
                    next_time: next_time(&doc),
                    calls: 0,
                    step_names,
                };
                ss.store.save_resume_point(exec_id, &point)?;
                self.commit(exec_id, &[], doc)?;
                point
            }
            None => {
                let point = ss.store.resume_point(exec_id)?.ok_or_else(|| {
                    refuse(format!("execution {exec_id:?} has no resume point: its run finished"))
                })?;
                if point.step_names != step_names {
                    return Err(refuse(format!(
                        "execution {exec_id:?} was run by a different workflow ({:?}, not {:?})",
                        point.step_names, step_names
                    )));
                }
                self.ensure_resident(exec_id)?;
                let logged = self.traces.call_count(exec_id);
                if point.calls != logged {
                    return Err(refuse(format!(
                        "the resume point of {exec_id:?} witnesses {} call(s) but its log holds \
                         {logged}: resuming would re-run a stored step over its own output",
                        point.calls
                    )));
                }
                point
            }
        };
        let outcome = self.drive(exec_id, workflow, Some(&point))?;
        ss.store.clear_resume_point(exec_id)?;
        Ok(outcome)
    }

    /// The one code path that runs a pipeline and maintains its provenance:
    /// it runs `workflow` over the kept document, folds each committed call
    /// of a live execution into the published snapshot, and commits the
    /// run. `durable` is the checkpoint: the resume point to start from,
    /// after which every completed top-level step is committed and recorded
    /// as the next point. Without it the run starts after the kept trace
    /// and commits once, when it completes. A failed live run whose deltas
    /// folded calls it does not keep publishes the kept state's graph.
    fn drive(
        &self,
        exec_id: &str,
        workflow: &Workflow,
        durable: Option<&ResumePoint>,
    ) -> Result<ExecutionOutcome, PlatformError> {
        self.ensure_resident(exec_id)?;
        let mut doc = self
            .repository
            .get(exec_id)
            .ok_or_else(|| PlatformError::UnknownExecution(exec_id.to_string()))?;
        let prior = self.traces.get(exec_id).unwrap_or_default();
        let after = |start: u64| prior.calls.last().map_or(start, |last| start.max(last.time + 1));
        let (completed, start) = durable
            .map_or_else(|| (0, after(next_time(&doc))), |p| (p.completed_steps, p.next_time));
        let fault = self.fault.read().expect("lock poisoned").clone();
        let mut orch = Orchestrator::new().with_fault(fault);
        let rules = || self.catalog.read().expect("lock poisoned").rule_set();
        let live = self.live_enabled_impl(exec_id).then(|| self.index_state(exec_id));
        if let Some(state) = &live {
            // Bring the snapshot up to the run's starting document and
            // prior trace (dropping the refresh's hold, so the run's deltas
            // fold in place), then fold one delta per committed call from a
            // producer positioned there, which the orchestrator owns.
            drop(self.refresh(exec_id, false)?);
            let opts = match &self.mapper.strategy {
                MapperStrategy::Native(opts) => *opts,
                MapperStrategy::XQuery(_) => EngineOptions::default(),
            };
            let producer = Mutex::new(LiveProvenance::new(rules(), opts).starting_at(&doc, &prior));
            let (state, base) = (Arc::clone(state), prior.len());
            orch = orch.with_call_hook(Arc::new(move |doc, trace, idx| {
                let mut lp = producer.lock().expect("lock poisoned");
                let delta = lp.observe_call(doc, trace, idx);
                state.apply_delta(&delta, base + lp.calls_seen());
            }));
        }
        // A failed checkpoint stops the checkpoints, not the run; the run
        // then fails with it.
        let (store, mut committed, mut failed) = (durable.and(self.store_state()), 0, None);
        let run = orch.execute_resumable(
            workflow,
            &mut doc,
            start,
            completed,
            &mut |done, doc, outcome, next_time| {
                let (Some(point), Some(ss), None) = (durable, &store, &failed) else {
                    return;
                };
                let point = ResumePoint {
                    completed_steps: done,
                    next_time,
                    calls: prior.len() + outcome.trace.len(),
                    step_names: point.step_names.clone(),
                };
                let saved = self
                    .commit(exec_id, &outcome.trace.calls[committed..], doc.clone())
                    .and_then(|()| Ok(ss.store.save_resume_point(exec_id, &point)?));
                committed = outcome.trace.len();
                failed = saved.err();
            },
        );
        match run.map_err(PlatformError::from).and_then(|outcome| failed.map_or(Ok(outcome), Err)) {
            Ok(outcome) => {
                if durable.is_none() {
                    self.commit(exec_id, &outcome.trace.calls, doc)?;
                }
                Ok(outcome)
            }
            Err(e) => {
                let kept = self.traces.call_count(exec_id);
                if let Some(state) = live.filter(|s| s.published().calls > kept) {
                    // The run folded calls the platform does not keep:
                    // publish the graph of the kept document and trace at
                    // the next epoch, inferred afresh.
                    if let Some(kept_doc) = self.repository.get(exec_id) {
                        let kept_trace = self.traces.get(exec_id).unwrap_or_default();
                        let graph = self.mapper.materialize(&kept_doc, &kept_trace, &rules())?;
                        state.restore(EpochSnapshot {
                            epoch: state.published().epoch + 1,
                            calls: kept,
                            index: ReachabilityIndex::from_graph(&graph),
                            graph,
                        });
                    }
                }
                Err(e)
            }
        }
    }

    /// Keep an execution's progress: its new calls into the trace store,
    /// its document into the repository, then write it through the attached
    /// store and evict past the residency bound.
    fn commit(&self, exec_id: &str, calls: &[CallRecord], doc: Document) -> Result<(), PlatformError> {
        for call in calls {
            self.traces.record(exec_id, call.clone());
        }
        self.repository.put(exec_id, doc);
        let saved = self.persist_through(exec_id);
        match self.store_state() {
            Some(ss) => self.evict_excess(&ss, exec_id).and(saved),
            None => saved,
        }
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
        self.commit(new_id, &replayed.outcome.trace.calls, changed)?;
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
        self.ensure_resident(prior_id)?;
        let prior_doc = self
            .repository
            .get(prior_id)
            .ok_or_else(|| PlatformError::UnknownExecution(prior_id.to_string()))?;
        let prior_trace = self.traces.get(prior_id).unwrap_or_default();
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
        let snap = self.snapshot_impl(prior_id)?;
        // The published snapshot's links may omit containment (inherited)
        // provenance — a fragment's non-anchor resources (a unit's
        // TextContent) would then have no link to the changed source and
        // their consumers would be spliced stale.
        let rules = self.catalog.read().expect("lock poisoned").rule_set();
        let inherit_graph = weblab_prov::infer_provenance(
            &prior_doc,
            &prior_trace,
            &rules,
            &EngineOptions {
                inherit: weblab_prov::InheritMode::PatternRewrite,
                ..EngineOptions::default()
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

    /// Get-or-create the index state of an execution.
    fn index_state(&self, exec_id: &str) -> Arc<IndexState> {
        if let Some(state) = self.index_states.read().expect("lock poisoned").get(exec_id) {
            return Arc::clone(state);
        }
        Arc::clone(
            self.index_states
                .write()
                .expect("lock poisoned")
                .entry(exec_id.to_string())
                .or_insert_with(|| Arc::new(IndexState::new())),
        )
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
        for id in self.repository.execution_ids() {
            self.touch_lru(&ss, &id);
        }
        *self.store.write().expect("lock poisoned") = Some(Arc::clone(&ss));
        self.evict_excess(&ss, "")
    }

    /// The attached disk store, if any — what the serve daemon's
    /// background compactor folds segments through.
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

    /// Make an execution resident, cold-loading it from the attached store
    /// if it was evicted. A no-op without a store, or when the execution is
    /// neither resident nor stored (callers then report UnknownExecution as
    /// before).
    fn ensure_resident(&self, exec_id: &str) -> Result<(), PlatformError> {
        let Some(ss) = self.store_state() else {
            return Ok(());
        };
        if self.repository.with(exec_id, |_| ()).is_some() {
            self.touch_lru(&ss, exec_id);
            return Ok(());
        }
        let _guard = ss.loading.lock().expect("lock poisoned");
        // Double-check: a concurrent load may have won the lock first.
        if self.repository.with(exec_id, |_| ()).is_some() {
            self.touch_lru(&ss, exec_id);
            return Ok(());
        }
        let Some(mut stored) = ss.store.load(exec_id)? else {
            return Ok(());
        };
        // Rebuild in-memory state. The trace goes in first; the repository
        // entry is the residency signal, so it is published last.
        self.traces.put(exec_id, &stored.trace);
        if stored.snapshot.as_ref().is_some_and(|snap| snap.live) {
            self.enable_live_impl(exec_id);
        }
        self.index_state(exec_id).restore(stored.resume_snapshot());
        self.repository.put(exec_id, stored.doc);
        self.touch_lru(&ss, exec_id);
        drop(_guard);
        self.evict_excess(&ss, exec_id)
    }

    /// Write one execution through to the attached store (document, call
    /// log tail, current epoch snapshot). No-op without a store.
    fn persist_through(&self, exec_id: &str) -> Result<(), PlatformError> {
        let Some(ss) = self.store_state() else {
            return Ok(());
        };
        self.ensure_resident(exec_id)?;
        let doc = self
            .repository
            .get(exec_id)
            .ok_or_else(|| PlatformError::UnknownExecution(exec_id.to_string()))?;
        // Publish only what a live run's start would: with nothing to fold
        // yet, the snapshot stays at epoch 0, so a store-backed execution
        // numbers its epochs as a store-less one does.
        let snap = self.refresh(exec_id, false)?;
        let trace = self.traces.get(exec_id).unwrap_or_default();
        let live = self.live_enabled_impl(exec_id);
        ss.store.save(exec_id, &doc, &trace, &snap.graph, snap.epoch, live)?;
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

    /// Persist an execution and drop its in-memory state. Returns whether
    /// it was resident. The next query cold-loads it transparently.
    fn evict_impl(&self, exec_id: &str) -> Result<bool, PlatformError> {
        let Some(ss) = self.store_state() else {
            return Ok(false);
        };
        let was_resident = self.repository.with(exec_id, |_| ()).is_some();
        if was_resident {
            self.persist_through(exec_id)?;
            self.repository.remove(exec_id);
            self.traces.remove(exec_id);
            self.index_states.write().expect("lock poisoned").remove(exec_id);
            EVICTIONS.inc();
        }
        let mut lru = ss.lru.lock().expect("lock poisoned");
        if let Some(pos) = lru.iter().position(|id| id == exec_id) {
            lru.remove(pos);
            RESIDENT.dec();
        }
        Ok(was_resident)
    }

    fn enable_live_impl(&self, exec_id: &str) {
        self.live.write().expect("lock poisoned").insert(exec_id.to_string());
    }

    /// The live flag of a resident (or once resident) execution; for one
    /// not resident, the stored snapshot's `live:` header, read without a
    /// cold load.
    fn live_enabled_impl(&self, exec_id: &str) -> bool {
        self.live.read().expect("lock poisoned").contains(exec_id)
            || (self.repository.with(exec_id, |_| ()).is_none()
                && self.store_state().is_some_and(|ss| ss.store.stored_live(exec_id)))
    }

    /// A current [`EpochSnapshot`] of the execution — see
    /// [`Platform::refresh`].
    fn snapshot_impl(&self, exec_id: &str) -> Result<Arc<EpochSnapshot>, PlatformError> {
        self.ensure_resident(exec_id)?;
        if self.repository.with(exec_id, |_| ()).is_none() {
            return Err(PlatformError::UnknownExecution(exec_id.to_string()));
        }
        self.refresh(exec_id, true)
    }

    /// The published snapshot if it already covers every recorded call,
    /// else a refresh that folds in what it lacks as one delta. A snapshot
    /// published mid-execution by the live hook runs *ahead* of the trace
    /// store (calls reach it only after orchestration), which is why
    /// freshness is `snapshot.calls >= trace len`, not equality. A reader's
    /// refresh always publishes, so epoch 1 at least; a live run's start
    /// publishes only a delta that adds something.
    fn refresh(&self, exec_id: &str, reader: bool) -> Result<Arc<EpochSnapshot>, PlatformError> {
        let state = self.index_state(exec_id);
        let trace_len = self.traces.call_count(exec_id);
        let fresh = |snap: &EpochSnapshot| snap.epoch > 0 && snap.calls >= trace_len;
        let snap = state.published();
        if fresh(&snap) {
            return Ok(snap);
        }
        drop(snap);
        // A reader that waited for another's refresh finds it published.
        // The mutex guards no data, so a panicked refresh leaves it usable.
        let _refresh = state.refresh.lock().unwrap_or_else(PoisonError::into_inner);
        let snap = state.published();
        if fresh(&snap) {
            return Ok(snap);
        }
        let doc = self
            .repository
            .get(exec_id)
            .ok_or_else(|| PlatformError::UnknownExecution(exec_id.to_string()))?;
        let trace = self.traces.get(exec_id).unwrap_or_default();
        // The delta holds only what the snapshot lacks: the Mapper's links
        // for the calls past it plus the Source rows it does not hold yet.
        let links = if trace.len() > snap.calls {
            let rules = self.catalog.read().expect("lock poisoned").rule_set();
            self.mapper.materialize_since(&doc, &trace, snap.calls, &rules)?
        } else {
            Vec::new()
        };
        let delta = LiveDelta {
            links,
            sources: snap.missing_sources(&doc),
        };
        if !reader && delta.is_empty() && trace.len() <= snap.calls {
            return Ok(snap);
        }
        // Release this reader's hold, so the fold need not copy the epoch.
        drop(snap);
        Ok(state.apply_delta(&delta, trace.len()))
    }
}

/// The per-execution façade over [`Platform`]: ingestion, execution, live
/// maintenance and — via published [`EpochSnapshot`]s — index-backed
/// provenance queries. This is the only surface the `weblab serve` query
/// service touches.
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
        self.platform.repository.with(&self.id, |_| ()).is_some()
            || self
                .platform
                .store_state()
                .is_some_and(|ss| ss.store.contains(&self.id))
    }

    /// Whether the execution is resident in memory right now (always true
    /// without an attached store, for executions that exist).
    pub fn is_resident(&self) -> bool {
        self.platform.repository.with(&self.id, |_| ()).is_some()
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
    /// per-epoch [`QueryEngine`] plan cache.
    pub fn query_on(
        &self,
        snap: &Arc<EpochSnapshot>,
        q: &ProvQuery,
    ) -> Result<QueryAnswer, PlatformError> {
        let engine = || self.platform.index_state(&self.id).engine_for(snap);
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
    use weblab_rdf::vocab::PROV_NS;
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
        let doc = p.repository.get(id).unwrap();
        let trace = p.traces.get(id).unwrap_or_default();
        let rules = p.catalog.read().unwrap().rule_set();
        p.mapper.materialize(&doc, &trace, &rules).unwrap()
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
        let state = p.index_state("e");
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
        assert_eq!(p.index_state("e").published().calls, 1);
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
        let trace = p.traces.get("e").unwrap();
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
        let trace = p.traces.get("e").unwrap();
        let services: Vec<&str> = trace.calls.iter().map(|c| c.service.as_str()).collect();
        assert_eq!(services, vec!["Normaliser", "Flaky"]);
        // and the rolled-back attempts left no probes behind
        let doc = p.repository.get("e").unwrap();
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
        let live = p.index_state("e").published();
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
        let published = p.index_state("e").published();
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
        let live = p.index_state("e").published();
        assert_same_graph(&live.graph, &oracle(&p, "e"));
        assert_same_graph(&exec.graph().unwrap(), &live.graph);
        let trace = p.traces.get("e").unwrap();
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
        let live = p.index_state("e").published();
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
        assert_eq!(p.repository.execution_ids(), vec!["c"]);
        assert_eq!(p.executions(), vec!["a", "b", "c"]);
        // touching an evicted one swaps it in and the old resident out
        let g = p.execution("a").graph().unwrap();
        assert!(!g.links.is_empty());
        assert_eq!(p.repository.execution_ids(), vec!["a"]);
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
        let live = p.index_state("e").published();
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
        assert_eq!(p.index_state("e").published().epoch, 0);
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
        let doc = p.repository.get("e").unwrap();
        let trace = p.traces.get("e").unwrap();
        let snap = p.index_state("e").published();
        assert_eq!((trace.len(), snap.calls), (2, 2));
        assert_eq!(snap.epoch, 3, "the input's Source rows, then one epoch per call");
        assert_same_graph(&snap.graph, &oracle(&p, "e"));
        let point = p.store().unwrap().resume_point("e").unwrap().expect("unfinished");
        assert_eq!((point.completed_steps, point.calls), (2, 2));

        // cold-loaded by a fresh platform: the same document, trace and
        // snapshot
        let cold = platform();
        cold.attach_store(ProvStore::open(&dir).unwrap(), 1).unwrap();
        let cold_snap = cold.execution("e").snapshot().unwrap();
        assert_eq!(
            weblab_xml::to_xml_string(&cold.repository.get("e").unwrap().view()),
            weblab_xml::to_xml_string(&doc.view())
        );
        assert_eq!(cold.traces.get("e").unwrap().calls, trace.calls);
        assert_eq!((cold_snap.epoch, cold_snap.calls), (snap.epoch, snap.calls));
        assert_same_graph(&cold_snap.graph, &snap.graph);
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
}
