//! # weblab-platform — the Figure 5 architecture of WebLab PROV
//!
//! Assembles the reproduction's components into the three-part architecture
//! of the paper's Section 6:
//!
//! 1. **Recording** — the [`Platform`] keeps one record per execution:
//!    its document (the Resource Repository) and its trace of calls (the
//!    Execution Trace) under one lock, so no reader sees a document
//!    without its calls. A run's calls and updated document are committed
//!    together; an out-of-process (SOAP-style) service's serialised
//!    response goes through the same commit after the Recorder's XML diff
//!    merges its new fragments ([`ExecutionHandle::record_exchange`]).
//!    Each execution's PROV-O export makes its trace SPARQL-queryable: it
//!    gives the activity, agent and start time of every call that
//!    generated a resource. The disk-backed [`ProvStore`] keeps executions
//!    across processes, for the daemon and CLI runs alike.
//! 2. **Graph construction** — the [`ServiceCatalog`] holds per-service
//!    endpoints, signatures and mapping rules; the [`Mapper`] combines
//!    catalog rules with the trace and the final document to materialise
//!    the provenance graph, through either the native engine or compiled
//!    XQuery.
//! 3. **Request management** — one code path runs every pipeline, the
//!    daemon's and the CLI's ([`Platform::execute_durable`] adds per-step
//!    resume points), and one function computes every replay
//!    ([`Platform::recompute`]). Each execution, behind the
//!    [`ExecutionHandle`] façade, caches one graph, its published epoch
//!    snapshot and reachability index, which is also its only link store:
//!    a live run folds one delta per committed call into it, a stale one
//!    asks the Mapper only for the calls it lacks, and structured queries
//!    ([`ProvQuery`]) answer from the index without re-walking edge lists.
//!
//! ```
//! use std::sync::Arc;
//! use weblab_platform::{Mapper, Platform};
//! use weblab_workflow::generator::generate_corpus;
//! use weblab_workflow::services::Normaliser;
//!
//! let p = Platform::new(Mapper::native());
//! p.register_service(
//!     Arc::new(Normaliser),
//!     &["//NativeContent[$x := @id] => //TextMediaUnit[@origin = $x]"],
//! ).unwrap();
//! let exec = p.execution("exec-1");
//! exec.ingest(generate_corpus(1, 1, 20));
//! exec.execute(&["Normaliser"]).unwrap();
//! let graph = exec.graph().unwrap();
//! assert!(!graph.links.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalog;
mod mapper;
mod platform;
pub mod query;
mod recorder;
pub mod store;

pub use catalog::{CatalogError, ServiceCatalog, ServiceEntry, ServiceRules};
pub use mapper::{Mapper, MapperError, MapperStrategy};
pub use platform::{
    ExecutionHandle, Platform, PlatformError, SpecStep, WorkflowSpec,
};
pub use query::{ProvQuery, QueryAnswer, QueryOpts, RankDirection, PROTOCOL_VERSION};
pub use recorder::{merge_exchange, RecorderError};
pub use store::{PersistError, ProvStore, ResumePoint, StoredExecution};
