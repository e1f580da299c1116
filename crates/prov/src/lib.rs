//! # weblab-prov — the WebLab PROV provenance model (core contribution)
//!
//! Reproduction of the core of *"WebLab PROV: Computing fine-grained
//! provenance links for XML artifacts"* (Amann, Constantin, Caron, Giroux —
//! EDBT 2013):
//!
//! * [`MappingRule`] — declarative data-dependency rules
//!   `ϕ_S(x̄) ⇒ ϕ_T(x̄)` between XPath patterns (Definition 5);
//! * [`join_tables`] — the algebraic semantics
//!   `M(d,d') = π(ρ R_S(d) ⋈ ρ R_T(d'))` of Definition 8;
//! * [`service_call_provenance`] — the per-call restriction of Definition 9;
//! * [`ProvenanceGraph`] — the labelled dependency DAG of Definition 3
//!   (the Source/Provenance tables of Figure 2);
//! * [`infer_provenance`] — the Section 4 evaluation strategies
//!   ([`Strategy::StateReplay`], [`Strategy::TemporalRewrite`],
//!   [`Strategy::GroupedSinglePass`]) plus inherited-provenance inference
//!   ([`InheritMode`]);
//! * [`skolem`] — the Section 5 aggregation mappings;
//! * [`storage`] — compact (interned, grouped-adjacency) graph storage;
//! * [`index`] — read-optimized reachability index (ancestor-set
//!   encoding) answering why-provenance ([`WhyProvenance`]),
//!   depth-limited lineage, impact analysis and common origins, and the
//!   epoch snapshots the query service serves from;
//! * [`rank`](mod@rank) — spreading-activation ranked analytics (bounded top-k
//!   relevance over the index) and traversal-free aggregate summaries;
//! * [`live`] — per-run producers of per-call provenance deltas
//!   ([`LiveProvenance`]), fed by the orchestrator's call-completion hook
//!   and folded into an [`EpochSnapshot`];
//! * [`views`] — provenance views over composite service modules;
//! * parallel-execution support: control-flow channels on call records
//!   ([`CallRecord::channel`], [`channels_compatible`]) with visibility
//!   filtering in every strategy (the Section 8 extension).
//!
//! ```
//! use weblab_prov::{infer_provenance, EngineOptions, paper_example};
//!
//! let (doc, trace, rules) = paper_example::build();
//! let graph = infer_provenance(&doc, &trace, &rules, &EngineOptions::default());
//! // the Translator's output depends on the Normaliser's TextMediaUnit:
//! assert!(graph.dependencies_of("r8").contains(&"r4"));
//! assert!(graph.is_acyclic());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algebra;
mod cache;
mod engine;
mod executor;
mod graph;
pub mod index;
pub mod live;
pub mod paper_example;
pub mod rank;
pub mod replay;
mod rule;
mod ruleset;
pub mod skolem;
pub mod storage;
mod trace;
pub mod views;

pub use algebra::{join_tables, join_tables_where, JoinAlgorithm, ProvLink};
pub use cache::PatternCache;
pub use engine::{
    document_state_provenance, filter_links_by_channel, infer_links_since,
    infer_links_since_cached, infer_provenance, propagate_inherited,
    service_call_provenance, EngineOptions, InheritMode, Strategy,
};
pub use executor::{run_units, Parallelism};
pub use index::{EpochSnapshot, ReachabilityIndex, WhyProvenance};
pub use rank::{
    format_micro, micro_from_f64, rank, summary, BlastRadius, GraphSummary, OriginCluster,
    QueryOpts, RankDirection, RankedEntry, ServiceInfluence,
};
pub use replay::dirty_cone;
pub use live::{LiveDelta, LiveProvenance};
pub use graph::{ProvenanceGraph, SourceEntry};
pub use rule::{MappingRule, RuleError};
pub use ruleset::RuleSet;
pub use trace::{channels_compatible, CallRecord, ExecutionTrace};
