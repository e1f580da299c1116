//! The shared provenance query dispatch — one enum for every asker.
//!
//! Before the query service existed, the CLI (`weblab why`, `weblab
//! query`) and the platform each kept their own string-to-behaviour
//! matching. [`ProvQuery`] is the single source of truth both now parse
//! into: the serve protocol's `op` strings, the CLI subcommands and the
//! `ExecutionHandle` API all dispatch through it, and [`QueryAnswer`] is
//! the common result shape they render. Every asker is answered by the
//! same match, [`ProvQuery::answer`], over a [`ReachabilityIndex`]: the
//! daemon passes its pinned snapshot's index, the CLI one it builds for
//! the question.
//!
//! This is **protocol v2** ([`PROTOCOL_VERSION`]): alongside the exact
//! queries of v1 it carries the ranked analytics ops — [`ProvQuery::Rank`]
//! (spreading activation under the shared [`QueryOpts`] envelope) and
//! [`ProvQuery::Summary`] (traversal-free aggregate views). Serve
//! responses stamp `"v": 2` next to the epoch so clients can detect the
//! new answer shapes.

use std::borrow::Borrow;
use std::sync::Arc;

use weblab_prov::{
    rank, GraphSummary, ProvenanceGraph, RankedEntry, ReachabilityIndex, WhyProvenance,
};
use weblab_rdf::{export_prov_into, QueryEngine, Solution, SparqlError, TripleStore};

pub use weblab_prov::{QueryOpts, RankDirection};

/// The query-surface protocol version stamped on every serve response.
pub const PROTOCOL_VERSION: u64 = 2;

/// A structured provenance question about one execution's graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProvQuery {
    /// Why-provenance: the justifying subgraph of a resource.
    Why {
        /// The queried resource URI.
        uri: String,
    },
    /// Upstream lineage limited to a hop depth.
    Lineage {
        /// The queried resource URI.
        uri: String,
        /// Maximum hop distance (0 = just the root).
        depth: usize,
    },
    /// Impact analysis: everything transitively depending on a resource.
    ImpactedBy {
        /// The queried resource URI.
        uri: String,
    },
    /// Shared evidence of two resources.
    CommonOrigins {
        /// First resource URI.
        a: String,
        /// Second resource URI.
        b: String,
    },
    /// A SPARQL SELECT over the execution's PROV-O export.
    Sparql {
        /// The SELECT query text.
        query: String,
    },
    /// Ranked relevance: spreading activation from the seed resources
    /// (v2). See [`weblab_prov::rank`] for the scoring model.
    Rank {
        /// Seed resource URIs (activation 1.0 at hop 0).
        uris: Vec<String>,
        /// Propagation direction: up = ranked impact, down = ranked lineage.
        direction: RankDirection,
        /// The shared limit/budget/decay envelope.
        opts: QueryOpts,
        /// Per-service edge weights in micro-units, `(service, weight)`.
        weights: Vec<(String, u32)>,
    },
    /// Aggregate analytics from index statistics (v2): per-service
    /// influence, common-origin clusters, optional blast radius.
    Summary {
        /// Resource to estimate a blast radius for, if any.
        uri: Option<String>,
    },
}

/// The answer to a [`ProvQuery`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryAnswer {
    /// Answer to [`ProvQuery::Why`].
    Why(WhyProvenance),
    /// Answer to [`ProvQuery::Lineage`]: `(resource, hop distance)` pairs.
    Lineage(Vec<(String, usize)>),
    /// Answer to [`ProvQuery::ImpactedBy`], in breadth-first order.
    ImpactedBy(Vec<String>),
    /// Answer to [`ProvQuery::CommonOrigins`], sorted.
    CommonOrigins(Vec<String>),
    /// Answer to [`ProvQuery::Sparql`].
    Solutions(Vec<Solution>),
    /// Answer to [`ProvQuery::Rank`]: scored entries, best first.
    Ranked(Vec<RankedEntry>),
    /// Answer to [`ProvQuery::Summary`].
    Summary(GraphSummary),
}

impl ProvQuery {
    /// The wire name of this query — the serve protocol's `op` string.
    pub fn op(&self) -> &'static str {
        match self {
            ProvQuery::Why { .. } => "why",
            ProvQuery::Lineage { .. } => "lineage",
            ProvQuery::ImpactedBy { .. } => "impacted-by",
            ProvQuery::CommonOrigins { .. } => "common-origins",
            ProvQuery::Sparql { .. } => "sparql",
            ProvQuery::Rank { .. } => "rank",
            ProvQuery::Summary { .. } => "summary",
        }
    }

    /// Answer from a reachability index, or for SPARQL from a
    /// [`QueryEngine`] over the graph's PROV-O export. Both are asked for
    /// lazily and only by the arm that reads them, so a SPARQL query
    /// builds no index and the other queries build no store. The platform
    /// passes its pinned snapshot's index and the engine it caches per
    /// epoch, so each repeated query text is parsed and planned once.
    pub fn answer<I: Borrow<ReachabilityIndex>>(
        &self,
        index: impl FnOnce() -> I,
        engine: impl FnOnce() -> Arc<QueryEngine>,
    ) -> Result<QueryAnswer, SparqlError> {
        Ok(match self {
            ProvQuery::Why { uri } => QueryAnswer::Why(index().borrow().why(uri)),
            ProvQuery::Lineage { uri, depth } => {
                QueryAnswer::Lineage(index().borrow().lineage(uri, *depth))
            }
            ProvQuery::ImpactedBy { uri } => {
                QueryAnswer::ImpactedBy(index().borrow().impacted_by(uri))
            }
            ProvQuery::CommonOrigins { a, b } => {
                QueryAnswer::CommonOrigins(index().borrow().common_origins(a, b))
            }
            ProvQuery::Sparql { query } => QueryAnswer::Solutions(engine().select(query)?),
            ProvQuery::Rank { uris, direction, opts, weights } => {
                QueryAnswer::Ranked(rank::rank(index().borrow(), uris, *direction, opts, weights))
            }
            ProvQuery::Summary { uri } => {
                QueryAnswer::Summary(rank::summary(index().borrow(), uri.as_deref()))
            }
        })
    }

    /// Answer against a materialised graph — the one-shot CLI path: the
    /// index or the SPARQL engine [`ProvQuery::answer`] asks for is built
    /// from `graph` for this one question.
    pub fn answer_on_graph(&self, graph: &ProvenanceGraph) -> Result<QueryAnswer, SparqlError> {
        self.answer(
            || ReachabilityIndex::from_graph(graph),
            || Arc::new(QueryEngine::new(Arc::new(prov_store(graph)))),
        )
    }
}

/// A fresh store holding the PROV-O export of `graph`, loaded with
/// [`export_prov_into`] — the one way every SPARQL path builds its store.
pub(crate) fn prov_store(graph: &ProvenanceGraph) -> TripleStore {
    let mut store = TripleStore::new();
    export_prov_into(graph, &mut store);
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use weblab_prov::{infer_provenance, paper_example, EngineOptions, EpochSnapshot, InheritMode};

    fn graph() -> ProvenanceGraph {
        let (doc, trace, rules) = paper_example::build();
        infer_provenance(
            &doc,
            &trace,
            &rules,
            &EngineOptions {
                inherit: InheritMode::PatternRewrite,
                ..Default::default()
            },
        )
    }

    /// The engine factory the platform passes, uncached.
    fn engine(graph: &ProvenanceGraph) -> impl FnOnce() -> Arc<QueryEngine> + '_ {
        move || Arc::new(QueryEngine::new(Arc::new(prov_store(graph))))
    }

    fn snapshot(graph: &ProvenanceGraph) -> EpochSnapshot {
        EpochSnapshot {
            epoch: 1,
            calls: 3,
            graph: graph.clone(),
            index: ReachabilityIndex::from_graph(graph),
        }
    }

    #[test]
    fn sparql_parse_errors_surface_from_both_paths() {
        let g = graph();
        let snap = snapshot(&g);
        let q = ProvQuery::Sparql { query: "SELEKT nonsense".into() };
        assert!(q.answer_on_graph(&g).is_err());
        assert!(q.answer(|| &snap.index, engine(&g)).is_err());
    }

    #[test]
    fn op_names_are_the_wire_protocol() {
        assert_eq!(ProvQuery::Why { uri: String::new() }.op(), "why");
        assert_eq!(
            ProvQuery::CommonOrigins { a: String::new(), b: String::new() }.op(),
            "common-origins"
        );
        assert_eq!(
            ProvQuery::Rank {
                uris: Vec::new(),
                direction: RankDirection::Down,
                opts: QueryOpts::default(),
                weights: Vec::new(),
            }
            .op(),
            "rank"
        );
        assert_eq!(ProvQuery::Summary { uri: None }.op(), "summary");
        assert_eq!(PROTOCOL_VERSION, 2);
    }
}
