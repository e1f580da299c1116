//! The shared provenance query dispatch — one enum for every asker.
//!
//! Before the query service existed, the CLI (`weblab why`, `weblab
//! query`) and the platform each kept their own string-to-behaviour
//! matching. [`ProvQuery`] is the single source of truth both now parse
//! into: the serve protocol's `op` strings, the CLI subcommands and the
//! `ExecutionHandle` API all dispatch through it, and [`QueryAnswer`] is
//! the common result shape they render.
//!
//! This is **protocol v2** ([`PROTOCOL_VERSION`]): alongside the exact
//! queries of v1 it carries the ranked analytics ops — [`ProvQuery::Rank`]
//! (spreading activation under the shared [`QueryOpts`] envelope) and
//! [`ProvQuery::Summary`] (traversal-free aggregate views). Serve
//! responses stamp `"v": 2` next to the epoch so clients can detect the
//! new answer shapes.

use std::sync::Arc;

use weblab_prov::query::{self, WhyProvenance};
use weblab_prov::{rank, EpochSnapshot, GraphSummary, ProvenanceGraph, RankedEntry, ReachabilityIndex};
use weblab_rdf::{
    export_prov_into, parse_select, select, QueryEngine, Solution, SparqlError, TripleStore,
};

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

    /// Answer against a materialised graph using the batch query functions
    /// (edge-list traversals) — the one-shot CLI path.
    pub fn answer_on_graph(&self, graph: &ProvenanceGraph) -> Result<QueryAnswer, SparqlError> {
        Ok(match self {
            ProvQuery::Why { uri } => QueryAnswer::Why(query::why(graph, uri)),
            ProvQuery::Lineage { uri, depth } => {
                QueryAnswer::Lineage(query::lineage_to_depth(graph, uri, *depth))
            }
            ProvQuery::ImpactedBy { uri } => {
                QueryAnswer::ImpactedBy(query::impacted_by(graph, uri))
            }
            ProvQuery::CommonOrigins { a, b } => {
                QueryAnswer::CommonOrigins(query::common_origins(graph, a, b))
            }
            ProvQuery::Sparql { query: text } => {
                let q = parse_select(text)?;
                QueryAnswer::Solutions(select(&prov_store(graph), &q))
            }
            // the one-shot path has no index yet: build one for this
            // question. Scores never depend on the build order, so the
            // answer is byte-identical to the serving path's.
            ProvQuery::Rank { uris, direction, opts, weights } => {
                let index = ReachabilityIndex::from_graph(graph);
                QueryAnswer::Ranked(rank::rank(&index, uris, *direction, opts, weights))
            }
            ProvQuery::Summary { uri } => {
                let index = ReachabilityIndex::from_graph(graph);
                QueryAnswer::Summary(rank::summary(&index, uri.as_deref()))
            }
        })
    }

    /// Answer against an epoch snapshot — the serving path. Reachability
    /// and ranked queries answer from the snapshot's index, with no
    /// edge-list traversal. SPARQL goes through `engine`, the
    /// [`QueryEngine`] over the epoch's PROV-O export, which is asked for
    /// only when a SPARQL query needs it: the platform caches one engine
    /// per epoch, so each repeated query text is parsed and planned once.
    pub fn answer_on_snapshot(
        &self,
        snap: &EpochSnapshot,
        engine: impl FnOnce() -> Arc<QueryEngine>,
    ) -> Result<QueryAnswer, SparqlError> {
        Ok(match self {
            ProvQuery::Why { uri } => QueryAnswer::Why(snap.index.why(uri)),
            ProvQuery::Lineage { uri, depth } => {
                QueryAnswer::Lineage(snap.index.lineage(uri, *depth))
            }
            ProvQuery::ImpactedBy { uri } => {
                QueryAnswer::ImpactedBy(snap.index.impacted_by(uri))
            }
            ProvQuery::CommonOrigins { a, b } => {
                QueryAnswer::CommonOrigins(snap.index.common_origins(a, b))
            }
            ProvQuery::Sparql { query: text } => QueryAnswer::Solutions(engine().select(text)?),
            ProvQuery::Rank { uris, direction, opts, weights } => {
                QueryAnswer::Ranked(rank::rank(&snap.index, uris, *direction, opts, weights))
            }
            ProvQuery::Summary { uri } => {
                QueryAnswer::Summary(rank::summary(&snap.index, uri.as_deref()))
            }
        })
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
    use weblab_prov::{
        infer_provenance, paper_example, EngineOptions, InheritMode, ReachabilityIndex,
    };

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
    fn snapshot_answers_equal_graph_answers_for_every_op() {
        let g = graph();
        let snap = snapshot(&g);
        let queries = [
            ProvQuery::Why { uri: "r8".into() },
            ProvQuery::Lineage { uri: "r8".into(), depth: 2 },
            ProvQuery::ImpactedBy { uri: "r3".into() },
            ProvQuery::CommonOrigins { a: "r8".into(), b: "r6".into() },
            ProvQuery::Sparql {
                query: format!(
                    "PREFIX prov: <{}> SELECT ?d ?s WHERE {{ ?d prov:wasDerivedFrom ?s . }}",
                    weblab_rdf::vocab::PROV_NS
                ),
            },
            ProvQuery::Rank {
                uris: vec!["r3".into()],
                direction: RankDirection::Up,
                opts: QueryOpts { limit: 5, budget: 8, decay_micro: 0 },
                weights: vec![("Translator".into(), 250_000)],
            },
            ProvQuery::Summary { uri: Some("r8".into()) },
        ];
        for q in &queries {
            assert_eq!(
                q.answer_on_snapshot(&snap, engine(&g)).unwrap(),
                q.answer_on_graph(&g).unwrap(),
                "op {}",
                q.op()
            );
        }
    }

    #[test]
    fn sparql_parse_errors_surface_from_both_paths() {
        let g = graph();
        let snap = snapshot(&g);
        let q = ProvQuery::Sparql { query: "SELEKT nonsense".into() };
        assert!(q.answer_on_graph(&g).is_err());
        assert!(q.answer_on_snapshot(&snap, engine(&g)).is_err());
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
