//! Read-optimized reachability index over provenance graphs.
//!
//! The query module answers why-provenance, lineage and impact questions by
//! walking the raw edge list — fine for one-shot CLI runs, wasteful for a
//! long-running query service where the same graph is asked thousands of
//! questions. [`ReachabilityIndex`] trades memory for query time:
//!
//! * **Interned adjacency** — URIs are interned once; the out/in neighbour
//!   lists of every resource are index lookups (like
//!   [`CompactGraph`](crate::storage::CompactGraph)), kept in *edge-list
//!   order* so answers are byte-identical to the batch query functions.
//! * **Ancestor-set encoding** — for every resource the full downward
//!   (dependency) and upward (dependent) reachable sets are materialised,
//!   so why-provenance and common-origin queries are set unions and
//!   intersections instead of breadth-first searches.
//! * **Incremental maintenance** — [`ReachabilityIndex::add_link`] extends
//!   both encodings in time proportional to the affected closure rows, so a
//!   live maintainer's per-call deltas never force a rebuild.
//!
//! The index is pinned by the `prov.index.{builds,hits,traversals}`
//! counter family: `builds` counts full index constructions, `hits` counts
//! queries answered from the index, and `traversals` counts full-graph
//! edge-list walks (the paths in [`crate::graph`] and [`crate::query`] the
//! index exists to avoid). A serving layer that routes every query through
//! an index shows `traversals == 0` — the analogue of the
//! `prov.trace.channel_map.builds == 0` guarantee for live maintenance.
//!
//! [`EpochSnapshot`] bundles an index with the graph it was built from and
//! a monotone epoch, the unit of the serving layer's copy-on-write scheme:
//! every committed delta advances the published snapshot by one epoch, and
//! readers query whichever snapshot they hold without blocking ingestion.

use std::collections::{BTreeSet, HashMap, HashSet};

use weblab_obs::Counter;
use weblab_xml::{CallLabel, NodeId};

use crate::algebra::ProvLink;
use crate::graph::{ProvenanceGraph, SourceEntry};
use crate::query::WhyProvenance;

/// Full index constructions (initial builds and rebuild-from-scratch).
static INDEX_BUILDS: Counter = Counter::new("prov.index.builds");
/// Queries answered from an index (no edge-list walk).
static INDEX_HITS: Counter = Counter::new("prov.index.hits");
/// Full-graph edge-list traversals (the un-indexed query paths).
static INDEX_TRAVERSALS: Counter = Counter::new("prov.index.traversals");
/// Links merged into indexes incrementally (delta maintenance).
static INDEX_LINKS: Counter = Counter::new("prov.index.links");

/// Record one full-graph traversal. Called by the edge-list query paths in
/// [`crate::graph`] and [`crate::query`] so tests and the serving layer can
/// pin their absence.
pub(crate) fn record_traversal() {
    INDEX_TRAVERSALS.inc();
}

/// A read-optimized reachability index over a provenance graph's edges and
/// Source table. See the module docs for the encoding.
#[derive(Debug, Clone, Default)]
pub struct ReachabilityIndex {
    /// Interned URI strings.
    uris: Vec<String>,
    /// Node of each interned resource (for [`ProvLink`] reconstruction).
    nodes: Vec<NodeId>,
    /// URI → interned id.
    ids: HashMap<String, u32>,
    /// Outgoing adjacency, sorted by `(node, uri)` — edge-list order.
    deps: Vec<Vec<u32>>,
    /// Incoming adjacency, sorted by `(node, uri)` — edge-list order.
    rdeps: Vec<Vec<u32>>,
    /// Downward closure: every resource reachable along dependency links.
    down: Vec<BTreeSet<u32>>,
    /// Upward closure: every resource that can reach this one.
    up: Vec<BTreeSet<u32>>,
    /// Label of each labelled resource (first registration wins, like
    /// [`ProvenanceGraph::label_of`]).
    labels: HashMap<String, CallLabel>,
    /// Distinct edges.
    edges: usize,
}

impl ReachabilityIndex {
    /// An empty index. Counts as one build: constructing an index (and then
    /// feeding it deltas) is the unit the `prov.index.builds` counter pins.
    pub fn new() -> Self {
        INDEX_BUILDS.inc();
        ReachabilityIndex::default()
    }

    /// Build from a materialised graph — Source table and edges together.
    pub fn from_graph(graph: &ProvenanceGraph) -> Self {
        let mut idx = ReachabilityIndex::new();
        idx.add_sources(&graph.sources);
        for l in &graph.links {
            idx.add_link(l);
        }
        idx
    }

    fn intern(&mut self, uri: &str, node: NodeId) -> u32 {
        if let Some(&id) = self.ids.get(uri) {
            return id;
        }
        let id = self.uris.len() as u32;
        self.uris.push(uri.to_string());
        self.nodes.push(node);
        self.deps.push(Vec::new());
        self.rdeps.push(Vec::new());
        self.down.push(BTreeSet::new());
        self.up.push(BTreeSet::new());
        self.ids.insert(uri.to_string(), id);
        id
    }

    /// The edge-list sort key of an interned resource: links order by
    /// `(node, uri)` first on each side, so adjacency lists sorted by this
    /// key enumerate neighbours exactly as a sorted edge list would.
    fn key(&self, id: u32) -> (NodeId, &str) {
        (self.nodes[id as usize], &self.uris[id as usize])
    }

    /// Absorb Source rows: intern each URI and record its label (idempotent
    /// per URI, first registration wins). The rows themselves live in the
    /// graph's Source table, not here.
    pub fn add_sources(&mut self, sources: &[SourceEntry]) {
        for s in sources {
            self.intern(&s.uri, s.node);
            self.labels
                .entry(s.uri.clone())
                .or_insert_with(|| s.label.clone());
        }
    }

    /// Merge one dependency link, extending adjacency and both closures
    /// incrementally. Returns `false` if the edge was already present.
    ///
    /// Closure maintenance is the classic insert-only rule: everything that
    /// reaches `from` (including `from`) now also reaches `to` and
    /// everything below it; symmetrically for the upward sets. Work is
    /// proportional to the touched closure rows, never to the whole graph.
    pub fn add_link(&mut self, link: &ProvLink) -> bool {
        let from = self.intern(&link.from_uri, link.from);
        let to = self.intern(&link.to_uri, link.to);
        let pos = {
            let key = self.key(to);
            match self.deps[from as usize].binary_search_by(|&c| self.key(c).cmp(&key)) {
                Ok(_) => return false,
                Err(pos) => pos,
            }
        };
        self.deps[from as usize].insert(pos, to);
        let rpos = {
            let key = self.key(from);
            match self.rdeps[to as usize].binary_search_by(|&c| self.key(c).cmp(&key)) {
                Ok(p) => p, // unreachable: deps and rdeps are symmetric
                Err(pos) => pos,
            }
        };
        self.rdeps[to as usize].insert(rpos, from);
        self.edges += 1;
        INDEX_LINKS.inc();
        // closure update: sources = {from} ∪ up(from), sinks = {to} ∪ down(to)
        let mut above: Vec<u32> = self.up[from as usize].iter().copied().collect();
        above.push(from);
        let mut below: Vec<u32> = self.down[to as usize].iter().copied().collect();
        below.push(to);
        for &x in &above {
            self.down[x as usize].extend(below.iter().copied());
        }
        for &y in &below {
            self.up[y as usize].extend(above.iter().copied());
        }
        true
    }

    /// Merge a delta of links, returning how many were new.
    pub fn add_links(&mut self, links: &[ProvLink]) -> usize {
        links.iter().filter(|l| self.add_link(l)).count()
    }

    /// Distinct edges indexed.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Distinct resources interned.
    pub fn resource_count(&self) -> usize {
        self.uris.len()
    }

    /// Label of a resource, if registered.
    pub fn label_of(&self, uri: &str) -> Option<&CallLabel> {
        self.labels.get(uri)
    }

    /// Direct dependencies, identical to
    /// [`ProvenanceGraph::dependencies_of`] on the same edge set — but an
    /// index lookup instead of an edge-list scan.
    pub fn dependencies_of(&self, uri: &str) -> Vec<&str> {
        INDEX_HITS.inc();
        self.ids
            .get(uri)
            .map(|&id| {
                self.deps[id as usize]
                    .iter()
                    .map(|&d| self.uris[d as usize].as_str())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Direct dependents, identical to [`ProvenanceGraph::dependents_of`].
    pub fn dependents_of(&self, uri: &str) -> Vec<&str> {
        INDEX_HITS.inc();
        self.ids
            .get(uri)
            .map(|&id| {
                self.rdeps[id as usize]
                    .iter()
                    .map(|&d| self.uris[d as usize].as_str())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The downward closure of a URI as interned ids, including the root if
    /// it is interned.
    fn down_closure(&self, uri: &str) -> BTreeSet<u32> {
        match self.ids.get(uri) {
            Some(&id) => {
                let mut set = self.down[id as usize].clone();
                set.insert(id);
                set
            }
            None => BTreeSet::new(),
        }
    }

    /// Why-provenance from the ancestor sets: byte-identical to
    /// [`crate::query::why`] on the same graph, with no edge-list walk —
    /// the justifying subgraph's links are exactly the out-edges of the
    /// downward closure (which is closed under dependencies).
    pub fn why(&self, uri: &str) -> WhyProvenance {
        INDEX_HITS.inc();
        let mut resources: BTreeSet<String> = BTreeSet::new();
        resources.insert(uri.to_string());
        let mut links = Vec::new();
        for &u in &self.down_closure(uri) {
            resources.insert(self.uris[u as usize].clone());
            for &v in &self.deps[u as usize] {
                links.push(ProvLink {
                    from: self.nodes[u as usize],
                    from_uri: self.uris[u as usize].clone(),
                    to: self.nodes[v as usize],
                    to_uri: self.uris[v as usize].clone(),
                });
            }
        }
        links.sort();
        links.dedup();
        let mut calls: Vec<CallLabel> = resources
            .iter()
            .filter_map(|r| self.labels.get(r).cloned())
            .collect();
        calls.sort();
        calls.dedup();
        WhyProvenance {
            root: uri.to_string(),
            resources,
            links,
            calls,
        }
    }

    /// Depth-limited lineage, identical to
    /// [`crate::query::lineage_to_depth`]: breadth-first over the adjacency
    /// lists (already in edge-list order), touching only reached rows.
    pub fn lineage(&self, uri: &str, depth: usize) -> Vec<(String, usize)> {
        INDEX_HITS.inc();
        let mut out = vec![(uri.to_string(), 0)];
        let Some(&root) = self.ids.get(uri) else {
            return out;
        };
        let mut seen: HashSet<u32> = HashSet::new();
        seen.insert(root);
        let mut frontier = vec![root];
        for d in 1..=depth {
            let mut next = Vec::new();
            for &u in &frontier {
                for &v in &self.deps[u as usize] {
                    if seen.insert(v) {
                        out.push((self.uris[v as usize].clone(), d));
                        next.push(v);
                    }
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        out
    }

    /// Impact analysis, identical to [`crate::query::impacted_by`]:
    /// breadth-first over the incoming adjacency lists.
    pub fn impacted_by(&self, uri: &str) -> Vec<String> {
        INDEX_HITS.inc();
        let Some(&root) = self.ids.get(uri) else {
            return Vec::new();
        };
        let mut seen: HashSet<u32> = HashSet::new();
        seen.insert(root);
        let mut out = Vec::new();
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            for &v in &self.rdeps[u as usize] {
                if seen.insert(v) {
                    out.push(self.uris[v as usize].clone());
                    queue.push_back(v);
                }
            }
        }
        out
    }

    /// Common origins of two resources: the intersection of the two
    /// downward closures (each including its own root, like the batch
    /// query's why-provenance sets), sorted.
    pub fn common_origins(&self, a: &str, b: &str) -> Vec<String> {
        INDEX_HITS.inc();
        let mut ca: BTreeSet<String> = self
            .down_closure(a)
            .iter()
            .map(|&u| self.uris[u as usize].clone())
            .collect();
        ca.insert(a.to_string());
        let mut cb: BTreeSet<String> = self
            .down_closure(b)
            .iter()
            .map(|&u| self.uris[u as usize].clone())
            .collect();
        cb.insert(b.to_string());
        ca.intersection(&cb).cloned().collect()
    }

    /// Interned id of a URI, if present (rank-module access).
    pub(crate) fn id_of(&self, uri: &str) -> Option<u32> {
        self.ids.get(uri).copied()
    }

    /// URI of an interned id (rank-module access).
    pub(crate) fn uri_of(&self, id: u32) -> &str {
        &self.uris[id as usize]
    }

    /// Outgoing (dependency) neighbours of an interned id, edge-list order.
    pub(crate) fn deps_of_id(&self, id: u32) -> &[u32] {
        &self.deps[id as usize]
    }

    /// Incoming (dependent) neighbours of an interned id, edge-list order.
    pub(crate) fn rdeps_of_id(&self, id: u32) -> &[u32] {
        &self.rdeps[id as usize]
    }

    /// Size of the precomputed downward closure of an id (root excluded).
    pub(crate) fn down_size(&self, id: u32) -> usize {
        self.down[id as usize].len()
    }

    /// Size of the precomputed upward closure of an id (root excluded).
    pub(crate) fn up_size(&self, id: u32) -> usize {
        self.up[id as usize].len()
    }

    /// The label table (rank-module access for per-service aggregation).
    pub(crate) fn label_table(&self) -> &HashMap<String, CallLabel> {
        &self.labels
    }

    /// Expand back to the sorted edge list the index was fed.
    pub fn expand(&self) -> Vec<ProvLink> {
        let mut out = Vec::with_capacity(self.edges);
        for from in 0..self.deps.len() {
            for &to in &self.deps[from] {
                out.push(ProvLink {
                    from: self.nodes[from],
                    from_uri: self.uris[from].clone(),
                    to: self.nodes[to as usize],
                    to_uri: self.uris[to as usize].clone(),
                });
            }
        }
        out.sort();
        out
    }
}

/// A snapshot of one execution's provenance as of a monotone epoch: the
/// materialised graph (for batch-equivalence checks and SPARQL export) plus
/// the reachability index over it.
///
/// This is the unit of the serving layer's concurrency scheme: the platform
/// keeps one `Arc<EpochSnapshot>` per execution and folds every committed
/// delta into it through `Arc::make_mut` — in place when no reader holds
/// it, on a copy when one does. Readers clone the `Arc` and answer from a
/// graph that stays fixed while ingestion keeps moving.
#[derive(Debug, Clone)]
pub struct EpochSnapshot {
    /// Monotone snapshot version (bumped once per published refresh).
    pub epoch: u64,
    /// Committed service calls folded into this snapshot.
    pub calls: usize,
    /// The materialised graph as of `epoch`.
    pub graph: ProvenanceGraph,
    /// The reachability index over exactly that graph.
    pub index: ReachabilityIndex,
}

impl EpochSnapshot {
    /// An empty snapshot at epoch 0 (no calls, no links). A placeholder,
    /// not a built index: it does not tick `prov.index.builds`.
    pub fn empty() -> Self {
        EpochSnapshot {
            epoch: 0,
            calls: 0,
            graph: ProvenanceGraph::default(),
            index: ReachabilityIndex::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{infer_provenance, EngineOptions, InheritMode};
    use crate::paper_example;
    use crate::query;

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

    fn all_uris(g: &ProvenanceGraph) -> Vec<String> {
        let mut uris: Vec<String> = g
            .sources
            .iter()
            .map(|s| s.uri.clone())
            .chain(
                g.links
                    .iter()
                    .flat_map(|l| [l.from_uri.clone(), l.to_uri.clone()]),
            )
            .collect();
        uris.push("not-a-resource".into());
        uris.sort();
        uris.dedup();
        uris
    }

    #[test]
    fn index_answers_match_batch_queries_on_every_resource() {
        let g = graph();
        let idx = ReachabilityIndex::from_graph(&g);
        for uri in all_uris(&g) {
            assert_eq!(
                idx.dependencies_of(&uri),
                g.dependencies_of(&uri),
                "deps of {uri}"
            );
            assert_eq!(
                idx.dependents_of(&uri),
                g.dependents_of(&uri),
                "rdeps of {uri}"
            );
            assert_eq!(idx.why(&uri), query::why(&g, &uri), "why of {uri}");
            for depth in 0..4 {
                assert_eq!(
                    idx.lineage(&uri, depth),
                    query::lineage_to_depth(&g, &uri, depth),
                    "lineage of {uri} at depth {depth}"
                );
            }
            assert_eq!(
                idx.impacted_by(&uri),
                query::impacted_by(&g, &uri),
                "impact of {uri}"
            );
        }
        for a in all_uris(&g) {
            for b in all_uris(&g) {
                assert_eq!(
                    idx.common_origins(&a, &b),
                    query::common_origins(&g, &a, &b),
                    "common origins of {a}/{b}"
                );
            }
        }
    }

    #[test]
    fn incremental_insertion_equals_full_build() {
        let g = graph();
        let full = ReachabilityIndex::from_graph(&g);
        let mut inc = ReachabilityIndex::new();
        inc.add_sources(&g.sources);
        for l in &g.links {
            assert!(inc.add_link(l));
        }
        assert_eq!(inc.expand(), full.expand());
        assert_eq!(inc.expand(), g.links);
        for uri in all_uris(&g) {
            assert_eq!(inc.why(&uri), full.why(&uri));
            assert_eq!(inc.impacted_by(&uri), full.impacted_by(&uri));
        }
        // re-merging the same delta is a no-op
        assert_eq!(inc.add_links(&g.links), 0);
        assert_eq!(inc.edge_count(), g.links.len());
    }

    #[test]
    fn closure_survives_cycles() {
        // provenance graphs are DAGs by construction, but the index must
        // not loop or corrupt its closure if fed one
        fn link(f: (usize, &str), t: (usize, &str)) -> ProvLink {
            ProvLink {
                from: NodeId::from_index(f.0),
                from_uri: f.1.into(),
                to: NodeId::from_index(t.0),
                to_uri: t.1.into(),
            }
        }
        let links = [
            link((1, "a"), (2, "b")),
            link((2, "b"), (3, "c")),
            link((3, "c"), (1, "a")),
        ];
        let mut idx = ReachabilityIndex::new();
        for l in &links {
            idx.add_link(l);
        }
        let mut g = ProvenanceGraph::default();
        g.add_links(links.iter().cloned());
        for u in ["a", "b", "c"] {
            assert_eq!(idx.why(u), query::why(&g, u), "why of {u} on a cycle");
            assert_eq!(idx.impacted_by(u), query::impacted_by(&g, u));
        }
        assert_eq!(idx.common_origins("a", "c"), query::common_origins(&g, "a", "c"));
    }

    #[test]
    fn labels_follow_first_registration() {
        let g = graph();
        let idx = ReachabilityIndex::from_graph(&g);
        for s in &g.sources {
            assert_eq!(idx.label_of(&s.uri), g.label_of(&s.uri));
        }
        assert!(idx.label_of("nope").is_none());
    }

    #[test]
    fn empty_snapshot_is_epoch_zero() {
        let snap = EpochSnapshot::empty();
        assert_eq!(snap.epoch, 0);
        assert_eq!(snap.calls, 0);
        assert!(snap.graph.links.is_empty());
        assert_eq!(snap.index.edge_count(), 0);
    }
}
