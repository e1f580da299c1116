//! Read-optimized reachability index over provenance graphs — the one
//! way this crate answers why-provenance, lineage, impact and
//! common-origin questions.
//!
//! The serving layer asks the same graph thousands of questions, and a
//! one-shot CLI run asks one; both build a [`ReachabilityIndex`] and
//! answer from it. The index trades memory for query time:
//!
//! * **Interned adjacency** — URIs are interned once; the out/in neighbour
//!   lists of every resource are index lookups, kept in *edge-list
//!   order*, so answers enumerate resources exactly as a walk over the
//!   sorted edge list would.
//! * **Ancestor-set encoding** — for every resource the full downward
//!   (dependency) and upward (dependent) reachable sets are materialised,
//!   so why-provenance and common-origin queries are set unions and
//!   intersections instead of breadth-first searches.
//! * **Incremental maintenance** — [`ReachabilityIndex::add_link`] extends
//!   both encodings in time proportional to the affected closure rows, so a
//!   live run's per-call deltas never force a rebuild.
//!
//! The index is pinned by the `prov.index.{builds,hits,traversals}`
//! counter family: `builds` counts full index constructions, `hits` counts
//! queries answered from the index, and `traversals` counts full-graph
//! edge-list scans (the [`ProvenanceGraph::dependencies_of`] and
//! [`ProvenanceGraph::dependents_of`] baselines the index exists to
//! avoid). Every production query path answers from an index, so it shows
//! `traversals == 0` — the analogue of the
//! `prov.trace.channel_map.builds == 0` guarantee for live maintenance.
//!
//! [`EpochSnapshot`] bundles an index with the graph it was built from and
//! a monotone epoch, the unit of the serving layer's copy-on-write scheme:
//! every committed delta advances the published snapshot by one epoch
//! through [`EpochSnapshot::fold`], and readers query whichever snapshot
//! they hold without blocking ingestion.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

use weblab_obs::Counter;
use weblab_xml::{CallLabel, Document, NodeId};

use crate::algebra::ProvLink;
use crate::graph::{ProvenanceGraph, SourceEntry};
use crate::live::LiveDelta;

/// Full index constructions (initial builds and rebuild-from-scratch).
static INDEX_BUILDS: Counter = Counter::new("prov.index.builds");
/// Queries answered from an index (no edge-list walk).
static INDEX_HITS: Counter = Counter::new("prov.index.hits");
/// Full-graph edge-list scans: [`ProvenanceGraph::dependencies_of`] and
/// [`ProvenanceGraph::dependents_of`], kept as the index's baseline (X9).
/// No query path runs one.
static INDEX_TRAVERSALS: Counter = Counter::new("prov.index.traversals");
/// Links merged into indexes incrementally (delta maintenance).
static INDEX_LINKS: Counter = Counter::new("prov.index.links");

/// Record one full-graph traversal. Called by the edge-list scans in
/// [`crate::graph`] so tests and the serving layer can pin their absence.
pub(crate) fn record_traversal() {
    INDEX_TRAVERSALS.inc();
}

/// The *why-provenance* of a resource: every resource and edge reachable
/// from it along dependency links, i.e. the minimal subgraph justifying
/// its existence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WhyProvenance {
    /// The queried resource.
    pub root: String,
    /// All resources in the justification, including the root.
    pub resources: BTreeSet<String>,
    /// The edges of the justifying subgraph.
    pub links: Vec<ProvLink>,
    /// The service calls involved, deduplicated and sorted.
    pub calls: Vec<CallLabel>,
}

/// A read-optimized reachability index over a provenance graph's edges and
/// Source table. See the module docs for the encoding.
///
/// A resource is keyed by its URI alone: the first [`NodeId`] seen for a
/// URI is the one every reconstructed [`ProvLink`] carries. The index
/// therefore assumes each URI names exactly one node, which
/// `Document::register_resource` guarantees by rejecting a duplicate URI.
/// On a hand-built edge set that pairs one URI with two nodes, links that
/// differ only in those nodes collapse into one.
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
    /// Label of each interned resource, if registered (first registration
    /// wins, like [`ProvenanceGraph::label_of`]).
    labels: Vec<Option<CallLabel>>,
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
        self.labels.push(None);
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
            let id = self.intern(&s.uri, s.node);
            self.labels[id as usize].get_or_insert_with(|| s.label.clone());
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
        self.labels[*self.ids.get(uri)? as usize].as_ref()
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

    /// Why-provenance from the ancestor sets, with no edge-list walk: the
    /// justifying subgraph's links are exactly the out-edges of the
    /// downward closure (which is closed under dependencies). An unknown
    /// URI justifies only itself.
    pub fn why(&self, uri: &str) -> WhyProvenance {
        INDEX_HITS.inc();
        let mut resources: BTreeSet<String> = BTreeSet::new();
        resources.insert(uri.to_string());
        let mut links = Vec::new();
        let mut calls = Vec::new();
        for &u in &self.down_closure(uri) {
            resources.insert(self.uris[u as usize].clone());
            calls.extend(self.labels[u as usize].clone());
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
        calls.sort();
        calls.dedup();
        WhyProvenance {
            root: uri.to_string(),
            resources,
            links,
            calls,
        }
    }

    /// Upstream lineage limited to `depth` hops, as (resource, hop
    /// distance) pairs in breadth-first order: breadth-first over the
    /// adjacency lists (already in edge-list order), touching only reached
    /// rows. Depth 0 returns just the root.
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

    /// Impact analysis: every resource that transitively depends on `uri`
    /// (the blast radius of a corrupted input), breadth-first over the
    /// incoming adjacency lists.
    pub fn impacted_by(&self, uri: &str) -> Vec<String> {
        INDEX_HITS.inc();
        let Some(&root) = self.ids.get(uri) else {
            return Vec::new();
        };
        let mut seen: HashSet<u32> = HashSet::new();
        seen.insert(root);
        let mut out = Vec::new();
        let mut queue = VecDeque::from([root]);
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
    /// downward closures, each including its own root (the resource sets
    /// of the two why-provenances), sorted.
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

    /// Every labelled resource's interned id and label, in interning
    /// order (rank-module access for per-service aggregation).
    pub(crate) fn labelled(&self) -> impl Iterator<Item = (u32, &CallLabel)> {
        self.labels
            .iter()
            .enumerate()
            .filter_map(|(id, l)| Some((id as u32, l.as_ref()?)))
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
/// delta into it ([`EpochSnapshot::fold`]) through `Arc::make_mut` — in
/// place when no reader holds it, on a copy when one does. Readers clone
/// the `Arc` and answer from a graph that stays fixed while ingestion
/// keeps moving. A live `weblab run` folds into its own snapshot the same
/// way and stores it.
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

    /// Fold a delta in as the next epoch, bringing the snapshot to `calls`
    /// folded calls — the one way a snapshot advances. A Source row is new
    /// exactly when the index holds no label for its URI (URIs are unique
    /// within a document); links the snapshot holds already are skipped.
    pub fn fold(&mut self, delta: &LiveDelta, calls: usize) {
        let fresh: Vec<SourceEntry> = delta
            .sources
            .iter()
            .filter(|s| self.index.label_of(&s.uri).is_none())
            .cloned()
            .collect();
        self.index.add_sources(&fresh);
        self.index.add_links(&delta.links);
        self.graph.sources.extend(fresh);
        self.graph.add_links(delta.links.iter().cloned());
        self.calls = self.calls.max(calls);
        self.epoch += 1;
    }

    /// The Source rows of `doc` this snapshot holds no label for, in
    /// registration order — what a refresh delivers beside the links of
    /// the calls the snapshot lacks.
    pub fn missing_sources(&self, doc: &Document) -> Vec<SourceEntry> {
        ProvenanceGraph::from_view(&doc.view())
            .sources
            .into_iter()
            .filter(|s| self.index.label_of(&s.uri).is_none())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{infer_provenance, EngineOptions, InheritMode};
    use crate::paper_example;

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
