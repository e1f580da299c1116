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
//! The layout is compact: each URI is held once, in one pooled string,
//! and found through an [`IdIndex`] that compares keys through the pool;
//! labels are ids into a per-index table of distinct [`CallLabel`]s; and a
//! resource's two adjacency lists and two closures are sorted `u32` runs
//! in one vector per resource, with the run lengths stored inline. A
//! resource on no link allocates nothing.
//!
//! Resources are interned in first-seen order: Source rows in registration
//! order, then link endpoints in link order. That order decides which label
//! wins and which node a URI carries when a hand-built edge set pairs it
//! with two. On a document's rows, where each URI names one node, a live
//! and a batch index therefore answer alike. Ranked answers never consult
//! interned ids.
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

use std::collections::hash_map::RandomState;
use std::collections::{BTreeSet, HashSet, VecDeque};
use std::hash::BuildHasher;
use std::ops::Range;

use weblab_obs::Counter;
use weblab_xml::{CallLabel, Document, IdIndex, NodeId};

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

/// No label: the label id of a resource no Source row registered.
const NONE: u32 = u32::MAX;

/// The runs of [`Lists`]: outgoing and incoming adjacency in edge-list
/// order, then the downward and upward closures in id order.
const DEPS: usize = 0;
const RDEPS: usize = 1;
const DOWN: usize = 2;
const UP: usize = 3;
/// Inline run lengths ahead of the runs: `DEPS`, `RDEPS` and `DOWN` (the
/// `UP` run takes the rest).
const HEADER: usize = 3;

/// One resource's adjacency and closures, in one allocation: the lengths
/// of its `DEPS`, `RDEPS` and `DOWN` runs, then the four runs back to back.
/// Each run is sorted and duplicate-free: the adjacency runs by edge-list
/// key, the closures by id. Empty (no allocation) while the resource is on
/// no link.
#[derive(Debug, Clone, Default)]
struct Lists(Vec<u32>);

impl Lists {
    /// Where `run` lies in the vector.
    fn range(&self, run: usize) -> Range<usize> {
        if self.0.is_empty() {
            return 0..0;
        }
        let start = HEADER + self.0[..run].iter().map(|&n| n as usize).sum::<usize>();
        let end = if run == UP {
            self.0.len()
        } else {
            start + self.0[run] as usize
        };
        start..end
    }

    fn run(&self, run: usize) -> &[u32] {
        &self.0[self.range(run)]
    }

    /// Give a resource on no link yet its (zero) run lengths.
    fn header(&mut self) {
        if self.0.is_empty() {
            self.0.extend([0; HEADER]);
        }
    }

    /// Make room for `n` ids at `at` (an offset into the vector) of `run`,
    /// shifting the runs after it, and count them in its length.
    fn open(&mut self, run: usize, at: usize, n: usize) {
        self.0.splice(at..at, std::iter::repeat_n(0, n));
        if run != UP {
            self.0[run] += n as u32;
        }
    }

    /// Put `id` at position `pos` of `run`.
    fn insert(&mut self, run: usize, pos: usize, id: u32) {
        self.header();
        let at = self.range(run).start + pos;
        self.open(run, at, 1);
        self.0[at] = id;
    }

    /// Merge the sorted, duplicate-free ids of `add` into `run`. The work is
    /// proportional to `add` plus the part of the run at or after its
    /// first id, so ids that sort last (a child interned after its
    /// ancestors) are appended.
    fn merge(&mut self, run: usize, add: &[u32]) {
        let Some(&first) = add.first() else {
            return;
        };
        self.header();
        let range = self.range(run);
        let lo = range.start + self.0[range.clone()].partition_point(|&x| x < first);
        let tail = &self.0[lo..range.end];
        let fresh = add.len() - add.iter().filter(|a| tail.binary_search(a).is_ok()).count();
        if fresh == 0 {
            return;
        }
        self.open(run, range.end, fresh);
        // merge from the back into the widened run
        let (mut i, mut j, mut w) = (range.end, add.len(), range.end + fresh);
        while j > 0 {
            let a = add[j - 1];
            w -= 1;
            if i > lo && self.0[i - 1] >= a {
                self.0[w] = self.0[i - 1];
                if self.0[i - 1] == a {
                    j -= 1;
                }
                i -= 1;
            } else {
                self.0[w] = a;
                j -= 1;
            }
        }
    }

    fn heap_bytes(&self) -> usize {
        self.0.capacity() * std::mem::size_of::<u32>()
    }
}

/// `n` as an offset into the URI pool or a resource id.
fn offset(n: usize) -> u32 {
    u32::try_from(n)
        .ok()
        .filter(|&n| n != NONE)
        .expect("an index holds fewer than 2^32 - 1 resources and pool bytes")
}

/// The URI of interned id `id`, given the pool and the URI ends.
fn pooled<'p>(pool: &'p str, ends: &[u32], id: u32) -> &'p str {
    let start = match id {
        0 => 0,
        _ => ends[id as usize - 1] as usize,
    };
    &pool[start..ends[id as usize] as usize]
}

/// `run` with `id` added, sorted.
fn with(run: &[u32], id: u32) -> Vec<u32> {
    let mut ids = run.to_vec();
    if let Err(pos) = ids.binary_search(&id) {
        ids.insert(pos, id);
    }
    ids
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
    /// Every interned URI, back to back, in interning order.
    pool: String,
    /// End of each interned URI in `pool`; each starts where the one
    /// before it ends.
    ends: Vec<u32>,
    /// Node of each interned resource (for [`ProvLink`] reconstruction).
    nodes: Vec<NodeId>,
    /// URI → interned id.
    uri_index: IdIndex,
    /// Label of each interned resource as an id into `labels`, or [`NONE`]
    /// if unregistered (first registration wins, like
    /// [`ProvenanceGraph::label_of`]).
    label: Vec<u32>,
    /// Distinct labels, by first use.
    labels: Vec<CallLabel>,
    label_index: IdIndex,
    /// Adjacency and closures of each interned resource.
    lists: Vec<Lists>,
    /// Keys of the two indexes' hash.
    hasher: RandomState,
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

    /// Build from a materialised graph — Source table and edges together —
    /// leaving no spare capacity.
    pub fn from_graph(graph: &ProvenanceGraph) -> Self {
        let mut idx = ReachabilityIndex::new();
        idx.add_sources(&graph.sources);
        idx.add_links(&graph.links);
        idx.shrink_to_fit();
        idx
    }

    /// The interned id of `uri`, found through its hash.
    fn find(&self, hash: u64, uri: &str) -> Option<u32> {
        self.uri_index
            .find(hash, |id| pooled(&self.pool, &self.ends, id) == uri)
    }

    fn intern(&mut self, uri: &str, node: NodeId) -> u32 {
        let hash = self.hasher.hash_one(uri);
        if let Some(id) = self.find(hash, uri) {
            return id;
        }
        let id = offset(self.ends.len());
        self.pool.push_str(uri);
        self.ends.push(offset(self.pool.len()));
        self.nodes.push(node);
        self.label.push(NONE);
        self.lists.push(Lists::default());
        let (pool, ends, hasher) = (&self.pool, &self.ends, &self.hasher);
        self.uri_index
            .insert(hash, id, |i| hasher.hash_one(pooled(pool, ends, i)));
        id
    }

    fn intern_label(&mut self, label: &CallLabel) -> u32 {
        let hash = self.hasher.hash_one((label.service.as_str(), label.time));
        let labels = &self.labels;
        if let Some(id) = self
            .label_index
            .find(hash, |i| labels[i as usize] == *label)
        {
            return id;
        }
        let id = offset(self.labels.len());
        self.labels.push(label.clone());
        let (labels, hasher) = (&self.labels, &self.hasher);
        self.label_index.insert(hash, id, |i| {
            let l = &labels[i as usize];
            hasher.hash_one((l.service.as_str(), l.time))
        });
        id
    }

    /// The edge-list sort key of an interned resource: links order by
    /// `(node, uri)` first on each side, so adjacency lists sorted by this
    /// key enumerate neighbours exactly as a sorted edge list would.
    fn key(&self, id: u32) -> (NodeId, &str) {
        (self.nodes[id as usize], self.uri_of(id))
    }

    /// `run` of an interned resource's lists.
    fn run(&self, id: u32, run: usize) -> &[u32] {
        self.lists[id as usize].run(run)
    }

    /// Where `id` is, or would go, in adjacency run `run` of `of`.
    fn search(&self, of: u32, run: usize, id: u32) -> Result<usize, usize> {
        let key = self.key(id);
        self.run(of, run)
            .binary_search_by(|&c| self.key(c).cmp(&key))
    }

    /// Absorb Source rows: intern each URI and record its label (idempotent
    /// per URI, first registration wins). The rows themselves live in the
    /// graph's Source table, not here.
    pub fn add_sources(&mut self, sources: &[SourceEntry]) {
        for s in sources {
            let id = self.intern(&s.uri, s.node) as usize;
            if self.label[id] == NONE {
                self.label[id] = self.intern_label(&s.label);
            }
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
        let Err(pos) = self.search(from, DEPS, to) else {
            return false;
        };
        // deps and rdeps are symmetric, so `from` is not in `rdeps(to)`
        let rpos = self.search(to, RDEPS, from).unwrap_or_else(|pos| pos);
        self.lists[from as usize].insert(DEPS, pos, to);
        self.lists[to as usize].insert(RDEPS, rpos, from);
        self.edges += 1;
        INDEX_LINKS.inc();
        // closure update: sources = {from} ∪ up(from), sinks = {to} ∪ down(to)
        let above = with(self.run(from, UP), from);
        let below = with(self.run(to, DOWN), to);
        for &x in &above {
            self.lists[x as usize].merge(DOWN, &below);
        }
        for &y in &below {
            self.lists[y as usize].merge(UP, &above);
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
        self.ends.len()
    }

    /// Bytes of heap the index holds: the capacities of its URI pool,
    /// per-resource columns, label table, hash indexes and lists.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.pool.capacity()
            + self.ends.capacity() * size_of::<u32>()
            + self.nodes.capacity() * size_of::<NodeId>()
            + self.uri_index.heap_bytes()
            + self.label.capacity() * size_of::<u32>()
            + self.labels.capacity() * size_of::<CallLabel>()
            + self
                .labels
                .iter()
                .map(|l| l.service.capacity())
                .sum::<usize>()
            + self.label_index.heap_bytes()
            + self.lists.capacity() * size_of::<Lists>()
            + self.lists.iter().map(Lists::heap_bytes).sum::<usize>()
    }

    /// Release the spare capacity that interning and incremental links
    /// leave in the pool, the columns and every resource's lists.
    fn shrink_to_fit(&mut self) {
        self.pool.shrink_to_fit();
        self.ends.shrink_to_fit();
        self.nodes.shrink_to_fit();
        self.label.shrink_to_fit();
        self.labels.shrink_to_fit();
        self.lists.shrink_to_fit();
        for lists in &mut self.lists {
            lists.0.shrink_to_fit();
        }
    }

    /// Label of a resource, if registered.
    pub fn label_of(&self, uri: &str) -> Option<&CallLabel> {
        self.label_of_id(self.id_of(uri)?)
    }

    fn label_of_id(&self, id: u32) -> Option<&CallLabel> {
        let label = self.label[id as usize];
        (label != NONE).then(|| &self.labels[label as usize])
    }

    /// The URIs of `run` of `uri`'s lists; empty for an unknown URI.
    fn neighbours(&self, uri: &str, run: usize) -> Vec<&str> {
        self.id_of(uri)
            .map(|id| self.run(id, run).iter().map(|&d| self.uri_of(d)).collect())
            .unwrap_or_default()
    }

    /// Direct dependencies, identical to
    /// [`ProvenanceGraph::dependencies_of`] on the same edge set — but an
    /// index lookup instead of an edge-list scan.
    pub fn dependencies_of(&self, uri: &str) -> Vec<&str> {
        INDEX_HITS.inc();
        self.neighbours(uri, DEPS)
    }

    /// Direct dependents, identical to [`ProvenanceGraph::dependents_of`].
    pub fn dependents_of(&self, uri: &str) -> Vec<&str> {
        INDEX_HITS.inc();
        self.neighbours(uri, RDEPS)
    }

    /// The downward closure of a URI as interned ids, led by the root if
    /// it is interned (which a cycle through it may list again).
    fn down_closure(&self, uri: &str) -> impl Iterator<Item = u32> + '_ {
        let root = self.id_of(uri);
        let down = root.map_or(&[][..], |id| self.run(id, DOWN));
        root.into_iter().chain(down.iter().copied())
    }

    /// The link `u → v` between two interned resources.
    fn link(&self, u: u32, v: u32) -> ProvLink {
        ProvLink {
            from: self.nodes[u as usize],
            from_uri: self.uri_of(u).to_string(),
            to: self.nodes[v as usize],
            to_uri: self.uri_of(v).to_string(),
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
        for u in self.down_closure(uri) {
            resources.insert(self.uri_of(u).to_string());
            calls.extend(self.label_of_id(u).cloned());
            links.extend(self.run(u, DEPS).iter().map(|&v| self.link(u, v)));
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
        let Some(root) = self.id_of(uri) else {
            return out;
        };
        let mut seen: HashSet<u32> = HashSet::new();
        seen.insert(root);
        let mut frontier = vec![root];
        for d in 1..=depth {
            let mut next = Vec::new();
            for &u in &frontier {
                for &v in self.run(u, DEPS) {
                    if seen.insert(v) {
                        out.push((self.uri_of(v).to_string(), d));
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
        let Some(root) = self.id_of(uri) else {
            return Vec::new();
        };
        let mut seen: HashSet<u32> = HashSet::new();
        seen.insert(root);
        let mut out = Vec::new();
        let mut queue = VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            for &v in self.run(u, RDEPS) {
                if seen.insert(v) {
                    out.push(self.uri_of(v).to_string());
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
        let closure = |root| -> BTreeSet<&str> {
            let mut set: BTreeSet<&str> = self.down_closure(root).map(|u| self.uri_of(u)).collect();
            set.insert(root);
            set
        };
        let (ca, cb) = (closure(a), closure(b));
        ca.intersection(&cb).map(|u| u.to_string()).collect()
    }

    /// Interned id of a URI, if present (rank-module access).
    pub(crate) fn id_of(&self, uri: &str) -> Option<u32> {
        self.find(self.hasher.hash_one(uri), uri)
    }

    /// URI of an interned id (rank-module access).
    pub(crate) fn uri_of(&self, id: u32) -> &str {
        pooled(&self.pool, &self.ends, id)
    }

    /// Outgoing (dependency) neighbours of an interned id, edge-list order.
    pub(crate) fn deps_of_id(&self, id: u32) -> &[u32] {
        self.run(id, DEPS)
    }

    /// Incoming (dependent) neighbours of an interned id, edge-list order.
    pub(crate) fn rdeps_of_id(&self, id: u32) -> &[u32] {
        self.run(id, RDEPS)
    }

    /// Size of the precomputed downward closure of an id (root excluded).
    pub(crate) fn down_size(&self, id: u32) -> usize {
        self.run(id, DOWN).len()
    }

    /// Size of the precomputed upward closure of an id (root excluded).
    pub(crate) fn up_size(&self, id: u32) -> usize {
        self.run(id, UP).len()
    }

    /// Every labelled resource's interned id and label, in interning
    /// order (rank-module access for per-service aggregation).
    pub(crate) fn labelled(&self) -> impl Iterator<Item = (u32, &CallLabel)> {
        (0..offset(self.resource_count())).filter_map(|id| Some((id, self.label_of_id(id)?)))
    }

    /// Expand back to the sorted edge list the index was fed.
    pub fn expand(&self) -> Vec<ProvLink> {
        let mut out = Vec::with_capacity(self.edges);
        for from in 0..offset(self.resource_count()) {
            out.extend(self.run(from, DEPS).iter().map(|&to| self.link(from, to)));
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

    /// Release the spare capacity that folds leave in the graph's tables
    /// and in the index, once a run's folds are done. Never per delta: the
    /// next fold would only grow them again.
    pub fn shrink_to_fit(&mut self) {
        self.graph.sources.shrink_to_fit();
        self.graph.links.shrink_to_fit();
        self.index.shrink_to_fit();
    }

    /// Bytes of heap the snapshot holds: its graph's and its index's.
    pub fn heap_bytes(&self) -> usize {
        self.graph.heap_bytes() + self.index.heap_bytes()
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
