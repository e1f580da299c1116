//! WebLab documents: trees + resource URIs + service-call labels + states.
//!
//! Implements Definition 1 (WebLab document `(τ, uri)`), the labelling
//! function `λ` of Definition 3, and the state machinery behind workflow
//! executions (Definition 2): every [`StateMark`] captures one document state
//! `d_i`, and [`DocView`] exposes a read-only view of that state without
//! copying the tree.
//!
//! A document is a compact arena. Nodes are fixed-size records linked by
//! parent, first-child, last-child and next-sibling ids. Element and
//! attribute names are symbols of one per-document name table, call labels
//! are entries of a per-document label table, and text, attribute values
//! and URIs are ranges of one pooled buffer. A node's resource metadata is
//! its registration position, which indexes a dense slot holding the URI's
//! range and the label's id; a URI index maps each URI to its position
//! without a second copy of the string.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

use crate::error::{Error, Result};
use crate::escape::unescape_into;
use crate::iter::{Ancestors, Children, Descendants};
use crate::table::IdIndex;
use crate::tree::{AttrRec, Attrs, Node, NodeId, NodeKind, NodeRec, Span, Symbol, NONE, TEXT};

/// Logical timestamps `t ∈ T` of the paper's infinite ordered domain.
///
/// The model only requires a total order on call instants; the orchestrator
/// assigns consecutive integers.
pub type Timestamp = u64;

/// A service-call label `(s, t) ∈ C = S × T` (Definition 2/3).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CallLabel {
    /// Service name `s ∈ S`.
    pub service: String,
    /// Call instant `t ∈ T`.
    pub time: Timestamp,
}

impl CallLabel {
    /// Construct a label from a service name and call instant.
    pub fn new(service: impl Into<String>, time: Timestamp) -> Self {
        CallLabel {
            service: service.into(),
            time,
        }
    }
}

impl fmt::Display for CallLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, t{})", self.service, self.time)
    }
}

/// Resource metadata of an identified node: its URI and, if known, the
/// service call that produced it, borrowed from the document.
///
/// The paper encodes these as virtual attributes `@id`, `@s` and `@t` on
/// resource nodes; the XPath evaluator resolves those names against this
/// struct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceMeta<'d> {
    /// Unique resource URI assigned by the `uri` function of Definition 1.
    pub uri: &'d str,
    /// Producing service call, if the node is labelled (`λ` of Definition 3).
    pub label: Option<&'d CallLabel>,
}

/// A high-water mark identifying one document state `d_i`.
///
/// Because the arena and the resource log are append-only, the pair of
/// counters fully determines the state: a node belongs to the state iff its
/// id is below `nodes`, and a resource registration is visible iff its log
/// position is below `resources`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateMark {
    pub(crate) nodes: u32,
    pub(crate) resources: u32,
}

impl StateMark {
    /// Number of nodes that exist at this state.
    pub fn node_count(&self) -> usize {
        self.nodes as usize
    }

    /// Number of resource registrations visible at this state.
    pub fn resource_count(&self) -> usize {
        self.resources as usize
    }

    /// Construct a mark from raw counters.
    ///
    /// Advanced use (tests, trace deserialisation): the counters must
    /// describe a state the document actually passed through — `nodes`
    /// nodes existed and the first `resources` registrations of the log had
    /// been made — otherwise views behave safely but meaninglessly.
    pub fn from_counts(nodes: usize, resources: usize) -> StateMark {
        StateMark {
            nodes: nodes as u32,
            resources: resources as u32,
        }
    }

    /// A hybrid mark: the *structure* of `self` with the *resource
    /// identification* of `other`.
    ///
    /// URIs are only ever added, never changed (Definition 1), so a later
    /// state's `uri` function restricted to an earlier state's nodes is
    /// well defined. The replay evaluation strategy uses this to see
    /// promotions the way the paper's posthoc strategies do: node 3 of
    /// Figure 4 is matched as resource `r3` even when the pattern runs on
    /// the structure of `d₀`.
    pub fn with_resources_of(self, other: StateMark) -> StateMark {
        StateMark {
            nodes: self.nodes,
            resources: other.resources,
        }
    }
}

/// One resource registration: the URI's range of the pool and the label's
/// id in the label table ([`NONE`] when unlabelled).
#[derive(Debug, Clone, Copy)]
struct ResourceSlot {
    uri: Span,
    label: u32,
}

/// A WebLab document `d = (τ, uri)` together with its full evolution history.
///
/// One `Document` value stores the *final* state of a workflow execution and
/// every intermediate state reachable through [`Document::mark`] /
/// [`Document::view_at`]. All mutating operations append; nothing is ever
/// deleted, mirroring the platform's append semantics.
#[derive(Debug, Clone)]
pub struct Document {
    /// The arena; the root is node 0.
    nodes: Vec<NodeRec>,
    /// Explicit attributes, one contiguous run per element.
    attrs: Vec<AttrRec>,
    /// Text, attribute values and URIs, addressed by [`Span`]s.
    pool: String,
    /// Element and attribute names, by symbol.
    names: Vec<Box<str>>,
    name_index: IdIndex,
    /// Distinct call labels, by first use.
    labels: Vec<CallLabel>,
    label_index: IdIndex,
    /// Append-only log of resource registrations, in registration order.
    resource_log: Vec<NodeId>,
    /// Metadata per registration, parallel to `resource_log`.
    slots: Vec<ResourceSlot>,
    /// URI → registration position.
    uri_index: IdIndex,
    /// Keys of the three indexes' hash.
    hasher: RandomState,
}

/// `n` as an arena offset; the arena, the pool and the tables are
/// addressed by `u32`.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("a document holds fewer than 2^32 nodes and pool bytes")
}

impl Document {
    /// Create a document with a fresh root element named `root_name`.
    pub fn new(root_name: impl AsRef<str>) -> Self {
        let mut doc = Document::empty();
        doc.create_element(root_name);
        doc
    }

    /// A document without nodes.
    fn empty() -> Self {
        Document {
            nodes: Vec::new(),
            attrs: Vec::new(),
            pool: String::new(),
            names: Vec::new(),
            name_index: IdIndex::default(),
            labels: Vec::new(),
            label_index: IdIndex::default(),
            resource_log: Vec::new(),
            slots: Vec::new(),
            uri_index: IdIndex::default(),
            hasher: RandomState::new(),
        }
    }

    /// The root node (always id `#0`).
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Total number of nodes in the (final) document.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Access a node, failing if the id is foreign.
    #[inline]
    pub fn node(&self, id: NodeId) -> Result<Node<'_>> {
        if id.index() < self.nodes.len() {
            Ok(Node { doc: self, id })
        } else {
            Err(Error::UnknownNode(id))
        }
    }

    /// Bytes of heap the document holds: the capacities of its arena,
    /// attribute runs, pool, tables and indexes.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.nodes.capacity() * size_of::<NodeRec>()
            + self.attrs.capacity() * size_of::<AttrRec>()
            + self.pool.capacity()
            + self.names.capacity() * size_of::<Box<str>>()
            + self.names.iter().map(|n| n.len()).sum::<usize>()
            + self.name_index.heap_bytes()
            + self.labels.capacity() * size_of::<CallLabel>()
            + self
                .labels
                .iter()
                .map(|l| l.service.capacity())
                .sum::<usize>()
            + self.label_index.heap_bytes()
            + self.resource_log.capacity() * size_of::<NodeId>()
            + self.slots.capacity() * size_of::<ResourceSlot>()
            + self.uri_index.heap_bytes()
    }

    /// Release the spare capacity that appends leave in the arena, the
    /// pool and the tables, for a document that is kept rather than grown
    /// (a parsed document, a committed execution's state).
    pub fn shrink_to_fit(&mut self) {
        self.nodes.shrink_to_fit();
        self.attrs.shrink_to_fit();
        self.pool.shrink_to_fit();
        self.names.shrink_to_fit();
        self.labels.shrink_to_fit();
        self.resource_log.shrink_to_fit();
        self.slots.shrink_to_fit();
    }

    /// The symbol of `name`, if some element or attribute of this document
    /// carries it.
    pub fn symbol(&self, name: &str) -> Option<Symbol> {
        let hash = self.hasher.hash_one(name);
        self.name_index
            .find(hash, |s| &*self.names[s as usize] == name)
            .map(Symbol)
    }

    // ------------------------------------------------------------------
    // Arena internals
    // ------------------------------------------------------------------

    #[inline]
    pub(crate) fn rec(&self, id: NodeId) -> &NodeRec {
        &self.nodes[id.index()]
    }

    #[inline]
    pub(crate) fn name_str(&self, sym: u32) -> &str {
        &self.names[sym as usize]
    }

    #[inline]
    pub(crate) fn pooled(&self, span: Span) -> &str {
        &self.pool[span.range()]
    }

    pub(crate) fn kind_of(&self, id: NodeId) -> NodeKind<'_> {
        let r = self.rec(id);
        if r.is_element() {
            NodeKind::Element {
                name: self.name_str(r.name),
            }
        } else {
            NodeKind::Text {
                value: self.pooled(r.span),
            }
        }
    }

    pub(crate) fn attrs_of(&self, id: NodeId) -> Attrs<'_> {
        let r = self.rec(id);
        let run = if r.is_element() {
            &self.attrs[r.span.range()]
        } else {
            &[]
        };
        Attrs {
            doc: self,
            run: run.iter(),
        }
    }

    fn meta(&self, pos: u32) -> ResourceMeta<'_> {
        let slot = self.slots[pos as usize];
        ResourceMeta {
            uri: self.pooled(slot.uri),
            label: (slot.label != NONE).then(|| &self.labels[slot.label as usize]),
        }
    }

    fn intern(&mut self, name: &str) -> u32 {
        let hash = self.hasher.hash_one(name);
        let names = &self.names;
        if let Some(sym) = self.name_index.find(hash, |s| &*names[s as usize] == name) {
            return sym;
        }
        let sym = offset(self.names.len());
        self.names.push(name.into());
        let (names, hasher) = (&self.names, &self.hasher);
        self.name_index
            .insert(hash, sym, |s| hasher.hash_one(&*names[s as usize]));
        sym
    }

    fn intern_label(&mut self, label: CallLabel) -> u32 {
        let hash = self.hasher.hash_one((label.service.as_str(), label.time));
        let labels = &self.labels;
        if let Some(id) = self.label_index.find(hash, |i| labels[i as usize] == label) {
            return id;
        }
        let id = offset(self.labels.len());
        self.labels.push(label);
        let (labels, hasher) = (&self.labels, &self.hasher);
        self.label_index.insert(hash, id, |i| {
            let l = &labels[i as usize];
            hasher.hash_one((l.service.as_str(), l.time))
        });
        id
    }

    fn position_of_uri(&self, hash: u64, uri: &str) -> Option<u32> {
        self.uri_index.find(hash, |pos| {
            &self.pool[self.slots[pos as usize].uri.range()] == uri
        })
    }

    fn push_pool(&mut self, s: &str) -> Span {
        let start = offset(self.pool.len());
        self.pool.push_str(s);
        Span {
            start,
            len: offset(self.pool.len()) - start,
        }
    }

    fn alloc(&mut self, rec: NodeRec) -> NodeId {
        let id = NodeId(offset(self.nodes.len()));
        self.nodes.push(rec);
        id
    }

    /// Append `attr` to `node`'s run, moving the run to the end of the
    /// attribute table first if another element's run follows it.
    fn push_attr(&mut self, node: NodeId, attr: AttrRec) {
        let run = self.nodes[node.index()].span;
        let start = if run.len == 0 {
            self.attrs.len()
        } else if run.end() as usize == self.attrs.len() {
            run.start as usize
        } else {
            let start = self.attrs.len();
            self.attrs.extend_from_within(run.range());
            start
        };
        self.attrs.push(attr);
        self.nodes[node.index()].span = Span {
            start: offset(start),
            len: run.len + 1,
        };
    }

    // ------------------------------------------------------------------
    // Parser entry points: text and attribute values unescaped straight
    // into the pool
    // ------------------------------------------------------------------

    /// Where the next pooled text starts.
    pub(crate) fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// Append `s` to the pool (raw character data).
    pub(crate) fn pool_push(&mut self, s: &str) {
        self.pool.push_str(s);
    }

    /// Append `raw` to the pool with its entity references resolved;
    /// `false` (and nothing appended) on a malformed reference.
    pub(crate) fn pool_push_escaped(&mut self, raw: &str) -> bool {
        let start = self.pool.len();
        if unescape_into(raw, &mut self.pool) {
            true
        } else {
            self.pool.truncate(start);
            false
        }
    }

    /// Turn the pool's bytes from `start` on into a text child of
    /// `parent`, or drop them if they are whitespace only.
    pub(crate) fn finish_text(&mut self, parent: NodeId, start: usize) -> Result<()> {
        if self.pool[start..].trim().is_empty() {
            self.pool.truncate(start);
            return Ok(());
        }
        let span = Span {
            start: offset(start),
            len: offset(self.pool.len() - start),
        };
        let id = self.alloc(NodeRec::new(TEXT, span));
        self.attach(parent, id)
    }

    /// Add the attribute `name` to the element `node` with the escaped
    /// value `raw`. The caller has checked that `node` lacks `name`;
    /// `false` (and nothing added) on a malformed reference.
    pub(crate) fn push_attr_escaped(&mut self, node: NodeId, name: &str, raw: &str) -> bool {
        let start = self.pool.len();
        if !self.pool_push_escaped(raw) {
            return false;
        }
        let name = self.intern(name);
        let value = Span {
            start: offset(start),
            len: offset(self.pool.len() - start),
        };
        self.push_attr(node, AttrRec { name, value });
        true
    }

    // ------------------------------------------------------------------
    // Construction (append-only)
    // ------------------------------------------------------------------

    /// Allocate a detached element node.
    pub fn create_element(&mut self, name: impl AsRef<str>) -> NodeId {
        let name = self.intern(name.as_ref());
        self.alloc(NodeRec::new(name, Span { start: 0, len: 0 }))
    }

    /// Allocate a detached text node.
    pub fn create_text(&mut self, value: impl AsRef<str>) -> NodeId {
        let span = self.push_pool(value.as_ref());
        self.alloc(NodeRec::new(TEXT, span))
    }

    /// Allocate a detached copy of `node`, a node of another document: the
    /// same element name and attributes, or the same text. Names are
    /// copied as strings, since symbols belong to one document.
    pub fn create_copy(&mut self, node: Node<'_>) -> NodeId {
        let id = match node.kind() {
            NodeKind::Element { name } => self.create_element(name),
            NodeKind::Text { value } => self.create_text(value),
        };
        for (k, v) in node.attrs() {
            let name = self.intern(k);
            let value = self.push_pool(v);
            self.push_attr(id, AttrRec { name, value });
        }
        id
    }

    /// Append a previously created, still-detached node as the last child of
    /// `parent`.
    ///
    /// Attach siblings in id order (create a node, then attach it, as every
    /// builder in the system does): a state's view walks a sibling chain
    /// only up to its mark.
    pub fn attach(&mut self, parent: NodeId, child: NodeId) -> Result<()> {
        let Some(c) = self.nodes.get(child.index()) else {
            return Err(Error::UnknownNode(child));
        };
        let Some(p) = self.nodes.get(parent.index()) else {
            return Err(Error::UnknownNode(parent));
        };
        if !p.is_element() {
            return Err(Error::NotAnElement(parent));
        }
        if c.parent != NONE {
            return Err(Error::AlreadyAttached(child));
        }
        // Reject cycles: parent must not be a descendant of child (nor child
        // itself). Ancestor chains are short; walk up from `parent`.
        let mut cur = parent.0;
        while cur != NONE {
            if cur == child.0 {
                return Err(Error::WouldCycle(child));
            }
            cur = self.nodes[cur as usize].parent;
        }
        self.nodes[child.index()].parent = parent.0;
        let last = self.nodes[parent.index()].last_child;
        if last == NONE {
            self.nodes[parent.index()].first_child = child.0;
        } else {
            self.nodes[last as usize].next_sibling = child.0;
        }
        self.nodes[parent.index()].last_child = child.0;
        Ok(())
    }

    /// Create an element and append it to `parent` in one step.
    pub fn append_element(&mut self, parent: NodeId, name: impl AsRef<str>) -> Result<NodeId> {
        let id = self.create_element(name);
        self.attach(parent, id)?;
        Ok(id)
    }

    /// Create a text node and append it to `parent` in one step.
    pub fn append_text(&mut self, parent: NodeId, value: impl AsRef<str>) -> Result<NodeId> {
        let id = self.create_text(value);
        self.attach(parent, id)?;
        Ok(id)
    }

    /// Set an explicit attribute on an element.
    ///
    /// Attributes participate in state views only insofar as the node itself
    /// does: a well-behaved service sets attributes on the nodes it creates
    /// before the orchestrator takes the next [`StateMark`]. The workflow
    /// engine enforces this discipline.
    pub fn set_attr(
        &mut self,
        node: NodeId,
        name: impl AsRef<str>,
        value: impl AsRef<str>,
    ) -> Result<()> {
        let n = self
            .nodes
            .get(node.index())
            .ok_or(Error::UnknownNode(node))?;
        if !n.is_element() {
            return Err(Error::NotAnElement(node));
        }
        let run = n.span;
        let name = self.intern(name.as_ref());
        let value = self.push_pool(value.as_ref());
        if let Some(slot) = self.attrs[run.range()].iter_mut().find(|a| a.name == name) {
            slot.value = value;
        } else {
            self.push_attr(node, AttrRec { name, value });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Resources
    // ------------------------------------------------------------------

    /// Register `node` as a resource with the given URI and optional label.
    ///
    /// Models both initial identification (root of `d₀`) and the *promotion*
    /// of an existing plain node to a resource (node 3 → r3 in Figure 4 of
    /// the paper). A node can be registered at most once and URIs are unique
    /// per document — the paper's `uri` function is injective and never
    /// modified, only extended.
    pub fn register_resource(
        &mut self,
        node: NodeId,
        uri: impl AsRef<str>,
        label: Option<CallLabel>,
    ) -> Result<()> {
        let Some(n) = self.nodes.get(node.index()) else {
            return Err(Error::UnknownNode(node));
        };
        if n.resource != NONE {
            return Err(Error::AlreadyResource(node));
        }
        let uri = uri.as_ref();
        let hash = self.hasher.hash_one(uri);
        if self.position_of_uri(hash, uri).is_some() {
            return Err(Error::DuplicateUri(uri.to_string()));
        }
        let uri = self.push_pool(uri);
        let label = label.map_or(NONE, |l| self.intern_label(l));
        let pos = offset(self.resource_log.len());
        self.slots.push(ResourceSlot { uri, label });
        self.resource_log.push(node);
        self.nodes[node.index()].resource = pos;
        let (slots, pool, hasher) = (&self.slots, &self.pool, &self.hasher);
        self.uri_index.insert(hash, pos, |p| {
            hasher.hash_one(&pool[slots[p as usize].uri.range()])
        });
        Ok(())
    }

    /// Resource metadata of `node` in the final state, if registered.
    #[inline]
    pub fn resource(&self, node: NodeId) -> Option<ResourceMeta<'_>> {
        let pos = self.nodes.get(node.index())?.resource;
        (pos != NONE).then(|| self.meta(pos))
    }

    /// Node identified by `uri`, if any.
    #[inline]
    pub fn node_by_uri(&self, uri: &str) -> Option<NodeId> {
        let pos = self.position_of_uri(self.hasher.hash_one(uri), uri)?;
        Some(self.resource_log[pos as usize])
    }

    /// All registered resource nodes in registration order.
    pub fn resource_nodes(&self) -> &[NodeId] {
        &self.resource_log
    }

    // ------------------------------------------------------------------
    // States
    // ------------------------------------------------------------------

    /// Capture the current state as a mark `d_i`.
    pub fn mark(&self) -> StateMark {
        StateMark {
            nodes: self.nodes.len() as u32,
            resources: self.resource_log.len() as u32,
        }
    }

    /// The empty-history mark (before any node existed). Rarely useful
    /// directly; mostly an identity for diff computations.
    pub fn mark_zero() -> StateMark {
        StateMark {
            nodes: 0,
            resources: 0,
        }
    }

    /// A read-only view of the document at `mark`.
    ///
    /// Marks taken from a *different* document yield unspecified (but safe)
    /// views; callers are expected to pair marks with their document, which
    /// the workflow engine does.
    pub fn view_at(&self, mark: StateMark) -> DocView<'_> {
        DocView { doc: self, mark }
    }

    /// A view of the final (current) state.
    pub fn view(&self) -> DocView<'_> {
        self.view_at(self.mark())
    }

    /// Roots of the maximal new fragments appended since `mark`
    /// — the bag `d \ d_mark` of the paper, in document order.
    ///
    /// A node is a fragment root iff it is new (`id ≥ mark`) and attached to
    /// an old parent (or detached).
    pub fn new_fragments_since(&self, mark: StateMark) -> Vec<NodeId> {
        let from = (mark.nodes as usize).min(self.nodes.len());
        (from..self.nodes.len())
            .filter(|&i| {
                let p = self.nodes[i].parent;
                p == NONE || p < mark.nodes
            })
            .map(|i| NodeId(i as u32))
            .collect()
    }

    /// Resource nodes registered since `mark`, in registration order.
    ///
    /// For a service call `c_i` with input mark `d_{i-1}` and output mark
    /// `d_i`, this is `out(c_i)` of the paper.
    pub fn new_resources_since(&self, mark: StateMark) -> Vec<NodeId> {
        self.resource_log[mark.resources as usize..].to_vec()
    }

    /// Roll the document back to `mark`, discarding every node allocation
    /// and resource registration made after it — the inverse of the append
    /// operations, used by the workflow engine to retry or skip a failed
    /// service call without violating the containment chain
    /// `d_{i-1} ⊑_uri d_i`.
    ///
    /// Because the arena and the resource log are strictly append-only, the
    /// state at `mark` is exactly "the first `nodes` nodes and the first
    /// `resources` registrations": truncating both (and unlinking truncated
    /// children from surviving parents) restores it. The pool bytes and
    /// attribute runs that only discarded nodes and registrations used are
    /// released too; interned names and labels stay (a retry interns the
    /// same ones). Marks previously taken at or below `mark` remain valid
    /// afterwards; later marks become foreign.
    ///
    /// One caveat mirrors [`StateMark`]'s definition of a state: attribute
    /// values of *pre-existing* elements are not versioned, so a service
    /// that mutated an old node's attribute before failing is not undone
    /// here. The orchestrator's append-only validation has the same blind
    /// spot by design — well-behaved services only touch nodes they
    /// created.
    pub fn truncate_to_mark(&mut self, mark: StateMark) -> Result<()> {
        let nodes = mark.nodes as usize;
        let resources = mark.resources as usize;
        if nodes > self.nodes.len() || resources > self.resource_log.len() {
            return Err(Error::MarkAhead { nodes, resources });
        }
        for &n in &self.resource_log[resources..] {
            if n.index() < nodes {
                self.nodes[n.index()].resource = NONE;
            }
        }
        self.resource_log.truncate(resources);
        self.slots.truncate(resources);
        // Siblings are in id order, so each surviving parent keeps a prefix
        // of its children: cut its chain at the first discarded child.
        for i in nodes..self.nodes.len() {
            let p = self.nodes[i].parent;
            if p != NONE && (p as usize) < nodes && self.nodes[p as usize].last_child >= mark.nodes
            {
                self.cut_children(p as usize, mark.nodes);
            }
        }
        self.nodes.truncate(nodes);
        self.release_unused();
        Ok(())
    }

    /// Unlink `parent`'s children with ids at or above `cut`.
    fn cut_children(&mut self, parent: usize, cut: u32) {
        let first = self.nodes[parent].first_child;
        if first >= cut {
            self.nodes[parent].first_child = NONE;
            self.nodes[parent].last_child = NONE;
            return;
        }
        let mut c = first;
        loop {
            let next = self.nodes[c as usize].next_sibling;
            if next == NONE || next >= cut {
                self.nodes[c as usize].next_sibling = NONE;
                self.nodes[parent].last_child = c;
                return;
            }
            c = next;
        }
    }

    /// After a truncation: shorten the pool and the attribute table to
    /// what surviving nodes and registrations use, and re-index the
    /// surviving URIs.
    fn release_unused(&mut self) {
        let (mut pool_end, mut attrs_end) = (0, 0);
        for r in &self.nodes {
            if !r.is_element() {
                pool_end = pool_end.max(r.span.end());
            } else if r.span.len > 0 {
                attrs_end = attrs_end.max(r.span.end());
                for a in &self.attrs[r.span.range()] {
                    pool_end = pool_end.max(a.value.end());
                }
            }
        }
        for s in &self.slots {
            pool_end = pool_end.max(s.uri.end());
        }
        self.pool.truncate(pool_end as usize);
        self.attrs.truncate(attrs_end as usize);
        self.uri_index.clear();
        for pos in 0..offset(self.slots.len()) {
            let hash_of = |p: u32| {
                self.hasher
                    .hash_one(&self.pool[self.slots[p as usize].uri.range()])
            };
            let hash = hash_of(pos);
            self.uri_index.insert(hash, pos, hash_of);
        }
    }

    /// Deep-copy the state at `mark` into a standalone document.
    ///
    /// Node ids are preserved (states are prefixes of the arena), so marks
    /// taken on `self` up to `mark` remain valid on the copy. This is the
    /// expensive per-state materialisation that the paper's "simple, but
    /// also inefficient solution" performs; the replay strategy benchmarks
    /// use it, everything else uses zero-copy [`Document::view_at`].
    pub fn materialize_state(&self, mark: StateMark) -> Document {
        let view = self.view_at(mark);
        let mut doc = Document::empty();
        for i in 0..mark.nodes {
            doc.create_copy(Node {
                doc: self,
                id: NodeId(i),
            });
        }
        for i in 0..mark.nodes {
            for child in view.children(NodeId(i)) {
                doc.attach(NodeId(i), child)
                    .expect("a state's tree attaches as it was built");
            }
        }
        // Registrations visible at the mark whose node exists structurally
        // (a hybrid mark may expose registrations of not-yet-created nodes;
        // those are dropped).
        for &n in view.resource_nodes() {
            if let Some(meta) = view.resource(n) {
                doc.register_resource(n, meta.uri, meta.label.cloned())
                    .expect("a state's URIs are unique");
            }
        }
        doc
    }
}

/// Read-only view of one document state `d_i`.
///
/// Navigation methods filter the underlying arena by the state's high-water
/// marks; the tree is never copied. All pattern evaluation in the rest of
/// the system works against `DocView`, which is what makes the paper's
/// "evaluate everything on the final document" strategies and the naive
/// per-state replay strategy share one code path.
#[derive(Debug, Clone, Copy)]
pub struct DocView<'d> {
    pub(crate) doc: &'d Document,
    pub(crate) mark: StateMark,
}

impl<'d> DocView<'d> {
    /// The underlying document.
    #[inline]
    pub fn document(&self) -> &'d Document {
        self.doc
    }

    /// The state mark this view captures.
    #[inline]
    pub fn mark(&self) -> StateMark {
        self.mark
    }

    /// Whether `node` exists at this state.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        node.0 < self.mark.nodes && node.index() < self.doc.node_count()
    }

    /// Root of the document (exists in every state; documents are created
    /// with their root).
    #[inline]
    pub fn root(&self) -> NodeId {
        self.doc.root()
    }

    /// The node's label/attrs, if it exists at this state.
    pub fn node(&self, id: NodeId) -> Option<Node<'d>> {
        self.contains(id).then_some(Node { doc: self.doc, id })
    }

    /// Children of `node` visible at this state (ids below the mark).
    ///
    /// Children are appended in id order, so the visible children form a
    /// prefix of the final sibling chain; the iterator stops at the mark.
    pub fn children(&self, node: NodeId) -> Children<'d> {
        Children::new(*self, node)
    }

    /// Parent of `node` at this state.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        if !self.contains(node) {
            return None;
        }
        let p = self.doc.rec(node).parent;
        (p != NONE).then_some(NodeId(p))
    }

    /// Element name of `node`, if it is an element visible here.
    #[inline]
    pub fn name(&self, node: NodeId) -> Option<&'d str> {
        if !self.contains(node) {
            return None;
        }
        let r = self.doc.rec(node);
        r.is_element().then(|| self.doc.name_str(r.name))
    }

    /// Symbol of `node`'s element name, if it is an element visible here.
    #[inline]
    pub fn symbol(&self, node: NodeId) -> Option<Symbol> {
        if !self.contains(node) {
            return None;
        }
        let r = self.doc.rec(node);
        r.is_element().then_some(Symbol(r.name))
    }

    /// Explicit attribute value.
    pub fn attr(&self, node: NodeId, name: &str) -> Option<&'d str> {
        self.node(node).and_then(|n| n.attr(name))
    }

    /// Resource metadata visible at this state.
    ///
    /// A registration is visible iff its log position is below the state's
    /// resource mark — this is how node 3 of the paper is a plain node in
    /// `d₀` and the resource `r3` from `d₁` onwards.
    pub fn resource(&self, node: NodeId) -> Option<ResourceMeta<'d>> {
        if !self.contains(node) {
            return None;
        }
        let pos = self.doc.rec(node).resource;
        (pos < self.mark.resources).then(|| self.doc.meta(pos))
    }

    /// URI of `node` at this state (the paper's virtual `@id`).
    pub fn uri(&self, node: NodeId) -> Option<&'d str> {
        self.resource(node).map(|m| m.uri)
    }

    /// Producing service-call label of `node` at this state.
    pub fn label(&self, node: NodeId) -> Option<&'d CallLabel> {
        self.resource(node).and_then(|m| m.label)
    }

    /// Resource nodes registered at this state, in registration order.
    pub fn resource_nodes(&self) -> &'d [NodeId] {
        &self.doc.resource_log[..self.mark.resources as usize]
    }

    /// Concatenated text content of the subtree rooted at `node`.
    pub fn text_content(&self, node: NodeId) -> String {
        let mut out = String::new();
        for n in self.descendants(node) {
            if let NodeKind::Text { value } = self.doc.kind_of(n) {
                out.push_str(value);
            }
        }
        out
    }

    /// Depth-first pre-order iterator over the subtree rooted at `node`,
    /// restricted to this state.
    pub fn descendants(&self, node: NodeId) -> Descendants<'d> {
        Descendants::new(*self, node)
    }

    /// Iterator over `node`'s proper ancestors, closest first.
    pub fn ancestors(&self, node: NodeId) -> Ancestors<'d> {
        Ancestors::new(*self, node)
    }

    /// Is `a` an ancestor-or-self of `b` at this state?
    pub fn is_ancestor_or_self(&self, a: NodeId, b: NodeId) -> bool {
        if !self.contains(a) || !self.contains(b) {
            return false;
        }
        let mut cur = Some(b);
        while let Some(n) = cur {
            if n == a {
                return true;
            }
            cur = self.parent(n);
        }
        false
    }

    /// Structural containment check `self ⊑_uri other` (paper, Section 3).
    ///
    /// Views over the *same* document are contained by construction whenever
    /// `self.mark ≤ other.mark`; for independent documents this delegates to
    /// the general structural algorithm.
    pub fn is_contained_in(&self, other: &DocView<'_>) -> bool {
        if std::ptr::eq(self.doc, other.doc) {
            return self.mark.nodes <= other.mark.nodes
                && self.mark.resources <= other.mark.resources;
        }
        crate::contain::is_contained(self, other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Document, NodeId, NodeId, StateMark) {
        let mut d = Document::new("R");
        let root = d.root();
        d.register_resource(root, "r1", None).unwrap();
        let m = d.append_element(root, "M").unwrap();
        let n = d.append_element(root, "N").unwrap();
        d.append_text(n, "native").unwrap();
        let d0 = d.mark();
        (d, m, n, d0)
    }

    #[test]
    fn states_partition_children() {
        let (mut d, _m, _n, d0) = sample();
        let root = d.root();
        let t = d.append_element(root, "T").unwrap();
        let d1 = d.mark();

        assert_eq!(d.view_at(d0).children(root).len(), 2);
        assert_eq!(d.view_at(d1).children(root).len(), 3);
        assert!(!d.view_at(d0).contains(t));
        assert!(d.view_at(d1).contains(t));
    }

    #[test]
    fn promotion_is_state_dependent() {
        let (mut d, _m, n, d0) = sample();
        d.register_resource(n, "r3", Some(CallLabel::new("Source", 0)))
            .unwrap();
        let d1 = d.mark();

        assert_eq!(d.view_at(d0).uri(n), None);
        assert_eq!(d.view_at(d1).uri(n), Some("r3"));
        assert_eq!(
            d.view_at(d1).label(n),
            Some(&CallLabel::new("Source", 0))
        );
    }

    #[test]
    fn duplicate_registration_rejected() {
        let (mut d, _m, n, _d0) = sample();
        d.register_resource(n, "rX", None).unwrap();
        assert_eq!(
            d.register_resource(n, "rY", None),
            Err(Error::AlreadyResource(n))
        );
        let m2 = d.append_element(d.root(), "Z").unwrap();
        assert_eq!(
            d.register_resource(m2, "rX", None),
            Err(Error::DuplicateUri("rX".into()))
        );
    }

    #[test]
    fn new_fragments_are_maximal_roots() {
        let (mut d, _m, n, d0) = sample();
        let root = d.root();
        // fragment 1: T with child C
        let t = d.append_element(root, "T").unwrap();
        let _c = d.append_element(t, "C").unwrap();
        // fragment 2: annotation under the old node n
        let a = d.append_element(n, "A").unwrap();
        let frags = d.new_fragments_since(d0);
        assert_eq!(frags, vec![t, a]);
    }

    #[test]
    fn out_of_state_nodes_are_invisible() {
        let (mut d, _m, n, d0) = sample();
        let a = d.append_element(n, "A").unwrap();
        let v0 = d.view_at(d0);
        assert!(v0.node(a).is_none());
        assert_eq!(v0.children(n).len(), 1); // only the text node
        assert_eq!(v0.parent(a), None);
    }

    #[test]
    fn attach_rejects_cycles_and_double_attach() {
        let mut d = Document::new("R");
        let root = d.root();
        let x = d.append_element(root, "X").unwrap();
        let y = d.append_element(x, "Y").unwrap();
        // y is attached already
        assert_eq!(d.attach(root, y), Err(Error::AlreadyAttached(y)));
        // detached node cycling onto itself is impossible by construction,
        // but attaching an ancestor under a descendant must fail:
        let z = d.create_element("Z");
        d.attach(y, z).unwrap();
        let w = d.create_element("W");
        d.attach(z, w).unwrap();
        // attempt to attach z (already attached) anywhere fails first
        assert_eq!(d.attach(w, z), Err(Error::AlreadyAttached(z)));
    }

    #[test]
    fn text_content_concatenates_in_order() {
        let mut d = Document::new("R");
        let root = d.root();
        d.append_text(root, "a").unwrap();
        let e = d.append_element(root, "E").unwrap();
        d.append_text(e, "b").unwrap();
        d.append_text(root, "c").unwrap();
        assert_eq!(d.view().text_content(root), "abc");
    }

    #[test]
    fn same_doc_containment_by_marks() {
        let (mut d, ..) = sample();
        let d0 = d.mark();
        d.append_element(d.root(), "T").unwrap();
        let d1 = d.mark();
        assert!(d.view_at(d0).is_contained_in(&d.view_at(d1)));
        assert!(!d.view_at(d1).is_contained_in(&d.view_at(d0)));
    }

    #[test]
    fn ancestor_or_self_respects_state() {
        let (mut d, _m, n, d0) = sample();
        let a = d.append_element(n, "A").unwrap();
        let v1 = d.view();
        assert!(v1.is_ancestor_or_self(n, a));
        assert!(v1.is_ancestor_or_self(d.root(), a));
        assert!(!v1.is_ancestor_or_self(a, n));
        let v0 = d.view_at(d0);
        assert!(!v0.is_ancestor_or_self(n, a)); // a not in d0
    }

    #[test]
    fn truncate_restores_earlier_state_exactly() {
        let (mut d, _m, n, d0) = sample();
        // a "failed call": new fragment, a promotion of n, a new resource
        let t = d.append_element(d.root(), "T").unwrap();
        d.register_resource(n, "r-promo", Some(CallLabel::new("S", 2)))
            .unwrap();
        d.register_resource(t, "r-new", Some(CallLabel::new("S", 2)))
            .unwrap();
        d.truncate_to_mark(d0).unwrap();
        assert_eq!(d.mark(), d0);
        assert_eq!(d.view().children(d.root()).len(), 2);
        assert_eq!(d.view().uri(n), None);
        assert_eq!(d.node_by_uri("r-promo"), None);
        assert_eq!(d.node_by_uri("r-new"), None);
        // the rolled-back URIs are free for a clean re-registration
        let t2 = d.append_element(d.root(), "T").unwrap();
        d.register_resource(t2, "r-new", Some(CallLabel::new("S", 2)))
            .unwrap();
        assert_eq!(d.node_by_uri("r-new"), Some(t2));
    }

    #[test]
    fn truncate_to_current_mark_is_a_no_op() {
        let (mut d, ..) = sample();
        let before = d.mark();
        let xml_before = crate::to_xml_string(&d.view());
        d.truncate_to_mark(before).unwrap();
        assert_eq!(d.mark(), before);
        assert_eq!(crate::to_xml_string(&d.view()), xml_before);
    }

    #[test]
    fn truncate_rejects_future_marks() {
        let (mut d, ..) = sample();
        let ahead = StateMark::from_counts(d.node_count() + 1, 0);
        assert!(matches!(
            d.truncate_to_mark(ahead),
            Err(Error::MarkAhead { .. })
        ));
    }

    #[test]
    fn set_attr_overwrites() {
        let mut d = Document::new("R");
        let root = d.root();
        d.set_attr(root, "k", "1").unwrap();
        d.set_attr(root, "k", "2").unwrap();
        assert_eq!(d.view().attr(root, "k"), Some("2"));
    }

    #[test]
    fn truncate_releases_the_pool_bytes_of_a_rolled_back_attempt() {
        let (mut d, _m, n, d0) = sample();
        let (pool, attrs) = (d.pool_len(), d.attrs.len());
        let xml = crate::to_xml_string(&d.view());
        // a failed attempt: text, attributes, a promotion and a new resource
        let t = d.append_element(d.root(), "T").unwrap();
        d.set_attr(t, "k", "v").unwrap();
        d.append_text(t, "discarded text").unwrap();
        d.register_resource(n, "r-promo", Some(CallLabel::new("S", 2)))
            .unwrap();
        d.register_resource(t, "r-new", None).unwrap();
        d.truncate_to_mark(d0).unwrap();
        assert_eq!((d.pool_len(), d.attrs.len()), (pool, attrs));
        assert_eq!(crate::to_xml_string(&d.view()), xml);
        assert_eq!(d.node_by_uri("r1"), Some(d.root()));
    }

    #[test]
    fn an_attribute_run_moves_when_another_element_follows_it() {
        let mut d = Document::new("R");
        let a = d.append_element(d.root(), "A").unwrap();
        d.set_attr(a, "x", "1").unwrap();
        let b = d.append_element(d.root(), "B").unwrap();
        d.set_attr(b, "y", "2").unwrap();
        d.set_attr(a, "z", "3").unwrap();
        d.set_attr(a, "x", "4").unwrap();
        let attrs = |n| d.node(n).unwrap().attrs().collect::<Vec<_>>();
        assert_eq!(attrs(a), vec![("x", "4"), ("z", "3")]);
        assert_eq!(attrs(b), vec![("y", "2")]);
        assert_eq!(
            crate::to_xml_string(&d.view()),
            r#"<R><A x="4" z="3"/><B y="2"/></R>"#
        );
    }

    #[test]
    fn materialized_states_hold_only_their_own_bytes() {
        let (mut d, _m, n, d0) = sample();
        d.append_text(n, "a later text node").unwrap();
        let copy = d.materialize_state(d0);
        assert_eq!(crate::to_xml_string(&copy.view()), {
            let v = d.view_at(d0);
            crate::write_with(&v, v.root(), &crate::XmlWriteOptions::default())
        });
        assert!(copy.pool_len() < d.pool_len());
        assert_eq!(copy.node_by_uri("r1"), Some(copy.root()));
        assert!(copy.heap_bytes() < d.heap_bytes());
    }
}
