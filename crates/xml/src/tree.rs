//! Node ids, node records and borrowed node handles.
//!
//! The tree domain `D` of the paper: ordered ranked trees over an infinite
//! domain of labelled nodes `N`. Nodes live in a flat arena of fixed-size
//! records and are addressed by [`NodeId`]; allocation order doubles as
//! document order of creation, which the append-only model turns into a
//! cheap state-versioning scheme (see [`crate::Document`]). A record owns
//! no heap memory: names are symbols of the document's name table, text
//! lives in its pooled buffer, and children are linked through sibling ids.

use std::fmt;

use crate::document::Document;

/// Identifier of a node within one [`crate::Document`]'s arena.
///
/// Ids are dense, start at `0` (the root) and increase in allocation order.
/// Because WebLab documents are append-only, `a < b` implies node `a` was
/// created no later than node `b`, and a *document state* is simply the set
/// of nodes below a high-water mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Numeric index of the node in the arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct a node id from a raw index.
    ///
    /// Only meaningful together with the document that produced the index;
    /// mostly useful for tests and for deserialising traces.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// An interned element or attribute name.
///
/// Symbols belong to the document that interned them: the same name may
/// have different symbols in two documents, so code that relates nodes of
/// two documents compares names as `&str`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(pub(crate) u32);

impl Symbol {
    /// Dense index of the symbol in its document's name table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The label of a node: an element with a tag name, or a text leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind<'d> {
    /// An element node, e.g. `<TextMediaUnit>`.
    Element {
        /// Tag name of the element.
        name: &'d str,
    },
    /// A text node.
    Text {
        /// Character content.
        value: &'d str,
    },
}

impl<'d> NodeKind<'d> {
    /// Tag name if this is an element.
    #[inline]
    pub fn element_name(&self) -> Option<&'d str> {
        match *self {
            NodeKind::Element { name } => Some(name),
            NodeKind::Text { .. } => None,
        }
    }

    /// Text content if this is a text node.
    #[inline]
    pub fn text_value(&self) -> Option<&'d str> {
        match *self {
            NodeKind::Text { value } => Some(value),
            NodeKind::Element { .. } => None,
        }
    }
}

/// Absent link (no parent, child, sibling or resource).
pub(crate) const NONE: u32 = u32::MAX;
/// `NodeRec::name` of a text node.
pub(crate) const TEXT: u32 = u32::MAX;

/// A byte range of the document's pooled buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) start: u32,
    pub(crate) len: u32,
}

impl Span {
    #[inline]
    pub(crate) fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }

    #[inline]
    pub(crate) fn end(self) -> u32 {
        self.start + self.len
    }
}

/// One arena slot. Fixed size, no heap.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeRec {
    pub(crate) parent: u32,
    pub(crate) first_child: u32,
    pub(crate) last_child: u32,
    pub(crate) next_sibling: u32,
    /// Element: name symbol. Text node: [`TEXT`].
    pub(crate) name: u32,
    /// Element: its attribute run in `Document::attrs`. Text node: its
    /// characters in the pool.
    pub(crate) span: Span,
    /// Registration position of the node's resource, or [`NONE`].
    pub(crate) resource: u32,
}

impl NodeRec {
    pub(crate) fn new(name: u32, span: Span) -> Self {
        NodeRec {
            parent: NONE,
            first_child: NONE,
            last_child: NONE,
            next_sibling: NONE,
            name,
            span,
            resource: NONE,
        }
    }

    #[inline]
    pub(crate) fn is_element(&self) -> bool {
        self.name != TEXT
    }
}

/// An explicit attribute: interned name, pooled value.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AttrRec {
    pub(crate) name: u32,
    pub(crate) value: Span,
}

/// A borrowed handle on one node of a document: its label, parent and
/// explicit attributes.
#[derive(Clone, Copy)]
pub struct Node<'d> {
    pub(crate) doc: &'d Document,
    pub(crate) id: NodeId,
}

impl<'d> Node<'d> {
    /// The node's label.
    #[inline]
    pub fn kind(&self) -> NodeKind<'d> {
        self.doc.kind_of(self.id)
    }

    /// Parent node, `None` for the root (or a detached fragment root).
    #[inline]
    pub fn parent(&self) -> Option<NodeId> {
        let p = self.doc.rec(self.id).parent;
        (p != NONE).then_some(NodeId(p))
    }

    /// Explicit attributes in insertion order.
    #[inline]
    pub fn attrs(&self) -> Attrs<'d> {
        self.doc.attrs_of(self.id)
    }

    /// Value of the explicit attribute `name`, if present.
    #[inline]
    pub fn attr(&self, name: &str) -> Option<&'d str> {
        self.attrs().find(|&(k, _)| k == name).map(|(_, v)| v)
    }

    /// Element tag name; `None` for text nodes.
    #[inline]
    pub fn name(&self) -> Option<&'d str> {
        self.kind().element_name()
    }

    /// Whether this node is an element.
    #[inline]
    pub fn is_element(&self) -> bool {
        self.doc.rec(self.id).is_element()
    }
}

impl fmt::Debug for Node<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.id)
            .field("kind", &self.kind())
            .finish()
    }
}

/// Iterator over an element's explicit attributes as `(name, value)`.
#[derive(Debug, Clone)]
pub struct Attrs<'d> {
    pub(crate) doc: &'d Document,
    pub(crate) run: std::slice::Iter<'d, AttrRec>,
}

impl<'d> Iterator for Attrs<'d> {
    type Item = (&'d str, &'d str);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let a = self.run.next()?;
        Some((self.doc.name_str(a.name), self.doc.pooled(a.value)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.run.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_records_own_no_heap() {
        assert_eq!(std::mem::size_of::<NodeRec>(), 32);
        assert_eq!(std::mem::size_of::<AttrRec>(), 12);
    }

    #[test]
    fn node_ids_are_dense_and_ordered() {
        let mut d = Document::new("a");
        let b = d.create_text("t");
        assert_eq!(d.root().index(), 0);
        assert_eq!(b.index(), 1);
        assert!(d.root() < b);
        assert_eq!(d.node_count(), 2);
    }

    #[test]
    fn attr_lookup_is_by_name() {
        let mut d = Document::new("a");
        let a = d.root();
        d.set_attr(a, "lang", "fr").unwrap();
        let n = d.node(a).unwrap();
        assert_eq!(n.attr("lang"), Some("fr"));
        assert_eq!(n.attr("id"), None);
        assert_eq!(n.attrs().collect::<Vec<_>>(), vec![("lang", "fr")]);
    }

    #[test]
    fn kind_accessors() {
        let e = NodeKind::Element { name: "x" };
        let t = NodeKind::Text { value: "v" };
        assert_eq!(e.element_name(), Some("x"));
        assert_eq!(e.text_value(), None);
        assert_eq!(t.element_name(), None);
        assert_eq!(t.text_value(), Some("v"));
    }

    #[test]
    fn display_node_id() {
        assert_eq!(NodeId(7).to_string(), "#7");
    }
}
