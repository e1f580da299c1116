//! Navigation iterators over document-state views.
//!
//! All three walk the arena's links (first child, next sibling, parent)
//! and allocate nothing. Siblings are in id order, so a state's children
//! of a node are a prefix of its sibling chain: the walks stop at the
//! view's mark.

use crate::document::DocView;
use crate::tree::{NodeId, NONE};

/// The children of one node visible at a state, in document order.
#[derive(Debug, Clone)]
pub struct Children<'d> {
    view: DocView<'d>,
    next: u32,
}

impl<'d> Children<'d> {
    pub(crate) fn new(view: DocView<'d>, node: NodeId) -> Self {
        let next = if view.contains(node) {
            view.doc.rec(node).first_child
        } else {
            NONE
        };
        Children { view, next }
    }

    /// Number of children left to visit (walks the sibling chain).
    pub fn len(&self) -> usize {
        self.clone().count()
    }

    /// Whether no child is left to visit.
    pub fn is_empty(&self) -> bool {
        self.next >= self.view.mark.nodes
    }
}

impl<'d> Iterator for Children<'d> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        if self.is_empty() {
            return None;
        }
        let id = NodeId(self.next);
        self.next = self.view.doc.rec(id).next_sibling;
        Some(id)
    }
}

/// Depth-first pre-order traversal of a subtree, restricted to one state.
#[derive(Debug, Clone)]
pub struct Descendants<'d> {
    view: DocView<'d>,
    root: NodeId,
    next: Option<NodeId>,
}

impl<'d> Descendants<'d> {
    pub(crate) fn new(view: DocView<'d>, root: NodeId) -> Self {
        let next = view.contains(root).then_some(root);
        Descendants { view, root, next }
    }

    /// The node after `cur` in pre-order: its first visible child, else
    /// the next visible sibling of it or of its nearest ancestor below the
    /// traversal's root.
    fn successor(&self, cur: NodeId) -> Option<NodeId> {
        let doc = self.view.doc;
        let mark = self.view.mark.nodes;
        let first = doc.rec(cur).first_child;
        if first < mark {
            return Some(NodeId(first));
        }
        let mut n = cur;
        while n != self.root {
            let r = doc.rec(n);
            if r.next_sibling < mark {
                return Some(NodeId(r.next_sibling));
            }
            if r.parent == NONE {
                return None;
            }
            n = NodeId(r.parent);
        }
        None
    }
}

impl<'d> Iterator for Descendants<'d> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.successor(cur);
        Some(cur)
    }
}

/// Iterator over the proper ancestors of a node, closest first.
#[derive(Debug)]
pub struct Ancestors<'d> {
    view: DocView<'d>,
    cur: Option<NodeId>,
}

impl<'d> Ancestors<'d> {
    pub(crate) fn new(view: DocView<'d>, node: NodeId) -> Self {
        let cur = view.parent(node);
        Ancestors { view, cur }
    }
}

impl<'d> Iterator for Ancestors<'d> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let n = self.cur?;
        self.cur = self.view.parent(n);
        Some(n)
    }
}

#[cfg(test)]
mod tests {
    use crate::Document;

    #[test]
    fn preorder_traversal() {
        let mut d = Document::new("R");
        let root = d.root();
        let a = d.append_element(root, "A").unwrap();
        let b = d.append_element(a, "B").unwrap();
        let c = d.append_element(root, "C").unwrap();
        let order: Vec<_> = d.view().descendants(root).collect();
        assert_eq!(order, vec![root, a, b, c]);
    }

    #[test]
    fn traversal_respects_state() {
        let mut d = Document::new("R");
        let root = d.root();
        let a = d.append_element(root, "A").unwrap();
        let d0 = d.mark();
        let _b = d.append_element(a, "B").unwrap();
        let order: Vec<_> = d.view_at(d0).descendants(root).collect();
        assert_eq!(order, vec![root, a]);
    }

    #[test]
    fn ancestors_closest_first() {
        let mut d = Document::new("R");
        let root = d.root();
        let a = d.append_element(root, "A").unwrap();
        let b = d.append_element(a, "B").unwrap();
        let anc: Vec<_> = d.view().ancestors(b).collect();
        assert_eq!(anc, vec![a, root]);
        assert!(d.view().ancestors(root).next().is_none());
    }

    #[test]
    fn descendants_of_invisible_node_is_empty() {
        let mut d = Document::new("R");
        let d0 = d.mark();
        let a = d.append_element(d.root(), "A").unwrap();
        assert_eq!(d.view_at(d0).descendants(a).count(), 0);
    }
}
