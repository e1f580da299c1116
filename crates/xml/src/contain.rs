//! Structural containment `d ⊑_uri d'` between independent documents.
//!
//! Section 3 of the paper: `τ ⊑ τ'` iff all nodes and structural
//! relationships of `τ` are preserved in `τ'` — equivalently, `τ'` is
//! obtained from `τ` by inserting a bag of subtrees. Lifted to documents,
//! the `uri` function of the larger document must *preserve* every
//! identifier of the smaller one (it may add identifiers, never change or
//! drop them).
//!
//! For views over the same [`crate::Document`] containment holds by
//! construction; this module implements the general check used to validate
//! the output of an untrusted black-box service (the workflow engine rejects
//! services that delete or reorder content) and to test the diff machinery.
//!
//! The algorithm matches children by an ordered greedy embedding, anchored
//! on URIs where both sides carry them: appended fragments make the old
//! child list an ordered subsequence of the new one, which greedy matching
//! with recursive verification finds in `O(|d'|·depth)`.

use std::collections::HashMap;

use crate::document::DocView;
use crate::tree::{NodeId, NodeKind};

/// A witness of containment: for every node of the contained view, the node
/// of the containing view it maps to.
#[derive(Debug, Default, Clone)]
pub struct ContainmentWitness {
    /// Mapping from nodes of the smaller document to nodes of the larger.
    pub mapping: HashMap<NodeId, NodeId>,
}

/// Check `small ⊑_uri big` and return the witness embedding if it holds.
pub fn containment_witness(
    small: &DocView<'_>,
    big: &DocView<'_>,
) -> Option<ContainmentWitness> {
    let mut w = ContainmentWitness::default();
    if embed(small, small.root(), big, big.root(), &mut w) {
        Some(w)
    } else {
        None
    }
}

/// Check `small ⊑_uri big` without materialising the witness.
pub fn is_contained(small: &DocView<'_>, big: &DocView<'_>) -> bool {
    containment_witness(small, big).is_some()
}

fn labels_match(small: &DocView<'_>, s: NodeId, big: &DocView<'_>, b: NodeId) -> bool {
    let (Some(sn), Some(bn)) = (small.node(s), big.node(b)) else {
        return false;
    };
    let kinds_match = match (sn.kind(), bn.kind()) {
        (NodeKind::Element { name: a }, NodeKind::Element { name: c }) => a == c,
        (NodeKind::Text { value: a }, NodeKind::Text { value: c }) => a == c,
        _ => false,
    };
    if !kinds_match {
        return false;
    }
    // Explicit attributes of the small node must be preserved verbatim.
    // Names are compared as strings: symbols belong to one document.
    for (k, v) in sn.attrs() {
        if bn.attr(k) != Some(v) {
            return false;
        }
    }
    // URI preservation: if the small node is identified, the big node must
    // carry the same identifier (uri may be *added* by big, never changed).
    if let Some(uri) = small.uri(s) {
        if big.uri(b) != Some(uri) {
            return false;
        }
    }
    true
}

fn embed(
    small: &DocView<'_>,
    s: NodeId,
    big: &DocView<'_>,
    b: NodeId,
    w: &mut ContainmentWitness,
) -> bool {
    if !labels_match(small, s, big, b) {
        return false;
    }
    let mut b_children = big.children(b);
    let mut local: Vec<(NodeId, NodeId)> = Vec::new();
    'outer: for sc in small.children(s) {
        // If the small child carries a URI, anchor the match on it: greedy
        // label matching could otherwise bind to a look-alike sibling.
        let anchor = small.uri(sc);
        for bc in b_children.by_ref() {
            let candidate_ok = match anchor {
                Some(uri) => big.uri(bc) == Some(uri),
                None => true,
            };
            if candidate_ok && embed(small, sc, big, bc, w) {
                local.push((sc, bc));
                continue 'outer;
            }
        }
        return false;
    }
    for (sc, bc) in local {
        w.mapping.insert(sc, bc);
    }
    w.mapping.insert(s, b);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Document;

    #[test]
    fn identical_documents_are_contained() {
        let mut a = Document::new("R");
        let ar = a.root();
        a.append_element(ar, "X").unwrap();
        let b = a.clone();
        assert!(is_contained(&a.view(), &b.view()));
        assert!(is_contained(&b.view(), &a.view()));
    }

    #[test]
    fn appended_fragment_preserves_containment() {
        let mut a = Document::new("R");
        a.append_element(a.root(), "X").unwrap();
        let mut b = a.clone();
        let y = b.append_element(b.root(), "Y").unwrap();
        b.append_text(y, "new").unwrap();
        assert!(is_contained(&a.view(), &b.view()));
        assert!(!is_contained(&b.view(), &a.view()));
    }

    #[test]
    fn insertion_between_siblings_is_still_containment() {
        // small: R -> [A, C]; big: R -> [A, B, C]
        let mut small = Document::new("R");
        small.append_element(small.root(), "A").unwrap();
        small.append_element(small.root(), "C").unwrap();
        let mut big = Document::new("R");
        big.append_element(big.root(), "A").unwrap();
        big.append_element(big.root(), "B").unwrap();
        big.append_element(big.root(), "C").unwrap();
        assert!(is_contained(&small.view(), &big.view()));
    }

    #[test]
    fn reordering_breaks_containment() {
        let mut small = Document::new("R");
        small.append_element(small.root(), "A").unwrap();
        small.append_element(small.root(), "B").unwrap();
        let mut big = Document::new("R");
        big.append_element(big.root(), "B").unwrap();
        big.append_element(big.root(), "A").unwrap();
        assert!(!is_contained(&small.view(), &big.view()));
    }

    #[test]
    fn uri_change_breaks_containment() {
        let mut small = Document::new("R");
        let x = small.append_element(small.root(), "X").unwrap();
        small.register_resource(x, "r1", None).unwrap();
        let mut big = Document::new("R");
        let y = big.append_element(big.root(), "X").unwrap();
        big.register_resource(y, "r2", None).unwrap();
        assert!(!is_contained(&small.view(), &big.view()));
    }

    #[test]
    fn uri_addition_is_allowed() {
        // big may promote nodes to resources (node 3 → r3 in the paper)
        let mut small = Document::new("R");
        small.append_element(small.root(), "X").unwrap();
        let mut big = Document::new("R");
        let y = big.append_element(big.root(), "X").unwrap();
        big.register_resource(y, "r3", None).unwrap();
        assert!(is_contained(&small.view(), &big.view()));
    }

    #[test]
    fn uri_anchor_skips_lookalike_sibling() {
        // small: R -> [X(uri=r9)]
        // big:   R -> [X(no uri, with extra child), X(uri=r9)]
        // greedy label matching without the anchor would try the first X and
        // succeed wrongly or fail; the anchor forces the second.
        let mut small = Document::new("R");
        let x = small.append_element(small.root(), "X").unwrap();
        small.register_resource(x, "r9", None).unwrap();
        let mut big = Document::new("R");
        let x1 = big.append_element(big.root(), "X").unwrap();
        big.append_element(x1, "Junk").unwrap();
        let x2 = big.append_element(big.root(), "X").unwrap();
        big.register_resource(x2, "r9", None).unwrap();
        let w = containment_witness(&small.view(), &big.view()).unwrap();
        assert_eq!(w.mapping.get(&x), Some(&x2));
    }

    #[test]
    fn attribute_loss_breaks_containment() {
        let mut small = Document::new("R");
        let x = small.append_element(small.root(), "X").unwrap();
        small.set_attr(x, "lang", "fr").unwrap();
        let mut big = Document::new("R");
        big.append_element(big.root(), "X").unwrap();
        assert!(!is_contained(&small.view(), &big.view()));
    }

    #[test]
    fn witness_maps_every_small_node() {
        let mut small = Document::new("R");
        let a = small.append_element(small.root(), "A").unwrap();
        small.append_text(a, "t").unwrap();
        let mut big = small.clone();
        big.append_element(big.root(), "Extra").unwrap();
        let w = containment_witness(&small.view(), &big.view()).unwrap();
        assert_eq!(w.mapping.len(), 3); // root, A, text
    }
}
