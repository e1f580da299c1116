//! Element-name indexing for pattern evaluation.
//!
//! The dominant cost of evaluating `//Name…` patterns is the full document
//! scan of the leading descendant step. An [`ElementIndex`] maps element
//! names to their nodes in document order, turning that scan into a lookup
//! — the paper's "existing query optimization techniques … indexing"
//! remark made concrete. The provenance engine builds one index per final
//! document and reuses it across every rule and call of an inference run.

use weblab_obs::Counter;
use weblab_xml::{DocView, NodeId, StateMark};

/// Index constructions (one pre-order document scan each).
static INDEX_BUILDS: Counter = Counter::new("xpath.index.builds");
/// Bucket lookups served (name or wildcard) in place of document scans.
static INDEX_LOOKUPS: Counter = Counter::new("xpath.index.lookups");

/// Name → nodes (document order) index over one document state.
///
/// Lists are keyed by the document's name symbols, so building the index
/// allocates one list per distinct name and none per element. Symbols
/// belong to one document: look names up in views of the document the
/// index was built on.
#[derive(Debug, Clone)]
pub struct ElementIndex {
    mark: StateMark,
    by_name: Vec<Vec<NodeId>>,
    all: Vec<NodeId>,
}

impl ElementIndex {
    /// Build the index by one pre-order scan of `view`.
    pub fn build(view: &DocView<'_>) -> Self {
        let mut by_name: Vec<Vec<NodeId>> = Vec::new();
        let mut all = Vec::new();
        for node in view.descendants(view.root()) {
            if let Some(sym) = view.symbol(node) {
                if by_name.len() <= sym.index() {
                    by_name.resize_with(sym.index() + 1, Vec::new);
                }
                by_name[sym.index()].push(node);
                all.push(node);
            }
        }
        INDEX_BUILDS.inc();
        ElementIndex {
            mark: view.mark(),
            by_name,
            all,
        }
    }

    /// The state this index covers.
    pub fn mark(&self) -> StateMark {
        self.mark
    }

    /// All elements named `name`, in document order, restricted to nodes
    /// that exist at `view`'s state (the index may cover a later state of
    /// the same document — ids below the view's mark are still exact).
    pub fn nodes_named(&self, name: &str, view: &DocView<'_>) -> Vec<NodeId> {
        INDEX_LOOKUPS.inc();
        let source = view
            .document()
            .symbol(name)
            .and_then(|sym| self.by_name.get(sym.index()))
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        Self::restrict(source, view)
    }

    /// All elements, in document order, restricted to `view`'s state.
    pub fn all_elements(&self, view: &DocView<'_>) -> Vec<NodeId> {
        INDEX_LOOKUPS.inc();
        Self::restrict(&self.all, view)
    }

    fn restrict(source: &[NodeId], view: &DocView<'_>) -> Vec<NodeId> {
        source
            .iter()
            .copied()
            .filter(|n| view.contains(*n))
            .collect()
    }

    /// Number of distinct element names.
    pub fn name_count(&self) -> usize {
        self.by_name
            .iter()
            .filter(|nodes| !nodes.is_empty())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weblab_xml::Document;

    #[test]
    fn index_matches_scan() {
        let mut d = Document::new("R");
        let root = d.root();
        let a = d.append_element(root, "A").unwrap();
        let _b = d.append_element(a, "B").unwrap();
        let a2 = d.append_element(root, "A").unwrap();
        let idx = ElementIndex::build(&d.view());
        assert_eq!(idx.nodes_named("A", &d.view()), vec![a, a2]);
        assert_eq!(idx.nodes_named("Z", &d.view()), Vec::<weblab_xml::NodeId>::new());
        assert_eq!(idx.all_elements(&d.view()).len(), 4);
        assert_eq!(idx.name_count(), 3);
    }

    #[test]
    fn index_restricts_to_earlier_states() {
        let mut d = Document::new("R");
        let root = d.root();
        let a = d.append_element(root, "A").unwrap();
        let mark = d.mark();
        let _a2 = d.append_element(root, "A").unwrap();
        let idx = ElementIndex::build(&d.view());
        assert_eq!(idx.nodes_named("A", &d.view()).len(), 2);
        assert_eq!(idx.nodes_named("A", &d.view_at(mark)), vec![a]);
    }
}
