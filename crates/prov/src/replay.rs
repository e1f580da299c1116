//! Replay support: dirty-cone extraction.
//!
//! The provenance links' killer application is *incremental
//! recomputation*: when an input artifact changes, the set of resources
//! that must be recomputed is exactly the upward closure of the changed
//! URIs in the dependency graph — a union of [`ReachabilityIndex`]
//! `impacted_by` answers. [`dirty_cone`] materialises that set; the
//! workflow engine then re-executes only the calls whose produced
//! resources intersect it and splices every other fragment forward.
//! Splicing shifts node ids but preserves URIs; the replayed execution's
//! links are inferred afresh, by the first refresh of its snapshot.

use std::collections::BTreeSet;

use crate::index::ReachabilityIndex;

/// The dirty cone of a set of changed artifact URIs: the changed URIs
/// themselves plus everything transitively depending on any of them
/// (union of [`ReachabilityIndex::impacted_by`] answers), as a sorted set.
pub fn dirty_cone(index: &ReachabilityIndex, changed: &[String]) -> BTreeSet<String> {
    let mut cone: BTreeSet<String> = BTreeSet::new();
    for uri in changed {
        cone.insert(uri.clone());
        cone.extend(index.impacted_by(uri));
    }
    cone
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::ProvLink;
    use crate::graph::ProvenanceGraph;
    use weblab_xml::NodeId;

    fn link(f: (usize, &str), t: (usize, &str)) -> ProvLink {
        ProvLink {
            from: NodeId::from_index(f.0),
            from_uri: f.1.into(),
            to: NodeId::from_index(t.0),
            to_uri: t.1.into(),
        }
    }

    #[test]
    fn cone_is_the_union_of_impacted_sets_plus_the_roots() {
        // a → b → c, d isolated
        let mut g = ProvenanceGraph::default();
        g.add_links([link((2, "b"), (1, "a")), link((3, "c"), (2, "b"))]);
        let idx = ReachabilityIndex::from_graph(&g);
        let cone = dirty_cone(&idx, &["a".to_string()]);
        assert_eq!(
            cone.iter().map(String::as_str).collect::<Vec<_>>(),
            vec!["a", "b", "c"]
        );
        // unknown roots stay in the cone (they may be unreferenced inputs)
        let cone = dirty_cone(&idx, &["d".to_string()]);
        assert_eq!(cone.iter().map(String::as_str).collect::<Vec<_>>(), vec!["d"]);
        // multi-root union
        let cone = dirty_cone(&idx, &["b".to_string(), "d".to_string()]);
        assert_eq!(
            cone.iter().map(String::as_str).collect::<Vec<_>>(),
            vec!["b", "c", "d"]
        );
    }
}
