//! Provenance graphs — Definition 3 of the paper.
//!
//! `G(e) = (R, E, λ)`: the labelled resource nodes of the final document,
//! the labelling function `λ : R → C` (rendered as the paper's **Source**
//! table, Figure 2 left), and the data-dependency edges (the **Provenance**
//! table, Figure 2 right).

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;

use weblab_xml::{CallLabel, DocView, NodeId};

use crate::algebra::ProvLink;

/// One row of the Source table: a labelled resource and the call that
/// produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceEntry {
    /// Resource node in the final document.
    pub node: NodeId,
    /// Resource URI.
    pub uri: String,
    /// The producing service call `λ(r)`.
    pub label: CallLabel,
}

/// The provenance graph of a workflow execution.
#[derive(Debug, Clone, Default)]
pub struct ProvenanceGraph {
    /// The labelling function `λ` — one entry per labelled resource, in
    /// registration order (the paper's Source table).
    pub sources: Vec<SourceEntry>,
    /// The dependency edges `E` (the paper's Provenance table), sorted.
    pub links: Vec<ProvLink>,
}

impl ProvenanceGraph {
    /// Build the node side of the graph from a document state: every
    /// resource that carries a label becomes a Source row.
    pub fn from_view(view: &DocView<'_>) -> Self {
        let mut sources = Vec::new();
        for &node in view.resource_nodes() {
            if let Some(meta) = view.resource(node) {
                if let Some(label) = meta.label {
                    sources.push(SourceEntry {
                        node,
                        uri: meta.uri.to_string(),
                        label: label.clone(),
                    });
                }
            }
        }
        ProvenanceGraph {
            sources,
            links: Vec::new(),
        }
    }

    /// Bytes of heap the graph holds: the capacities of its two tables and
    /// of the URIs and service names their rows own.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.sources.capacity() * size_of::<SourceEntry>()
            + self
                .sources
                .iter()
                .map(|s| s.uri.capacity() + s.label.service.capacity())
                .sum::<usize>()
            + self.links.capacity() * size_of::<ProvLink>()
            + self
                .links
                .iter()
                .map(|l| l.from_uri.capacity() + l.to_uri.capacity())
                .sum::<usize>()
    }

    /// Add dependency edges, keeping the edge set sorted and duplicate-free.
    pub fn add_links(&mut self, links: impl IntoIterator<Item = ProvLink>) {
        self.links.extend(links);
        self.links.sort();
        self.links.dedup();
    }

    /// Label of a resource URI, if the resource is in the graph. The first
    /// Source row registering `uri` wins.
    ///
    /// One lookup scans the Source table, O(sources). Code that resolves
    /// a label for every link or every Source row should build
    /// [`ProvenanceGraph::label_map`] once instead.
    pub fn label_of(&self, uri: &str) -> Option<&CallLabel> {
        self.sources.iter().find(|s| s.uri == uri).map(|s| &s.label)
    }

    /// Every labelled URI's label, built in one pass over the Source
    /// table. The first registration of a URI wins, so a lookup agrees
    /// with [`ProvenanceGraph::label_of`].
    pub fn label_map(&self) -> HashMap<&str, &CallLabel> {
        let mut map = HashMap::with_capacity(self.sources.len());
        for s in &self.sources {
            map.entry(s.uri.as_str()).or_insert(&s.label);
        }
        map
    }

    /// Direct dependencies of a resource: URIs it was generated from.
    ///
    /// This scans the full edge list; a serving layer should prefer
    /// [`crate::index::ReachabilityIndex::dependencies_of`] (the
    /// `prov.index.traversals` counter pins which path ran).
    pub fn dependencies_of(&self, uri: &str) -> Vec<&str> {
        crate::index::record_traversal();
        self.links
            .iter()
            .filter(|l| l.from_uri == uri)
            .map(|l| l.to_uri.as_str())
            .collect()
    }

    /// Resources that directly depend on `uri`. Full edge-list scan, like
    /// [`ProvenanceGraph::dependencies_of`].
    pub fn dependents_of(&self, uri: &str) -> Vec<&str> {
        crate::index::record_traversal();
        self.links
            .iter()
            .filter(|l| l.to_uri == uri)
            .map(|l| l.from_uri.as_str())
            .collect()
    }

    /// Lift data dependencies to the service-call level: call `a` *used*
    /// information generated by call `b` iff some resource produced by `a`
    /// depends on a resource labelled by `b` (e.g. "(Translator, t₃) uses
    /// information generated by (LanguageExtractor, t₂)").
    pub fn call_dependencies(&self) -> Vec<(CallLabel, CallLabel)> {
        let label_by_uri = self.label_map();
        let mut pairs: Vec<(CallLabel, CallLabel)> = self
            .links
            .iter()
            .filter_map(|l| {
                let from = label_by_uri.get(l.from_uri.as_str())?;
                let to = label_by_uri.get(l.to_uri.as_str())?;
                Some(((*from).clone(), (*to).clone()))
            })
            .filter(|(a, b)| a != b)
            .collect();
        pairs.sort();
        pairs.dedup();
        pairs
    }

    /// Check the defining invariant of Definition 3: the graph is a DAG and
    /// every edge points backwards in time (`λ(from).t > effective time of
    /// the used resource` is implied by construction; here we verify
    /// acyclicity).
    pub fn is_acyclic(&self) -> bool {
        // Kahn's algorithm over URIs.
        let mut nodes: HashSet<&str> = HashSet::new();
        for l in &self.links {
            nodes.insert(&l.from_uri);
            nodes.insert(&l.to_uri);
        }
        let mut indeg: HashMap<&str, usize> = nodes.iter().map(|&n| (n, 0)).collect();
        let mut adj: HashMap<&str, Vec<&str>> = HashMap::new();
        for l in &self.links {
            adj.entry(l.from_uri.as_str())
                .or_default()
                .push(l.to_uri.as_str());
            *indeg.get_mut(l.to_uri.as_str()).unwrap() += 1;
        }
        let mut queue: VecDeque<&str> = indeg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&n, _)| n)
            .collect();
        let mut visited = 0usize;
        while let Some(n) = queue.pop_front() {
            visited += 1;
            if let Some(next) = adj.get(n) {
                for &m in next {
                    let d = indeg.get_mut(m).unwrap();
                    *d -= 1;
                    if *d == 0 {
                        queue.push_back(m);
                    }
                }
            }
        }
        visited == nodes.len()
    }

    /// Propagate explicit links through the XML structure (the closing
    /// remark of Section 2: a link `b → a` extends to all descendants of
    /// `b` and to all descendants *and ancestors* of `a`), restricted to
    /// identified resources. Returns the propagated edge set including the
    /// originals.
    pub fn propagate_structural(&self, view: &DocView<'_>) -> Vec<ProvLink> {
        let mut out: HashSet<ProvLink> = self.links.iter().cloned().collect();
        for l in &self.links {
            // descendants of the dependent side
            let mut froms: Vec<NodeId> = vec![l.from];
            froms.extend(
                view.descendants(l.from)
                    .skip(1)
                    .filter(|n| view.uri(*n).is_some()),
            );
            // descendants and ancestors of the dependency side
            let mut tos: Vec<NodeId> = vec![l.to];
            tos.extend(
                view.descendants(l.to)
                    .skip(1)
                    .filter(|n| view.uri(*n).is_some()),
            );
            tos.extend(view.ancestors(l.to).filter(|n| view.uri(*n).is_some()));
            for &f in &froms {
                for &t in &tos {
                    if f == t {
                        continue;
                    }
                    out.insert(ProvLink {
                        from: f,
                        from_uri: view.uri(f).unwrap_or_default().to_string(),
                        to: t,
                        to_uri: view.uri(t).unwrap_or_default().to_string(),
                    });
                }
            }
        }
        let mut v: Vec<ProvLink> = out.into_iter().collect();
        v.sort();
        v
    }
}

impl ProvenanceGraph {
    /// Render as a Graphviz `dot` digraph: one node per labelled resource
    /// (clustered by producing service call) plus any link endpoints, one
    /// edge per dependency link.
    pub fn to_dot(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('"', "\\\"")
        }
        let mut out = String::from("digraph provenance {\n  rankdir=BT;\n  node [shape=box, fontsize=10];\n");
        // cluster resources by call
        let mut by_call: BTreeMap<&CallLabel, Vec<&SourceEntry>> = BTreeMap::new();
        for s in &self.sources {
            by_call.entry(&s.label).or_default().push(s);
        }
        for (i, (call, entries)) in by_call.iter().enumerate() {
            out.push_str(&format!(
                "  subgraph cluster_{i} {{\n    label=\"{}\";\n    style=dashed;\n",
                esc(&call.to_string())
            ));
            for e in entries {
                out.push_str(&format!("    \"{}\";\n", esc(&e.uri)));
            }
            out.push_str("  }\n");
        }
        // endpoints not in the Source table (e.g. unlabelled resources)
        let known: std::collections::HashSet<&str> =
            self.sources.iter().map(|s| s.uri.as_str()).collect();
        let mut extra: Vec<&str> = self
            .links
            .iter()
            .flat_map(|l| [l.from_uri.as_str(), l.to_uri.as_str()])
            .filter(|u| !known.contains(u))
            .collect();
        extra.sort_unstable();
        extra.dedup();
        for u in extra {
            out.push_str(&format!("  \"{}\" [style=dotted];\n", esc(u)));
        }
        for l in &self.links {
            out.push_str(&format!(
                "  \"{}\" -> \"{}\";\n",
                esc(&l.from_uri),
                esc(&l.to_uri)
            ));
        }
        out.push_str("}\n");
        out
    }
}

impl fmt::Display for ProvenanceGraph {
    /// Render the two tables of Figure 2.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Source")?;
        writeln!(f, "  Res. | Service | Time")?;
        for s in &self.sources {
            writeln!(f, "  {} | {} | t{}", s.uri, s.label.service, s.label.time)?;
        }
        writeln!(f, "Provenance")?;
        writeln!(f, "  From | To")?;
        for l in &self.links {
            writeln!(f, "  {} | {}", l.from_uri, l.to_uri)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weblab_xml::Document;

    fn link(from: (usize, &str), to: (usize, &str)) -> ProvLink {
        ProvLink {
            from: NodeId::from_index(from.0),
            from_uri: from.1.into(),
            to: NodeId::from_index(to.0),
            to_uri: to.1.into(),
        }
    }

    #[test]
    fn source_table_lists_labelled_resources_only() {
        let mut d = Document::new("R");
        let root = d.root();
        d.register_resource(root, "r1", None).unwrap(); // unlabelled
        let a = d.append_element(root, "A").unwrap();
        d.register_resource(a, "r2", Some(CallLabel::new("S", 1)))
            .unwrap();
        let g = ProvenanceGraph::from_view(&d.view());
        assert_eq!(g.sources.len(), 1);
        assert_eq!(g.sources[0].uri, "r2");
    }

    #[test]
    fn dependency_queries() {
        let mut g = ProvenanceGraph::default();
        g.add_links([link((8, "r8"), (4, "r4")), link((8, "r8"), (6, "r6"))]);
        g.add_links([link((6, "r6"), (5, "r5"))]);
        assert_eq!(g.dependencies_of("r8"), vec!["r4", "r6"]);
        assert_eq!(g.dependents_of("r6"), vec!["r8"]);
        // transitive dependencies: the lineage minus its root
        let idx = crate::index::ReachabilityIndex::from_graph(&g);
        let trans: Vec<String> =
            idx.lineage("r8", usize::MAX).into_iter().skip(1).map(|(u, _)| u).collect();
        assert!(trans.contains(&"r5".to_string()));
        assert_eq!(trans.len(), 3);
    }

    #[test]
    fn call_level_dependencies() {
        let mut d = Document::new("R");
        let root = d.root();
        let a = d.append_element(root, "A").unwrap();
        d.register_resource(a, "r6", Some(CallLabel::new("LanguageExtractor", 2)))
            .unwrap();
        let b = d.append_element(root, "B").unwrap();
        d.register_resource(b, "r8", Some(CallLabel::new("Translator", 3)))
            .unwrap();
        let mut g = ProvenanceGraph::from_view(&d.view());
        g.add_links([ProvLink {
            from: b,
            from_uri: "r8".into(),
            to: a,
            to_uri: "r6".into(),
        }]);
        let deps = g.call_dependencies();
        assert_eq!(
            deps,
            vec![(
                CallLabel::new("Translator", 3),
                CallLabel::new("LanguageExtractor", 2)
            )]
        );
    }

    #[test]
    fn acyclicity_check() {
        let mut g = ProvenanceGraph::default();
        g.add_links([link((1, "a"), (2, "b")), link((2, "b"), (3, "c"))]);
        assert!(g.is_acyclic());
        g.add_links([link((3, "c"), (1, "a"))]);
        assert!(!g.is_acyclic());
    }

    #[test]
    fn structural_propagation_reaches_nested_and_ancestor_resources() {
        // R(r1) → T(r4){ A(r6) }, T(r8){ C(r9) }; explicit link r8 → r4.
        let mut d = Document::new("R");
        let root = d.root();
        d.register_resource(root, "r1", None).unwrap();
        let t4 = d.append_element(root, "T").unwrap();
        d.register_resource(t4, "r4", Some(CallLabel::new("N", 1)))
            .unwrap();
        let a6 = d.append_element(t4, "A").unwrap();
        d.register_resource(a6, "r6", Some(CallLabel::new("L", 2)))
            .unwrap();
        let t8 = d.append_element(root, "T").unwrap();
        d.register_resource(t8, "r8", Some(CallLabel::new("T", 3)))
            .unwrap();
        let c9 = d.append_element(t8, "C").unwrap();
        d.register_resource(c9, "r9", Some(CallLabel::new("T", 3)))
            .unwrap();
        let mut g = ProvenanceGraph::from_view(&d.view());
        g.add_links([ProvLink {
            from: t8,
            from_uri: "r8".into(),
            to: t4,
            to_uri: "r4".into(),
        }]);
        let prop = g.propagate_structural(&d.view());
        let has = |f: &str, t: &str| {
            prop.iter().any(|l| l.from_uri == f && l.to_uri == t)
        };
        assert!(has("r8", "r4")); // original
        assert!(has("r9", "r4")); // descendant of dependent
        assert!(has("r8", "r6")); // descendant of dependency (the 8 → 6 link)
        assert!(has("r8", "r1")); // ancestor of dependency
        assert!(has("r9", "r6")); // both propagated
    }

    #[test]
    fn dot_export_contains_clusters_and_edges() {
        let (doc, trace, rules) = {
            crate::paper_example::build()
        };
        let g = crate::engine::infer_provenance(
            &doc,
            &trace,
            &rules,
            &crate::engine::EngineOptions::default(),
        );
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph provenance {"));
        assert!(dot.contains("label=\"(Normaliser, t1)\""));
        assert!(dot.contains("\"r8\" -> \"r4\";"));
        assert!(dot.ends_with("}\n"));
        // unlabelled endpoints (none here) would be dotted; r1 is absent
        assert!(!dot.contains("\"r1\""));
    }

    #[test]
    fn display_renders_figure2_layout() {
        let mut d = Document::new("R");
        let a = d.append_element(d.root(), "A").unwrap();
        d.register_resource(a, "3", Some(CallLabel::new("Source", 0)))
            .unwrap();
        let mut g = ProvenanceGraph::from_view(&d.view());
        g.add_links([ProvLink {
            from: a,
            from_uri: "3".into(),
            to: a,
            to_uri: "3".into(),
        }]);
        let s = g.to_string();
        assert!(s.contains("Source"));
        assert!(s.contains("3 | Source | t0"));
        assert!(s.contains("From | To"));
    }
}
