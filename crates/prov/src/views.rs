//! Provenance views over composite modules.
//!
//! Related work \[7\] (Bao, Davidson, Milo) studies *workflow views* that
//! group services into composite modules — "for focusing on relevant or
//! hiding private provenance information" — while keeping fine-grained
//! dependencies queryable. The paper notes the approaches compose: "the
//! statically defined provenance mapping rules could also be used to
//! generate different provenance views over the same workflow execution."
//!
//! A [`ViewSpec`] maps service names to module names; [`apply_view`]
//! collapses a provenance graph accordingly: resources produced by services
//! of one module become that module's output group, and dependency edges
//! are lifted (and deduplicated) between groups. Resources produced by
//! unmapped services keep their own identity, so a view can expose one
//! sub-pipeline in full detail while abstracting the rest.

use std::collections::BTreeMap;

use weblab_xml::CallLabel;

use crate::graph::ProvenanceGraph;

/// Assignment of services to composite modules.
#[derive(Debug, Clone, Default)]
pub struct ViewSpec {
    modules: BTreeMap<String, String>,
}

impl ViewSpec {
    /// Empty view (identity — nothing is grouped).
    pub fn new() -> Self {
        ViewSpec::default()
    }

    /// Assign a service to a module.
    pub fn group(mut self, service: impl Into<String>, module: impl Into<String>) -> Self {
        self.modules.insert(service.into(), module.into());
        self
    }

    /// The module of a service, if grouped.
    pub fn module_of(&self, service: &str) -> Option<&str> {
        self.modules.get(service).map(String::as_str)
    }
}

/// A node of the view graph: either a composite module or an ungrouped
/// resource.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ViewNode {
    /// All output of the services grouped under this module name.
    Module(String),
    /// An ungrouped resource, by URI.
    Resource(String),
}

impl std::fmt::Display for ViewNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViewNode::Module(m) => write!(f, "[{m}]"),
            ViewNode::Resource(r) => write!(f, "{r}"),
        }
    }
}

/// The collapsed graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ViewGraph {
    /// Deduplicated, sorted edges `dependent → dependency`.
    pub edges: Vec<(ViewNode, ViewNode)>,
}

impl ViewGraph {
    /// Direct dependencies of a view node.
    pub fn dependencies_of(&self, node: &ViewNode) -> Vec<&ViewNode> {
        self.edges
            .iter()
            .filter(|(f, _)| f == node)
            .map(|(_, t)| t)
            .collect()
    }

    /// Reachability between view nodes (the \[7\] query class): does `from`
    /// transitively depend on `to`?
    pub fn depends_on(&self, from: &ViewNode, to: &ViewNode) -> bool {
        let mut stack = vec![from];
        let mut seen = std::collections::HashSet::new();
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n.clone()) {
                continue;
            }
            for d in self.dependencies_of(n) {
                stack.push(d);
            }
        }
        false
    }
}

fn view_node(spec: &ViewSpec, label: Option<&CallLabel>, uri: &str) -> ViewNode {
    match label.and_then(|l| spec.module_of(&l.service)) {
        Some(module) => ViewNode::Module(module.to_string()),
        None => ViewNode::Resource(uri.to_string()),
    }
}

/// Collapse a provenance graph along a view specification.
pub fn apply_view(graph: &ProvenanceGraph, spec: &ViewSpec) -> ViewGraph {
    let labels = graph.label_map();
    let label = |uri: &str| labels.get(uri).copied();
    let mut edges: Vec<(ViewNode, ViewNode)> = graph
        .links
        .iter()
        .map(|l| {
            (
                view_node(spec, label(&l.from_uri), &l.from_uri),
                view_node(spec, label(&l.to_uri), &l.to_uri),
            )
        })
        .filter(|(f, t)| f != t) // intra-module edges are hidden
        .collect();
    edges.sort();
    edges.dedup();
    ViewGraph { edges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{infer_provenance, EngineOptions};
    use crate::paper_example;

    fn graph() -> ProvenanceGraph {
        let (doc, trace, rules) = paper_example::build();
        infer_provenance(&doc, &trace, &rules, &EngineOptions::default())
    }

    #[test]
    fn grouping_the_text_pipeline_hides_internal_edges() {
        let g = graph();
        // group Normaliser + LanguageExtractor into one "TextPrep" module
        let spec = ViewSpec::new()
            .group("Normaliser", "TextPrep")
            .group("LanguageExtractor", "TextPrep");
        let view = apply_view(&g, &spec);
        let prep = ViewNode::Module("TextPrep".into());
        // the internal edge 6 → 5 (both inside TextPrep) disappears
        assert!(!view.edges.iter().any(|(f, t)| f == &prep && t == &prep));
        // the Translator's output (ungrouped resource r8) depends on the module
        let r8 = ViewNode::Resource("r8".into());
        assert!(view.edges.contains(&(r8.clone(), prep.clone())));
        // and the module depends on the raw source r3
        assert!(view
            .edges
            .contains(&(prep.clone(), ViewNode::Resource("r3".into()))));
        // reachability through the module
        assert!(view.depends_on(&r8, &ViewNode::Resource("r3".into())));
    }

    #[test]
    fn identity_view_preserves_all_edges() {
        let g = graph();
        let view = apply_view(&g, &ViewSpec::new());
        assert_eq!(view.edges.len(), g.links.len());
        assert!(view
            .edges
            .iter()
            .all(|(f, t)| matches!(f, ViewNode::Resource(_)) && matches!(t, ViewNode::Resource(_))));
    }

    #[test]
    fn full_grouping_yields_module_level_lineage() {
        let g = graph();
        let spec = ViewSpec::new()
            .group("Source", "Acquisition")
            .group("Normaliser", "Processing")
            .group("LanguageExtractor", "Processing")
            .group("Translator", "Delivery");
        let view = apply_view(&g, &spec);
        let deliver = ViewNode::Module("Delivery".into());
        let acquire = ViewNode::Module("Acquisition".into());
        assert!(view.depends_on(&deliver, &acquire));
        // three modules, so at most module-to-module edges remain
        assert!(view.edges.len() <= 3);
    }

    #[test]
    fn a_uri_registered_twice_is_grouped_by_its_first_label() {
        use crate::algebra::ProvLink;
        use crate::graph::SourceEntry;
        use weblab_xml::NodeId;

        let source = |uri: &str, service: &str| SourceEntry {
            node: NodeId::from_index(1),
            uri: uri.into(),
            label: CallLabel::new(service, 1),
        };
        let mut g = ProvenanceGraph {
            sources: vec![
                source("r", "First"),
                source("r", "Second"),
                source("s", "Other"),
            ],
            links: Vec::new(),
        };
        g.add_links([ProvLink {
            from: NodeId::from_index(1),
            from_uri: "r".into(),
            to: NodeId::from_index(2),
            to_uri: "s".into(),
        }]);
        assert_eq!(g.label_map().get("r").copied(), g.label_of("r"));
        let spec = ViewSpec::new().group("First", "M1").group("Second", "M2");
        assert_eq!(
            apply_view(&g, &spec).edges,
            [(
                ViewNode::Module("M1".into()),
                ViewNode::Resource("s".into())
            )]
        );
    }

    #[test]
    fn display_renders_modules_bracketed() {
        assert_eq!(ViewNode::Module("M".into()).to_string(), "[M]");
        assert_eq!(ViewNode::Resource("r1".into()).to_string(), "r1");
    }
}
