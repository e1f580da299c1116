//! Exporting provenance graphs to RDF-PROV (PROV-O).
//!
//! The mapping follows the paper's architecture (Section 6): the
//! Provenance triple store holds the graph in the PROV ontology, queryable
//! through SPARQL.
//!
//! | WebLab PROV concept            | PROV-O                               |
//! |--------------------------------|--------------------------------------|
//! | labelled resource `r`          | `prov:Entity` (IRI = resource URI)   |
//! | service call `(s, t)` = `λ(r)` | `prov:Activity` + `prov:startedAtTime` |
//! | service `s`                    | `prov:Agent` via `prov:wasAssociatedWith` |
//! | `λ(r) = c`                     | `r prov:wasGeneratedBy c`            |
//! | edge `r → r'` ∈ E              | `r prov:wasDerivedFrom r'` and `λ(r) prov:used r'` |

use std::collections::HashMap;

use weblab_prov::{ProvLink, ProvenanceGraph, SourceEntry};
use weblab_xml::CallLabel;

use crate::store::TripleStore;
use crate::term::{Term, Triple};
use crate::vocab::{
    activity_iri, agent_iri, PROV_ACTIVITY, PROV_AGENT, PROV_ENTITY, PROV_STARTED_AT_TIME,
    PROV_USED, PROV_WAS_ASSOCIATED_WITH, PROV_WAS_DERIVED_FROM, PROV_WAS_GENERATED_BY, RDF_TYPE,
};

/// The PROV-O triples describing one Source row: the entity, its
/// generating activity and agent with their types, and the
/// `wasGeneratedBy` / `wasAssociatedWith` / `startedAtTime` edges — the
/// shape [`export_prov`] emits, and [`export_prov_into`] in id space.
pub fn source_triples(s: &SourceEntry) -> Vec<Triple> {
    let type_iri = Term::iri(RDF_TYPE);
    let entity = Term::iri(&s.uri);
    let activity = Term::iri(activity_iri(&s.label.service, s.label.time));
    let agent = Term::iri(agent_iri(&s.label.service));
    vec![
        Triple::new(entity.clone(), type_iri.clone(), Term::iri(PROV_ENTITY)),
        Triple::new(activity.clone(), type_iri.clone(), Term::iri(PROV_ACTIVITY)),
        Triple::new(agent.clone(), type_iri, Term::iri(PROV_AGENT)),
        Triple::new(entity, Term::iri(PROV_WAS_GENERATED_BY), activity.clone()),
        Triple::new(
            activity.clone(),
            Term::iri(PROV_WAS_ASSOCIATED_WITH),
            agent,
        ),
        Triple::new(
            activity,
            Term::iri(PROV_STARTED_AT_TIME),
            Term::int(s.label.time as i64),
        ),
    ]
}

/// The PROV-O triples describing one dependency link: `wasDerivedFrom`,
/// plus `<activity> prov:used <source>` when the dependent endpoint's
/// generating call is known.
pub fn link_triples(l: &ProvLink, label: Option<&CallLabel>) -> Vec<Triple> {
    let mut out = vec![Triple::new(
        Term::iri(&l.from_uri),
        Term::iri(PROV_WAS_DERIVED_FROM),
        Term::iri(&l.to_uri),
    )];
    // the generating activity used the source entity
    if let Some(label) = label {
        out.push(Triple::new(
            Term::iri(activity_iri(&label.service, label.time)),
            Term::iri(PROV_USED),
            Term::iri(&l.to_uri),
        ));
    }
    out
}

/// Convert a provenance graph into PROV-O triples.
pub fn export_prov(graph: &ProvenanceGraph) -> Vec<Triple> {
    let labels = graph.label_map();
    let mut out = Vec::with_capacity(graph.sources.len() * 6 + graph.links.len() * 2);
    for s in &graph.sources {
        out.extend(source_triples(s));
    }
    for l in &graph.links {
        out.extend(link_triples(l, labels.get(l.from_uri.as_str()).copied()));
    }
    out
}

/// Dictionary ids of one service call's activity, agent and start time.
#[derive(Clone, Copy)]
struct CallIds {
    activity: u32,
    agent: u32,
    time: u32,
}

/// Builds PROV-O rows against one store's dictionary. The vocabulary is
/// interned when the builder is made, and each distinct call's activity,
/// agent and start-time terms on that call's first row, so the hot loops
/// below format and hash those terms once per call instead of once per
/// row.
struct RowBuilder {
    ty: u32,
    entity_cls: u32,
    activity_cls: u32,
    agent_cls: u32,
    was_generated_by: u32,
    was_associated_with: u32,
    started_at_time: u32,
    was_derived_from: u32,
    used: u32,
    calls: HashMap<CallLabel, CallIds>,
}

impl RowBuilder {
    fn new(store: &mut TripleStore) -> Self {
        RowBuilder {
            ty: store.intern_term(&Term::iri(RDF_TYPE)),
            entity_cls: store.intern_term(&Term::iri(PROV_ENTITY)),
            activity_cls: store.intern_term(&Term::iri(PROV_ACTIVITY)),
            agent_cls: store.intern_term(&Term::iri(PROV_AGENT)),
            was_generated_by: store.intern_term(&Term::iri(PROV_WAS_GENERATED_BY)),
            was_associated_with: store.intern_term(&Term::iri(PROV_WAS_ASSOCIATED_WITH)),
            started_at_time: store.intern_term(&Term::iri(PROV_STARTED_AT_TIME)),
            was_derived_from: store.intern_term(&Term::iri(PROV_WAS_DERIVED_FROM)),
            used: store.intern_term(&Term::iri(PROV_USED)),
            calls: HashMap::new(),
        }
    }

    fn call(&mut self, store: &mut TripleStore, label: &CallLabel) -> CallIds {
        if let Some(&ids) = self.calls.get(label) {
            return ids;
        }
        let ids = CallIds {
            activity: store.intern_term(&Term::iri(activity_iri(&label.service, label.time))),
            agent: store.intern_term(&Term::iri(agent_iri(&label.service))),
            time: store.intern_term(&Term::int(label.time as i64)),
        };
        self.calls.insert(label.clone(), ids);
        ids
    }

    /// Id-space twin of [`source_triples`]: appends the same six triples
    /// as dictionary rows.
    fn source_rows(
        &mut self,
        store: &mut TripleStore,
        s: &SourceEntry,
        rows: &mut Vec<[u32; 3]>,
    ) {
        let entity = store.intern_term(&Term::iri(&s.uri));
        let c = self.call(store, &s.label);
        rows.extend([
            [entity, self.ty, self.entity_cls],
            [c.activity, self.ty, self.activity_cls],
            [c.agent, self.ty, self.agent_cls],
            [entity, self.was_generated_by, c.activity],
            [c.activity, self.was_associated_with, c.agent],
            [c.activity, self.started_at_time, c.time],
        ]);
    }

    /// Id-space twin of [`link_triples`].
    fn link_rows(
        &mut self,
        store: &mut TripleStore,
        l: &ProvLink,
        label: Option<&CallLabel>,
        rows: &mut Vec<[u32; 3]>,
    ) {
        let from = store.intern_term(&Term::iri(&l.from_uri));
        let to = store.intern_term(&Term::iri(&l.to_uri));
        rows.push([from, self.was_derived_from, to]);
        if let Some(label) = label {
            let act = self.call(store, label).activity;
            rows.push([act, self.used, to]);
        }
    }
}

/// Export directly into a [`TripleStore`], returning the triple count
/// (duplicates included, like the `Vec` exporter's length). Builds id
/// rows straight against the store's dictionary and merges them in one
/// batch — no intermediate `Vec<Triple>`, no per-triple `Term` clones.
pub fn export_prov_into(graph: &ProvenanceGraph, store: &mut TripleStore) -> usize {
    let labels = graph.label_map();
    let mut b = RowBuilder::new(store);
    let mut rows = Vec::with_capacity(graph.sources.len() * 6 + graph.links.len() * 2);
    for s in &graph.sources {
        b.source_rows(store, s, &mut rows);
    }
    for l in &graph.links {
        let label = labels.get(l.from_uri.as_str()).copied();
        b.link_rows(store, l, label, &mut rows);
    }
    let n = rows.len();
    store.insert_rows(rows);
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use weblab_prov::{infer_provenance, paper_example, EngineOptions};

    #[test]
    fn paper_example_exports_expected_shapes() {
        let (doc, trace, rules) = paper_example::build();
        let graph = infer_provenance(&doc, &trace, &rules, &EngineOptions::default());
        let mut store = TripleStore::new();
        export_prov_into(&graph, &mut store);

        // r8 wasDerivedFrom r4 (Example 7)
        assert!(store.contains(&Triple::new(
            Term::iri("r8"),
            Term::iri(PROV_WAS_DERIVED_FROM),
            Term::iri("r4"),
        )));
        // the Translator call used r4
        assert!(store.contains(&Triple::new(
            Term::iri(activity_iri("Translator", 3)),
            Term::iri(PROV_USED),
            Term::iri("r4"),
        )));
        // r8 wasGeneratedBy the Translator call
        assert!(store.contains(&Triple::new(
            Term::iri("r8"),
            Term::iri(PROV_WAS_GENERATED_BY),
            Term::iri(activity_iri("Translator", 3)),
        )));
        // every labelled resource is an Entity
        let entities = store.matching(
            &None,
            &Some(Term::iri(RDF_TYPE)),
            &Some(Term::iri(PROV_ENTITY)),
        );
        assert_eq!(entities.len(), graph.sources.len());
    }

    #[test]
    fn row_exporter_matches_triple_exporter() {
        let (doc, trace, rules) = paper_example::build();
        let graph = infer_provenance(&doc, &trace, &rules, &EngineOptions::default());
        let mut via_rows = TripleStore::new();
        let n = export_prov_into(&graph, &mut via_rows);
        let triples = export_prov(&graph);
        assert_eq!(n, triples.len(), "returned count is the generated count");
        let mut via_triples = TripleStore::new();
        via_triples.extend(triples);
        assert_eq!(
            via_rows.iter().collect::<Vec<_>>(),
            via_triples.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_uri_registered_twice_takes_its_first_label_in_every_exporter() {
        use crate::provxml::export_prov_xml;
        use weblab_xml::NodeId;

        let first = CallLabel::new("First", 1);
        let second = CallLabel::new("Second", 2);
        let source = |i: usize, uri: &str, label: &CallLabel| SourceEntry {
            node: NodeId::from_index(i),
            uri: uri.into(),
            label: label.clone(),
        };
        let mut g = ProvenanceGraph {
            sources: vec![
                source(1, "r", &first),
                source(2, "r", &second),
                source(3, "s", &second),
            ],
            links: Vec::new(),
        };
        g.add_links([ProvLink {
            from: NodeId::from_index(1),
            from_uri: "r".into(),
            to: NodeId::from_index(3),
            to_uri: "s".into(),
        }]);
        assert_eq!(g.label_of("r"), Some(&first));
        let used = |label: &CallLabel| {
            Triple::new(
                Term::iri(activity_iri(&label.service, label.time)),
                Term::iri(PROV_USED),
                Term::iri("s"),
            )
        };

        let triples = export_prov(&g);
        assert!(triples.contains(&used(&first)) && !triples.contains(&used(&second)));

        let mut store = TripleStore::new();
        export_prov_into(&g, &mut store);
        assert!(store.contains(&used(&first)) && !store.contains(&used(&second)));

        let doc = export_prov_xml(&g);
        let v = doc.view();
        let used_by: Vec<&str> = v
            .children(doc.root())
            .filter(|&n| v.name(n) == Some("prov:used"))
            .flat_map(|n| v.children(n))
            .filter(|&c| v.name(c) == Some("prov:activity"))
            .filter_map(|c| v.attr(c, "prov:ref"))
            .collect();
        assert_eq!(used_by, [activity_iri("First", 1)]);
    }

    #[test]
    fn export_into_is_idempotent() {
        let (doc, trace, rules) = paper_example::build();
        let graph = infer_provenance(&doc, &trace, &rules, &EngineOptions::default());
        let mut store = TripleStore::new();
        let n1 = export_prov_into(&graph, &mut store);
        let total = store.len();
        let n2 = export_prov_into(&graph, &mut store);
        assert_eq!(n1, n2);
        assert_eq!(store.len(), total); // no duplicates
    }
}
