//! PROV-XML export.
//!
//! Section 8 of the paper: "By using the PROV ontology, the RDF
//! representation of provenance meta-data can easily [be] replaced [by]
//! other formats like PROV-XML." This module materialises the same graph
//! in the W3C PROV-XML vocabulary, reusing `weblab-xml` as the document
//! substrate (the exporter's output is itself a WebLab document, so it can
//! be stored in the Resource Repository like any other artefact).
//!
//! The emitted shape follows the PROV-XML schema:
//!
//! ```xml
//! <prov:document>
//!   <prov:entity prov:id="r8"/>
//!   <prov:activity prov:id="wl:call/Translator/t3">
//!     <prov:startTime>3</prov:startTime>
//!   </prov:activity>
//!   <prov:wasGeneratedBy>
//!     <prov:entity prov:ref="r8"/>
//!     <prov:activity prov:ref="wl:call/Translator/t3"/>
//!   </prov:wasGeneratedBy>
//!   <prov:wasDerivedFrom>
//!     <prov:generatedEntity prov:ref="r8"/>
//!     <prov:usedEntity prov:ref="r4"/>
//!   </prov:wasDerivedFrom>
//!   …
//! </prov:document>
//! ```

use weblab_prov::ProvenanceGraph;
use weblab_xml::Document;

use crate::vocab::{activity_iri, agent_iri};

/// Build a PROV-XML document for a provenance graph.
pub fn export_prov_xml(graph: &ProvenanceGraph) -> Document {
    let mut doc = Document::new("prov:document");
    let root = doc.root();
    doc.set_attr(root, "xmlns:prov", "http://www.w3.org/ns/prov#")
        .expect("root attr");

    // entities
    for s in &graph.sources {
        let e = doc.append_element(root, "prov:entity").expect("entity");
        doc.set_attr(e, "prov:id", s.uri.clone()).expect("attr");
    }
    // activities + associations, deduplicated by call
    let mut seen_calls: Vec<(String, u64)> = Vec::new();
    let mut seen_agents: Vec<String> = Vec::new();
    for s in &graph.sources {
        let key = (s.label.service.clone(), s.label.time);
        if !seen_calls.contains(&key) {
            seen_calls.push(key);
            let a = doc.append_element(root, "prov:activity").expect("activity");
            doc.set_attr(a, "prov:id", activity_iri(&s.label.service, s.label.time))
                .expect("attr");
            let t = doc.append_element(a, "prov:startTime").expect("time");
            doc.append_text(t, s.label.time.to_string()).expect("text");
        }
        if !seen_agents.contains(&s.label.service) {
            seen_agents.push(s.label.service.clone());
            let ag = doc.append_element(root, "prov:agent").expect("agent");
            doc.set_attr(ag, "prov:id", agent_iri(&s.label.service))
                .expect("attr");
        }
    }
    // wasGeneratedBy (the labelling function λ)
    for s in &graph.sources {
        let g = doc
            .append_element(root, "prov:wasGeneratedBy")
            .expect("wgb");
        let e = doc.append_element(g, "prov:entity").expect("ref");
        doc.set_attr(e, "prov:ref", s.uri.clone()).expect("attr");
        let a = doc.append_element(g, "prov:activity").expect("ref");
        doc.set_attr(a, "prov:ref", activity_iri(&s.label.service, s.label.time))
            .expect("attr");
    }
    // associations
    for (service, time) in &seen_calls {
        let assoc = doc
            .append_element(root, "prov:wasAssociatedWith")
            .expect("assoc");
        let a = doc.append_element(assoc, "prov:activity").expect("ref");
        doc.set_attr(a, "prov:ref", activity_iri(service, *time))
            .expect("attr");
        let ag = doc.append_element(assoc, "prov:agent").expect("ref");
        doc.set_attr(ag, "prov:ref", agent_iri(service)).expect("attr");
    }
    // wasDerivedFrom + used (the dependency edges E)
    let labels = graph.label_map();
    for l in &graph.links {
        let d = doc
            .append_element(root, "prov:wasDerivedFrom")
            .expect("wdf");
        let ge = doc.append_element(d, "prov:generatedEntity").expect("ref");
        doc.set_attr(ge, "prov:ref", l.from_uri.clone()).expect("attr");
        let ue = doc.append_element(d, "prov:usedEntity").expect("ref");
        doc.set_attr(ue, "prov:ref", l.to_uri.clone()).expect("attr");
        if let Some(label) = labels.get(l.from_uri.as_str()) {
            let u = doc.append_element(root, "prov:used").expect("used");
            let a = doc.append_element(u, "prov:activity").expect("ref");
            doc.set_attr(a, "prov:ref", activity_iri(&label.service, label.time))
                .expect("attr");
            let e = doc.append_element(u, "prov:entity").expect("ref");
            doc.set_attr(e, "prov:ref", l.to_uri.clone()).expect("attr");
        }
    }
    doc
}

/// Parse a PROV-XML document back into `(generated, used)` derivation
/// pairs — the inverse of the edge part of [`export_prov_xml`], used for
/// round-trip verification and for importing graphs produced elsewhere.
pub fn derivations_from_prov_xml(doc: &Document) -> Vec<(String, String)> {
    let v = doc.view();
    let mut out = Vec::new();
    for n in v.descendants(doc.root()) {
        if v.name(n) != Some("prov:wasDerivedFrom") {
            continue;
        }
        let mut generated = None;
        let mut used = None;
        for c in v.children(n) {
            match v.name(c) {
                Some("prov:generatedEntity") => {
                    generated = v.attr(c, "prov:ref").map(String::from)
                }
                Some("prov:usedEntity") => used = v.attr(c, "prov:ref").map(String::from),
                _ => {}
            }
        }
        if let (Some(g), Some(u)) = (generated, used) {
            out.push((g, u));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use weblab_prov::{infer_provenance, paper_example, EngineOptions};
    use weblab_xml::{parse_document, to_xml_string};

    fn graph() -> ProvenanceGraph {
        let (doc, trace, rules) = paper_example::build();
        infer_provenance(&doc, &trace, &rules, &EngineOptions::default())
    }

    #[test]
    fn export_contains_all_parts() {
        let g = graph();
        let doc = export_prov_xml(&g);
        let v = doc.view();
        // count *top-level* declarations (children of the root); refs are
        // nested inside relation elements
        let count = |name: &str| {
            v.children(doc.root())
                .filter(|&n| v.name(n) == Some(name))
                .count()
        };
        assert_eq!(count("prov:entity"), g.sources.len());
        assert_eq!(count("prov:wasDerivedFrom"), g.links.len());
        assert_eq!(count("prov:wasGeneratedBy"), g.sources.len());
        // four distinct calls: Source t0, Normaliser t1, LE t2, Translator t3
        assert_eq!(count("prov:activity"), 4);
        assert_eq!(count("prov:wasAssociatedWith"), 4);
        assert_eq!(count("prov:agent"), 4); // four distinct services
    }

    #[test]
    fn derivations_round_trip_through_serialisation() {
        let g = graph();
        let doc = export_prov_xml(&g);
        let xml = to_xml_string(&doc.view());
        let back = parse_document(&xml).unwrap();
        let mut pairs = derivations_from_prov_xml(&back);
        pairs.sort();
        let mut expected: Vec<(String, String)> = g
            .links
            .iter()
            .map(|l| (l.from_uri.clone(), l.to_uri.clone()))
            .collect();
        expected.sort();
        assert_eq!(pairs, expected);
    }

    #[test]
    fn empty_graph_is_a_valid_document() {
        let g = ProvenanceGraph::default();
        let doc = export_prov_xml(&g);
        assert_eq!(doc.view().children(doc.root()).len(), 0);
        assert!(derivations_from_prov_xml(&doc).is_empty());
    }
}
