//! Integration of the provenance analysis layers — why-provenance, impact
//! and views — over a realistically sized pipeline run.

mod support;

use support::edgewalk;
use weblab::prov::views::{apply_view, ViewNode, ViewSpec};
use weblab::prov::{infer_provenance, EngineOptions, InheritMode, ReachabilityIndex};
use weblab::workflow::generator::generate_mixed_corpus;
use weblab::workflow::services::{
    self, Indexer, LanguageExtractor, Normaliser, OcrExtractor, SpeechTranscriber, Summariser,
    Translator,
};
use weblab::workflow::{Orchestrator, Workflow};

fn executed() -> (weblab::xml::Document, weblab::prov::ProvenanceGraph) {
    let mut doc = generate_mixed_corpus(31, 3, 35);
    let wf = Workflow::new()
        .then(Normaliser)
        .then(OcrExtractor)
        .then(SpeechTranscriber)
        .then(LanguageExtractor)
        .then(Translator::default())
        .then(LanguageExtractor)
        .then(Summariser)
        .then(Indexer);
    let outcome = Orchestrator::new().execute(&wf, &mut doc).unwrap();
    let graph = infer_provenance(
        &doc,
        &outcome.trace,
        &services::default_rules(),
        &EngineOptions {
            inherit: InheritMode::GraphPropagation,
            ..Default::default()
        },
    );
    (doc, graph)
}

#[test]
fn why_provenance_of_every_summary_reaches_a_source() {
    let (doc, graph) = executed();
    let index = ReachabilityIndex::from_graph(&graph);
    let v = doc.view();
    let mut summaries = 0;
    for &node in doc.resource_nodes() {
        if v.name(node) != Some("Summary") {
            continue;
        }
        summaries += 1;
        let uri = v.uri(node).unwrap();
        let w = index.why(uri);
        assert!(
            w.resources.iter().any(|r| r.starts_with("weblab://src/")),
            "summary {uri} does not trace to a source"
        );
        // lineage depth 1 is exactly the direct dependencies
        let d1 = index.lineage(uri, 1);
        let direct = graph.dependencies_of(uri);
        assert_eq!(d1.len() - 1, direct.len());
    }
    assert!(summaries >= 9); // 9 units (3 modalities × 3) get summaries
}

#[test]
fn impact_of_a_source_equals_reverse_reachability() {
    let (_, graph) = executed();
    let impacted = ReachabilityIndex::from_graph(&graph).impacted_by("weblab://src/0");
    // cross-check against the edge walk's transitive dependencies from the
    // other side
    for uri in &impacted {
        assert!(
            edgewalk::why(&graph, uri).resources.contains("weblab://src/0"),
            "{uri} reported impacted but does not depend on the source"
        );
    }
    assert!(!impacted.is_empty());
}

#[test]
fn module_view_over_the_full_pipeline() {
    let (_, graph) = executed();
    let spec = ViewSpec::new()
        .group("Normaliser", "Ingestion")
        .group("OcrExtractor", "Ingestion")
        .group("SpeechTranscriber", "Ingestion")
        .group("LanguageExtractor", "Enrichment")
        .group("Translator", "Enrichment")
        .group("Summariser", "Delivery")
        .group("Indexer", "Delivery");
    let view = apply_view(&graph, &spec);
    let delivery = ViewNode::Module("Delivery".into());
    let ingestion = ViewNode::Module("Ingestion".into());
    assert!(view.depends_on(&delivery, &ingestion));
    // raw sources stay visible as ungrouped resources
    assert!(view
        .edges
        .iter()
        .any(|(_, t)| matches!(t, ViewNode::Resource(r) if r.starts_with("weblab://src/"))));
    // the view is never larger than the base graph
    assert!(view.edges.len() <= graph.links.len());
}
