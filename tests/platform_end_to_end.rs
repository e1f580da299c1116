//! Integration tests across the full Figure 5 architecture: ingest →
//! execute → record → materialise → SPARQL, through both mapper back-ends
//! and through the out-of-process exchange path.
//!
//! Written against the `ExecutionHandle` façade (`Platform::execution`),
//! the one per-execution surface the platform exposes.

use std::sync::Arc;

use weblab::platform::{Mapper, Platform};
use weblab::rdf::vocab::{activity_iri, PROV_NS};
use weblab::rdf::Term;
use weblab::workflow::generator::generate_corpus;
use weblab::workflow::services::{
    self, EntityExtractor, Indexer, KeywordExtractor, LanguageExtractor, Normaliser,
    SentimentAnalyser, Summariser, Tokeniser, Translator,
};
use weblab::xml::{to_xml_string, CallLabel, Document};

fn full_platform(mapper: Mapper) -> Platform {
    let p = Platform::new(mapper);
    let rules = services::default_rules();
    let register = |p: &Platform, svc: Arc<dyn weblab::workflow::Service>| {
        let name = svc.name().to_string();
        let texts: Vec<String> = rules
            .rules_for(&name)
            .iter()
            .map(|r| r.to_string())
            .collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        p.register_service(svc, &refs).unwrap();
    };
    register(&p, Arc::new(Normaliser));
    register(&p, Arc::new(LanguageExtractor));
    register(&p, Arc::new(Translator::default()));
    register(&p, Arc::new(Tokeniser));
    register(&p, Arc::new(EntityExtractor));
    register(&p, Arc::new(SentimentAnalyser));
    register(&p, Arc::new(KeywordExtractor));
    register(&p, Arc::new(Summariser));
    register(&p, Arc::new(Indexer));
    p
}

const PIPELINE: &[&str] = &[
    "Normaliser",
    "LanguageExtractor",
    "Translator",
    "LanguageExtractor",
    "Tokeniser",
    "EntityExtractor",
    "SentimentAnalyser",
    "KeywordExtractor",
    "Summariser",
    "Indexer",
];

#[test]
fn end_to_end_media_mining_with_native_mapper() {
    let p = full_platform(Mapper::native());
    p.ingest("exec", generate_corpus(17, 3, 40));
    p.execute("exec", PIPELINE).unwrap();

    let graph = p.execution("exec").graph().unwrap();
    assert!(graph.is_acyclic());
    assert!(graph.links.len() >= 6);

    // SPARQL: which activities used which entities?
    let sols = p.execution("exec")
        .sparql(
            &format!(
                "PREFIX prov: <{PROV_NS}> SELECT ?a ?e WHERE {{ ?a prov:used ?e . }}"
            ),
        )
        .unwrap();
    assert!(!sols.is_empty());

    // transitive question through a two-hop BGP: summaries ultimately
    // trace back to native content
    let sols = p.execution("exec")
        .sparql(
            &format!(
                "PREFIX prov: <{PROV_NS}> SELECT ?summary ?src WHERE {{ \
                   ?summary prov:wasDerivedFrom ?mid . \
                   ?mid prov:wasDerivedFrom ?src . }}"
            ),
        )
        .unwrap();
    assert!(sols
        .iter()
        .any(|s| matches!(&s["src"], Term::Iri(i) if i.starts_with("weblab://src/"))));
}

#[test]
fn xquery_mapper_agrees_with_native_on_the_pipeline() {
    // all default_rules are position-free, so both mappers handle them
    let native = full_platform(Mapper::native());
    let compiled = full_platform(Mapper::xquery());
    for p in [&native, &compiled] {
        p.ingest("e", generate_corpus(23, 2, 35));
        p.execute("e", PIPELINE).unwrap();
    }
    let g1 = native.execution("e").graph().unwrap();
    let g2 = compiled.execution("e").graph().unwrap();
    assert_eq!(g1.links, g2.links);
    assert!(!g1.links.is_empty());
}

#[test]
fn exchange_based_recording_matches_in_process_execution() {
    // Run the pipeline in-process, then replay the same evolution through
    // the handle's XML-exchange path and verify the traces agree.
    let p = full_platform(Mapper::native());
    p.ingest("in-process", generate_corpus(5, 1, 30));
    p.execute("in-process", &["Normaliser", "LanguageExtractor"])
        .unwrap();
    let g_in = p.execution("in-process").graph().unwrap();

    // simulate the SOAP flow: serialise after each step and hand the full
    // response to the execution's handle
    let q = full_platform(Mapper::native());
    let doc0 = generate_corpus(5, 1, 30);
    q.ingest("exchange", doc0.clone());

    // step 1: run Normaliser out-of-band on a copy, serialise the result
    let mut side = doc0.clone();
    let mut ctx = weblab::workflow::CallContext::new("Normaliser", 1);
    use weblab::workflow::Service as _;
    Normaliser.call(&mut side, &mut ctx).unwrap();
    let response1 = to_xml_string(&side.view());
    q.execution("exchange")
        .record_exchange("Normaliser", 1, &response1)
        .unwrap();

    // step 2: LanguageExtractor on the updated copy
    let mut ctx = weblab::workflow::CallContext::new("LanguageExtractor", 2);
    LanguageExtractor.call(&mut side, &mut ctx).unwrap();
    let response2 = to_xml_string(&side.view());
    q.execution("exchange")
        .record_exchange("LanguageExtractor", 2, &response2)
        .unwrap();

    let g_ex = q.execution("exchange").graph().unwrap();
    let pairs = |g: &weblab::prov::ProvenanceGraph| {
        let mut v: Vec<(String, String)> = g
            .links
            .iter()
            .map(|l| (l.from_uri.clone(), l.to_uri.clone()))
            .collect();
        v.sort();
        v
    };
    assert_eq!(pairs(&g_in), pairs(&g_ex));
    assert!(!g_ex.links.is_empty());
}

#[test]
fn repeated_execution_extends_the_same_document() {
    let p = full_platform(Mapper::native());
    p.ingest("e", generate_corpus(9, 1, 25));
    p.execute("e", &["Normaliser"]).unwrap();
    p.execute("e", &["LanguageExtractor"]).unwrap();
    // timestamps continue across execute() calls
    let g = p.execution("e").graph().unwrap();
    let times: Vec<u64> = g.sources.iter().map(|s| s.label.time).collect();
    assert!(times.contains(&1));
    assert!(times.contains(&2));
}

#[test]
fn skolem_aggregation_flows_through_the_platform() {
    // Indexer groups language annotations into IndexEntry resources via the
    // Skolem rule idx($l) — verify the links materialise and export to RDF.
    let p = full_platform(Mapper::native());

    // bilingual corpus: one French and one English native doc
    let mut doc = Document::new("Resource");
    let root = doc.root();
    doc.register_resource(root, "weblab://doc/skolem", None)
        .unwrap();
    for (i, text) in [
        "le texte est dans la langue pour la paix",
        "the text is in the language for peace",
    ]
    .iter()
    .enumerate()
    {
        let n = doc.append_element(root, "NativeContent").unwrap();
        doc.register_resource(
            n,
            format!("weblab://src/{i}"),
            Some(CallLabel::new("Source", 0)),
        )
        .unwrap();
        doc.append_text(n, *text).unwrap();
    }
    p.ingest("e", doc);
    p.execute("e", &["Normaliser", "LanguageExtractor", "Indexer"])
        .unwrap();
    let g = p.execution("e").graph().unwrap();
    // two index entries (fr, en), each depending on its annotation(s)
    let entry_deps: Vec<_> = g
        .links
        .iter()
        .filter(|l| l.from_uri.contains("Indexer"))
        .collect();
    assert_eq!(entry_deps.len(), 2);

    // and the Indexer activity appears in the provenance store
    let sols = p.execution("e")
        .sparql(
            &format!(
                "PREFIX prov: <{PROV_NS}> SELECT ?e WHERE {{ \
                   ?e prov:wasGeneratedBy <{}> . }}",
                activity_iri("Indexer", 3)
            ),
        )
        .unwrap();
    assert_eq!(sols.len(), 3); // the Index container + 2 entries
}
