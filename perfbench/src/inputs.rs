//! Seeded inputs and the program objects every workload builds: corpora,
//! the media pipeline, and platforms with the built-in services.

use std::sync::Arc;

use weblab::platform::{Mapper, Platform};
use weblab::prov::ProvenanceGraph;
use weblab::workflow::generator::generate_text;
use weblab::workflow::rng::SplitMix64;
use weblab::workflow::services::{
    self, EntityExtractor, Indexer, KeywordExtractor, LanguageExtractor, Normaliser, OcrExtractor,
    SentimentAnalyser, SpeechTranscriber, Summariser, Tokeniser, Translator,
};
use weblab::workflow::{Orchestrator, Service, Workflow};
use weblab::xml::{CallLabel, Document};

/// The media pipeline every write runs, as platform service names.
pub const PIPELINE: [&str; 5] = [
    "Normaliser",
    "LanguageExtractor",
    "Translator",
    "Tokeniser",
    "EntityExtractor",
];

/// The same pipeline as `weblab run` spells it.
pub const CLI_PIPELINE: &str = "normaliser,language,translator,tokeniser,entities";

/// Words per native text resource in every corpus.
pub const WORDS: usize = 40;

/// A corpus of `natives` text resources, alternately French and English,
/// laid out like `generator::generate_corpus`'s. The seed varies the words,
/// never the shape (the generator draws each language at random), so
/// every seed gives operations of one cost class.
pub fn corpus(seed: u64, natives: usize) -> Document {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut d = Document::new("Resource");
    let root = d.root();
    d.register_resource(root, "weblab://doc/0", None)
        .expect("a fresh document takes its root");
    let meta = d
        .append_element(root, "MetaData")
        .expect("appending to the root");
    d.set_attr(meta, "acquired", "2013-03-18")
        .expect("setting an attribute");
    for i in 0..natives {
        let lang = if i % 2 == 0 { "fr" } else { "en" };
        let n = d
            .append_element(root, "NativeContent")
            .expect("appending to the root");
        d.set_attr(n, "mime", "text/plain")
            .expect("setting an attribute");
        d.register_resource(
            n,
            format!("weblab://src/{i}"),
            Some(CallLabel::new("Source", 0)),
        )
        .expect("resource uris are unique");
        d.append_text(n, generate_text(&mut rng, WORDS, lang))
            .expect("appending text");
    }
    d
}

/// Derive a sub-seed (SplitMix64 step) so streams for different purposes
/// never collide.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn workflow() -> Workflow {
    Workflow::new()
        .then(Normaliser)
        .then(LanguageExtractor)
        .then(Translator::default())
        .then(Tokeniser)
        .then(EntityExtractor)
}

/// Run the media pipeline in-process, as `weblab run` does.
pub fn stamp(doc: &mut Document) {
    Orchestrator::new()
        .execute(&workflow(), doc)
        .expect("the built-in media pipeline does not fail");
}

/// A platform with every built-in service and its default rules — what
/// `weblab serve` starts with.
pub fn platform() -> Platform {
    let rules = services::default_rules();
    let platform = Platform::new(Mapper::native());
    let builtins: Vec<Box<dyn Service>> = vec![
        Box::new(Normaliser),
        Box::new(LanguageExtractor),
        Box::new(Translator::default()),
        Box::new(Tokeniser),
        Box::new(EntityExtractor),
        Box::new(SentimentAnalyser),
        Box::new(KeywordExtractor),
        Box::new(Summariser),
        Box::new(Indexer),
        Box::new(OcrExtractor),
        Box::new(SpeechTranscriber),
    ];
    for svc in builtins {
        let texts: Vec<String> = rules
            .rules_for(svc.name())
            .iter()
            .map(|r| r.to_string())
            .collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        platform
            .register_service(Arc::from(svc), &refs)
            .expect("built-in rules parse");
    }
    platform
}

/// Resources that are the target of at least one link — the interesting
/// subjects of a why/lineage question — in graph order.
pub fn derived_uris(graph: &ProvenanceGraph) -> Vec<String> {
    let mut v: Vec<String> = graph.links.iter().map(|l| l.from_uri.clone()).collect();
    v.dedup();
    v
}

/// Resources that are the source of at least one link.
pub fn origin_uris(graph: &ProvenanceGraph) -> Vec<String> {
    let mut v: Vec<String> = graph.links.iter().map(|l| l.to_uri.clone()).collect();
    v.sort();
    v.dedup();
    v
}

/// Total size of the regular files under `dir`, bytes.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let p = e.path();
            if p.is_dir() {
                dir_bytes(&p)
            } else {
                e.metadata().map_or(0, |m| m.len())
            }
        })
        .sum()
}
