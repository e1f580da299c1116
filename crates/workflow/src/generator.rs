//! Synthetic corpora and workloads for the benchmark harness.
//!
//! The paper's platform "features many workflow executions of different
//! sizes" but publishes none; this module generates the synthetic
//! equivalents that the X1–X7 experiments sweep over:
//!
//! * [`generate_corpus`] — initial documents with a configurable number of
//!   `NativeContent` resources and text sizes (drives the media-mining
//!   pipeline);
//! * [`SyntheticService`] / [`synthetic_workload`] — a parametric service
//!   that appends `Item` resources referencing earlier items, giving
//!   precise control over workflow length, fan-out and join selectivity.

use std::sync::Mutex;

use crate::rng::SplitMix64;
use weblab_prov::RuleSet;
use weblab_xml::{CallLabel, Document};

use crate::orchestrator::Workflow;
use crate::service::{CallContext, Service, WorkflowError};

const EN_WORDS: &[&str] = &[
    "the", "data", "service", "workflow", "document", "analysis", "text", "language", "result",
    "media", "unit", "good", "war", "peace", "Paris", "Geneva", "report", "source", "archive",
    "mining",
];

const FR_WORDS: &[&str] = &[
    "le", "la", "les", "texte", "dans", "langue", "pour", "avec", "document", "analyse",
    "service", "donnees", "resultat", "guerre", "paix", "Paris", "est", "sont", "un", "une",
];

/// Generate pseudo-natural text of `words` words in the given language.
pub fn generate_text(rng: &mut SplitMix64, words: usize, lang: &str) -> String {
    let pool = if lang == "fr" { FR_WORDS } else { EN_WORDS };
    let mut out = Vec::with_capacity(words);
    for i in 0..words {
        out.push(pool[rng.gen_range(0..pool.len())].to_string());
        if i % 9 == 8 {
            let last = out.last_mut().unwrap();
            last.push('.');
        }
    }
    out.join(" ")
}

/// Build an initial corpus document: a `Resource` root with `MetaData` and
/// `n_native` identified `NativeContent` resources labelled `(Source, 0)`.
pub fn generate_corpus(seed: u64, n_native: usize, words_each: usize) -> Document {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut d = Document::new("Resource");
    let root = d.root();
    d.register_resource(root, "weblab://doc/0", None).unwrap();
    let meta = d.append_element(root, "MetaData").unwrap();
    d.set_attr(meta, "acquired", "2013-03-18").unwrap();
    for i in 0..n_native {
        let lang = if rng.gen_bool(0.5) { "fr" } else { "en" };
        let n = d.append_element(root, "NativeContent").unwrap();
        d.set_attr(n, "mime", "text/plain").unwrap();
        d.register_resource(
            n,
            format!("weblab://src/{i}"),
            Some(CallLabel::new("Source", 0)),
        )
        .unwrap();
        d.append_text(n, generate_text(&mut rng, words_each, lang))
            .unwrap();
    }
    d
}

/// Build a mixed-media corpus: text, image and audio `NativeContent`
/// resources (the platform mines "text, image, audio and video"). Image
/// and audio payloads carry embedded captions/transcripts that the OCR and
/// speech services "extract".
pub fn generate_mixed_corpus(seed: u64, n_each: usize, words_each: usize) -> Document {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut d = Document::new("Resource");
    let root = d.root();
    d.register_resource(root, "weblab://doc/mixed", None).unwrap();
    let mut i = 0;
    for mime in ["text/plain", "image/png", "audio/ogg"] {
        for _ in 0..n_each {
            let lang = if rng.gen_bool(0.5) { "fr" } else { "en" };
            let n = d.append_element(root, "NativeContent").unwrap();
            d.set_attr(n, "mime", mime).unwrap();
            d.register_resource(
                n,
                format!("weblab://src/{i}"),
                Some(CallLabel::new("Source", 0)),
            )
            .unwrap();
            d.append_text(n, generate_text(&mut rng, words_each, lang))
                .unwrap();
            i += 1;
        }
    }
    d
}

/// A parametric black-box service for scaling experiments: each call
/// appends `fanout` `Item` resources under the root; each item's `@ref`
/// points at a uniformly random item from an *earlier* call (when one
/// exists), so the canonical rule
/// `//Item[$x := @key] => //Item[@ref = $x]` yields exactly one provenance
/// link per item appended after the first call. (Same-call references are
/// deliberately avoided: Definition 9 only links a call's outputs to
/// resources of its *input* state.)
pub struct SyntheticService {
    rng: Mutex<SplitMix64>,
    fanout: usize,
    payload_words: usize,
}

impl SyntheticService {
    /// Create a service with the given per-call fan-out and payload size.
    pub fn new(seed: u64, fanout: usize, payload_words: usize) -> Self {
        SyntheticService {
            rng: Mutex::new(SplitMix64::seed_from_u64(seed)),
            fanout,
            payload_words,
        }
    }

    /// The mapping rule matching this service's output shape.
    pub fn rule() -> &'static str {
        "//Item[$x := @key] => //Item[@ref = $x]"
    }
}

impl Service for SyntheticService {
    fn name(&self) -> &str {
        "Synthetic"
    }

    fn call(&self, doc: &mut Document, ctx: &mut CallContext) -> Result<(), WorkflowError> {
        let mut rng = self.rng.lock().expect("rng poisoned");
        let v = doc.view();
        let root = doc.root();
        let existing: Vec<String> = v
            .descendants(root)
            .filter(|&n| v.name(n) == Some("Item"))
            .filter_map(|n| v.attr(n, "key").map(|s| s.to_string()))
            .collect();
        for _ in 0..self.fanout {
            let item = doc.append_element(root, "Item")?;
            let uri = ctx.register(doc, item)?;
            doc.set_attr(item, "key", uri)?;
            if !existing.is_empty() {
                let r = existing[rng.gen_range(0..existing.len())].clone();
                doc.set_attr(item, "ref", r)?;
            }
            if self.payload_words > 0 {
                let words = generate_text(&mut rng, self.payload_words, "en");
                doc.append_text(item, words)?;
            }
        }
        Ok(())
    }
}

/// Build an `n_calls`-step synthetic workflow plus its rule set and an
/// empty initial document — the standard scaling workload of experiments
/// X1–X3.
pub fn synthetic_workload(
    seed: u64,
    n_calls: usize,
    fanout: usize,
    payload_words: usize,
) -> (Document, Workflow, RuleSet) {
    let mut wf = Workflow::new();
    for i in 0..n_calls {
        wf = wf.then(SyntheticService::new(
            seed.wrapping_add(i as u64),
            fanout,
            payload_words,
        ));
    }
    let mut rules = RuleSet::new();
    rules
        .add_parsed("Synthetic", SyntheticService::rule())
        .unwrap();
    let mut doc = Document::new("Resource");
    let root = doc.root();
    doc.register_resource(root, "weblab://doc/synthetic", None)
        .unwrap();
    (doc, wf, rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::Orchestrator;
    use weblab_prov::oracle::{infer_provenance_with, Strategy};
    use weblab_prov::{infer_provenance, EngineOptions};

    #[test]
    fn corpus_generation_is_deterministic() {
        let a = generate_corpus(42, 3, 20);
        let b = generate_corpus(42, 3, 20);
        assert_eq!(
            weblab_xml::to_xml_string(&a.view()),
            weblab_xml::to_xml_string(&b.view())
        );
        assert_eq!(a.resource_nodes().len(), 4); // root + 3 native
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_corpus(1, 2, 30);
        let b = generate_corpus(2, 2, 30);
        assert_ne!(
            weblab_xml::to_xml_string(&a.view()),
            weblab_xml::to_xml_string(&b.view())
        );
    }

    #[test]
    fn mixed_media_pipeline_covers_all_modalities() {
        use crate::services::{Normaliser, OcrExtractor, SpeechTranscriber};
        let mut doc = generate_mixed_corpus(5, 2, 20);
        let wf = crate::Workflow::new()
            .then(Normaliser)
            .then(OcrExtractor)
            .then(SpeechTranscriber);
        let outcome = Orchestrator::new().execute(&wf, &mut doc).unwrap();
        assert_eq!(outcome.trace.len(), 3);
        // two units per modality, each produced by the right service
        for call in &outcome.trace.calls {
            assert_eq!(call.produced.len(), 4, "{}", call.service); // 2 units + 2 contents
        }
        // provenance links every unit to its own native content
        let g = infer_provenance(
            &doc,
            &outcome.trace,
            &crate::services::default_rules(),
            &EngineOptions::default(),
        );
        let unit_links = g
            .links
            .iter()
            .filter(|l| l.to_uri.starts_with("weblab://src/"))
            .count();
        assert_eq!(unit_links, 6);
        assert!(g.is_acyclic());
    }

    #[test]
    fn synthetic_workload_produces_expected_links() {
        let (mut doc, wf, rules) = synthetic_workload(7, 5, 3, 0);
        let outcome = Orchestrator::new().execute(&wf, &mut doc).unwrap();
        assert_eq!(outcome.trace.len(), 5);
        let g = infer_provenance(&doc, &outcome.trace, &rules, &EngineOptions::default());
        // every item after the first call references an earlier-call item
        assert_eq!(g.links.len(), (5 - 1) * 3);
        assert!(g.is_acyclic());
    }

    #[test]
    fn synthetic_strategies_agree() {
        let (mut doc, wf, rules) = synthetic_workload(11, 6, 2, 5);
        let outcome = Orchestrator::new().execute(&wf, &mut doc).unwrap();
        let base = infer_provenance(&doc, &outcome.trace, &rules, &EngineOptions::default());
        for strategy in [Strategy::StateReplay, Strategy::GroupedSinglePass] {
            let g = infer_provenance_with(
                &doc,
                &outcome.trace,
                &rules,
                strategy,
                &EngineOptions::default(),
            );
            assert_eq!(g.links, base.links);
        }
    }
}
