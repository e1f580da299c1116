//! The media-mining service library.
//!
//! Analogues of the WebLab platform's text-mining components, operating on
//! the full-name vocabulary (`Resource`, `NativeContent`, `TextMediaUnit`,
//! `TextContent`, `Annotation`, `Language`, `Summary`, `Index`). Every
//! service is a black box from the engine's point of view; the only
//! provenance-relevant artefacts are the fragments it appends and the
//! alignment attributes it writes (`origin`, `translation-of`, `of`,
//! `group`), which the mapping rules of [`default_rules`] exploit.
//!
//! Services are idempotent: each checks for its own prior output before
//! producing more, so arbitrarily long service chains keep executing
//! meaningfully.

use weblab_prov::RuleSet;
use weblab_xml::{Document, NodeId};

use crate::service::{CallContext, Service, WorkflowError};
use crate::text;

/// The mapping rules `M(s)` for every service in this module, in the
/// concrete syntax of Figure 3.
pub fn default_rules() -> RuleSet {
    let mut rules = RuleSet::new();
    rules
        .add_parsed(
            "Normaliser",
            "//NativeContent[$x := @id] => //TextMediaUnit[@origin = $x]",
        )
        .unwrap();
    rules
        .add_parsed(
            "OcrExtractor",
            "//NativeContent[$x := @id] => //TextMediaUnit[@origin = $x]",
        )
        .unwrap();
    rules
        .add_parsed(
            "SpeechTranscriber",
            "//NativeContent[$x := @id] => //TextMediaUnit[@origin = $x]",
        )
        .unwrap();
    rules
        .add_parsed(
            "LanguageExtractor",
            "//TextMediaUnit[$x := @id]/TextContent => //TextMediaUnit[$x := @id]/Annotation[Language]",
        )
        .unwrap();
    rules
        .add_parsed(
            "Translator",
            "//TextMediaUnit[$x := @id] => //TextMediaUnit[@translation-of = $x]",
        )
        .unwrap();
    rules
        .add_parsed(
            "Tokeniser",
            "//TextMediaUnit[$x := @id]/TextContent => //TextMediaUnit[$x := @id]/Annotation[Tokens]",
        )
        .unwrap();
    rules
        .add_parsed(
            "EntityExtractor",
            "//TextMediaUnit[$x := @id]/TextContent => //TextMediaUnit[$x := @id]/Annotation[Entity]",
        )
        .unwrap();
    rules
        .add_parsed(
            "Summariser",
            "//TextMediaUnit[$x := @id]/TextContent => //Summary[@of = $x]",
        )
        .unwrap();
    rules
        .add_parsed(
            "SentimentAnalyser",
            "//TextMediaUnit[$x := @id]/TextContent => //TextMediaUnit[$x := @id]/Annotation[Sentiment]",
        )
        .unwrap();
    rules
        .add_parsed(
            "KeywordExtractor",
            "//TextMediaUnit[$x := @id]/TextContent => //TextMediaUnit[$x := @id]/Annotation[Keyword]",
        )
        .unwrap();
    rules
        .add_parsed(
            // many-to-one Skolem aggregation (Section 5): every language
            // annotation with @lang = l feeds the index entry whose @group
            // is the rendered term idx(l)
            "Indexer",
            "//Annotation[$l := @lang] => //IndexEntry[idx($l) := @group]",
        )
        .unwrap();
    rules
}

/// All text-media units at the current state, in document order.
fn text_media_units(doc: &Document) -> Vec<NodeId> {
    let v = doc.view();
    v.descendants(doc.root())
        .filter(|&n| v.name(n) == Some("TextMediaUnit"))
        .collect()
}

/// Text content of a unit's `TextContent` child, if any.
fn unit_text(doc: &Document, unit: NodeId) -> Option<(NodeId, String)> {
    let v = doc.view();
    v.children(unit)
        .find(|&c| v.name(c) == Some("TextContent"))
        .map(|c| (c, v.text_content(c)))
}

/// Whether `unit` already has an `Annotation` containing a `kind` child.
fn has_annotation(doc: &Document, unit: NodeId, kind: &str) -> bool {
    let v = doc.view();
    v.children(unit)
        .filter(|&c| v.name(c) == Some("Annotation"))
        .any(|a| v.children(a).any(|k| v.name(k) == Some(kind)))
}

/// Shared worker: wrap each unprocessed `NativeContent` whose `@mime`
/// matches `mime_prefix` into a `TextMediaUnit` (linked via `@origin`),
/// transforming the raw text with `transform`.
fn wrap_native_content(
    doc: &mut Document,
    ctx: &mut CallContext,
    mime_prefix: Option<&str>,
    transform: impl Fn(&str) -> String,
) -> Result<(), WorkflowError> {
    let v = doc.view();
    let root = doc.root();
    let natives: Vec<(String, String)> = v
        .descendants(root)
        .filter(|&n| v.name(n) == Some("NativeContent"))
        .filter(|&n| match mime_prefix {
            None => {
                // default: text or missing mime
                v.attr(n, "mime").map(|m| m.starts_with("text/")).unwrap_or(true)
            }
            Some(prefix) => v
                .attr(n, "mime")
                .map(|m| m.starts_with(prefix))
                .unwrap_or(false),
        })
        .filter_map(|n| {
            let uri = v.uri(n)?.to_string();
            Some((uri, v.text_content(n)))
        })
        .collect();
    let done: Vec<String> = v
        .descendants(root)
        .filter(|&n| v.name(n) == Some("TextMediaUnit"))
        .filter_map(|n| v.attr(n, "origin").map(|s| s.to_string()))
        .collect();
    for (uri, raw) in natives {
        if done.contains(&uri) {
            continue;
        }
        let unit = doc.append_element(root, "TextMediaUnit")?;
        doc.set_attr(unit, "origin", uri)?;
        ctx.register(doc, unit)?;
        let tc = doc.append_element(unit, "TextContent")?;
        doc.append_text(tc, transform(&raw))?;
        ctx.register(doc, tc)?;
    }
    Ok(())
}

/// Normaliser: turns each raw textual `NativeContent` resource into a
/// `TextMediaUnit` with normalised `TextContent`, linked through `@origin`.
pub struct Normaliser;

impl Service for Normaliser {
    fn name(&self) -> &str {
        "Normaliser"
    }

    fn call(&self, doc: &mut Document, ctx: &mut CallContext) -> Result<(), WorkflowError> {
        wrap_native_content(doc, ctx, None, text::normalise)
    }
}

/// OcrExtractor: turns image `NativeContent` (mime `image/*`) into a
/// `TextMediaUnit` by "reading" the embedded caption — the platform's
/// image-mining entry point. (A real deployment plugs an OCR engine in;
/// the black-box model only sees the appended unit.)
pub struct OcrExtractor;

impl Service for OcrExtractor {
    fn name(&self) -> &str {
        "OcrExtractor"
    }

    fn call(&self, doc: &mut Document, ctx: &mut CallContext) -> Result<(), WorkflowError> {
        wrap_native_content(doc, ctx, Some("image/"), |raw| {
            format!("[ocr] {}", text::normalise(raw))
        })
    }
}

/// SpeechTranscriber: turns audio `NativeContent` (mime `audio/*`) into a
/// `TextMediaUnit` — the audio-mining entry point.
pub struct SpeechTranscriber;

impl Service for SpeechTranscriber {
    fn name(&self) -> &str {
        "SpeechTranscriber"
    }

    fn call(&self, doc: &mut Document, ctx: &mut CallContext) -> Result<(), WorkflowError> {
        wrap_native_content(doc, ctx, Some("audio/"), |raw| {
            format!("[transcript] {}", text::normalise(raw))
        })
    }
}

/// LanguageExtractor: annotates each unit with its detected language (both
/// as a `Language` child and an `@lang` attribute for aggregation rules).
pub struct LanguageExtractor;

impl Service for LanguageExtractor {
    fn name(&self) -> &str {
        "LanguageExtractor"
    }

    fn call(&self, doc: &mut Document, ctx: &mut CallContext) -> Result<(), WorkflowError> {
        for unit in text_media_units(doc) {
            if has_annotation(doc, unit, "Language") {
                continue;
            }
            let Some((_, textv)) = unit_text(doc, unit) else {
                continue;
            };
            let lang = text::detect_language(&textv);
            let ann = doc.append_element(unit, "Annotation")?;
            doc.set_attr(ann, "lang", lang)?;
            ctx.register(doc, ann)?;
            let l = doc.append_element(ann, "Language")?;
            doc.append_text(l, lang)?;
        }
        Ok(())
    }
}

/// Translator: produces, for each unit in a language other than `target`,
/// a new unit holding its translation (linked through `@translation-of`).
pub struct Translator {
    /// Target language code (`"en"`).
    pub target: &'static str,
}

impl Default for Translator {
    fn default() -> Self {
        Translator { target: "en" }
    }
}

impl Service for Translator {
    fn name(&self) -> &str {
        "Translator"
    }

    fn call(&self, doc: &mut Document, ctx: &mut CallContext) -> Result<(), WorkflowError> {
        let v = doc.view();
        let root = doc.root();
        let translated: Vec<String> = v
            .descendants(root)
            .filter_map(|n| v.attr(n, "translation-of").map(|s| s.to_string()))
            .collect();
        let mut jobs = Vec::new();
        for unit in text_media_units(doc) {
            let v = doc.view();
            let Some(uri) = v.uri(unit).map(|s| s.to_string()) else {
                continue;
            };
            if translated.contains(&uri) || v.attr(unit, "translation-of").is_some() {
                continue;
            }
            // language from the annotation, if present
            let lang = v
                .children(unit)
                .find(|&c| v.name(c) == Some("Annotation"))
                .and_then(|a| v.attr(a, "lang"))
                .unwrap_or("en");
            if lang == self.target {
                continue;
            }
            let Some((_, textv)) = unit_text(doc, unit) else {
                continue;
            };
            jobs.push((uri, textv));
        }
        for (uri, textv) in jobs {
            let unit = doc.append_element(root, "TextMediaUnit")?;
            doc.set_attr(unit, "translation-of", uri)?;
            ctx.register(doc, unit)?;
            let tc = doc.append_element(unit, "TextContent")?;
            doc.append_text(tc, text::translate_fr_en(&textv))?;
            ctx.register(doc, tc)?;
            let ann = doc.append_element(unit, "Annotation")?;
            doc.set_attr(ann, "lang", self.target)?;
            ctx.register(doc, ann)?;
            let l = doc.append_element(ann, "Language")?;
            doc.append_text(l, self.target)?;
        }
        Ok(())
    }
}

/// Tokeniser: counts tokens into an `Annotation/Tokens` element.
pub struct Tokeniser;

impl Service for Tokeniser {
    fn name(&self) -> &str {
        "Tokeniser"
    }

    fn call(&self, doc: &mut Document, ctx: &mut CallContext) -> Result<(), WorkflowError> {
        for unit in text_media_units(doc) {
            if has_annotation(doc, unit, "Tokens") {
                continue;
            }
            let Some((_, textv)) = unit_text(doc, unit) else {
                continue;
            };
            let count = textv.split_whitespace().count();
            let ann = doc.append_element(unit, "Annotation")?;
            ctx.register(doc, ann)?;
            let t = doc.append_element(ann, "Tokens")?;
            doc.set_attr(t, "count", count.to_string())?;
        }
        Ok(())
    }
}

/// EntityExtractor: capitalised-run named entities.
pub struct EntityExtractor;

impl Service for EntityExtractor {
    fn name(&self) -> &str {
        "EntityExtractor"
    }

    fn call(&self, doc: &mut Document, ctx: &mut CallContext) -> Result<(), WorkflowError> {
        for unit in text_media_units(doc) {
            if has_annotation(doc, unit, "Entity") {
                continue;
            }
            let Some((_, textv)) = unit_text(doc, unit) else {
                continue;
            };
            let entities = text::extract_entities(&textv);
            if entities.is_empty() {
                continue;
            }
            let ann = doc.append_element(unit, "Annotation")?;
            ctx.register(doc, ann)?;
            for e in entities {
                let el = doc.append_element(ann, "Entity")?;
                doc.append_text(el, e)?;
            }
        }
        Ok(())
    }
}

/// Summariser: one `Summary` resource per unit, under the document root.
pub struct Summariser;

impl Service for Summariser {
    fn name(&self) -> &str {
        "Summariser"
    }

    fn call(&self, doc: &mut Document, ctx: &mut CallContext) -> Result<(), WorkflowError> {
        let v = doc.view();
        let root = doc.root();
        let done: Vec<String> = v
            .descendants(root)
            .filter(|&n| v.name(n) == Some("Summary"))
            .filter_map(|n| v.attr(n, "of").map(|s| s.to_string()))
            .collect();
        let mut jobs = Vec::new();
        for unit in text_media_units(doc) {
            let v = doc.view();
            let Some(uri) = v.uri(unit).map(|s| s.to_string()) else {
                continue;
            };
            if done.contains(&uri) {
                continue;
            }
            let Some((_, textv)) = unit_text(doc, unit) else {
                continue;
            };
            jobs.push((uri, text::summarise(&textv, 12)));
        }
        for (uri, summary) in jobs {
            let s = doc.append_element(root, "Summary")?;
            doc.set_attr(s, "of", uri)?;
            ctx.register(doc, s)?;
            doc.append_text(s, summary)?;
        }
        Ok(())
    }
}

/// SentimentAnalyser: lexicon score annotation.
pub struct SentimentAnalyser;

impl Service for SentimentAnalyser {
    fn name(&self) -> &str {
        "SentimentAnalyser"
    }

    fn call(&self, doc: &mut Document, ctx: &mut CallContext) -> Result<(), WorkflowError> {
        for unit in text_media_units(doc) {
            if has_annotation(doc, unit, "Sentiment") {
                continue;
            }
            let Some((_, textv)) = unit_text(doc, unit) else {
                continue;
            };
            let score = text::sentiment(&textv);
            let ann = doc.append_element(unit, "Annotation")?;
            ctx.register(doc, ann)?;
            let s = doc.append_element(ann, "Sentiment")?;
            doc.set_attr(s, "score", format!("{score:.3}"))?;
        }
        Ok(())
    }
}

/// KeywordExtractor: top-5 keyword annotation.
pub struct KeywordExtractor;

impl Service for KeywordExtractor {
    fn name(&self) -> &str {
        "KeywordExtractor"
    }

    fn call(&self, doc: &mut Document, ctx: &mut CallContext) -> Result<(), WorkflowError> {
        for unit in text_media_units(doc) {
            if has_annotation(doc, unit, "Keyword") {
                continue;
            }
            let Some((_, textv)) = unit_text(doc, unit) else {
                continue;
            };
            let kws = text::keywords(&textv, 5);
            if kws.is_empty() {
                continue;
            }
            let ann = doc.append_element(unit, "Annotation")?;
            ctx.register(doc, ann)?;
            for k in kws {
                let el = doc.append_element(ann, "Keyword")?;
                doc.append_text(el, k)?;
            }
        }
        Ok(())
    }
}

/// Indexer: groups language annotations into one `IndexEntry` per language.
/// The entry's `@group` attribute carries the rendered Skolem term
/// `idx(lang)`, making this the many-to-one aggregation of Section 5.
pub struct Indexer;

impl Service for Indexer {
    fn name(&self) -> &str {
        "Indexer"
    }

    fn call(&self, doc: &mut Document, ctx: &mut CallContext) -> Result<(), WorkflowError> {
        let v = doc.view();
        let root = doc.root();
        let mut langs: Vec<String> = v
            .descendants(root)
            .filter(|&n| v.name(n) == Some("Annotation"))
            .filter_map(|n| v.attr(n, "lang").map(|s| s.to_string()))
            .collect();
        langs.sort();
        langs.dedup();
        let existing: Vec<String> = v
            .descendants(root)
            .filter(|&n| v.name(n) == Some("IndexEntry"))
            .filter_map(|n| v.attr(n, "group").map(|s| s.to_string()))
            .collect();
        if langs.is_empty() {
            return Ok(());
        }
        // one Index container, created on first use
        let index = v
            .descendants(root)
            .find(|&n| v.name(n) == Some("Index"));
        let index = match index {
            Some(i) => i,
            None => {
                let i = doc.append_element(root, "Index")?;
                ctx.register(doc, i)?;
                i
            }
        };
        for lang in langs {
            let group = weblab_prov::skolem::skolem_attr("idx", &[&lang]);
            if existing.contains(&group) {
                continue;
            }
            let entry = doc.append_element(index, "IndexEntry")?;
            doc.set_attr(entry, "group", group)?;
            ctx.register(doc, entry)?;
        }
        Ok(())
    }
}

/// Flaky: a fault-injection service for exercising retry policies. It
/// appends and registers a `FlakyProbe` resource under the root, then fails
/// the first `fail_times` calls *after* mutating the document — so every
/// early attempt leaves work behind that the orchestrator must roll back.
/// Succeeds from call `fail_times + 1` on.
pub struct Flaky {
    fail_times: u32,
    calls: std::sync::atomic::AtomicU32,
}

impl Flaky {
    /// A service that fails its first `fail_times` calls, then succeeds.
    pub fn failing(fail_times: u32) -> Self {
        Flaky {
            fail_times,
            calls: std::sync::atomic::AtomicU32::new(0),
        }
    }
}

impl Service for Flaky {
    fn name(&self) -> &str {
        "Flaky"
    }

    fn call(&self, doc: &mut Document, ctx: &mut CallContext) -> Result<(), WorkflowError> {
        let root = doc.root();
        // idempotent on success: only one probe per call instant
        let marker = format!("t{}", ctx.time());
        let v = doc.view();
        if v.descendants(root)
            .any(|n| v.name(n) == Some("FlakyProbe") && v.attr(n, "at") == Some(marker.as_str()))
        {
            return Ok(());
        }
        let probe = doc.append_element(root, "FlakyProbe")?;
        doc.set_attr(probe, "at", marker)?;
        ctx.register(doc, probe)?;
        let call = self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1;
        if call <= self.fail_times {
            return Err(WorkflowError::Service {
                service: "Flaky".into(),
                message: format!("injected fault {call}/{}", self.fail_times),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::{Orchestrator, Workflow};
    use weblab_prov::{infer_provenance, EngineOptions};
    use weblab_xml::CallLabel;

    fn corpus() -> Document {
        let mut d = Document::new("Resource");
        let root = d.root();
        d.register_resource(root, "weblab://doc/1", None).unwrap();
        let n = d.append_element(root, "NativeContent").unwrap();
        d.register_resource(n, "weblab://src/1", Some(CallLabel::new("Source", 0)))
            .unwrap();
        d.append_text(n, "Le Texte Est Dans La Langue Pour Jean Dupont")
            .unwrap();
        d
    }

    fn full_pipeline() -> Workflow {
        Workflow::new()
            .then(Normaliser)
            .then(LanguageExtractor)
            .then(Translator::default())
            .then(LanguageExtractor)
            .then(Tokeniser)
            .then(EntityExtractor)
            .then(SentimentAnalyser)
            .then(KeywordExtractor)
            .then(Summariser)
            .then(Indexer)
    }

    #[test]
    fn pipeline_runs_and_produces_resources() {
        let mut doc = corpus();
        let outcome = Orchestrator::new()
            .execute(&full_pipeline(), &mut doc)
            .unwrap();
        assert_eq!(outcome.trace.len(), 10);
        let v = doc.view();
        let names: Vec<&str> = v
            .descendants(doc.root())
            .filter_map(|n| v.name(n))
            .collect();
        for expected in [
            "TextMediaUnit",
            "TextContent",
            "Annotation",
            "Language",
            "Summary",
            "Index",
            "IndexEntry",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        // translation happened: two units, one with translation-of
        let units: Vec<_> = v
            .descendants(doc.root())
            .filter(|&n| v.name(n) == Some("TextMediaUnit"))
            .collect();
        assert_eq!(units.len(), 2);
        assert!(units
            .iter()
            .any(|&u| v.attr(u, "translation-of").is_some()));
    }

    #[test]
    fn services_are_idempotent() {
        let mut doc = corpus();
        let wf = full_pipeline();
        Orchestrator::new().execute(&wf, &mut doc).unwrap();
        let before = doc.node_count();
        // running the whole pipeline again adds nothing
        Orchestrator::new().execute(&wf, &mut doc).unwrap();
        assert_eq!(doc.node_count(), before);
    }

    #[test]
    fn provenance_of_full_pipeline_is_plausible() {
        let mut doc = corpus();
        let outcome = Orchestrator::new()
            .execute(&full_pipeline(), &mut doc)
            .unwrap();
        let rules = default_rules();
        let g = infer_provenance(&doc, &outcome.trace, &rules, &EngineOptions::default());
        assert!(g.is_acyclic());
        // the normalised unit depends on the native content
        let unit_uri = {
            let v = doc.view();
            v.descendants(doc.root())
                .find(|&n| {
                    v.name(n) == Some("TextMediaUnit") && v.attr(n, "origin").is_some()
                })
                .and_then(|n| v.uri(n))
                .unwrap()
                .to_string()
        };
        assert!(g.dependencies_of(&unit_uri).contains(&"weblab://src/1"));
        // call-level lineage includes Translator using Normaliser output
        let calls = g.call_dependencies();
        assert!(calls
            .iter()
            .any(|(a, b)| a.service == "Translator" && b.service == "Normaliser"));
        // the index entry aggregates language annotations (Skolem join)
        let entry_uri = {
            let v = doc.view();
            v.descendants(doc.root())
                .find(|&n| v.name(n) == Some("IndexEntry"))
                .and_then(|n| v.uri(n))
                .unwrap()
                .to_string()
        };
        assert!(!g.dependencies_of(&entry_uri).is_empty());
    }

    #[test]
    fn translator_skips_target_language_units() {
        let mut d = Document::new("Resource");
        let root = d.root();
        let n = d.append_element(root, "NativeContent").unwrap();
        d.register_resource(n, "src", Some(CallLabel::new("Source", 0)))
            .unwrap();
        d.append_text(n, "the text is already in the target language")
            .unwrap();
        let wf = Workflow::new()
            .then(Normaliser)
            .then(LanguageExtractor)
            .then(Translator::default());
        Orchestrator::new().execute(&wf, &mut d).unwrap();
        let v = d.view();
        let units = v
            .descendants(d.root())
            .filter(|&x| v.name(x) == Some("TextMediaUnit"))
            .count();
        assert_eq!(units, 1); // no translation of an English unit
    }
}
