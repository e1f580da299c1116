//! Tests for the Section 8 extension: parallel (and nested) workflow
//! executions with control-flow channels.
//!
//! Semantics under test: branches of a parallel block run on forks of the
//! document taken at block entry, so sibling branches are mutually
//! invisible — both during execution (a service in branch 1 cannot read
//! branch 0's output) and during provenance inference (a call in branch 1
//! cannot *depend* on branch 0's output, even though its timestamp is
//! later). Calls after the join see everything.

use weblab::prov::oracle::{infer_provenance_with, Strategy};
use weblab::prov::{channels_compatible, infer_provenance, EngineOptions, RuleSet};
use weblab::workflow::{CallContext, Orchestrator, Service, Workflow, WorkflowError};
use weblab::xml::Document;
use weblab::xquery::{infer_provenance_xquery, XQueryStrategyOptions};

/// Appends one `Item` with a given tag value.
struct Producer(&'static str);

impl Service for Producer {
    fn name(&self) -> &str {
        "Producer"
    }
    fn call(&self, doc: &mut Document, ctx: &mut CallContext) -> Result<(), WorkflowError> {
        let root = doc.root();
        let n = doc.append_element(root, "Item")?;
        doc.set_attr(n, "tag", self.0)?;
        let uri = ctx.register(doc, n)?;
        doc.set_attr(n, "key", uri)?;
        Ok(())
    }
}

/// Appends a `Marker`; its rule says a marker depends on *every* item
/// (no join variable — a cartesian rule), which makes channel filtering
/// observable.
struct Marker;

impl Service for Marker {
    fn name(&self) -> &str {
        "Marker"
    }
    fn call(&self, doc: &mut Document, ctx: &mut CallContext) -> Result<(), WorkflowError> {
        let root = doc.root();
        let n = doc.append_element(root, "Marker")?;
        ctx.register(doc, n)?;
        Ok(())
    }
}

/// Counts `Item` elements visible to the service and stores the count.
struct Counter;

impl Service for Counter {
    fn name(&self) -> &str {
        "Counter"
    }
    fn call(&self, doc: &mut Document, ctx: &mut CallContext) -> Result<(), WorkflowError> {
        let root = doc.root();
        let count = {
            let v = doc.view();
            v.descendants(root)
                .filter(|&n| v.name(n) == Some("Item"))
                .count()
        };
        let n = doc.append_element(root, "Count")?;
        doc.set_attr(n, "items", count.to_string())?;
        ctx.register(doc, n)?;
        Ok(())
    }
}

fn marker_rules() -> RuleSet {
    let mut rules = RuleSet::new();
    rules.add_parsed("Marker", "//Item => //Marker").unwrap();
    rules.add_parsed("Counter", "//Item => //Count").unwrap();
    rules
}

#[test]
fn sibling_branches_cannot_see_each_other_during_execution() {
    // pre-fork: one item; branch 0 adds an item; branch 1 counts items.
    let mut doc = Document::new("Resource");
    doc.register_resource(doc.root(), "root", None).unwrap();
    let wf = Workflow::new()
        .then(Producer("pre"))
        .then_parallel(vec![
            Workflow::new().then(Producer("branch0")),
            Workflow::new().then(Counter),
        ])
        .then(Counter);
    let outcome = Orchestrator::new().execute(&wf, &mut doc).unwrap();

    // branch 1's Counter saw only the pre-fork item
    let v = doc.view();
    let counts: Vec<&str> = v
        .descendants(doc.root())
        .filter(|&n| v.name(n) == Some("Count"))
        .filter_map(|n| v.attr(n, "items"))
        .collect();
    assert_eq!(counts, vec!["1", "2"]); // in-branch count, post-join count

    // channels recorded correctly
    let channels: Vec<&str> = outcome.trace.calls.iter().map(|c| c.channel.as_str()).collect();
    assert_eq!(channels, vec!["", "0", "1", ""]);
    assert!(outcome.trace.has_parallel_channels());
}

#[test]
fn merge_preserves_structure_resources_and_marks() {
    let mut doc = Document::new("Resource");
    doc.register_resource(doc.root(), "root", None).unwrap();
    let wf = Workflow::new().then_parallel(vec![
        Workflow::new().then(Producer("a")).then(Producer("a2")),
        Workflow::new().then(Producer("b")),
    ]);
    let outcome = Orchestrator::new().execute(&wf, &mut doc).unwrap();
    assert_eq!(outcome.trace.len(), 3);

    // all three items ended up in the main document, with resources
    let v = doc.view();
    let tags: Vec<&str> = v
        .descendants(doc.root())
        .filter(|&n| v.name(n) == Some("Item"))
        .filter_map(|n| v.attr(n, "tag"))
        .collect();
    assert_eq!(tags, vec!["a", "a2", "b"]);
    assert_eq!(doc.resource_nodes().len(), 4); // root + 3 items

    // per-call marks in the merged arena segment the produced nodes
    for call in &outcome.trace.calls {
        assert_eq!(call.produced.len(), 1);
        let n = call.produced[0];
        assert!(n.index() >= call.input.node_count());
        assert!(n.index() < call.output.node_count());
        // and labels survived the merge
        assert_eq!(
            doc.view().label(n).map(|l| l.time),
            Some(call.time)
        );
    }
}

#[test]
fn provenance_respects_channel_visibility() {
    // branch 0: Producer; branch 1: Marker (cartesian rule //Item => //Marker)
    let mut doc = Document::new("Resource");
    doc.register_resource(doc.root(), "root", None).unwrap();
    let wf = Workflow::new()
        .then(Producer("pre"))
        .then_parallel(vec![
            Workflow::new().then(Producer("sibling")),
            Workflow::new().then(Marker),
        ]);
    let outcome = Orchestrator::new().execute(&wf, &mut doc).unwrap();
    let g = infer_provenance(&doc, &outcome.trace, &marker_rules(), &EngineOptions::default());

    // the marker depends on the pre-fork item but NOT on the sibling's,
    // although the sibling's timestamp (t2) is before the marker's (t3)
    let marker_deps: Vec<&str> = g
        .links
        .iter()
        .filter(|l| l.from_uri.contains("Marker"))
        .map(|l| l.to_uri.as_str())
        .collect();
    assert_eq!(marker_deps.len(), 1);
    assert!(marker_deps[0].contains("Producer-t1")); // the pre-fork item
    let sibling_time = outcome.trace.calls[1].time;
    let marker_time = outcome.trace.calls[2].time;
    assert!(sibling_time < marker_time, "sibling ran first in wall order");
}

#[test]
fn post_join_calls_see_all_branches() {
    let mut doc = Document::new("Resource");
    doc.register_resource(doc.root(), "root", None).unwrap();
    let wf = Workflow::new()
        .then_parallel(vec![
            Workflow::new().then(Producer("a")),
            Workflow::new().then(Producer("b")),
        ])
        .then(Marker);
    let outcome = Orchestrator::new().execute(&wf, &mut doc).unwrap();
    let g = infer_provenance(&doc, &outcome.trace, &marker_rules(), &EngineOptions::default());
    let marker_deps = g
        .links
        .iter()
        .filter(|l| l.from_uri.contains("Marker"))
        .count();
    assert_eq!(marker_deps, 2); // both branch outputs visible after the join
}

#[test]
fn nested_parallel_channels() {
    let mut doc = Document::new("Resource");
    doc.register_resource(doc.root(), "root", None).unwrap();
    let inner = Workflow::new().then_parallel(vec![
        Workflow::new().then(Producer("x")),
        Workflow::new().then(Producer("y")),
    ]);
    let wf = Workflow::new().then_parallel(vec![inner, Workflow::new().then(Marker)]);
    let outcome = Orchestrator::new().execute(&wf, &mut doc).unwrap();
    let channels: Vec<&str> = outcome.trace.calls.iter().map(|c| c.channel.as_str()).collect();
    assert_eq!(channels, vec!["0.0", "0.1", "1"]);
    assert!(channels_compatible("0.0", "0"));
    assert!(!channels_compatible("0.0", "0.1"));
    // the marker (channel 1) sees nothing from channel 0.* → no links
    let g = infer_provenance(&doc, &outcome.trace, &marker_rules(), &EngineOptions::default());
    assert!(g.links.is_empty());
}

#[test]
fn all_strategies_agree_on_parallel_traces() {
    let mut results = Vec::new();
    for strategy in [
        Strategy::StateReplay,
        Strategy::MaterializedReplay,
        Strategy::TemporalRewrite,
        Strategy::GroupedSinglePass,
    ] {
        let mut doc = Document::new("Resource");
        doc.register_resource(doc.root(), "root", None).unwrap();
        let wf = Workflow::new()
            .then(Producer("pre"))
            .then_parallel(vec![
                Workflow::new().then(Producer("a")).then(Marker),
                Workflow::new().then(Producer("b")),
            ])
            .then(Marker);
        let outcome = Orchestrator::new().execute(&wf, &mut doc).unwrap();
        let g = infer_provenance_with(
            &doc,
            &outcome.trace,
            &marker_rules(),
            strategy,
            &EngineOptions::default(),
        );
        let pairs: Vec<(String, String)> = g
            .links
            .iter()
            .map(|l| (l.from_uri.clone(), l.to_uri.clone()))
            .collect();
        results.push(pairs);
    }
    // compiled XQuery path agrees as well
    {
        let mut doc = Document::new("Resource");
        doc.register_resource(doc.root(), "root", None).unwrap();
        let wf = Workflow::new()
            .then(Producer("pre"))
            .then_parallel(vec![
                Workflow::new().then(Producer("a")).then(Marker),
                Workflow::new().then(Producer("b")),
            ])
            .then(Marker);
        let outcome = Orchestrator::new().execute(&wf, &mut doc).unwrap();
        let g = infer_provenance_xquery(
            &doc,
            &outcome.trace,
            &marker_rules(),
            &XQueryStrategyOptions::default(),
        )
        .unwrap();
        results.push(
            g.links
                .iter()
                .map(|l| (l.from_uri.clone(), l.to_uri.clone()))
                .collect(),
        );
    }
    for r in &results[1..] {
        assert_eq!(&results[0], r);
    }
    assert!(!results[0].is_empty());
}

#[test]
fn eager_mode_works_inside_branches() {
    let mut doc = Document::new("Resource");
    doc.register_resource(doc.root(), "root", None).unwrap();
    let wf = Workflow::new()
        .then(Producer("pre"))
        .then_parallel(vec![
            Workflow::new().then(Marker),
            Workflow::new().then(Producer("b")),
        ]);
    let outcome = Orchestrator::eager(marker_rules())
        .execute(&wf, &mut doc)
        .unwrap();
    let posthoc = infer_provenance(
        &doc,
        &outcome.trace,
        &marker_rules(),
        &EngineOptions::default(),
    );
    assert_eq!(outcome.eager_links, posthoc.links);
    assert_eq!(outcome.eager_links.len(), 1); // marker → pre-fork item
}
