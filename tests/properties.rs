//! Property-based tests for the core invariants of the reproduction.
//!
//! The central theorem of Section 4 — evaluating temporally rewritten rules
//! on the final document is equivalent to replaying Definition 8/9 over the
//! intermediate states — is checked on randomised workflows, along with the
//! algebraic and structural invariants of the substrate crates.

use proptest::prelude::*;

use weblab::prov::{
    infer_provenance, join_tables, EngineOptions, InheritMode, JoinAlgorithm,
    Strategy as ProvStrategy,
};
use weblab::workflow::generator::synthetic_workload;
use weblab::workflow::services::{self, LanguageExtractor, Normaliser, Translator};
use weblab::workflow::{Orchestrator, Workflow};
use weblab::xml::{
    diff_documents, is_contained, parse_document, to_xml_string, CallLabel, Document,
};
use weblab::xpath::{eval_pattern, parse_pattern, BindingRow, BindingTable, Value};
use weblab::xquery::{infer_provenance_xquery, XQueryStrategyOptions};

// ---------------------------------------------------------------------
// Random document builders
// ---------------------------------------------------------------------

/// A recipe for building a random append-only document: a sequence of
/// (parent choice, tag index, make-resource?, set-attr?) operations.
fn doc_ops() -> impl Strategy<Value = Vec<(u8, u8, bool, bool)>> {
    prop::collection::vec((any::<u8>(), 0u8..5, any::<bool>(), any::<bool>()), 1..40)
}

const TAGS: [&str; 5] = ["A", "B", "C", "T", "L"];

/// A historically valid mark at `nodes` nodes (resources are registered at
/// creation time in these builders, so the visible registrations are
/// exactly those of earlier nodes).
fn mark_at(doc: &Document, nodes: usize) -> weblab::xml::StateMark {
    let resources = doc
        .resource_nodes()
        .iter()
        .filter(|n| n.index() < nodes)
        .count();
    weblab::xml::StateMark::from_counts(nodes, resources)
}

fn build_doc(ops: &[(u8, u8, bool, bool)]) -> Document {
    let mut doc = Document::new("Root");
    let root = doc.root();
    doc.register_resource(root, "root", None).unwrap();
    let mut elements = vec![root];
    let mut time = 1u64;
    for (i, &(parent, tag, resource, attr)) in ops.iter().enumerate() {
        let p = elements[parent as usize % elements.len()];
        let n = doc.append_element(p, TAGS[tag as usize]).unwrap();
        if attr {
            doc.set_attr(n, "k", format!("v{}", i % 7)).unwrap();
        }
        if resource {
            doc.register_resource(n, format!("r{i}"), Some(CallLabel::new("Gen", time)))
                .unwrap();
            time += 1;
        }
        elements.push(n);
    }
    doc
}

// ---------------------------------------------------------------------
// Strategy equivalence (the Section 4 theorem)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn strategies_agree_on_random_synthetic_workflows(
        seed in 0u64..1000,
        n_calls in 1usize..7,
        fanout in 1usize..4,
    ) {
        let (mut doc, wf, rules) = synthetic_workload(seed, n_calls, fanout, 0);
        let outcome = Orchestrator::new().execute(&wf, &mut doc).unwrap();
        let mut all = Vec::new();
        for strategy in [
            ProvStrategy::StateReplay { materialize: false },
            ProvStrategy::StateReplay { materialize: true },
            ProvStrategy::TemporalRewrite,
            ProvStrategy::GroupedSinglePass,
        ] {
            let g = infer_provenance(&doc, &outcome.trace, &rules, &EngineOptions {
                strategy,
                ..Default::default()
            });
            all.push(g.links);
        }
        // compiled XQuery agrees too (the rule set is position-free)
        let gx = infer_provenance_xquery(
            &doc, &outcome.trace, &rules, &XQueryStrategyOptions::default()).unwrap();
        all.push(gx.links);
        for l in &all[1..] {
            prop_assert_eq!(&all[0], l);
        }
    }

    #[test]
    fn xquery_options_do_not_change_results(
        seed in 0u64..400,
        n_calls in 1usize..5,
        fanout in 1usize..4,
        fuse in proptest::bool::ANY,
        eager in proptest::bool::ANY,
    ) {
        let (mut doc, wf, rules) = synthetic_workload(seed, n_calls, fanout, 0);
        let outcome = Orchestrator::new().execute(&wf, &mut doc).unwrap();
        let baseline = infer_provenance_xquery(
            &doc, &outcome.trace, &rules, &XQueryStrategyOptions::default()).unwrap();
        let variant = infer_provenance_xquery(
            &doc, &outcome.trace, &rules,
            &XQueryStrategyOptions { fuse_id_joins: fuse, eager_where: eager }).unwrap();
        prop_assert_eq!(baseline.links, variant.links);
    }

    #[test]
    fn index_does_not_change_results(
        seed in 0u64..500,
        n_calls in 1usize..6,
        fanout in 1usize..5,
    ) {
        let (mut doc, wf, rules) = synthetic_workload(seed, n_calls, fanout, 0);
        let outcome = Orchestrator::new().execute(&wf, &mut doc).unwrap();
        for strategy in [ProvStrategy::TemporalRewrite, ProvStrategy::GroupedSinglePass,
                         ProvStrategy::StateReplay { materialize: false }] {
            let with = infer_provenance(&doc, &outcome.trace, &rules, &EngineOptions {
                strategy, use_index: true, ..Default::default()
            });
            let without = infer_provenance(&doc, &outcome.trace, &rules, &EngineOptions {
                strategy, use_index: false, ..Default::default()
            });
            prop_assert_eq!(with.links, without.links);
        }
    }

    #[test]
    fn inherit_modes_agree_on_random_pipelines(
        seed in 0u64..500,
        n_native in 1usize..4,
    ) {
        let mut doc = weblab::workflow::generator::generate_corpus(seed, n_native, 25);
        let wf = Workflow::new()
            .then(Normaliser)
            .then(LanguageExtractor)
            .then(Translator::default())
            .then(LanguageExtractor);
        let outcome = Orchestrator::new().execute(&wf, &mut doc).unwrap();
        let rules = services::default_rules();
        let base = EngineOptions {
            inherit: InheritMode::PatternRewrite,
            ..Default::default()
        };
        let g1 = infer_provenance(&doc, &outcome.trace, &rules, &base);
        let g2 = infer_provenance(&doc, &outcome.trace, &rules, &EngineOptions {
            inherit: InheritMode::GraphPropagation,
            ..base
        });
        prop_assert_eq!(g1.links, g2.links);
    }

    #[test]
    fn eager_orchestration_matches_posthoc(
        seed in 0u64..500,
        n_calls in 1usize..6,
        fanout in 1usize..4,
    ) {
        let (mut doc, wf, rules) = synthetic_workload(seed, n_calls, fanout, 0);
        let outcome = Orchestrator::eager(rules.clone()).execute(&wf, &mut doc).unwrap();
        let posthoc = infer_provenance(&doc, &outcome.trace, &rules, &EngineOptions::default());
        prop_assert_eq!(outcome.eager_links, posthoc.links);
    }

    // -----------------------------------------------------------------
    // XML substrate invariants
    // -----------------------------------------------------------------

    #[test]
    fn serialisation_round_trips(ops in doc_ops()) {
        let doc = build_doc(&ops);
        let xml = to_xml_string(&doc.view());
        let back = parse_document(&xml).unwrap();
        prop_assert_eq!(to_xml_string(&back.view()), xml);
        // resources survive the round trip
        prop_assert_eq!(back.resource_nodes().len(), doc.resource_nodes().len());
    }

    #[test]
    fn state_views_form_a_containment_chain(ops in doc_ops()) {
        let mut doc = Document::new("Root");
        let root = doc.root();
        let mut elements = vec![root];
        let mut marks = vec![doc.mark()];
        for &(parent, tag, resource, _) in &ops {
            let p = elements[parent as usize % elements.len()];
            let n = doc.append_element(p, TAGS[tag as usize]).unwrap();
            if resource {
                doc.register_resource(n, format!("r{}", elements.len()), None).unwrap();
            }
            elements.push(n);
            marks.push(doc.mark());
        }
        // structural check agrees with the by-construction marks on
        // materialised copies (exercising the general algorithm)
        let first = doc.materialize_state(marks[0]);
        let mid = doc.materialize_state(marks[marks.len() / 2]);
        let last = doc.materialize_state(*marks.last().unwrap());
        prop_assert!(is_contained(&first.view(), &mid.view()));
        prop_assert!(is_contained(&mid.view(), &last.view()));
        prop_assert!(is_contained(&first.view(), &last.view())); // transitivity
        prop_assert!(is_contained(&last.view(), &last.view())); // reflexivity
    }

    #[test]
    fn diff_identifies_exactly_the_appended_nodes(ops in doc_ops()) {
        let doc = build_doc(&ops);
        let half_nodes = (doc.node_count() / 2).max(1);
        // find a mark with node count ≈ half by replaying
        let old = doc.materialize_state(mark_at(&doc, half_nodes));
        let res = diff_documents(&old.view(), &doc.view()).unwrap();
        prop_assert_eq!(res.new_nodes.len(), doc.node_count() - half_nodes);
        // every reported fragment root's parent existed before
        for &r in &res.fragment_roots {
            if let Some(p) = doc.view().parent(r) {
                prop_assert!(p.index() < half_nodes);
            }
        }
    }

    // -----------------------------------------------------------------
    // Algebra invariants
    // -----------------------------------------------------------------

    #[test]
    fn hash_join_equals_nested_loop(
        src_rows in prop::collection::vec((0usize..50, 0i64..6, 0i64..6), 0..30),
        tgt_rows in prop::collection::vec((50usize..100, 0i64..6), 0..30),
    ) {
        let mut src = BindingTable::with_columns(vec!["x".into(), "y".into()]);
        for (n, x, y) in src_rows {
            src.rows.push(BindingRow {
                node: weblab::xml::NodeId::from_index(n),
                uri: format!("s{n}"),
                values: vec![Value::int(x), Value::int(y)],
            });
        }
        let mut tgt = BindingTable::with_columns(vec!["x".into()]);
        for (n, x) in tgt_rows {
            tgt.rows.push(BindingRow {
                node: weblab::xml::NodeId::from_index(n),
                uri: format!("t{n}"),
                values: vec![Value::int(x)],
            });
        }
        prop_assert_eq!(
            join_tables(&src, &tgt, JoinAlgorithm::Hash),
            join_tables(&src, &tgt, JoinAlgorithm::NestedLoop)
        );
    }

    // -----------------------------------------------------------------
    // Pattern language invariants
    // -----------------------------------------------------------------

    #[test]
    fn pattern_display_parse_fixpoint(
        descs in prop::collection::vec(any::<bool>(), 1..4),
        tags in prop::collection::vec(0usize..5, 1..4),
        bind in any::<bool>(),
    ) {
        let n = descs.len().min(tags.len());
        let mut text = String::new();
        for i in 0..n {
            text.push_str(if descs[i] { "//" } else { "/" });
            text.push_str(TAGS[tags[i] % TAGS.len()]);
        }
        if bind {
            text.push_str("[$v := @k]");
        }
        let p = parse_pattern(&text).unwrap();
        let printed = p.to_string();
        let reparsed = parse_pattern(&printed).unwrap();
        prop_assert_eq!(p, reparsed);
    }

    /// The delta law behind live maintenance (DESIGN.md § 9): links derived
    /// for calls `0..n` decompose at *any* split point `k` into the links
    /// for `0..k` (inferred against the final document, as a live
    /// producer does) plus the links for `k..n` — with no duplicates
    /// across the two deltas.
    #[test]
    fn incremental_deltas_compose_at_any_split(
        seed in 0u64..400,
        n_calls in 1usize..6,
        fanout in 1usize..4,
        split in 0usize..64,
        strategy_idx in 0usize..3,
        rewrite in proptest::bool::ANY,
    ) {
        let (mut doc, wf, rules) = synthetic_workload(seed, n_calls, fanout, 0);
        let outcome = Orchestrator::new().execute(&wf, &mut doc).unwrap();
        let n = outcome.trace.calls.len();
        let k = split % (n + 1);
        let opts = EngineOptions {
            strategy: [
                ProvStrategy::StateReplay { materialize: false },
                ProvStrategy::TemporalRewrite,
                ProvStrategy::GroupedSinglePass,
            ][strategy_idx],
            inherit: if rewrite { InheritMode::PatternRewrite } else { InheritMode::Off },
            ..Default::default()
        };
        let full = weblab::prov::infer_links_since(&doc, &outcome.trace, 0, &rules, &opts);
        let head_trace = weblab::prov::ExecutionTrace {
            calls: outcome.trace.calls[..k].to_vec(),
        };
        let head = weblab::prov::infer_links_since(&doc, &head_trace, 0, &rules, &opts);
        let tail = weblab::prov::infer_links_since(&doc, &outcome.trace, k, &rules, &opts);
        // disjoint deltas: nothing is derived twice
        prop_assert_eq!(head.len() + tail.len(), full.len());
        let mut union = head;
        union.extend(tail);
        union.sort();
        let mut expected = full;
        expected.sort();
        prop_assert_eq!(union, expected);
    }

    #[test]
    fn evaluation_is_deterministic_and_state_monotone(ops in doc_ops()) {
        let doc = build_doc(&ops);
        let p = parse_pattern("//A[$x := @k]").unwrap();
        let t1 = eval_pattern(&p, &doc.view());
        let t2 = eval_pattern(&p, &doc.view());
        prop_assert_eq!(&t1.rows, &t2.rows);
        // a pattern without temporal predicates only gains rows as the
        // document grows
        let half = mark_at(&doc, (doc.node_count() / 2).max(1));
        let t_half = eval_pattern(&p, &doc.view_at(half));
        prop_assert!(t_half.rows.len() <= t1.rows.len());
        for r in &t_half.rows {
            prop_assert!(t1.rows.contains(r));
        }
    }
}
