//! Integration test replaying the paper's running example end to end and
//! asserting every figure/table/example it prints (the per-experiment index
//! F1–F4, E5–E7 of DESIGN.md).

use weblab::prov::oracle::{infer_provenance_with, Strategy};
use weblab::prov::{
    document_state_provenance, infer_provenance, paper_example, service_call_provenance,
    EngineOptions, InheritMode, JoinAlgorithm, MappingRule,
};
use weblab::xpath::{eval_pattern, parse_pattern};

fn pairs(links: &[weblab::prov::ProvLink]) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = links
        .iter()
        .map(|l| (l.from_uri.clone(), l.to_uri.clone()))
        .collect();
    v.sort();
    v
}

#[test]
fn f1_control_and_data_flow() {
    let (doc, trace, _) = paper_example::build();
    let calls: Vec<(String, u64)> = trace
        .calls
        .iter()
        .map(|c| (c.service.clone(), c.time))
        .collect();
    assert_eq!(
        calls,
        vec![
            ("Normaliser".to_string(), 1),
            ("LanguageExtractor".to_string(), 2),
            ("Translator".to_string(), 3)
        ]
    );
    let out_uris = |i: usize| -> Vec<String> {
        trace.calls[i]
            .produced
            .iter()
            .filter_map(|&n| doc.view().uri(n).map(String::from))
            .collect()
    };
    assert_eq!(out_uris(0), vec!["r4", "r5"]);
    assert_eq!(out_uris(1), vec!["r6"]);
    assert_eq!(out_uris(2), vec!["r8"]);
}

#[test]
fn f2_source_and_provenance_tables() {
    let (doc, trace, rules) = paper_example::build();
    let graph = infer_provenance(&doc, &trace, &rules, &EngineOptions::default());

    // Source table of Figure 2
    let source: Vec<(String, String, u64)> = graph
        .sources
        .iter()
        .map(|s| (s.uri.clone(), s.label.service.clone(), s.label.time))
        .collect();
    assert_eq!(
        source,
        vec![
            ("r3".to_string(), "Source".to_string(), 0),
            ("r4".to_string(), "Normaliser".to_string(), 1),
            ("r5".to_string(), "Normaliser".to_string(), 1),
            ("r6".to_string(), "LanguageExtractor".to_string(), 2),
            ("r8".to_string(), "Translator".to_string(), 3),
        ]
    );

    // Provenance table: M1 gives 4 → 3, M2 gives 6 → 5, M3 gives 8 → 4
    assert_eq!(
        pairs(&graph.links),
        vec![
            ("r4".to_string(), "r3".to_string()),
            ("r6".to_string(), "r5".to_string()),
            ("r8".to_string(), "r4".to_string()),
        ]
    );
    assert!(graph.is_acyclic());

    // call-level lineage quoted in Section 2: (Translator, t3) uses
    // information generated by (LanguageExtractor, t2) — that statement
    // relies on the inherited link 8 → 6, so check under inheritance:
    let inh = infer_provenance(
        &doc,
        &trace,
        &rules,
        &EngineOptions {
            inherit: InheritMode::PatternRewrite,
            ..Default::default()
        },
    );
    assert!(pairs(&inh.links).contains(&("r8".to_string(), "r6".to_string())));
    let call_deps = inh.call_dependencies();
    assert!(call_deps.iter().any(|(a, b)| {
        a.service == "Translator" && b.service == "LanguageExtractor"
    }));
}

#[test]
fn f4_document_states() {
    let (doc, _, states) = paper_example::build_with_states();
    // d0 ⊑ d1 ⊑ d2 ⊑ d3
    for w in states.marks.windows(2) {
        assert!(doc.view_at(w[0]).is_contained_in(&doc.view_at(w[1])));
        assert!(!doc.view_at(w[1]).is_contained_in(&doc.view_at(w[0])));
    }
    // node 3 promoted to r3 in d1
    let n3 = doc.node_by_uri("r3").unwrap();
    assert_eq!(doc.view_at(states.marks[0]).uri(n3), None);
    assert_eq!(doc.view_at(states.marks[1]).uri(n3), Some("r3"));
    // d3 \ d0 = fragments rooted at r4 and r8
    let frag_uris: Vec<&str> = doc
        .new_fragments_since(states.marks[0])
        .iter()
        .filter_map(|&n| doc.view().uri(n))
        .collect();
    assert_eq!(frag_uris, vec!["r4", "r8"]);
}

#[test]
fn e5_pattern_result_tables() {
    let (doc, _, states) = paper_example::build_with_states();
    let table = |pattern: &str, state: usize| -> Vec<(String, String)> {
        let p = parse_pattern(pattern).unwrap();
        eval_pattern(&p, &doc.view_at(states.marks[state]))
            .rows
            .iter()
            .map(|r| (r.uri.clone(), r.values[0].to_string()))
            .collect()
    };
    assert_eq!(
        table("//T[$x := @id]/C", 1),
        vec![("r5".to_string(), "r4".to_string())]
    );
    assert_eq!(
        table("//T[$x := @id]/A[L]", 2),
        vec![("r6".to_string(), "r4".to_string())]
    );
    assert_eq!(
        table("/R[$x := @id]//T[A/L]", 2),
        vec![("r4".to_string(), "r1".to_string())]
    );
    assert_eq!(
        table("/R[$x := @id]//T[A/L]", 3),
        vec![
            ("r4".to_string(), "r1".to_string()),
            ("r8".to_string(), "r1".to_string())
        ]
    );
}

#[test]
fn e6_document_state_provenance() {
    let (doc, _, states) = paper_example::build_with_states();
    let m1 = MappingRule::parse("//T[$x := @id]/C => //T[$x := @id]/A[L]").unwrap();
    let links = document_state_provenance(
        &m1,
        &doc.view_at(states.marks[1]),
        &doc.view_at(states.marks[2]),
        JoinAlgorithm::Hash,
    );
    assert_eq!(pairs(&links), vec![("r6".to_string(), "r5".to_string())]);

    let m2 = MappingRule::parse("/R[$x := @id]//T[A/L] => /R[$x := @id]//T[A/L]").unwrap();
    let links = document_state_provenance(
        &m2,
        &doc.view_at(states.marks[2]),
        &doc.view_at(states.marks[3]),
        JoinAlgorithm::Hash,
    );
    assert_eq!(
        pairs(&links),
        vec![
            ("r4".to_string(), "r4".to_string()),
            ("r8".to_string(), "r4".to_string())
        ]
    );
}

#[test]
fn e7_service_call_provenance() {
    let (doc, trace, _) = paper_example::build();
    let m2 = MappingRule::parse("/R[$x := @id]//T[A/L] => /R[$x := @id]//T[A/L]").unwrap();
    let links = service_call_provenance(&m2, &doc, &trace.calls[2], JoinAlgorithm::Hash);
    assert_eq!(pairs(&links), vec![("r8".to_string(), "r4".to_string())]);
}

#[test]
fn all_strategies_and_joins_agree_on_the_example() {
    let (doc, trace, rules) = paper_example::build();
    let mut results = Vec::new();
    for strategy in [
        Strategy::StateReplay,
        Strategy::MaterializedReplay,
        Strategy::TemporalRewrite,
        Strategy::GroupedSinglePass,
    ] {
        for join in [JoinAlgorithm::Hash, JoinAlgorithm::NestedLoop] {
            for inherit in [InheritMode::Off, InheritMode::PatternRewrite] {
                let g = infer_provenance_with(
                    &doc,
                    &trace,
                    &rules,
                    strategy,
                    &EngineOptions {
                        inherit,
                        join,
                        ..Default::default()
                    },
                );
                results.push((inherit, g.links));
            }
        }
    }
    // group by inherit mode, all equal within a group
    for mode in [InheritMode::Off, InheritMode::PatternRewrite] {
        let group: Vec<_> = results
            .iter()
            .filter(|(m, _)| *m == mode)
            .map(|(_, l)| l)
            .collect();
        for g in &group[1..] {
            assert_eq!(group[0], *g);
        }
    }
}
