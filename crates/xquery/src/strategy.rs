//! The XQuery-compiled provenance inference strategy.
//!
//! Mirrors `weblab_prov`'s temporal rewrite, but goes through the paper's
//! Mapper pipeline of Section 6: compile each rule to a FLWOR query
//! restricted to one call, optionally fuse ID joins, evaluate on the final
//! document, and decode the constructed `<prov from=… to=…/>` elements back
//! into provenance links. Production runs the native engine; the test
//! suites hold this strategy's graphs against it.

use weblab_prov::{CallRecord, ExecutionTrace, ProvLink, ProvenanceGraph, RuleSet};
use weblab_xml::Document;

use crate::compile::{compile_rule, CompileError};
use crate::eval::{evaluate_with, XqEvalOptions};
use crate::optimize::fuse_id_joins;

/// Options for the compiled strategy.
#[derive(Debug, Clone)]
pub struct XQueryStrategyOptions {
    /// Run [`fuse_id_joins`] on each compiled query (Example 9's optimised
    /// form).
    pub fuse_id_joins: bool,
    /// Eager where-conjunct evaluation inside the engine.
    pub eager_where: bool,
}

impl Default for XQueryStrategyOptions {
    fn default() -> Self {
        XQueryStrategyOptions {
            fuse_id_joins: true,
            eager_where: true,
        }
    }
}

/// Compute the direct provenance links of one call via the compiled query.
fn xquery_call_provenance(
    rule: &weblab_prov::MappingRule,
    doc: &Document,
    call: &CallRecord,
    opts: &XQueryStrategyOptions,
) -> Result<Vec<ProvLink>, CompileError> {
    let mut query = compile_rule(rule, Some((&call.service, call.time)))?;
    if opts.fuse_id_joins {
        query = fuse_id_joins(&query);
    }
    let result = evaluate_with(
        &query,
        &doc.view(),
        &XqEvalOptions {
            eager_where: opts.eager_where,
        },
    );
    let mut links = Vec::new();
    for (from_uri, to_uri) in result.link_pairs() {
        let (Some(from), Some(to)) = (doc.node_by_uri(&from_uri), doc.node_by_uri(&to_uri))
        else {
            continue;
        };
        links.push(ProvLink {
            from,
            from_uri,
            to,
            to_uri,
        });
    }
    links.sort();
    links.dedup();
    Ok(links)
}

/// Infer the full provenance graph through compiled queries.
pub fn infer_provenance_xquery(
    doc: &Document,
    trace: &ExecutionTrace,
    rules: &RuleSet,
    opts: &XQueryStrategyOptions,
) -> Result<ProvenanceGraph, CompileError> {
    let mut graph = ProvenanceGraph::from_view(&doc.view());
    let channel_map = trace.channel_map();
    let mut links = Vec::new();
    for call in &trace.calls {
        for rule in rules.rules_for(&call.service) {
            let call_links = xquery_call_provenance(rule, doc, call, opts)?;
            links.extend(weblab_prov::filter_links_by_channel(
                &doc.view(),
                call_links,
                &call.channel,
                &channel_map,
            ));
        }
    }
    graph.add_links(links);
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use weblab_prov::{infer_provenance, paper_example, EngineOptions, MappingRule, RuleSet};

    #[test]
    fn compiled_strategy_matches_native_on_position_free_rules() {
        // M1 uses a positional predicate (not compilable); check M2/M3 only.
        let (doc, trace, _) = paper_example::build();
        let mut rules = RuleSet::new();
        rules.add_parsed("LanguageExtractor", paper_example::M2).unwrap();
        rules.add_parsed("Translator", paper_example::M3).unwrap();

        let native = infer_provenance(&doc, &trace, &rules, &EngineOptions::default());
        let compiled = infer_provenance_xquery(
            &doc,
            &trace,
            &rules,
            &XQueryStrategyOptions::default(),
        )
        .unwrap();
        assert_eq!(native.links, compiled.links);
        assert!(!compiled.links.is_empty());
    }

    #[test]
    fn fusion_and_eager_options_do_not_change_results() {
        let (doc, trace, _) = paper_example::build();
        let mut rules = RuleSet::new();
        rules.add_parsed("LanguageExtractor", paper_example::M2).unwrap();
        let variants = [
            XQueryStrategyOptions { fuse_id_joins: false, eager_where: false },
            XQueryStrategyOptions { fuse_id_joins: false, eager_where: true },
            XQueryStrategyOptions { fuse_id_joins: true, eager_where: false },
            XQueryStrategyOptions { fuse_id_joins: true, eager_where: true },
        ];
        let results: Vec<_> = variants
            .iter()
            .map(|o| {
                infer_provenance_xquery(&doc, &trace, &rules, o)
                    .unwrap()
                    .links
            })
            .collect();
        for r in &results[1..] {
            assert_eq!(&results[0], r);
        }
    }

    #[test]
    fn position_rules_surface_a_compile_error() {
        let (doc, trace, _) = paper_example::build();
        let mut rules = RuleSet::new();
        rules.add("Normaliser", MappingRule::parse(paper_example::M1).unwrap());
        assert!(infer_provenance_xquery(
            &doc,
            &trace,
            &rules,
            &XQueryStrategyOptions::default()
        )
        .is_err());
    }
}
