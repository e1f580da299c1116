//! Property tests for the parallel inference executor: at every worker
//! count, every strategy and every inheritance mode, the parallel engine
//! must produce the exact link set of the sequential reference — the
//! executor merges per-unit buffers in unit order and the engine sorts and
//! dedups, so the whole `ProvenanceGraph` is byte-identical.

use proptest::prelude::*;

use weblab::prov::oracle::{infer_provenance_with, Strategy as ProvStrategy};
use weblab::prov::{EngineOptions, InheritMode, Parallelism};
use weblab::workflow::generator::synthetic_workload;
use weblab::workflow::{Orchestrator, Workflow};
use weblab::workflow::services::{LanguageExtractor, Normaliser, Translator};

const WORKER_SWEEP: [Parallelism; 4] = [
    Parallelism::Threads(1),
    Parallelism::Threads(2),
    Parallelism::Threads(8),
    Parallelism::Auto,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn parallel_matches_sequential_on_random_workflows(
        seed in 0u64..1000,
        n_calls in 1usize..7,
        fanout in 1usize..4,
        inherit in proptest::bool::ANY,
    ) {
        let (mut doc, wf, rules) = synthetic_workload(seed, n_calls, fanout, 0);
        let outcome = Orchestrator::new().execute(&wf, &mut doc).unwrap();
        let inherit = if inherit { InheritMode::PatternRewrite } else { InheritMode::Off };
        for strategy in [
            ProvStrategy::StateReplay,
            ProvStrategy::MaterializedReplay,
            ProvStrategy::TemporalRewrite,
            ProvStrategy::GroupedSinglePass,
        ] {
            let mk = |parallelism| {
                infer_provenance_with(&doc, &outcome.trace, &rules, strategy, &EngineOptions {
                    inherit,
                    parallelism,
                    ..Default::default()
                })
            };
            let sequential = mk(Parallelism::Sequential);
            for parallelism in WORKER_SWEEP {
                let parallel = mk(parallelism);
                prop_assert_eq!(&sequential.links, &parallel.links);
                prop_assert_eq!(&sequential.sources, &parallel.sources);
            }
        }
    }
}

/// The media-mining pipeline exercises multi-service rule sets (several
/// units per call) and inherited provenance in one deterministic check.
#[test]
fn parallel_matches_sequential_on_media_pipeline() {
    let mut doc = weblab::workflow::generator::generate_corpus(7, 3, 25);
    let wf = Workflow::new()
        .then(Normaliser)
        .then(LanguageExtractor)
        .then(Translator::default())
        .then(LanguageExtractor);
    let outcome = Orchestrator::new().execute(&wf, &mut doc).unwrap();
    let rules = weblab::workflow::services::default_rules();
    for inherit in [InheritMode::Off, InheritMode::PatternRewrite, InheritMode::GraphPropagation] {
        for strategy in [
            ProvStrategy::TemporalRewrite,
            ProvStrategy::GroupedSinglePass,
            ProvStrategy::StateReplay,
        ] {
            let mk = |parallelism| {
                infer_provenance_with(&doc, &outcome.trace, &rules, strategy, &EngineOptions {
                    inherit,
                    parallelism,
                    ..Default::default()
                })
            };
            let sequential = mk(Parallelism::Sequential);
            assert!(!sequential.links.is_empty());
            for parallelism in WORKER_SWEEP {
                assert_eq!(sequential.links, mk(parallelism).links);
            }
        }
    }
}
