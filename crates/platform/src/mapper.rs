//! The Mapper — materialising provenance graphs from execution traces.
//!
//! Figure 5's central component: "the Mapper materializes the request by
//! applying the corresponding mapping rules on the execution trace. It
//! collects all execution trace triples…, calls the Resource Repository
//! for obtaining the final resource…, obtains the mapping rules from the
//! Service Catalog. All these data and rules are then combined to construct
//! an XQuery expression for building the provenance graph."
//!
//! The platform's Mapper runs the native engine of `weblab-prov`, the
//! temporal rewrite of Section 4, under one set of [`EngineOptions`]: every
//! inference the platform makes takes them. The paper's compiled-XQuery
//! path stays in `weblab-xquery`, which the test suites check against the
//! graphs the platform serves.

use weblab_obs::Counter;
use weblab_prov::{
    infer_links_since, infer_provenance, EngineOptions, ExecutionTrace, ProvLink, ProvenanceGraph,
    RuleSet,
};
use weblab_xml::Document;

/// Full provenance-graph materialisations performed by the Mapper.
static MATERIALIZATIONS: Counter = Counter::new("platform.mapper.materializations");
/// Incremental (`materialize_since`) requests served.
static INCREMENTAL_RUNS: Counter = Counter::new("platform.mapper.incremental_runs");
/// Links returned by incremental requests — the delta sizes.
static DELTA_LINKS: Counter = Counter::new("platform.mapper.delta_links");

/// The Mapper component.
#[derive(Debug, Clone, Default)]
pub struct Mapper {
    /// The native engine's options.
    pub opts: EngineOptions,
}

impl Mapper {
    /// A mapper running the native engine with default options.
    pub fn native() -> Self {
        Mapper::default()
    }

    /// Set the native engine's degree of parallelism.
    pub fn with_parallelism(mut self, parallelism: weblab_prov::Parallelism) -> Self {
        self.opts.parallelism = parallelism;
        self
    }

    /// Materialise the provenance graph of one execution.
    pub fn materialize(
        &self,
        doc: &Document,
        trace: &ExecutionTrace,
        rules: &RuleSet,
    ) -> ProvenanceGraph {
        MATERIALIZATIONS.inc();
        infer_provenance(doc, trace, rules, &self.opts)
    }

    /// Compute only the links contributed by `trace.calls[first_call..]` —
    /// the incremental path used by the Request Manager when new calls
    /// arrive after a graph was already materialised.
    pub fn materialize_since(
        &self,
        doc: &Document,
        trace: &ExecutionTrace,
        first_call: usize,
        rules: &RuleSet,
    ) -> Vec<ProvLink> {
        INCREMENTAL_RUNS.inc();
        let links = infer_links_since(doc, trace, first_call, rules, &self.opts);
        DELTA_LINKS.add(links.len() as u64);
        links
    }
}
