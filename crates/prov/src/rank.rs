//! Ranked provenance analytics: spreading activation over the
//! reachability index.
//!
//! The exact queries of [`crate::index`] return whole reachable sets —
//! unreadable once a production graph holds millions of artifacts. This
//! module answers the same questions *ranked and bounded*:
//! activation is seeded at the queried resources, propagates along the
//! dependency (or dependent) adjacency with a per-hop decay and
//! per-service edge weights, and the expansion stops at an explicit node
//! budget, returning the top-k most causally relevant resources first.
//!
//! # Determinism
//!
//! Scores are a function of the published graph only — never of traversal
//! order, worker count, or the index's interning order:
//!
//! * All arithmetic is **fixed-point** over `u64` micro-units
//!   ([`SCALE`] = 1 000 000). No floats touch the scoring path, so there
//!   is no accumulation-order sensitivity.
//! * Propagation is **synchronous wave (breadth-first) activation**: a
//!   node's score is fixed the first wave it is reached, as the sum of the
//!   contributions of all its already-scored neighbours in the previous
//!   wave. Integer addition is commutative, so the sum is independent of
//!   the order neighbours are enumerated in.
//! * Every tie-break is on `(score, URI)` — never on interned ids, which
//!   differ between a live (incremental) and a batch (from-graph) index.
//!
//! The contribution of an edge `u → v` expanded at wave `h` is
//! `⌊⌊score(u)·decay/S⌋·w/S⌋` where `S` is [`SCALE`] and `w` the weight of
//! the service that produced the edge's *derived* endpoint (default `S`,
//! i.e. 1.0). With an unbounded budget the visited set is exactly the
//! reachable closure — the same URIs `impacted_by`/`lineage` return.
//!
//! # Aggregate views
//!
//! [`summary`] answers fleet-level questions from the index's precomputed
//! ancestor/descendant closure *sizes* without any traversal: per-service
//! influence totals, common-origin clusters (one per root resource), and
//! per-resource blast-radius estimates — each an O(1) set-size lookup.
//!
//! Pinned by the `prov.rank.{queries,frontier,visited}` counters and the
//! `prov.rank.score_ns` histogram.

use std::collections::{BTreeMap, HashMap, HashSet};

use weblab_obs::{Counter, Histogram, Span};

use crate::index::ReachabilityIndex;

/// Fixed-point scale: scores, decays and weights are micro-units.
pub const SCALE: u64 = 1_000_000;

/// Rank/summary invocations.
static RANK_QUERIES: Counter = Counter::new("prov.rank.queries");
/// Frontier nodes expanded across all waves.
static RANK_FRONTIER: Counter = Counter::new("prov.rank.frontier");
/// Nodes scored (admitted under the budget), seeds included.
static RANK_VISITED: Counter = Counter::new("prov.rank.visited");
/// Wall time of one rank scoring pass, nanoseconds.
static RANK_SCORE_NS: Histogram = Histogram::new("prov.rank.score_ns");

/// Which adjacency activation spreads along.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankDirection {
    /// Along incoming edges — toward dependents (ranked impact analysis).
    Up,
    /// Along outgoing edges — toward dependencies (ranked lineage).
    Down,
}

impl RankDirection {
    /// Wire name of the direction.
    pub fn as_str(&self) -> &'static str {
        match self {
            RankDirection::Up => "up",
            RankDirection::Down => "down",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Option<RankDirection> {
        match s {
            "up" => Some(RankDirection::Up),
            "down" => Some(RankDirection::Down),
            _ => None,
        }
    }
}

/// The shared options envelope of the v2 query surface, consumed
/// identically by the CLI and serve paths. All fields use `0 = default`:
/// `limit`/`budget` zero mean unbounded, `decay_micro` zero means the
/// [`DEFAULT_DECAY_MICRO`] per-hop decay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryOpts {
    /// Maximum entries in the returned ranking (0 = all scored nodes).
    pub limit: usize,
    /// Maximum nodes scored, seeds included (0 = unbounded — the exact
    /// reachable closure).
    pub budget: usize,
    /// Per-hop activation decay in micro-units (0 = default 0.5).
    pub decay_micro: u32,
}

/// Default per-hop decay: 0.5 in micro-units.
pub const DEFAULT_DECAY_MICRO: u32 = 500_000;

impl QueryOpts {
    /// The effective decay (resolving `0` to the default).
    pub fn decay(&self) -> u32 {
        if self.decay_micro == 0 {
            DEFAULT_DECAY_MICRO
        } else {
            self.decay_micro
        }
    }

    /// The effective budget (resolving `0` to unbounded).
    pub fn effective_budget(&self) -> usize {
        if self.budget == 0 {
            usize::MAX
        } else {
            self.budget
        }
    }
}

/// One scored resource in a ranking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankedEntry {
    /// The resource URI.
    pub uri: String,
    /// Activation score in micro-units (seeds start at [`SCALE`]).
    pub score_micro: u64,
    /// Wave (hop distance from the nearest seed) the score was fixed at.
    pub hop: usize,
}

/// Convert a non-negative finite float to micro-units, or `None` if it is
/// not representable (negative, non-finite, or above `max`).
pub fn micro_from_f64(x: f64, max: f64) -> Option<u64> {
    if !x.is_finite() || x < 0.0 || x > max {
        return None;
    }
    Some((x * SCALE as f64).round() as u64)
}

/// Render micro-units as a fixed six-decimal string (`500000` → `"0.500000"`)
/// — the deterministic wire/CLI rendering of scores, decays and weights.
pub fn format_micro(micro: u64) -> String {
    format!("{}.{:06}", micro / SCALE, micro % SCALE)
}

fn scale_mul(score: u64, factor_micro: u64) -> u64 {
    let product = score as u128 * factor_micro as u128 / SCALE as u128;
    u64::try_from(product).unwrap_or(u64::MAX)
}

/// Spreading-activation ranking over the index's adjacency.
///
/// Seeds score [`SCALE`] at hop 0 (unknown URIs are kept, like the root
/// row of a lineage answer, but expand nowhere). Each wave scores the
/// still-unscored neighbours of the previous wave; when admitting a wave
/// would exceed `opts.budget`, only the top `(score desc, uri asc)`
/// remainder is admitted and the expansion stops. `weights` maps service
/// names to micro-unit edge weights (an edge weighs as the service that
/// produced its derived endpoint; unlisted services weigh 1.0).
///
/// Results are sorted `(score desc, hop asc, uri asc)` and truncated to
/// `opts.limit`.
pub fn rank(
    index: &ReachabilityIndex,
    seeds: &[String],
    direction: RankDirection,
    opts: &QueryOpts,
    weights: &[(String, u32)],
) -> Vec<RankedEntry> {
    RANK_QUERIES.inc();
    let _span = Span::start(&RANK_SCORE_NS);
    let weight_of: HashMap<&str, u64> = weights
        .iter()
        .map(|(s, w)| (s.as_str(), *w as u64))
        .collect();
    let service_weight = |uri: &str| -> u64 {
        index
            .label_of(uri)
            .and_then(|l| weight_of.get(l.service.as_str()).copied())
            .unwrap_or(SCALE)
    };
    let decay = opts.decay() as u64;
    let budget = opts.effective_budget();

    let mut results: Vec<RankedEntry> = Vec::new();
    let mut scores: HashMap<u32, u64> = HashMap::new();
    let mut frontier: Vec<u32> = Vec::new();
    let mut seen_seeds: HashSet<&str> = HashSet::new();
    for seed in seeds {
        if !seen_seeds.insert(seed.as_str()) {
            continue;
        }
        results.push(RankedEntry { uri: seed.clone(), score_micro: SCALE, hop: 0 });
        if let Some(id) = index.id_of(seed) {
            scores.insert(id, SCALE);
            frontier.push(id);
        }
    }
    let mut visited = scores.len();

    let mut hop = 0;
    while !frontier.is_empty() && visited < budget {
        hop += 1;
        RANK_FRONTIER.add(frontier.len() as u64);
        // Accumulate this wave's activation. The map is keyed by interned
        // id only for dedup — each sum is order-independent, and admission
        // below never consults id order.
        let mut wave: BTreeMap<u32, u64> = BTreeMap::new();
        for &u in &frontier {
            let from_score = scale_mul(scores[&u], decay);
            let neighbours = match direction {
                RankDirection::Up => index.rdeps_of_id(u),
                RankDirection::Down => index.deps_of_id(u),
            };
            for &v in neighbours {
                if scores.contains_key(&v) {
                    continue;
                }
                // The derived endpoint of the edge: `deps[u]` lists what
                // `u` was derived from; `rdeps[u]` lists what derives it.
                let derived = match direction {
                    RankDirection::Up => index.uri_of(v),
                    RankDirection::Down => index.uri_of(u),
                };
                let contribution = scale_mul(from_score, service_weight(derived));
                let entry = wave.entry(v).or_insert(0);
                *entry = entry.saturating_add(contribution);
            }
        }
        let mut admitted: Vec<(u32, u64)> = wave.into_iter().collect();
        if visited + admitted.len() > budget {
            admitted.sort_by(|a, b| {
                b.1.cmp(&a.1)
                    .then_with(|| index.uri_of(a.0).cmp(index.uri_of(b.0)))
            });
            admitted.truncate(budget - visited);
        }
        frontier.clear();
        for (v, s) in admitted {
            scores.insert(v, s);
            visited += 1;
            frontier.push(v);
            results.push(RankedEntry {
                uri: index.uri_of(v).to_string(),
                score_micro: s,
                hop,
            });
        }
    }
    RANK_VISITED.add(visited as u64);

    results.sort_by(|a, b| {
        b.score_micro
            .cmp(&a.score_micro)
            .then(a.hop.cmp(&b.hop))
            .then_with(|| a.uri.cmp(&b.uri))
    });
    if opts.limit > 0 {
        results.truncate(opts.limit);
    }
    results
}

/// Aggregate influence of one service across every resource it produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceInfluence {
    /// The service name.
    pub service: String,
    /// Labelled resources the service produced.
    pub resources: u64,
    /// Total blast-radius mass: Σ |upward closure| over those resources.
    pub influence: u64,
    /// Total evidence mass: Σ |downward closure| over those resources.
    pub origins: u64,
}

/// One common-origin cluster: a root resource (no dependencies) and the
/// number of resources sharing it as an origin (itself included).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OriginCluster {
    /// The root (origin) resource URI.
    pub root: String,
    /// Resources whose evidence includes this root, the root included.
    pub size: u64,
}

/// Blast-radius estimate for one resource — closure sizes, not members.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlastRadius {
    /// The queried resource URI.
    pub uri: String,
    /// Resources transitively depending on it (|upward closure|).
    pub impacted: u64,
    /// Resources it transitively depends on (|downward closure|).
    pub origins: u64,
}

/// The aggregate analytics view of one graph — everything here is computed
/// from index statistics (closure sizes), with no graph traversal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphSummary {
    /// Distinct resources in the graph.
    pub resources: u64,
    /// Distinct dependency edges.
    pub edges: u64,
    /// Per-service influence, sorted `(influence desc, service asc)`.
    pub services: Vec<ServiceInfluence>,
    /// Common-origin clusters, sorted `(size desc, root asc)`.
    pub clusters: Vec<OriginCluster>,
    /// Blast radius of the optionally queried resource.
    pub blast: Option<BlastRadius>,
}

/// Aggregate views from index statistics — per-service influence,
/// common-origin clustering and an optional blast-radius estimate — all
/// from the precomputed closure sizes, no traversal.
pub fn summary(index: &ReachabilityIndex, uri: Option<&str>) -> GraphSummary {
    RANK_QUERIES.inc();
    let _span = Span::start(&RANK_SCORE_NS);
    let mut per_service: BTreeMap<&str, ServiceInfluence> = BTreeMap::new();
    for (id, label) in index.labelled() {
        let entry = per_service
            .entry(label.service.as_str())
            .or_insert_with(|| ServiceInfluence {
                service: label.service.clone(),
                resources: 0,
                influence: 0,
                origins: 0,
            });
        entry.resources += 1;
        entry.influence += index.up_size(id) as u64;
        entry.origins += index.down_size(id) as u64;
    }
    let mut services: Vec<ServiceInfluence> = per_service.into_values().collect();
    services.sort_by(|a, b| {
        b.influence
            .cmp(&a.influence)
            .then_with(|| a.service.cmp(&b.service))
    });

    let mut clusters: Vec<OriginCluster> = (0..index.resource_count() as u32)
        .filter(|&id| index.deps_of_id(id).is_empty())
        .map(|id| OriginCluster {
            root: index.uri_of(id).to_string(),
            size: 1 + index.up_size(id) as u64,
        })
        .collect();
    clusters.sort_by(|a, b| b.size.cmp(&a.size).then_with(|| a.root.cmp(&b.root)));

    let blast = uri.map(|u| match index.id_of(u) {
        Some(id) => BlastRadius {
            uri: u.to_string(),
            impacted: index.up_size(id) as u64,
            origins: index.down_size(id) as u64,
        },
        None => BlastRadius { uri: u.to_string(), impacted: 0, origins: 0 },
    });

    GraphSummary {
        resources: index.resource_count() as u64,
        edges: index.edge_count() as u64,
        services,
        clusters,
        blast,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{infer_provenance, EngineOptions, InheritMode};
    use crate::graph::ProvenanceGraph;
    use crate::paper_example;

    fn graph() -> ProvenanceGraph {
        let (doc, trace, rules) = paper_example::build();
        infer_provenance(
            &doc,
            &trace,
            &rules,
            &EngineOptions {
                inherit: InheritMode::PatternRewrite,
                ..Default::default()
            },
        )
    }

    fn seeds(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    fn uris(ranked: &[RankedEntry]) -> Vec<&str> {
        ranked.iter().map(|e| e.uri.as_str()).collect()
    }

    #[test]
    fn unbounded_rank_covers_the_exact_closures() {
        let g = graph();
        let idx = ReachabilityIndex::from_graph(&g);
        let opts = QueryOpts::default();
        for uri in ["r1", "r3", "r8"] {
            let up = rank(&idx, &seeds(&[uri]), RankDirection::Up, &opts, &[]);
            let mut expect: Vec<String> = idx.impacted_by(uri);
            expect.push(uri.to_string());
            expect.sort();
            let mut got: Vec<String> = up.iter().map(|e| e.uri.clone()).collect();
            got.sort();
            assert_eq!(got, expect, "up closure of {uri}");

            let down = rank(&idx, &seeds(&[uri]), RankDirection::Down, &opts, &[]);
            let mut expect: Vec<String> = idx
                .lineage(uri, usize::MAX)
                .into_iter()
                .map(|(u, _)| u)
                .collect();
            expect.sort();
            let mut got: Vec<String> = down.iter().map(|e| e.uri.clone()).collect();
            got.sort();
            assert_eq!(got, expect, "down closure of {uri}");
        }
    }

    #[test]
    fn scores_halve_per_hop_at_default_decay() {
        let g = graph();
        let idx = ReachabilityIndex::from_graph(&g);
        let ranked = rank(
            &idx,
            &seeds(&["r8"]),
            RankDirection::Down,
            &QueryOpts::default(),
            &[],
        );
        for e in &ranked {
            if e.hop == 0 {
                assert_eq!(e.score_micro, SCALE);
            } else {
                // single-parent chains halve exactly; converging nodes sum
                assert!(e.score_micro >= SCALE / 2u64.pow(e.hop as u32) || e.score_micro > 0);
            }
        }
        let hop1: Vec<_> = ranked.iter().filter(|e| e.hop == 1).collect();
        assert!(hop1.iter().all(|e| e.score_micro == SCALE / 2));
    }

    #[test]
    fn results_are_sorted_and_limited() {
        let g = graph();
        let idx = ReachabilityIndex::from_graph(&g);
        let full = rank(&idx, &seeds(&["r8"]), RankDirection::Down, &QueryOpts::default(), &[]);
        let key = |e: &RankedEntry| (std::cmp::Reverse(e.score_micro), e.hop, e.uri.clone());
        for pair in full.windows(2) {
            assert!(
                key(&pair[0]) <= key(&pair[1]),
                "order violated between {:?} and {:?}",
                pair[0],
                pair[1]
            );
        }
        let limited = rank(
            &idx,
            &seeds(&["r8"]),
            RankDirection::Down,
            &QueryOpts { limit: 2, ..Default::default() },
            &[],
        );
        assert_eq!(limited.as_slice(), &full[..2]);
    }

    #[test]
    fn budget_caps_visited_nodes_keeping_top_scores() {
        let g = graph();
        let idx = ReachabilityIndex::from_graph(&g);
        let full = rank(&idx, &seeds(&["r8"]), RankDirection::Down, &QueryOpts::default(), &[]);
        assert!(full.len() > 3, "paper example should rank > 3 nodes");
        let capped = rank(
            &idx,
            &seeds(&["r8"]),
            RankDirection::Down,
            &QueryOpts { budget: 3, ..Default::default() },
            &[],
        );
        assert_eq!(capped.len(), 3);
        // the capped ranking is a prefix-quality subset: every admitted
        // wave keeps its highest-scored members
        assert_eq!(capped[0].uri, "r8");
    }

    #[test]
    fn weights_scale_contributions_of_the_producing_service() {
        let g = graph();
        let idx = ReachabilityIndex::from_graph(&g);
        let base = rank(&idx, &seeds(&["r1"]), RankDirection::Up, &QueryOpts::default(), &[]);
        // suppress every service: all non-seed scores become 0, set unchanged
        let all_services: Vec<(String, u32)> = base
            .iter()
            .filter_map(|e| idx.label_of(&e.uri).map(|l| (l.service.clone(), 0u32)))
            .collect();
        let muted = rank(
            &idx,
            &seeds(&["r1"]),
            RankDirection::Up,
            &QueryOpts::default(),
            &all_services,
        );
        assert_eq!(
            {
                let mut u = uris(&muted);
                u.sort();
                u
            },
            {
                let mut u = uris(&base);
                u.sort();
                u
            },
            "weights must not change the reachable set"
        );
        for e in &muted {
            if e.hop > 0 && idx.label_of(&e.uri).is_some() {
                assert_eq!(e.score_micro, 0, "muted service score for {}", e.uri);
            }
        }
    }

    #[test]
    fn unknown_seed_ranks_alone_like_a_lineage_root() {
        let g = graph();
        let idx = ReachabilityIndex::from_graph(&g);
        let ranked = rank(
            &idx,
            &seeds(&["no-such-resource"]),
            RankDirection::Up,
            &QueryOpts::default(),
            &[],
        );
        assert_eq!(
            ranked,
            vec![RankedEntry {
                uri: "no-such-resource".into(),
                score_micro: SCALE,
                hop: 0
            }]
        );
    }

    #[test]
    fn rank_is_identical_on_live_and_batch_built_indexes() {
        let g = graph();
        let batch = ReachabilityIndex::from_graph(&g);
        // incremental build in reversed link order interns differently
        let mut live = ReachabilityIndex::new();
        let mut sources = g.sources.clone();
        sources.reverse();
        live.add_sources(&sources);
        let mut links = g.links.clone();
        links.reverse();
        for l in &links {
            live.add_link(l);
        }
        let opts = QueryOpts { budget: 4, limit: 3, decay_micro: 700_000 };
        for uri in ["r1", "r3", "r8"] {
            for dir in [RankDirection::Up, RankDirection::Down] {
                assert_eq!(
                    rank(&batch, &seeds(&[uri]), dir, &opts, &[]),
                    rank(&live, &seeds(&[uri]), dir, &opts, &[]),
                    "rank({uri}, {dir:?}) differs between build orders"
                );
            }
        }
        assert_eq!(summary(&batch, Some("r3")), summary(&live, Some("r3")));
    }

    #[test]
    fn summary_matches_closure_sizes() {
        let g = graph();
        let idx = ReachabilityIndex::from_graph(&g);
        let s = summary(&idx, Some("r3"));
        assert_eq!(s.resources, idx.resource_count() as u64);
        assert_eq!(s.edges, idx.edge_count() as u64);
        let blast = s.blast.as_ref().unwrap();
        assert_eq!(blast.impacted, idx.impacted_by("r3").len() as u64);
        // every cluster root has no dependencies and counts its dependents
        for c in &s.clusters {
            assert!(idx.dependencies_of(&c.root).is_empty());
            assert_eq!(c.size, 1 + idx.impacted_by(&c.root).len() as u64);
        }
        // service totals add up to the per-resource closure sums (one row
        // per distinct URI, first-registered label wins, like the table)
        for svc in &s.services {
            let mut influence = 0u64;
            let mut seen = std::collections::HashSet::new();
            for src in &g.sources {
                if !seen.insert(src.uri.clone()) {
                    continue;
                }
                if idx.label_of(&src.uri).map(|l| l.service.as_str())
                    == Some(svc.service.as_str())
                {
                    influence += idx.impacted_by(&src.uri).len() as u64;
                }
            }
            assert_eq!(svc.influence, influence, "influence of {}", svc.service);
        }
        assert_eq!(
            summary(&idx, Some("nope")).blast,
            Some(BlastRadius { uri: "nope".into(), impacted: 0, origins: 0 })
        );
    }

    #[test]
    fn micro_conversions_round_trip() {
        assert_eq!(micro_from_f64(0.5, 1.0), Some(500_000));
        assert_eq!(micro_from_f64(1.0, 1.0), Some(SCALE));
        assert_eq!(micro_from_f64(1.5, 1.0), None);
        assert_eq!(micro_from_f64(-0.1, 1.0), None);
        assert_eq!(micro_from_f64(f64::NAN, 1.0), None);
        assert_eq!(format_micro(500_000), "0.500000");
        assert_eq!(format_micro(SCALE), "1.000000");
        assert_eq!(format_micro(2_030_000), "2.030000");
        assert_eq!(format_micro(0), "0.000000");
    }
}
