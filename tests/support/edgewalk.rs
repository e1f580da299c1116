//! The edge-list walks that answered why-provenance, lineage, impact and
//! common-origin queries before every query path went through
//! `ReachabilityIndex`. Each one re-scans the graph's edge list per hop,
//! independently of the index's interned adjacency and closure sets, which
//! makes them the **oracle** the index is held to: `tests/query_oracle.rs`
//! compares the two on random graphs and pipeline graphs, and the serve and
//! store suites compare served bytes with [`response`].
//!
//! [`answer`] is the dispatch `ProvQuery::answer_on_graph` ran over them:
//! the walks for the four reachability queries and for [`summary`]'s
//! closure sizes, `rdf::select` over a fresh PROV-O store for SPARQL, and a
//! fresh index for `rank`, which has no second implementation.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

use weblab::platform::{ProvQuery, QueryAnswer};
use weblab::prov::rank::{BlastRadius, GraphSummary, OriginCluster, ServiceInfluence};
use weblab::prov::{rank, EpochSnapshot, ProvenanceGraph, ReachabilityIndex, WhyProvenance};
use weblab::rdf::{export_prov_into, parse_select, select, SparqlError, TripleStore};
use weblab::serve::render_response;
use weblab::xml::CallLabel;

/// Compute the why-provenance of `uri`.
pub fn why(graph: &ProvenanceGraph, uri: &str) -> WhyProvenance {
    let mut resources: BTreeSet<String> = BTreeSet::new();
    resources.insert(uri.to_string());
    let mut links = Vec::new();
    let mut queue: VecDeque<&str> = VecDeque::new();
    queue.push_back(uri);
    let mut seen: HashSet<&str> = HashSet::new();
    seen.insert(uri);
    while let Some(u) = queue.pop_front() {
        for l in graph.links.iter().filter(|l| l.from_uri == u) {
            links.push(l.clone());
            resources.insert(l.to_uri.clone());
            if seen.insert(&l.to_uri) {
                queue.push_back(&l.to_uri);
            }
        }
    }
    links.sort();
    links.dedup();
    let mut calls: Vec<CallLabel> = resources
        .iter()
        .filter_map(|r| graph.label_of(r).cloned())
        .collect();
    calls.sort();
    calls.dedup();
    WhyProvenance {
        root: uri.to_string(),
        resources,
        links,
        calls,
    }
}

/// Upstream lineage of `uri` limited to `depth` hops, as (resource, hop
/// distance) pairs in breadth-first order. Depth 0 returns just the root.
pub fn lineage_to_depth(
    graph: &ProvenanceGraph,
    uri: &str,
    depth: usize,
) -> Vec<(String, usize)> {
    let mut out = vec![(uri.to_string(), 0)];
    let mut seen: HashSet<String> = HashSet::new();
    seen.insert(uri.to_string());
    let mut frontier: Vec<String> = vec![uri.to_string()];
    for d in 1..=depth {
        let mut next = Vec::new();
        for u in &frontier {
            for l in graph.links.iter().filter(|l| &l.from_uri == u) {
                if seen.insert(l.to_uri.clone()) {
                    out.push((l.to_uri.clone(), d));
                    next.push(l.to_uri.clone());
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    out
}

/// Impact analysis: every resource that transitively depends on `uri`
/// (the blast radius of a corrupted input), in breadth-first order.
pub fn impacted_by(graph: &ProvenanceGraph, uri: &str) -> Vec<String> {
    let mut radj: HashMap<&str, Vec<&str>> = HashMap::new();
    for l in &graph.links {
        radj.entry(l.to_uri.as_str())
            .or_default()
            .push(l.from_uri.as_str());
    }
    let mut out = Vec::new();
    let mut seen: HashSet<&str> = HashSet::new();
    seen.insert(uri);
    let mut queue: VecDeque<&str> = VecDeque::new();
    queue.push_back(uri);
    while let Some(u) = queue.pop_front() {
        if let Some(next) = radj.get(u) {
            for &v in next {
                if seen.insert(v) {
                    out.push(v.to_string());
                    queue.push_back(v);
                }
            }
        }
    }
    out
}

/// Common origins of two resources: the resources that appear in both
/// why-provenances (shared evidence), sorted.
pub fn common_origins(graph: &ProvenanceGraph, a: &str, b: &str) -> Vec<String> {
    let wa = why(graph, a);
    let wb = why(graph, b);
    wa.resources
        .intersection(&wb.resources)
        .cloned()
        .collect()
}

/// Every resource reachable from `uri` in one or more steps, along links
/// (`forward`, toward dependencies) or against them: an edge-list scan per
/// reached resource. A resource on a cycle reaches itself.
fn reach<'g>(graph: &'g ProvenanceGraph, uri: &str, forward: bool) -> HashSet<&'g str> {
    let mut reached: HashSet<&str> = HashSet::new();
    let mut stack = vec![uri];
    while let Some(u) = stack.pop() {
        for l in &graph.links {
            let (at, next) = if forward {
                (&l.from_uri, &l.to_uri)
            } else {
                (&l.to_uri, &l.from_uri)
            };
            if at == u && reached.insert(next) {
                stack.push(next);
            }
        }
    }
    reached
}

/// The aggregate view `rank::summary` computes from the index's closure
/// sizes, recomputed from edge-list walks: distinct URIs and URI pairs,
/// per-service sums of upward and downward reach over the labelled
/// resources (the first Source row of a URI wins), one origin cluster per
/// resource without dependencies, and the queried resource's blast radius.
pub fn summary(graph: &ProvenanceGraph, uri: Option<&str>) -> GraphSummary {
    let labels = graph.label_map();
    let mut resources: BTreeSet<&str> = graph.sources.iter().map(|s| s.uri.as_str()).collect();
    let mut edges: BTreeSet<(&str, &str)> = BTreeSet::new();
    for l in &graph.links {
        resources.insert(&l.from_uri);
        resources.insert(&l.to_uri);
        edges.insert((&l.from_uri, &l.to_uri));
    }
    let mut per_service: BTreeMap<&str, ServiceInfluence> = BTreeMap::new();
    let mut clusters = Vec::new();
    for &r in &resources {
        let up = reach(graph, r, false).len() as u64;
        if let Some(label) = labels.get(r) {
            let entry = per_service.entry(&label.service).or_insert_with(|| ServiceInfluence {
                service: label.service.clone(),
                resources: 0,
                influence: 0,
                origins: 0,
            });
            entry.resources += 1;
            entry.influence += up;
            entry.origins += reach(graph, r, true).len() as u64;
        }
        if !graph.links.iter().any(|l| l.from_uri == r) {
            clusters.push(OriginCluster { root: r.to_string(), size: 1 + up });
        }
    }
    let mut services: Vec<ServiceInfluence> = per_service.into_values().collect();
    services.sort_by(|a, b| b.influence.cmp(&a.influence).then_with(|| a.service.cmp(&b.service)));
    clusters.sort_by(|a, b| b.size.cmp(&a.size).then_with(|| a.root.cmp(&b.root)));
    GraphSummary {
        resources: resources.len() as u64,
        edges: edges.len() as u64,
        services,
        clusters,
        blast: uri.map(|u| BlastRadius {
            uri: u.to_string(),
            impacted: reach(graph, u, false).len() as u64,
            origins: reach(graph, u, true).len() as u64,
        }),
    }
}

/// The oracle's answer to any [`ProvQuery`] on `graph`.
pub fn answer(q: &ProvQuery, graph: &ProvenanceGraph) -> Result<QueryAnswer, SparqlError> {
    Ok(match q {
        ProvQuery::Why { uri } => QueryAnswer::Why(why(graph, uri)),
        ProvQuery::Lineage { uri, depth } => {
            QueryAnswer::Lineage(lineage_to_depth(graph, uri, *depth))
        }
        ProvQuery::ImpactedBy { uri } => QueryAnswer::ImpactedBy(impacted_by(graph, uri)),
        ProvQuery::CommonOrigins { a, b } => {
            QueryAnswer::CommonOrigins(common_origins(graph, a, b))
        }
        ProvQuery::Sparql { query } => {
            let q = parse_select(query)?;
            let mut store = TripleStore::new();
            export_prov_into(graph, &mut store);
            QueryAnswer::Solutions(select(&store, &q))
        }
        ProvQuery::Rank { uris, direction, opts, weights } => {
            let index = ReachabilityIndex::from_graph(graph);
            QueryAnswer::Ranked(rank::rank(&index, uris, *direction, opts, weights))
        }
        ProvQuery::Summary { uri } => QueryAnswer::Summary(summary(graph, uri.as_deref())),
    })
}

/// The oracle's answer on a snapshot's graph, rendered as the response
/// line the daemon writes at that snapshot's epoch.
pub fn response(snap: &EpochSnapshot, q: &ProvQuery) -> String {
    let answer = answer(q, &snap.graph).expect("oracle queries succeed");
    render_response(snap.epoch, &answer)
}
