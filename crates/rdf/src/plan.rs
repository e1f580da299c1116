//! The two-stage SPARQL-lite pipeline: cardinality-driven join planning,
//! then streaming id-space execution.
//!
//! **Stage 1 — planning** ([`compile`]). Query constants are resolved to
//! dictionary ids up front (a constant the store has never seen makes the
//! whole plan *dead* — provably empty, no execution). The BGP is then
//! ordered greedily by estimated output cardinality: exact prefix-range
//! counts where every restricting component is a constant, and
//! per-predicate / global distinct-count statistics from
//! [`TripleStore`] everywhere else. Each ordered pattern is compiled to a
//! [`Step`]: the permutation index whose sort order puts every
//! already-bound component in the range prefix (so the matching rows are
//! one contiguous slice found by binary search), plus the column → slot
//! bindings for the variables it introduces. Filters are compiled to
//! id-space comparisons and pushed down to the earliest step after which
//! both operands are bound.
//!
//! **Stage 2 — execution** ([`execute`]). Intermediate solutions are flat
//! `Vec<u32>` slot rows — no `Term` is cloned, hashed, or compared while
//! joining. Each step index-nested-loop joins its input rows against its
//! range slice; pushed-down filters prune rows the moment they are
//! checkable. Only at the very end are the *projected* slots sorted,
//! deduplicated (this is also where `SELECT DISTINCT` settles, still in
//! id space) and decoded to term [`Solution`]s, which are then ordered
//! exactly like the seed evaluator ordered them (term sort, `ORDER BY`
//! keys, `LIMIT`) so output stays byte-identical.
//!
//! [`QueryEngine`] wraps a shared store with a query-text → [`Plan`]
//! cache, so a serve daemon re-running the same query against one epoch
//! parses and plans it once (`rdf.plan.cache.*` counters).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use weblab_obs::Counter;

use crate::sparql::{parse_select, Filter, PatTerm, SelectQuery, Solution, SparqlError};
use crate::store::TripleStore;

/// Plans compiled (both by [`QueryEngine`] misses and the free-standing
/// [`crate::select`], which plans on every call).
static PLAN_BUILDS: Counter = Counter::new("rdf.plan.builds");
/// Plans found dead at compile time (a constant missing from the
/// dictionary, or an unsatisfiable filter) — executed as instant ∅.
static PLAN_DEAD: Counter = Counter::new("rdf.plan.dead");
/// Query texts answered from the engine's plan cache.
static PLAN_CACHE_HITS: Counter = Counter::new("rdf.plan.cache.hits");
/// Query texts that had to be parsed and planned.
static PLAN_CACHE_MISSES: Counter = Counter::new("rdf.plan.cache.misses");
/// Index range lookups performed while joining (one per input row per step).
static JOIN_PROBES: Counter = Counter::new("rdf.join.probes");
/// Candidate index rows scanned across all range slices.
static JOIN_SCANNED: Counter = Counter::new("rdf.join.scanned");
/// Intermediate solution rows emitted by join steps.
static JOIN_ROWS: Counter = Counter::new("rdf.join.rows");

/// Slot value of a not-yet-bound variable. Unreachable as a real id: the
/// dictionary refuses to assign it.
const UNBOUND: u32 = u32::MAX;

/// Which permutation index a step scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ix {
    Spo,
    Pos,
    Osp,
}

/// Where a prefix component's value comes from at execution time.
#[derive(Debug, Clone, Copy)]
enum Src {
    /// A query constant, already resolved to its id.
    Const(u32),
    /// A variable bound by an earlier step.
    Slot(usize),
}

/// One compiled join step: probe `which` with `prefix`, then bind the
/// remaining columns into solution slots.
#[derive(Debug)]
struct Step {
    which: Ix,
    /// Range prefix, in the index's column order. Every component that is
    /// bound when this step runs lives here — the non-prefix columns are
    /// exactly the variables the step introduces.
    prefix: Vec<Src>,
    /// `(index column, slot)` for each newly bound variable.
    binds: Vec<(usize, usize)>,
    /// `(column a, column b)` equalities for a variable repeated within
    /// this pattern (e.g. `?x <p> ?x`).
    same: Vec<(usize, usize)>,
}

/// A filter compiled to id space, applied to rows of a specific step.
#[derive(Debug, Clone, Copy)]
struct CFilter {
    left: Src,
    right: Src,
    equal: bool,
}

/// A compiled query: join order, steps, pushed-down filters, projection.
/// Valid only against the store (dictionary) it was compiled for.
#[derive(Debug)]
pub(crate) struct Plan {
    query: SelectQuery,
    /// Provably empty at compile time.
    dead: bool,
    nvars: usize,
    steps: Vec<Step>,
    /// Filters to apply to the output rows of step `i`.
    filters_at: Vec<Vec<CFilter>>,
    /// Projected `(variable, slot)` pairs, sorted by variable name.
    project: Vec<(String, usize)>,
}

/// How one component of a pattern looks to the planner.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Comp<'a> {
    /// Constant with a resolved id.
    Id(u32),
    /// Variable already bound at this point of the join order.
    Bound(&'a str),
    /// Variable this pattern would introduce.
    Free(&'a str),
}

impl Comp<'_> {
    fn is_known(&self) -> bool {
        !matches!(self, Comp::Free(_))
    }
}

fn classify<'a>(t: &'a PatTerm, ids: &HashMap<&str, u32>, bound: &[&str]) -> Option<Comp<'a>> {
    match t {
        PatTerm::Const(c) => ids.get(term_key(c).as_str()).map(|&id| Comp::Id(id)),
        PatTerm::Var(v) if bound.contains(&v.as_str()) => Some(Comp::Bound(v)),
        PatTerm::Var(v) => Some(Comp::Free(v)),
    }
}

/// A collision-free map key for a constant term (terms of different kinds
/// can share text).
fn term_key(t: &crate::term::Term) -> String {
    t.to_string()
}

/// `c / d`, floored to 1 while any rows remain (an estimate of 0 is
/// reserved for provably empty ranges).
fn shrink(c: u64, d: u64) -> u64 {
    if c == 0 {
        0
    } else {
        (c / d.max(1)).max(1)
    }
}

/// Estimated result cardinality of one pattern under the current bound
/// set: exact range counts when the restricting components are constants,
/// statistics otherwise.
fn estimate(store: &TripleStore, s: Comp, p: Comp, o: Comp) -> u64 {
    let stats = store.stats();
    match p {
        Comp::Id(p) => {
            let ps = stats.preds.get(&p).copied().unwrap_or_default();
            match (s, o) {
                (Comp::Id(s), Comp::Id(o)) => store.rows_spo(&[s, p, o]).len() as u64,
                (Comp::Id(s), o) => {
                    let c = store.rows_spo(&[s, p]).len() as u64;
                    if o.is_known() {
                        shrink(c, ps.distinct_o)
                    } else {
                        c
                    }
                }
                (s, Comp::Id(o)) => {
                    let c = store.rows_pos(&[p, o]).len() as u64;
                    if s.is_known() {
                        shrink(c, ps.distinct_s)
                    } else {
                        c
                    }
                }
                (s, o) => {
                    let mut c = ps.rows;
                    if s.is_known() {
                        c = shrink(c, ps.distinct_s);
                    }
                    if o.is_known() {
                        c = shrink(c, ps.distinct_o);
                    }
                    c
                }
            }
        }
        p => {
            let mut c = match (s, o) {
                (Comp::Id(s), Comp::Id(o)) => store.rows_osp(&[o, s]).len() as u64,
                (Comp::Id(s), o) => {
                    let c = store.rows_spo(&[s]).len() as u64;
                    if o.is_known() {
                        shrink(c, stats.distinct_o)
                    } else {
                        c
                    }
                }
                (s, Comp::Id(o)) => {
                    let c = store.rows_osp(&[o]).len() as u64;
                    if s.is_known() {
                        shrink(c, stats.distinct_s)
                    } else {
                        c
                    }
                }
                (s, o) => {
                    let mut c = store.len() as u64;
                    if s.is_known() {
                        c = shrink(c, stats.distinct_s);
                    }
                    if o.is_known() {
                        c = shrink(c, stats.distinct_o);
                    }
                    c
                }
            };
            if matches!(p, Comp::Bound(_)) {
                c = shrink(c, stats.distinct_p);
            }
            c
        }
    }
}

/// Compile `query` against `store` (stage 1). Infallible: queries that
/// cannot match — unknown constants, unsatisfiable filters — produce a
/// dead plan rather than an error, mirroring the seed evaluator's
/// empty-result behaviour.
pub(crate) fn compile(store: &TripleStore, query: &SelectQuery) -> Plan {
    PLAN_BUILDS.inc();
    let dead = |query: &SelectQuery| {
        PLAN_DEAD.inc();
        Plan {
            query: query.clone(),
            dead: true,
            nvars: 0,
            steps: Vec::new(),
            filters_at: Vec::new(),
            project: Vec::new(),
        }
    };

    // resolve every pattern constant once; a miss means no stored triple
    // can ever match that pattern
    let mut ids: HashMap<String, u32> = HashMap::new();
    for pat in &query.patterns {
        for t in [&pat.s, &pat.p, &pat.o] {
            if let PatTerm::Const(c) = t {
                match store.dict().lookup(c) {
                    Some(id) => {
                        ids.insert(term_key(c), id);
                    }
                    None => return dead(query),
                }
            }
        }
    }
    let ids_ref: HashMap<&str, u32> = ids.iter().map(|(k, v)| (k.as_str(), *v)).collect();

    // greedy join order: repeatedly take the cheapest remaining pattern
    let mut remaining: Vec<usize> = (0..query.patterns.len()).collect();
    let mut bound: Vec<&str> = Vec::new();
    let mut order: Vec<usize> = Vec::new();
    while !remaining.is_empty() {
        let (pos, &idx) = remaining
            .iter()
            .enumerate()
            .min_by_key(|(_, &i)| {
                let pat = &query.patterns[i];
                let s = classify(&pat.s, &ids_ref, &bound).expect("consts resolved");
                let p = classify(&pat.p, &ids_ref, &bound).expect("consts resolved");
                let o = classify(&pat.o, &ids_ref, &bound).expect("consts resolved");
                (estimate(store, s, p, o), i)
            })
            .expect("non-empty");
        remaining.remove(pos);
        order.push(idx);
        let pat = &query.patterns[idx];
        for t in [&pat.s, &pat.p, &pat.o] {
            if let PatTerm::Var(v) = t {
                if !bound.contains(&v.as_str()) {
                    bound.push(v);
                }
            }
        }
    }

    // slot assignment in join order, and per-step compilation
    let mut slots: HashMap<&str, usize> = HashMap::new();
    let mut bound_after: HashMap<&str, usize> = HashMap::new(); // var → step idx
    let mut steps = Vec::with_capacity(order.len());
    for (step_idx, &idx) in order.iter().enumerate() {
        let pat = &query.patterns[idx];
        let comps = [&pat.s, &pat.p, &pat.o];
        let known: Vec<bool> = comps
            .iter()
            .map(|t| match t {
                PatTerm::Const(_) => true,
                PatTerm::Var(v) => slots.contains_key(v.as_str()),
            })
            .collect();
        // the permutation whose column order puts every known component
        // first, so all of them land in the binary-searched prefix
        let (which, cols): (Ix, [usize; 3]) = match (known[0], known[1], known[2]) {
            (true, true, _) | (true, false, false) | (false, false, false) => {
                (Ix::Spo, [0, 1, 2])
            }
            (false, true, _) => (Ix::Pos, [1, 2, 0]),
            (_, false, true) => (Ix::Osp, [2, 0, 1]),
        };
        let mut prefix = Vec::new();
        let mut binds: Vec<(usize, usize)> = Vec::new();
        let mut same: Vec<(usize, usize)> = Vec::new();
        let mut fresh: HashMap<&str, usize> = HashMap::new(); // var → column
        for (col, &logical) in cols.iter().enumerate() {
            match comps[logical] {
                PatTerm::Const(c) => {
                    debug_assert_eq!(col, prefix.len(), "knowns form the prefix");
                    prefix.push(Src::Const(ids_ref[term_key(c).as_str()]));
                }
                PatTerm::Var(v) => {
                    // a variable this pattern just introduced is handled
                    // as a column equality, not a slot probe
                    if let Some(&first_col) = fresh.get(v.as_str()) {
                        same.push((first_col, col));
                    } else if let Some(&slot) = slots.get(v.as_str()) {
                        debug_assert_eq!(col, prefix.len(), "knowns form the prefix");
                        prefix.push(Src::Slot(slot));
                    } else {
                        let slot = slots.len();
                        slots.insert(v, slot);
                        bound_after.insert(v, step_idx);
                        fresh.insert(v, col);
                        binds.push((col, slot));
                    }
                }
            }
        }
        steps.push(Step {
            which,
            prefix,
            binds,
            same,
        });
    }

    // filters → id space, pushed to the first step where both sides are
    // bound; filters the seed engine could never satisfy kill the plan
    let mut filters_at: Vec<Vec<CFilter>> = steps.iter().map(|_| Vec::new()).collect();
    for f in &query.filters {
        match compile_filter(store, f, &slots) {
            FilterOutcome::AlwaysTrue => {}
            FilterOutcome::AlwaysFalse => return dead(query),
            FilterOutcome::Check(cf) => {
                let due = [cf.left, cf.right]
                    .iter()
                    .filter_map(|src| match src {
                        Src::Slot(s) => Some(*s),
                        Src::Const(_) => None,
                    })
                    .map(|slot| {
                        *slots
                            .iter()
                            .find(|(_, &s)| s == slot)
                            .and_then(|(v, _)| bound_after.get(v))
                            .expect("slot has a binding step")
                    })
                    .max()
                    .expect("Check has at least one slot");
                filters_at[due].push(cf);
            }
        }
    }

    // projection: the requested vars that exist in the BGP (all bound
    // vars for SELECT *), keyed in name order like the seed's BTreeMap
    let mut project: Vec<(String, usize)> = if query.vars.is_empty() {
        slots.iter().map(|(v, &s)| (v.to_string(), s)).collect()
    } else {
        let mut seen = Vec::new();
        query
            .vars
            .iter()
            .filter(|v| {
                if seen.contains(v) {
                    false
                } else {
                    seen.push(v);
                    true
                }
            })
            .filter_map(|v| slots.get(v.as_str()).map(|&s| (v.clone(), s)))
            .collect()
    };
    project.sort_by(|a, b| a.0.cmp(&b.0));

    Plan {
        query: query.clone(),
        dead: false,
        nvars: slots.len(),
        steps,
        filters_at,
        project,
    }
}

enum FilterOutcome {
    AlwaysTrue,
    AlwaysFalse,
    Check(CFilter),
}

fn compile_filter(store: &TripleStore, f: &Filter, slots: &HashMap<&str, usize>) -> FilterOutcome {
    // seed semantics: a filter whose operand is unbound drops the
    // solution, and every BGP variable is bound in every solution — so a
    // variable outside the BGP makes the filter (and query) unsatisfiable
    let side = |t: &PatTerm| match t {
        PatTerm::Const(c) => Ok(store.dict().lookup(c)),
        PatTerm::Var(v) => match slots.get(v.as_str()) {
            Some(&s) => Err(s),
            None => Err(usize::MAX),
        },
    };
    let (l, r) = (side(&f.left), side(&f.right));
    if l == Err(usize::MAX) || r == Err(usize::MAX) {
        return FilterOutcome::AlwaysFalse;
    }
    match (l, r) {
        // two constants: decide now, in term space (they may be foreign
        // to the dictionary yet still equal to each other)
        (Ok(_), Ok(_)) => {
            let (PatTerm::Const(a), PatTerm::Const(b)) = (&f.left, &f.right) else {
                unreachable!("Ok sides are constants");
            };
            if (a == b) == f.equal {
                FilterOutcome::AlwaysTrue
            } else {
                FilterOutcome::AlwaysFalse
            }
        }
        // variable vs constant the store has never seen: can never be
        // equal to any bound value
        (Err(_), Ok(None)) | (Ok(None), Err(_)) => {
            if f.equal {
                FilterOutcome::AlwaysFalse
            } else {
                FilterOutcome::AlwaysTrue
            }
        }
        (Err(a), Ok(Some(c))) | (Ok(Some(c)), Err(a)) => FilterOutcome::Check(CFilter {
            left: Src::Slot(a),
            right: Src::Const(c),
            equal: f.equal,
        }),
        (Err(a), Err(b)) => FilterOutcome::Check(CFilter {
            left: Src::Slot(a),
            right: Src::Slot(b),
            equal: f.equal,
        }),
    }
}

/// Execute a compiled plan (stage 2).
pub(crate) fn execute(store: &TripleStore, plan: &Plan) -> Vec<Solution> {
    if plan.dead {
        return Vec::new();
    }
    let mut rows: Vec<Vec<u32>> = vec![vec![UNBOUND; plan.nvars]];
    for (step, filters) in plan.steps.iter().zip(&plan.filters_at) {
        let mut next: Vec<Vec<u32>> = Vec::new();
        let mut prefix: Vec<u32> = Vec::with_capacity(step.prefix.len());
        for row in &rows {
            prefix.clear();
            prefix.extend(step.prefix.iter().map(|src| match src {
                Src::Const(c) => *c,
                Src::Slot(s) => row[*s],
            }));
            let slice = match step.which {
                Ix::Spo => store.rows_spo(&prefix),
                Ix::Pos => store.rows_pos(&prefix),
                Ix::Osp => store.rows_osp(&prefix),
            };
            JOIN_PROBES.inc();
            JOIN_SCANNED.add(slice.len() as u64);
            'rows: for r in slice {
                for &(a, b) in &step.same {
                    if r[a] != r[b] {
                        continue 'rows;
                    }
                }
                let mut nr = row.clone();
                for &(col, slot) in &step.binds {
                    nr[slot] = r[col];
                }
                for cf in filters {
                    let v = |src: Src| match src {
                        Src::Const(c) => c,
                        Src::Slot(s) => nr[s],
                    };
                    if (v(cf.left) == v(cf.right)) != cf.equal {
                        continue 'rows;
                    }
                }
                next.push(nr);
            }
        }
        JOIN_ROWS.add(next.len() as u64);
        rows = next;
        if rows.is_empty() {
            return Vec::new();
        }
    }

    // project + dedup while still in id space (ids ↔ terms are a
    // bijection, so id dedup is exactly the seed's term dedup; SELECT
    // DISTINCT is subsumed by it)
    let mut proj: Vec<Vec<u32>> = rows
        .iter()
        .map(|row| plan.project.iter().map(|&(_, s)| row[s]).collect())
        .collect();
    proj.sort_unstable();
    proj.dedup();

    // decode only the surviving projected rows
    let mut out: Vec<Solution> = proj
        .into_iter()
        .map(|ids| {
            plan.project
                .iter()
                .zip(ids)
                .map(|((name, _), id)| (name.clone(), store.dict().term(id).clone()))
                .collect()
        })
        .collect();
    out.sort_unstable();
    if !plan.query.order_by.is_empty() {
        // total order (falls back to whole-solution comparison), so the
        // result matches the seed's sort-then-stable-sort sequence
        out.sort_by(|a, b| {
            for v in &plan.query.order_by {
                let ord = a.get(v).cmp(&b.get(v));
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            a.cmp(b)
        });
    }
    if let Some(limit) = plan.query.limit {
        out.truncate(limit);
    }
    out
}

/// A shared [`TripleStore`] plus a query-text → `Plan` cache.
///
/// One engine serves one store epoch: plans embed dictionary ids, so the
/// platform builds a fresh engine per published snapshot and the serve
/// workers share it through an `Arc`. The cache lock is held across
/// parse + compile, which keeps the `rdf.plan.*` counters deterministic
/// under any number of concurrent workers: each distinct query text is
/// planned exactly once per epoch.
#[derive(Debug)]
pub struct QueryEngine {
    store: Arc<TripleStore>,
    plans: Mutex<HashMap<String, Arc<Plan>>>,
}

impl QueryEngine {
    /// Wrap a store in a fresh (empty-cache) engine.
    pub fn new(store: Arc<TripleStore>) -> Self {
        QueryEngine {
            store,
            plans: Mutex::new(HashMap::new()),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<TripleStore> {
        &self.store
    }

    /// Parse, plan (or reuse a cached plan) and run a SELECT query.
    pub fn select(&self, text: &str) -> Result<Vec<Solution>, SparqlError> {
        let plan = {
            let mut plans = self.plans.lock().unwrap_or_else(|e| e.into_inner());
            match plans.get(text) {
                Some(plan) => {
                    PLAN_CACHE_HITS.inc();
                    Arc::clone(plan)
                }
                None => {
                    PLAN_CACHE_MISSES.inc();
                    let query = parse_select(text)?;
                    let plan = Arc::new(compile(&self.store, &query));
                    plans.insert(text.to_string(), Arc::clone(&plan));
                    plan
                }
            }
        };
        Ok(execute(&self.store, &plan))
    }

    /// Number of distinct query texts planned so far.
    pub fn cached_plans(&self) -> usize {
        self.plans.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparql::select;
    use crate::term::{Term, Triple};

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    fn chain_store() -> TripleStore {
        // r0 → r1 → r2 → r3 derivation chain plus per-node type triples
        let mut st = TripleStore::new();
        for i in 0..4 {
            st.insert(t(&format!("r{i}"), "type", "Entity"));
            if i > 0 {
                st.insert(t(&format!("r{i}"), "from", &format!("r{}", i - 1)));
            }
        }
        st
    }

    #[test]
    fn planner_orders_selective_patterns_first() {
        let store = chain_store();
        let q = parse_select(
            "SELECT ?a ?b WHERE { ?a <type> <Entity> . ?a <from> ?b . ?b <from> <r0> . }",
        )
        .unwrap();
        let plan = compile(&store, &q);
        // the ?b <from> <r0> pattern has an exact count of 1 and must run
        // first; its step probes POS with a fully-constant prefix
        assert_eq!(plan.steps.len(), 3);
        assert_eq!(plan.steps[0].which, Ix::Pos);
        assert_eq!(plan.steps[0].prefix.len(), 2);
        let sols = execute(&store, &plan);
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0]["a"], Term::iri("r2"));
        assert_eq!(sols[0]["b"], Term::iri("r1"));
    }

    #[test]
    fn unknown_constant_makes_a_dead_plan() {
        let store = chain_store();
        let q = parse_select("SELECT ?x WHERE { ?x <from> <nowhere> . }").unwrap();
        let plan = compile(&store, &q);
        assert!(plan.dead);
        assert!(execute(&store, &plan).is_empty());
    }

    #[test]
    fn repeated_variable_within_a_pattern_means_equality() {
        let mut store = chain_store();
        store.insert(t("loop", "from", "loop"));
        let q = parse_select("SELECT ?x WHERE { ?x <from> ?x . }").unwrap();
        let sols = select(&store, &q);
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0]["x"], Term::iri("loop"));
    }

    #[test]
    fn filters_are_pushed_down_and_match_seed_semantics() {
        let store = chain_store();
        let q = parse_select(
            "SELECT ?a ?b WHERE { ?a <from> ?b . FILTER(?b != <r0>) FILTER(?a != ?b) }",
        )
        .unwrap();
        let sols = select(&store, &q);
        assert_eq!(sols.len(), 2);
        assert!(sols.iter().all(|s| s["b"] != Term::iri("r0")));
        // a filter over a variable outside the BGP drops everything
        let q = parse_select("SELECT ?a WHERE { ?a <from> ?b . FILTER(?zz = <r0>) }").unwrap();
        assert!(select(&store, &q).is_empty());
        // != against a constant the store has never seen always passes
        let q = parse_select("SELECT ?a WHERE { ?a <from> ?b . FILTER(?a != <mars>) }").unwrap();
        assert_eq!(select(&store, &q).len(), 3);
    }

    #[test]
    fn engine_caches_plans_per_query_text() {
        let store = Arc::new(chain_store());
        let engine = QueryEngine::new(store);
        let text = "SELECT ?x WHERE { ?x <type> <Entity> . }";
        let a = engine.select(text).unwrap();
        let b = engine.select(text).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        assert_eq!(engine.cached_plans(), 1);
        engine.select("SELECT ?x WHERE { ?x <from> <r0> . }").unwrap();
        assert_eq!(engine.cached_plans(), 2);
        // parse errors are reported, not cached
        assert!(engine.select("SELEKT").is_err());
        assert_eq!(engine.cached_plans(), 2);
    }

    #[test]
    fn empty_bgp_yields_one_empty_solution() {
        let store = chain_store();
        let q = parse_select("SELECT * WHERE { }").unwrap();
        let sols = select(&store, &q);
        assert_eq!(sols.len(), 1);
        assert!(sols[0].is_empty());
    }
}
