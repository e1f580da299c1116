//! Embedding evaluation — Definition 6 of the paper.
//!
//! An embedding of a pattern `ϕ(x̄)` into a document state `d` is a tree
//! homomorphism mapping pattern steps to nodes of `d`, preserving the
//! structural axes and predicates and binding every variable to the
//! corresponding attribute value. The evaluator enumerates embeddings step
//! by step, threading a binding environment, and collects the result as a
//! [`BindingTable`].
//!
//! ## Virtual attributes
//!
//! Resource metadata surfaces as the paper's virtual attributes:
//! `@id` → the node's URI, `@s` / `@t` → the producing service call's name
//! and timestamp. Explicit attributes of the same name shadow the virtual
//! ones. The *effective* creation instant used by the temporal predicates
//! (`created-before`, `produced-by`) is the node's own label or, failing
//! that, the label of its nearest labelled ancestor (new fragments inherit
//! the instant of the call that appended them); unlabelled initial content
//! has effective instant 0.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use weblab_obs::Counter;
use weblab_xml::{DocView, NodeId};

use crate::ast::{
    AssignTarget, Axis, BindingSource, NodeTest, Pattern, Predicate, RelPath, ValueExpr,
};
use crate::binding::{BindingRow, BindingTable, SkolemColumn};
use crate::index::ElementIndex;
use crate::value::Value;

/// Full pattern evaluations (one per `eval_pattern_indexed` call).
static PATTERN_EVALS: Counter = Counter::new("xpath.pattern.evals");
/// Candidate nodes visited across all steps of all evaluations.
static NODES_VISITED: Counter = Counter::new("xpath.eval.nodes_visited");
/// Step-predicate evaluations (top-level conjuncts on candidates).
static PREDICATE_EVALS: Counter = Counter::new("xpath.eval.predicate_evals");

/// Options controlling pattern evaluation.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Require the result node to carry a URI (the implicit `$r := @id` of
    /// Definition 4). Disable for generic XPath evaluation inside the
    /// XQuery engine.
    pub require_uri: bool,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions { require_uri: true }
    }
}

/// A binding environment: variable name → value. Small; patterns bind a
/// handful of variables at most.
pub type Env = Vec<(String, Value)>;

/// Internal persistent environment: a parent-linked chain of binding
/// frames. A step that binds nothing extends a context by cloning an `Rc`
/// instead of the whole environment, and sibling embeddings share their
/// common prefix.
struct Frame {
    parent: Option<Rc<Frame>>,
    slots: Vec<(String, Value)>,
}

impl Frame {
    fn from_env(env: &Env) -> Rc<Frame> {
        Rc::new(Frame {
            parent: None,
            slots: env.clone(),
        })
    }

    /// Innermost binding of `name` (later frames and later slots shadow
    /// earlier ones, matching push-order lookup on a flat `Env`).
    fn get(&self, name: &str) -> Option<&Value> {
        let mut frame = self;
        loop {
            if let Some(v) = frame
                .slots
                .iter()
                .rev()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v)
            {
                return Some(v);
            }
            match &frame.parent {
                Some(p) => frame = p,
                None => return None,
            }
        }
    }
}

/// Lookup across the bindings a candidate is accumulating this step plus
/// the inherited frame chain.
fn lookup<'a>(slots: &'a [(String, Value)], frame: &'a Frame, name: &str) -> Option<&'a Value> {
    slots
        .iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v)
        .or_else(|| frame.get(name))
}

/// Evaluate `pattern` over `view` with default options and empty
/// environment — the pattern result `R_ϕ(d)` of Definition 7.
pub fn eval_pattern(pattern: &Pattern, view: &DocView<'_>) -> BindingTable {
    eval_pattern_with(pattern, view, &Env::new(), &EvalOptions::default())
}

/// Evaluate with an initial environment (free variables supplied by a
/// mapping-rule join or by the XQuery engine) and explicit options.
pub fn eval_pattern_with(
    pattern: &Pattern,
    view: &DocView<'_>,
    env: &Env,
    opts: &EvalOptions,
) -> BindingTable {
    eval_pattern_indexed(pattern, view, env, opts, None)
}

/// Evaluate with an optional [`ElementIndex`] accelerating the leading
/// descendant step (build the index once per document, reuse across many
/// pattern evaluations).
pub fn eval_pattern_indexed(
    pattern: &Pattern,
    view: &DocView<'_>,
    env: &Env,
    opts: &EvalOptions,
    index: Option<&ElementIndex>,
) -> BindingTable {
    let mut columns = pattern.variables();
    // Synthetic columns for skolem-constrained assignments, named by their
    // display form, in pattern order.
    let mut skolem_columns = Vec::new();
    for step in &pattern.steps {
        for a in &step.assignments {
            if let AssignTarget::Skolem { fun, args } = &a.target {
                let name = format!(
                    "{fun}({})",
                    args.iter()
                        .map(|a| format!("${a}"))
                        .collect::<Vec<_>>()
                        .join(",")
                );
                skolem_columns.push(SkolemColumn {
                    column: columns.len(),
                    fun: fun.clone(),
                    args: args.clone(),
                });
                columns.push(name);
            }
        }
    }

    let mut table = BindingTable::with_columns(columns);
    table.skolem_columns = skolem_columns;

    // Metrics are accumulated locally (plain integers on the stack) and
    // flushed to the global counters once per evaluation, so the enabled
    // path costs two atomic adds per eval rather than one per node.
    let mut nodes_visited: u64 = 0;
    let mut predicate_evals: u64 = 0;

    // contexts: None = virtual node above the root.
    let mut contexts: Vec<(Option<NodeId>, Rc<Frame>)> = vec![(None, Frame::from_env(env))];
    for step in &pattern.steps {
        let mut next: Vec<(Option<NodeId>, Rc<Frame>)> = Vec::new();
        let step_ctx = StepCtx::new(step);
        for (ctx, frame) in &contexts {
            for_each_candidate(view, *ctx, step.axis, &step.test, index, |cand| {
                nodes_visited += 1;
                let Some(name) = view.name(cand) else {
                    return; // text nodes never match name tests
                };
                if !step.test.matches(name) {
                    return;
                }
                if !step.predicates.iter().all(|p| {
                    predicate_evals += 1;
                    eval_predicate(p, view, cand, &step_ctx, frame)
                }) {
                    return;
                }
                // Bindings this candidate adds; empty for most steps, in
                // which case the context is extended by an `Rc` clone.
                let mut slots: Vec<(String, Value)> = Vec::new();
                for a in &step.assignments {
                    let Some(v) = binding_value(view, cand, &step_ctx, frame, &a.source)
                    else {
                        return; // condition (2): attribute must exist
                    };
                    match &a.target {
                        AssignTarget::Var(var) => {
                            if let Some(existing) = lookup(&slots, frame, var) {
                                if !existing.sem_eq(&v) {
                                    return;
                                }
                            } else {
                                slots.push((var.clone(), v));
                            }
                        }
                        AssignTarget::Skolem { fun, args } => {
                            // If every argument is already bound, check the
                            // constraint right away; otherwise defer to the
                            // join by recording the raw value.
                            let bound: Vec<_> = args
                                .iter()
                                .filter_map(|x| lookup(&slots, frame, x))
                                .collect();
                            if bound.len() == args.len() {
                                let term = Value::skolem(
                                    fun.clone(),
                                    bound.into_iter().cloned().collect(),
                                );
                                if !term.sem_eq(&v) {
                                    return;
                                }
                            }
                            let col = format!(
                                "{fun}({})",
                                args.iter()
                                    .map(|a| format!("${a}"))
                                    .collect::<Vec<_>>()
                                    .join(",")
                            );
                            slots.push((col, v));
                        }
                    }
                }
                let new_frame = if slots.is_empty() {
                    Rc::clone(frame)
                } else {
                    Rc::new(Frame {
                        parent: Some(Rc::clone(frame)),
                        slots,
                    })
                };
                next.push((Some(cand), new_frame));
            });
        }
        contexts = next;
        if contexts.is_empty() {
            break;
        }
    }

    // Dedup without cloning rows: bucket row indices by hash, compare
    // against the rows already in the table.
    let mut seen: HashMap<u64, Vec<usize>> = HashMap::new();
    for (node, frame) in contexts {
        let Some(node) = node else { continue };
        let uri = match view.uri(node) {
            Some(u) => u.to_string(),
            None if opts.require_uri => continue, // implicit $r := @id
            None => String::new(),
        };
        let values: Vec<Value> = table
            .columns
            .iter()
            .map(|c| frame.get(c).cloned().unwrap_or(Value::Str(String::new())))
            .collect();
        let row = BindingRow { node, uri, values };
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        row.hash(&mut hasher);
        let bucket = seen.entry(hasher.finish()).or_default();
        if bucket.iter().any(|&i| table.rows[i] == row) {
            continue;
        }
        bucket.push(table.rows.len());
        table.rows.push(row);
    }

    PATTERN_EVALS.inc();
    NODES_VISITED.add(nodes_visited);
    PREDICATE_EVALS.add(predicate_evals);
    table
}

/// Visit the candidate nodes reached from `ctx` along `axis` at state
/// `view`, without materialising the node set. Root-anchored descendant
/// steps consult the element index when one is supplied, replacing the
/// whole-document scan with a name lookup.
fn for_each_candidate(
    view: &DocView<'_>,
    ctx: Option<NodeId>,
    axis: Axis,
    test: &NodeTest,
    index: Option<&ElementIndex>,
    mut f: impl FnMut(NodeId),
) {
    match (ctx, axis) {
        (None, Axis::Child) => f(view.root()),
        (None, Axis::Descendant) | (None, Axis::DescendantOrSelf) => match (index, test) {
            (Some(idx), NodeTest::Name(name)) => idx.nodes_named(name, view).into_iter().for_each(f),
            (Some(idx), NodeTest::Wildcard) => idx.all_elements(view).into_iter().for_each(f),
            // every node of the state, in document order
            (None, _) => view.descendants(view.root()).for_each(f),
        },
        (Some(n), Axis::Child) => view.children(n).for_each(f),
        (Some(n), Axis::Descendant) => view.descendants(n).skip(1).for_each(f),
        (Some(n), Axis::DescendantOrSelf) => view.descendants(n).for_each(f),
    }
}

/// Step context for position computation: the node test plus the step's
/// *position-free* predicates.
///
/// XPath applies a step's predicates sequentially, and `position()` inside
/// a later predicate counts within the node-set filtered by the earlier
/// ones. The paper's Section 5 relies on this: `//A[B][$p := position()]`
/// numbers the `A` siblings *that have a `B` child*, while
/// `//A[$p := position()]` numbers all `A` siblings. Since the pattern AST
/// keeps predicates as an unordered conjunction, we approximate the
/// sequential rule by counting among siblings that satisfy every
/// position-free predicate of the step — which coincides with XPath
/// whenever position() appears after the structural filters, the only
/// shape the paper's mapping language produces.
struct StepCtx<'s> {
    test: &'s NodeTest,
    filter: Vec<&'s Predicate>,
}

impl<'s> StepCtx<'s> {
    fn new(step: &'s crate::ast::Step) -> Self {
        StepCtx {
            test: &step.test,
            filter: step
                .predicates
                .iter()
                .filter(|p| !mentions_position(p))
                .collect(),
        }
    }
}

/// Does a predicate reference position()?
fn mentions_position(p: &Predicate) -> bool {
    match p {
        Predicate::PositionIs(_) => true,
        Predicate::Compare(l, _, r) => {
            matches!(l, ValueExpr::Position) || matches!(r, ValueExpr::Position)
        }
        Predicate::And(ps) | Predicate::Or(ps) => ps.iter().any(mentions_position),
        Predicate::Not(q) => mentions_position(q),
        _ => false,
    }
}

/// 1-based position of `node` among the siblings that satisfy the step
/// context (node test + position-free predicates), relative to the
/// evaluated state.
fn position_of(view: &DocView<'_>, node: NodeId, ctx: &StepCtx<'_>, env: &Frame) -> i64 {
    let Some(parent) = view.parent(node) else {
        return 1;
    };
    let mut pos = 0;
    for sib in view.children(parent) {
        let name_ok = view
            .name(sib)
            .map(|n| ctx.test.matches(n))
            .unwrap_or(false);
        if name_ok
            && ctx
                .filter
                .iter()
                .all(|p| eval_predicate(p, view, sib, ctx, env))
        {
            pos += 1;
            if sib == node {
                return pos;
            }
        }
    }
    1
}

/// Resolve `@attr` on a node, explicit attributes shadowing the virtual
/// `@id` / `@s` / `@t`.
fn attr_value(view: &DocView<'_>, node: NodeId, attr: &str) -> Option<Value> {
    if let Some(v) = view.attr(node, attr) {
        return Some(Value::Str(v.to_string()));
    }
    match attr {
        "id" => view.uri(node).map(|u| Value::Str(u.to_string())),
        "s" => view.label(node).map(|l| Value::Str(l.service.clone())),
        "t" => view.label(node).map(|l| Value::Int(l.time as i64)),
        _ => None,
    }
}

/// Effective creation instant: own label, else nearest labelled ancestor,
/// else 0 (initial content).
pub fn effective_time(view: &DocView<'_>, node: NodeId) -> u64 {
    if let Some(l) = view.label(node) {
        return l.time;
    }
    for anc in view.ancestors(node) {
        if let Some(l) = view.label(anc) {
            return l.time;
        }
    }
    0
}

/// Effective producing label: own, else nearest labelled ancestor.
pub fn effective_label<'d>(
    view: &DocView<'d>,
    node: NodeId,
) -> Option<&'d weblab_xml::CallLabel> {
    if let Some(l) = view.label(node) {
        return Some(l);
    }
    view.ancestors(node).find_map(|a| view.label(a))
}

fn binding_value(
    view: &DocView<'_>,
    node: NodeId,
    ctx: &StepCtx<'_>,
    env: &Frame,
    source: &BindingSource,
) -> Option<Value> {
    match source {
        BindingSource::Attr(a) => attr_value(view, node, a),
        BindingSource::Position => Some(Value::Int(position_of(view, node, ctx, env))),
    }
}

/// All values an expression can take at `node` (existential semantics for
/// path expressions, single value otherwise).
fn expr_values(
    expr: &ValueExpr,
    view: &DocView<'_>,
    node: NodeId,
    ctx: &StepCtx<'_>,
    env: &Frame,
) -> Vec<Value> {
    match expr {
        ValueExpr::Attr(a) => attr_value(view, node, a).into_iter().collect(),
        ValueExpr::Var(v) => env.get(v).cloned().into_iter().collect(),
        ValueExpr::Literal(v) => vec![v.clone()],
        ValueExpr::Position => vec![Value::Int(position_of(view, node, ctx, env))],
        ValueExpr::PathText(p) => rel_path_nodes(p, view, node)
            .into_iter()
            .map(|n| Value::Str(view.text_content(n)))
            .collect(),
        ValueExpr::PathAttr(p, a) => rel_path_nodes(p, view, node)
            .into_iter()
            .filter_map(|n| attr_value(view, n, a))
            .collect(),
    }
}

/// Nodes reached by a relative path from `node`.
fn rel_path_nodes(path: &RelPath, view: &DocView<'_>, node: NodeId) -> Vec<NodeId> {
    let mut frontier = vec![node];
    for (desc, test) in &path.steps {
        let mut next = Vec::new();
        for ctx in frontier {
            if *desc {
                for d in view.descendants(ctx).skip(1) {
                    if view.name(d).map(|n| test.matches(n)).unwrap_or(false) {
                        next.push(d);
                    }
                }
            } else {
                for c in view.children(ctx) {
                    if view.name(c).map(|n| test.matches(n)).unwrap_or(false) {
                        next.push(c);
                    }
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    frontier
}

fn eval_predicate(
    pred: &Predicate,
    view: &DocView<'_>,
    node: NodeId,
    ctx: &StepCtx<'_>,
    env: &Frame,
) -> bool {
    match pred {
        Predicate::Exists(p) => !rel_path_nodes(p, view, node).is_empty(),
        Predicate::AttrExists(a) => attr_value(view, node, a).is_some(),
        Predicate::Compare(l, op, r) => {
            let lv = expr_values(l, view, node, ctx, env);
            let rv = expr_values(r, view, node, ctx, env);
            // existential semantics over node-set operands (XPath general
            // comparison)
            lv.iter().any(|a| {
                rv.iter()
                    .any(|b| op.test(a.sem_eq(b), a.sem_cmp(b)))
            })
        }
        Predicate::PositionIs(i) => position_of(view, node, ctx, env) == *i as i64,
        Predicate::And(ps) => ps.iter().all(|p| eval_predicate(p, view, node, ctx, env)),
        Predicate::Or(ps) => ps.iter().any(|p| eval_predicate(p, view, node, ctx, env)),
        Predicate::Not(p) => !eval_predicate(p, view, node, ctx, env),
        Predicate::CreatedBefore(t) => effective_time(view, node) < *t,
        Predicate::ProducedBy(s, t) => effective_label(view, node)
            .map(|l| l.service == *s && l.time == *t)
            .unwrap_or(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_pattern;
    use weblab_xml::{CallLabel, Document};

    /// Build the paper's document d₃ (Figure 4) with the node numbering of
    /// Figure 1(b):
    /// R(r1) → M(2), N(r3), T(r4){ C(r5), A(r6){L(7)} }, T(r8){ C(r9), A(r10){L(11)} }
    pub(crate) fn paper_document() -> (Document, Vec<weblab_xml::StateMark>) {
        let mut d = Document::new("R");
        let r1 = d.root();
        d.register_resource(r1, "r1", None).unwrap();
        let _m2 = d.append_element(r1, "M").unwrap();
        let n3 = d.append_element(r1, "N").unwrap();
        let d0 = d.mark();

        // c1 = (Normaliser, 1): promote 3 → r3, add T r4 with C r5
        d.register_resource(n3, "r3", Some(CallLabel::new("Source", 0)))
            .unwrap();
        let t4 = d.append_element(r1, "T").unwrap();
        d.register_resource(t4, "r4", Some(CallLabel::new("Normaliser", 1)))
            .unwrap();
        let c5 = d.append_element(t4, "C").unwrap();
        d.register_resource(c5, "r5", Some(CallLabel::new("Normaliser", 1)))
            .unwrap();
        let d1 = d.mark();

        // c2 = (LanguageExtractor, 2): add A r6 with L 7 under r4
        let a6 = d.append_element(t4, "A").unwrap();
        d.register_resource(a6, "r6", Some(CallLabel::new("LanguageExtractor", 2)))
            .unwrap();
        let l7 = d.append_element(a6, "L").unwrap();
        d.append_text(l7, "en").unwrap();
        let d2 = d.mark();

        // c3 = (Translator, 3): add T r8 { C r9, A r10 { L 11 } }
        let t8 = d.append_element(r1, "T").unwrap();
        d.register_resource(t8, "r8", Some(CallLabel::new("Translator", 3)))
            .unwrap();
        let c9 = d.append_element(t8, "C").unwrap();
        d.register_resource(c9, "r9", Some(CallLabel::new("Translator", 3)))
            .unwrap();
        let a10 = d.append_element(t8, "A").unwrap();
        d.register_resource(a10, "r10", Some(CallLabel::new("Translator", 3)))
            .unwrap();
        let l11 = d.append_element(a10, "L").unwrap();
        d.append_text(l11, "fr").unwrap();
        let d3 = d.mark();

        (d, vec![d0, d1, d2, d3])
    }

    fn uris(t: &BindingTable) -> Vec<(String, String)> {
        t.rows
            .iter()
            .map(|r| (r.uri.clone(), r.values.first().map(|v| v.to_string()).unwrap_or_default()))
            .collect()
    }

    #[test]
    fn example5_r_phi1_d1() {
        // ϕ1($x) = //T[$x:=@id]/C over d1 → {(r5, r4)}
        let (d, marks) = paper_document();
        let p = parse_pattern("//T[$x := @id]/C").unwrap();
        let t = eval_pattern(&p, &d.view_at(marks[1]));
        assert_eq!(uris(&t), vec![("r5".into(), "r4".into())]);
    }

    #[test]
    fn example5_r_phi3_d2() {
        // ϕ3($x) = //T[$x:=@id]/A[L] over d2 → {(r6, r4)}
        let (d, marks) = paper_document();
        let p = parse_pattern("//T[$x := @id]/A[L]").unwrap();
        let t = eval_pattern(&p, &d.view_at(marks[2]));
        assert_eq!(uris(&t), vec![("r6".into(), "r4".into())]);
    }

    #[test]
    fn example5_r_phi4_d2_and_d3() {
        // ϕ4($x) = /R[$x:=@id]//T[A/L] over d2 → {(r4, r1)};
        // over d3 → {(r4, r1), (r8, r1)}
        let (d, marks) = paper_document();
        let p = parse_pattern("/R[$x := @id]//T[A/L]").unwrap();
        let t2 = eval_pattern(&p, &d.view_at(marks[2]));
        assert_eq!(uris(&t2), vec![("r4".into(), "r1".into())]);
        let t3 = eval_pattern(&p, &d.view_at(marks[3]));
        assert_eq!(
            uris(&t3),
            vec![("r4".into(), "r1".into()), ("r8".into(), "r1".into())]
        );
    }

    #[test]
    fn phi2_is_equivalent_rewriting_of_phi1() {
        // Definition 4 condition (3): ϕ2 = //T[@id][$x:=@id]/C[$r:=@id]
        // is an equivalent rewriting of ϕ1. Our $r is implicit; binding a
        // variable named r exercises the explicit form.
        let (d, marks) = paper_document();
        let p1 = parse_pattern("//T[$x := @id]/C").unwrap();
        let p2 = parse_pattern("//T[@id][$x := @id]/C[$r := @id]").unwrap();
        let t1 = eval_pattern(&p1, &d.view_at(marks[1]));
        let t2 = eval_pattern(&p2, &d.view_at(marks[1]));
        assert_eq!(t1.rows.len(), t2.rows.len());
        for (a, b) in t1.rows.iter().zip(&t2.rows) {
            assert_eq!(a.uri, b.uri);
            assert_eq!(a.values[0], b.values[0]);
            // explicit $r equals the implicit result binding
            assert_eq!(b.values[t2.column_index("r").unwrap()], Value::str(b.uri.clone()));
        }
    }

    #[test]
    fn unidentified_result_nodes_are_dropped() {
        // //M has no uri in any state → empty result under require_uri
        let (d, marks) = paper_document();
        let p = parse_pattern("//M").unwrap();
        assert!(eval_pattern(&p, &d.view_at(marks[3])).is_empty());
        let opts = EvalOptions { require_uri: false };
        let t = eval_pattern_with(&p, &d.view_at(marks[3]), &Env::new(), &opts);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn positional_predicate_selects_first_tmu() {
        // Figure 3 M1 target: //T[1] — the first TextMediaUnit (= r4)
        let (d, marks) = paper_document();
        let p = parse_pattern("//T[1]").unwrap();
        let t = eval_pattern(&p, &d.view_at(marks[3]));
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.rows[0].uri, "r4");
        // and //T[2] selects r8
        let p2 = parse_pattern("//T[2]").unwrap();
        let t2 = eval_pattern(&p2, &d.view_at(marks[3]));
        assert_eq!(t2.rows[0].uri, "r8");
    }

    #[test]
    fn text_comparison_predicates() {
        // language selection as in Figure 3 M3
        let (d, marks) = paper_document();
        let fr = parse_pattern("//T[A/L = 'fr']").unwrap();
        let en = parse_pattern("//T[A/L = 'en']").unwrap();
        let v3 = d.view_at(marks[3]);
        assert_eq!(eval_pattern(&fr, &v3).rows[0].uri, "r8");
        assert_eq!(eval_pattern(&en, &v3).rows[0].uri, "r4");
    }

    #[test]
    fn temporal_predicates_use_effective_time() {
        let (d, marks) = paper_document();
        let v3 = d.view_at(marks[3]);
        // resources created before t=2: r3 (t0), r4, r5 (t1); r1 has no
        // label → effective 0
        let p = parse_pattern("//*[created-before(2)]").unwrap();
        let t = eval_pattern(&p, &v3);
        let mut got: Vec<_> = t.rows.iter().map(|r| r.uri.clone()).collect();
        got.sort();
        assert_eq!(got, vec!["r1", "r3", "r4", "r5"]);
        // produced-by is inherited by plain descendants: L(11) inherits the
        // label of r10 = (Translator, 3); L(7) inherits (LanguageExtractor, 2)
        // from r6 and is excluded.
        let p2 = parse_pattern("//L[produced-by('Translator', 3)]").unwrap();
        let opts = EvalOptions { require_uri: false };
        let t2 = eval_pattern_with(&p2, &v3, &Env::new(), &opts);
        assert_eq!(t2.len(), 1);
    }

    #[test]
    fn virtual_attributes_resolve() {
        let (d, marks) = paper_document();
        let v = d.view_at(marks[3]);
        let p = parse_pattern("//T[@s = 'Normaliser']").unwrap();
        let t = eval_pattern(&p, &v);
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.rows[0].uri, "r4");
        let p2 = parse_pattern("//T[@t >= 2]").unwrap();
        let t2 = eval_pattern(&p2, &v);
        assert_eq!(t2.rows[0].uri, "r8");
    }

    #[test]
    fn env_supplies_free_variables() {
        let (d, marks) = paper_document();
        let v = d.view_at(marks[3]);
        let p = parse_pattern("//T[@id = $x]").unwrap();
        let env: Env = vec![("x".into(), Value::str("r8"))];
        let t = eval_pattern_with(&p, &v, &env, &EvalOptions::default());
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.rows[0].uri, "r8");
    }

    #[test]
    fn shared_variable_must_agree_within_pattern() {
        // bind $x twice on a path where values differ → no embedding
        let mut d = Document::new("R");
        let root = d.root();
        let a = d.append_element(root, "A").unwrap();
        d.set_attr(a, "k", "1").unwrap();
        let b = d.append_element(a, "B").unwrap();
        d.set_attr(b, "k", "2").unwrap();
        d.register_resource(b, "rb", None).unwrap();
        let p = parse_pattern("//A[$x := @k]/B[$x := @k]").unwrap();
        assert!(eval_pattern(&p, &d.view()).is_empty());
        // and when they agree, the embedding exists
        d.set_attr(b, "k", "1").unwrap();
        assert_eq!(eval_pattern(&p, &d.view()).len(), 1);
    }

    #[test]
    fn skolem_assignment_binds_raw_value() {
        let mut d = Document::new("R");
        let root = d.root();
        let c = d.append_element(root, "C").unwrap();
        d.set_attr(c, "b", "f(a1)").unwrap();
        d.register_resource(c, "rc", None).unwrap();
        let p = parse_pattern("//C[f($x) := @b]").unwrap();
        let t = eval_pattern(&p, &d.view());
        assert_eq!(t.len(), 1);
        assert_eq!(t.columns, vec!["f($x)".to_string()]);
        assert_eq!(t.skolem_columns.len(), 1);
        assert_eq!(t.rows[0].values[0], Value::str("f(a1)"));
    }

    #[test]
    fn skolem_checked_eagerly_when_args_bound() {
        let mut d = Document::new("R");
        let root = d.root();
        let a = d.append_element(root, "A").unwrap();
        d.set_attr(a, "a", "a1").unwrap();
        let c = d.append_element(a, "C").unwrap();
        d.set_attr(c, "b", "f(a1)").unwrap();
        d.register_resource(c, "rc", None).unwrap();
        let p = parse_pattern("//A[$x := @a]/C[f($x) := @b]").unwrap();
        assert_eq!(eval_pattern(&p, &d.view()).len(), 1);
        // wrong skolem value → no embedding
        d.set_attr(c, "b", "f(zz)").unwrap();
        assert!(eval_pattern(&p, &d.view()).is_empty());
    }

    #[test]
    fn position_binding_is_state_relative() {
        let mut d = Document::new("R");
        let root = d.root();
        let a1 = d.append_element(root, "A").unwrap();
        d.register_resource(a1, "ra1", None).unwrap();
        let m0 = d.mark();
        let a2 = d.append_element(root, "A").unwrap();
        d.register_resource(a2, "ra2", None).unwrap();
        let p = parse_pattern("//A[$p := position()]").unwrap();
        let t_final = eval_pattern(&p, &d.view());
        assert_eq!(t_final.rows.len(), 2);
        assert_eq!(t_final.rows[1].values[0], Value::int(2));
        let t0 = eval_pattern(&p, &d.view_at(m0));
        assert_eq!(t0.rows.len(), 1);
        assert_eq!(t0.rows[0].values[0], Value::int(1));
    }

    #[test]
    fn position_counts_within_filtered_siblings() {
        // Section 5: //A[B][$p := position()] numbers the A siblings that
        // have a B child; //A[$p := position()] numbers all A siblings.
        let mut d = Document::new("Root");
        let root = d.root();
        for (i, with_b) in [(0, true), (1, false), (2, true)] {
            let a = d.append_element(root, "A").unwrap();
            d.register_resource(a, format!("a{i}"), None).unwrap();
            if with_b {
                let b = d.append_element(a, "B").unwrap();
                d.register_resource(b, format!("b{i}"), None).unwrap();
            }
        }
        let filtered = parse_pattern("//A[B][$p := position()]/B").unwrap();
        let t = eval_pattern(&filtered, &d.view());
        let got: Vec<(String, String)> = t
            .rows
            .iter()
            .map(|r| (r.uri.clone(), r.values[0].to_string()))
            .collect();
        // a2 is the SECOND A-with-B even though it is the third A
        assert_eq!(
            got,
            vec![("b0".into(), "1".into()), ("b2".into(), "2".into())]
        );
        let unfiltered = parse_pattern("//A[$p := position()]/B").unwrap();
        let t2 = eval_pattern(&unfiltered, &d.view());
        let got2: Vec<(String, String)> = t2
            .rows
            .iter()
            .map(|r| (r.uri.clone(), r.values[0].to_string()))
            .collect();
        assert_eq!(
            got2,
            vec![("b0".into(), "1".into()), ("b2".into(), "3".into())]
        );
    }

    #[test]
    fn descendant_or_self_step() {
        let (d, marks) = paper_document();
        let v = d.view_at(marks[3]);
        // all identified descendants-or-self of T nodes
        let p = parse_pattern("//T/descendant-or-self::*").unwrap();
        let t = eval_pattern(&p, &v);
        let mut got: Vec<_> = t.rows.iter().map(|r| r.uri.clone()).collect();
        got.sort();
        assert_eq!(got, vec!["r10", "r4", "r5", "r6", "r8", "r9"]);
    }

    #[test]
    fn wildcard_descendant_counts_all_resources() {
        let (d, marks) = paper_document();
        let p = parse_pattern("//*").unwrap();
        assert_eq!(eval_pattern(&p, &d.view_at(marks[0])).len(), 1); // r1
        assert_eq!(eval_pattern(&p, &d.view_at(marks[3])).len(), 8);
    }

    #[test]
    fn not_and_or_predicates() {
        let (d, marks) = paper_document();
        let v = d.view_at(marks[3]);
        let p = parse_pattern("//T[not(A/L = 'fr')]").unwrap();
        assert_eq!(eval_pattern(&p, &v).rows[0].uri, "r4");
        let q = parse_pattern("//T[A/L = 'fr' or A/L = 'en']").unwrap();
        assert_eq!(eval_pattern(&q, &v).len(), 2);
    }
}
