//! FLWOR evaluation over document-state views.
//!
//! The evaluator binds `for` variables by nested iteration over their
//! paths, computes `let` bindings, filters on the `where` condition (with
//! existential semantics for path operands, as in XPath general
//! comparisons) and materialises one constructed element per satisfying
//! binding into a fresh output [`Document`].

use std::collections::HashMap;

use weblab_xml::{DocView, Document, NodeId};
use weblab_xpath::{effective_label, effective_time, NodeTest, Value};

use crate::ast::{Cond, Constructor, ConstructorItem, Expr, Path, PathStart, Query};

/// A bound value during evaluation: a node (from `for`) or a value
/// (from `let`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Binding {
    /// A node of the queried document.
    Node(NodeId),
    /// A computed value (possibly absent — e.g. a missing attribute; absent
    /// values fail comparisons but do not abort the query).
    Value(Option<Value>),
}

/// Result of running a query: the constructed elements, owned by a fresh
/// document whose root is a synthetic `<result>` element.
#[derive(Debug)]
pub struct QueryResult {
    /// Output document holding the constructed fragments.
    pub doc: Document,
    /// Roots of the constructed elements, in production order.
    pub items: Vec<NodeId>,
}

impl QueryResult {
    /// Number of constructed elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the query produced nothing.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Extract `(from, to)` attribute pairs from constructed `<prov>`-style
    /// elements — the provenance-link decoding used by the Mapper.
    pub fn link_pairs(&self) -> Vec<(String, String)> {
        let v = self.doc.view();
        self.items
            .iter()
            .filter_map(|&n| {
                let from = v.attr(n, "from")?;
                let to = v.attr(n, "to")?;
                Some((from.to_string(), to.to_string()))
            })
            .collect()
    }
}

/// Options for [`evaluate_with`].
#[derive(Debug, Clone)]
pub struct XqEvalOptions {
    /// Evaluate `let` clauses and `where` conjuncts as soon as all the
    /// variables they reference are bound, pruning the nested iteration
    /// early (classic predicate pushdown). `false` evaluates everything at
    /// the innermost level — the textbook FLWOR semantics, kept as the
    /// ablation baseline.
    pub eager_where: bool,
}

impl Default for XqEvalOptions {
    fn default() -> Self {
        XqEvalOptions { eager_where: true }
    }
}

/// Run a query against a document state with default (optimised) options.
pub fn evaluate(query: &Query, view: &DocView<'_>) -> QueryResult {
    evaluate_with(query, view, &XqEvalOptions::default())
}

/// Run a query with explicit evaluation options.
pub fn evaluate_with(query: &Query, view: &DocView<'_>, opts: &XqEvalOptions) -> QueryResult {
    let mut out = Document::new("result");
    let root = out.root();
    let mut items = Vec::new();
    let mut env: HashMap<String, Binding> = HashMap::new();
    let plan = Plan::build(query, opts.eager_where);
    eval_for(query, &plan, view, 0, &mut env, &mut out, root, &mut items);
    QueryResult { doc: out, items }
}

/// Per-depth schedule: which `let` clauses become computable and which
/// `where` conjuncts become checkable once the first `depth` `for`
/// variables are bound. Depth 0 = before any `for` binding (constants).
struct Plan {
    lets_at: Vec<Vec<usize>>,
    conds_at: Vec<Vec<Cond>>,
}

impl Plan {
    fn build(query: &Query, eager: bool) -> Plan {
        let n = query.for_clauses.len();
        let mut lets_at: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
        let mut conds_at: Vec<Vec<Cond>> = vec![Vec::new(); n + 1];
        let conjuncts = query
            .where_clause
            .clone()
            .map(|w| w.conjuncts())
            .unwrap_or_default();
        if !eager {
            lets_at[n] = (0..query.let_clauses.len()).collect();
            conds_at[n] = conjuncts;
            return Plan { lets_at, conds_at };
        }
        let mut available: Vec<String> = Vec::new();
        let mut pending_lets: Vec<usize> = (0..query.let_clauses.len()).collect();
        let mut pending_conds: Vec<Cond> = conjuncts;
        for depth in 0..=n {
            if depth > 0 {
                available.push(query.for_clauses[depth - 1].var.clone());
            }
            // fixpoint: lets unlock other lets
            loop {
                let mut progressed = false;
                pending_lets.retain(|&i| {
                    let lc = &query.let_clauses[i];
                    if expr_vars(&lc.expr).iter().all(|v| available.contains(v)) {
                        lets_at[depth].push(i);
                        available.push(lc.var.clone());
                        progressed = true;
                        false
                    } else {
                        true
                    }
                });
                if !progressed {
                    break;
                }
            }
            pending_conds.retain(|c| {
                if cond_vars(c).iter().all(|v| available.contains(v)) {
                    conds_at[depth].push(c.clone());
                    false
                } else {
                    true
                }
            });
        }
        // anything left references unknown variables; check at the end so
        // it fails uniformly instead of silently vanishing
        conds_at[n].extend(pending_conds);
        lets_at[n].extend(pending_lets);
        Plan { lets_at, conds_at }
    }
}

/// Variables referenced by an expression.
fn expr_vars(expr: &Expr) -> Vec<String> {
    match expr {
        Expr::VarRef(v)
        | Expr::VarAttr(v, _)
        | Expr::VarPathText(v, _)
        | Expr::VarPathAttr(v, _, _)
        | Expr::VarText(v)
        | Expr::EffectiveTime(v) => vec![v.clone()],
        Expr::Literal(_) => Vec::new(),
        Expr::Skolem(_, args) => args.iter().flat_map(expr_vars).collect(),
    }
}

/// Variables referenced by a condition.
fn cond_vars(cond: &Cond) -> Vec<String> {
    match cond {
        Cond::Cmp(l, _, r) => {
            let mut v = expr_vars(l);
            v.extend(expr_vars(r));
            v
        }
        Cond::ExistsPath(v, _) | Cond::ExistsAttr(v, _) | Cond::LabelEq(v, _, _) => {
            vec![v.clone()]
        }
        Cond::And(cs) | Cond::Or(cs) => cs.iter().flat_map(cond_vars).collect(),
        Cond::Not(c) => cond_vars(c),
    }
}

#[allow(clippy::too_many_arguments)]
fn eval_for(
    query: &Query,
    plan: &Plan,
    view: &DocView<'_>,
    depth: usize,
    env: &mut HashMap<String, Binding>,
    out: &mut Document,
    out_root: NodeId,
    items: &mut Vec<NodeId>,
) {
    // scheduled lets at this depth
    let saved: Vec<(String, Option<Binding>)> = plan.lets_at[depth]
        .iter()
        .map(|&i| {
            let lc = &query.let_clauses[i];
            let v = eval_expr_single(&lc.expr, view, env);
            let prev = env.insert(lc.var.clone(), Binding::Value(v));
            (lc.var.clone(), prev)
        })
        .collect();
    // scheduled conjuncts at this depth
    let keep = plan.conds_at[depth].iter().all(|c| eval_cond(c, view, env));
    if keep {
        if depth == query.for_clauses.len() {
            let node = build(&query.ret, view, env, out, out_root);
            items.push(node);
        } else {
            let clause = &query.for_clauses[depth];
            for node in path_nodes(&clause.path, view, env) {
                let prev = env.insert(clause.var.clone(), Binding::Node(node));
                eval_for(query, plan, view, depth + 1, env, out, out_root, items);
                match prev {
                    Some(b) => {
                        env.insert(clause.var.clone(), b);
                    }
                    None => {
                        env.remove(&clause.var);
                    }
                }
            }
        }
    }
    for (var, prev) in saved.into_iter().rev() {
        match prev {
            Some(b) => {
                env.insert(var, b);
            }
            None => {
                env.remove(&var);
            }
        }
    }
}

/// Nodes a path ranges over under the current environment.
pub fn path_nodes(
    path: &Path,
    view: &DocView<'_>,
    env: &HashMap<String, Binding>,
) -> Vec<NodeId> {
    let mut frontier: Vec<NodeId> = match &path.start {
        PathStart::Root => {
            // virtual node above the root: child steps reach the root,
            // descendant steps reach every node
            return steps_from_virtual_root(&path.steps, view);
        }
        PathStart::Var(v) => match env.get(v) {
            Some(Binding::Node(n)) => vec![*n],
            _ => return Vec::new(),
        },
    };
    for (desc, test) in &path.steps {
        frontier = expand(view, &frontier, *desc, test);
        if frontier.is_empty() {
            break;
        }
    }
    frontier
}

fn steps_from_virtual_root(steps: &[(bool, NodeTest)], view: &DocView<'_>) -> Vec<NodeId> {
    let Some((first, rest)) = steps.split_first() else {
        return Vec::new();
    };
    let (desc, test) = first;
    let mut frontier: Vec<NodeId> = if *desc {
        view.descendants(view.root())
            .filter(|n| view.name(*n).map(|nm| test.matches(nm)).unwrap_or(false))
            .collect()
    } else {
        let r = view.root();
        if view.name(r).map(|nm| test.matches(nm)).unwrap_or(false) {
            vec![r]
        } else {
            Vec::new()
        }
    };
    for (desc, test) in rest {
        frontier = expand(view, &frontier, *desc, test);
        if frontier.is_empty() {
            break;
        }
    }
    frontier
}

fn expand(view: &DocView<'_>, frontier: &[NodeId], desc: bool, test: &NodeTest) -> Vec<NodeId> {
    let mut next = Vec::new();
    for &ctx in frontier {
        if desc {
            for n in view.descendants(ctx).skip(1) {
                if view.name(n).map(|nm| test.matches(nm)).unwrap_or(false) {
                    next.push(n);
                }
            }
        } else {
            for c in view.children(ctx) {
                if view.name(c).map(|nm| test.matches(nm)).unwrap_or(false) {
                    next.push(c);
                }
            }
        }
    }
    next
}

/// Resolve `@attr` with virtual `@id`/`@s`/`@t` fallbacks.
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

/// All values an expression can denote (path expressions are node-set
/// valued, everything else singleton).
fn eval_expr_multi(
    expr: &Expr,
    view: &DocView<'_>,
    env: &HashMap<String, Binding>,
) -> Vec<Value> {
    match expr {
        Expr::VarRef(v) => match env.get(v) {
            Some(Binding::Value(Some(val))) => vec![val.clone()],
            Some(Binding::Node(n)) => view
                .uri(*n)
                .map(|u| vec![Value::Str(u.to_string())])
                .unwrap_or_default(),
            _ => Vec::new(),
        },
        Expr::VarAttr(v, a) => match env.get(v) {
            Some(Binding::Node(n)) => attr_value(view, *n, a).into_iter().collect(),
            _ => Vec::new(),
        },
        Expr::VarPathText(v, steps) => nodes_of(v, steps, view, env)
            .into_iter()
            .map(|n| Value::Str(view.text_content(n)))
            .collect(),
        Expr::VarPathAttr(v, steps, a) => nodes_of(v, steps, view, env)
            .into_iter()
            .filter_map(|n| attr_value(view, n, a))
            .collect(),
        Expr::VarText(v) => match env.get(v) {
            Some(Binding::Node(n)) => vec![Value::Str(view.text_content(*n))],
            _ => Vec::new(),
        },
        Expr::Literal(v) => vec![v.clone()],
        Expr::Skolem(fun, args) => {
            let vals: Option<Vec<Value>> = args
                .iter()
                .map(|a| eval_expr_single(a, view, env))
                .collect();
            match vals {
                Some(vals) => vec![Value::skolem(fun.clone(), vals)],
                None => Vec::new(),
            }
        }
        Expr::EffectiveTime(v) => match env.get(v) {
            Some(Binding::Node(n)) => vec![Value::Int(effective_time(view, *n) as i64)],
            _ => Vec::new(),
        },
    }
}

fn nodes_of(
    var: &str,
    steps: &[(bool, NodeTest)],
    view: &DocView<'_>,
    env: &HashMap<String, Binding>,
) -> Vec<NodeId> {
    let Some(Binding::Node(start)) = env.get(var) else {
        return Vec::new();
    };
    let mut frontier = vec![*start];
    for (desc, test) in steps {
        frontier = expand(view, &frontier, *desc, test);
        if frontier.is_empty() {
            break;
        }
    }
    frontier
}

fn eval_expr_single(
    expr: &Expr,
    view: &DocView<'_>,
    env: &HashMap<String, Binding>,
) -> Option<Value> {
    eval_expr_multi(expr, view, env).into_iter().next()
}

fn eval_cond(cond: &Cond, view: &DocView<'_>, env: &HashMap<String, Binding>) -> bool {
    match cond {
        Cond::Cmp(l, op, r) => {
            let lv = eval_expr_multi(l, view, env);
            let rv = eval_expr_multi(r, view, env);
            lv.iter()
                .any(|a| rv.iter().any(|b| op.test(a.sem_eq(b), a.sem_cmp(b))))
        }
        Cond::ExistsPath(v, steps) => !nodes_of(v, steps, view, env).is_empty(),
        Cond::ExistsAttr(v, a) => match env.get(v) {
            Some(Binding::Node(n)) => attr_value(view, *n, a).is_some(),
            _ => false,
        },
        Cond::LabelEq(v, service, time) => match env.get(v) {
            Some(Binding::Node(n)) => effective_label(view, *n)
                .map(|l| l.service == *service && l.time == *time)
                .unwrap_or(false),
            _ => false,
        },
        Cond::And(cs) => cs.iter().all(|c| eval_cond(c, view, env)),
        Cond::Or(cs) => cs.iter().any(|c| eval_cond(c, view, env)),
        Cond::Not(c) => !eval_cond(c, view, env),
    }
}

fn build(
    ctor: &Constructor,
    view: &DocView<'_>,
    env: &HashMap<String, Binding>,
    out: &mut Document,
    parent: NodeId,
) -> NodeId {
    let node = out
        .append_element(parent, ctor.name.clone())
        .expect("output document construction cannot fail");
    for (k, e) in &ctor.attrs {
        let v = eval_expr_single(e, view, env)
            .map(|v| v.canonical())
            .unwrap_or_default();
        out.set_attr(node, k.clone(), v).expect("element attr");
    }
    for item in &ctor.children {
        match item {
            ConstructorItem::Text(t) => {
                out.append_text(node, t.clone()).expect("text child");
            }
            ConstructorItem::Splice(e) => {
                let v = eval_expr_single(e, view, env)
                    .map(|v| v.canonical())
                    .unwrap_or_default();
                out.append_text(node, v).expect("spliced child");
            }
            ConstructorItem::Element(c) => {
                build(c, view, env, out, node);
            }
        }
    }
    node
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use weblab_xml::{to_xml_string, CallLabel, XmlWriteOptions};

    fn doc() -> Document {
        let mut d = Document::new("R");
        let root = d.root();
        d.register_resource(root, "r1", None).unwrap();
        for (i, (lang, t)) in [("fr", 1u64), ("en", 3u64)].iter().enumerate() {
            let tmu = d.append_element(root, "TextMediaUnit").unwrap();
            d.register_resource(
                tmu,
                format!("tmu{i}"),
                Some(CallLabel::new(if *t == 1 { "Normaliser" } else { "Translator" }, *t)),
            )
            .unwrap();
            let tc = d.append_element(tmu, "TextContent").unwrap();
            d.register_resource(tc, format!("tc{i}"), None).unwrap();
            d.append_text(tc, format!("text in {lang}")).unwrap();
            let a = d.append_element(tmu, "Annotation").unwrap();
            let l = d.append_element(a, "Language").unwrap();
            d.append_text(l, *lang).unwrap();
        }
        d
    }

    #[test]
    fn example8_query_runs() {
        let d = doc();
        let q = parse_query(
            "for $v1 in //TextMediaUnit, $v2 in $v1/TextContent \
             let $x := $v1/@id \
             return <emb><r>{$v2/@id}</r><x>{$x}</x></emb>",
        )
        .unwrap();
        let r = evaluate(&q, &d.view());
        assert_eq!(r.len(), 2);
        let opts = XmlWriteOptions {
            indent: None,
            include_meta: false,
        };
        let xml = weblab_xml::write_with(&r.doc.view(), r.items[0], &opts);
        assert_eq!(xml, "<emb><r>tc0</r><x>tmu0</x></emb>");
        let _ = to_xml_string(&r.doc.view());
    }

    #[test]
    fn where_clause_filters() {
        let d = doc();
        let q = parse_query(
            "for $v in //TextMediaUnit \
             where $v/Annotation/Language = 'fr' \
             return <hit to=\"{$v/@id}\" from=\"{$v/@id}\"/>",
        )
        .unwrap();
        let r = evaluate(&q, &d.view());
        assert_eq!(r.len(), 1);
        assert_eq!(r.link_pairs(), vec![("tmu0".to_string(), "tmu0".to_string())]);
    }

    #[test]
    fn extension_functions_evaluate() {
        let d = doc();
        let q = parse_query(
            "for $v in //TextContent \
             where wl:time($v) < 2 \
             return <hit from=\"{$v/@id}\" to=\"{$v/@id}\"/>",
        )
        .unwrap();
        // tc0 inherits t=1 from tmu0, tc1 inherits t=3
        let r = evaluate(&q, &d.view());
        assert_eq!(r.len(), 1);
        assert_eq!(r.link_pairs()[0].0, "tc0");

        let q2 = parse_query(
            "for $v in //TextMediaUnit \
             where wl:label($v, 'Translator', 3) \
             return <hit from=\"{$v/@id}\" to=\"{$v/@id}\"/>",
        )
        .unwrap();
        let r2 = evaluate(&q2, &d.view());
        assert_eq!(r2.len(), 1);
        assert_eq!(r2.link_pairs()[0].0, "tmu1");
    }

    #[test]
    fn join_across_for_clauses() {
        let d = doc();
        let q = parse_query(
            "for $s in //TextMediaUnit, $t in //TextMediaUnit \
             let $a := $s/@id, $b := $t/@id \
             where $s/Annotation/Language = 'fr' and $t/Annotation/Language = 'en' \
             return <prov from=\"{$b}\" to=\"{$a}\"/>",
        )
        .unwrap();
        let r = evaluate(&q, &d.view());
        assert_eq!(r.link_pairs(), vec![("tmu1".to_string(), "tmu0".to_string())]);
    }

    #[test]
    fn missing_attributes_fail_comparisons_quietly() {
        let d = doc();
        let q = parse_query(
            "for $v in //Annotation where $v/@id = 'x' \
             return <hit from=\"a\" to=\"b\"/>",
        )
        .unwrap();
        // annotations have no uri → no results, no panic
        assert!(evaluate(&q, &d.view()).is_empty());
    }

    #[test]
    fn skolem_expression_renders_canonically() {
        let d = doc();
        let q = parse_query(
            "for $v in //TextMediaUnit \
             let $x := $v/@id \
             where f($x) = 'f(tmu0)' \
             return <hit from=\"{$x}\" to=\"{$x}\"/>",
        )
        .unwrap();
        let r = evaluate(&q, &d.view());
        assert_eq!(r.len(), 1);
        assert_eq!(r.link_pairs()[0].0, "tmu0");
    }

    #[test]
    fn query_over_earlier_state_sees_less() {
        let mut d = Document::new("R");
        let root = d.root();
        let m0 = d.mark();
        let x = d.append_element(root, "X").unwrap();
        d.register_resource(x, "rx", None).unwrap();
        let q = parse_query("for $v in //X return <hit from=\"{$v/@id}\" to=\"-\"/>").unwrap();
        assert!(evaluate(&q, &d.view_at(m0)).is_empty());
        assert_eq!(evaluate(&q, &d.view()).len(), 1);
    }
}
