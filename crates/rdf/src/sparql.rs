//! SPARQL-lite: SELECT queries over basic graph patterns with filters.
//!
//! Covers what the paper's Request Manager needs from its "SPARQL
//! endpoints for querying generated provenance graphs": `PREFIX`
//! declarations, `SELECT` (optionally `DISTINCT`) with a projection list
//! or `*`, a basic graph pattern with variables in any position, `a` for
//! `rdf:type`, equality/inequality `FILTER`s, `ORDER BY` and `LIMIT`.
//!
//! This module owns the surface syntax: the AST ([`SelectQuery`] and
//! friends) and the parser. Evaluation lives in [`crate::plan`] as a
//! two-stage pipeline — a cardinality-driven join planner over the
//! store's columnar indexes, then streaming id-space join execution —
//! and the [`select`] function here is the stable façade over it.

use std::collections::BTreeMap;
use std::fmt;

use crate::plan;
use crate::store::TripleStore;
use crate::term::Term;
use crate::vocab::RDF_TYPE;

/// A solution mapping: variable name → term.
pub type Solution = BTreeMap<String, Term>;

/// A pattern component: variable or constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatTerm {
    /// `?name`.
    Var(String),
    /// A constant term.
    Const(Term),
}

/// One triple pattern of the BGP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriplePattern {
    /// Subject.
    pub s: PatTerm,
    /// Predicate.
    pub p: PatTerm,
    /// Object.
    pub o: PatTerm,
}

/// An equality/inequality filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Filter {
    /// Left operand.
    pub left: PatTerm,
    /// `true` for `=`, `false` for `!=`.
    pub equal: bool,
    /// Right operand.
    pub right: PatTerm,
}

/// A parsed SELECT query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectQuery {
    /// Projected variables; empty = `SELECT *`.
    pub vars: Vec<String>,
    /// `SELECT DISTINCT`: deduplicate projected solutions (performed in
    /// id space before any term is decoded).
    pub distinct: bool,
    /// Basic graph pattern.
    pub patterns: Vec<TriplePattern>,
    /// Filters.
    pub filters: Vec<Filter>,
    /// `ORDER BY` variables (lexicographic by term ordering).
    pub order_by: Vec<String>,
    /// `LIMIT` on the number of solutions.
    pub limit: Option<usize>,
}

/// SPARQL parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparqlError {
    /// Byte offset.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for SparqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sparql parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for SparqlError {}

/// Parse a SELECT query.
pub fn parse_select(input: &str) -> Result<SelectQuery, SparqlError> {
    let mut p = SP {
        input,
        pos: 0,
        prefixes: BTreeMap::new(),
    };
    p.query()
}

/// Run a SELECT query over a store. Solutions are restricted to the
/// projected variables (all bound variables for `SELECT *`), deduplicated
/// and sorted for deterministic output.
///
/// Plans on every call. No query path of the system calls it: the CLI
/// and the daemon both answer SPARQL through [`crate::QueryEngine`],
/// which runs the same planner and caches compiled plans. This façade
/// serves one-off callers such as tests and benches.
pub fn select(store: &TripleStore, query: &SelectQuery) -> Vec<Solution> {
    let plan = plan::compile(store, query);
    plan::execute(store, &plan)
}

struct SP<'a> {
    input: &'a str,
    pos: usize,
    prefixes: BTreeMap<String, String>,
}

impl<'a> SP<'a> {
    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn err(&self, m: impl Into<String>) -> SparqlError {
        SparqlError {
            offset: self.pos,
            message: m.into(),
        }
    }

    fn ws(&mut self) {
        let r = self.rest();
        let t = r.trim_start();
        self.pos += r.len() - t.len();
    }

    fn eat_ci(&mut self, kw: &str) -> bool {
        let r = self.rest();
        if r.len() >= kw.len() && r[..kw.len()].eq_ignore_ascii_case(kw) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.rest().starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn name(&mut self) -> Result<String, SparqlError> {
        let r = self.rest();
        let end = r
            .find(|c: char| !(c.is_alphanumeric() || matches!(c, '_' | '-' | '.')))
            .unwrap_or(r.len());
        if end == 0 {
            return Err(self.err("expected a name"));
        }
        self.pos += end;
        Ok(r[..end].to_string())
    }

    fn query(&mut self) -> Result<SelectQuery, SparqlError> {
        self.ws();
        while self.eat_ci("PREFIX") {
            self.ws();
            let name = self.name().unwrap_or_default();
            if !self.eat(":") {
                return Err(self.err("expected ':' after prefix name"));
            }
            self.ws();
            if !self.eat("<") {
                return Err(self.err("expected '<'"));
            }
            let r = self.rest();
            let end = r.find('>').ok_or_else(|| self.err("unterminated IRI"))?;
            let ns = r[..end].to_string();
            self.pos += end + 1;
            self.prefixes.insert(name, ns);
            self.ws();
        }
        if !self.eat_ci("SELECT") {
            return Err(self.err("expected SELECT"));
        }
        self.ws();
        let distinct = self.eat_ci("DISTINCT");
        if distinct {
            self.ws();
        }
        let mut vars = Vec::new();
        if self.eat("*") {
            self.ws();
        } else {
            while self.eat("?") {
                vars.push(self.name()?);
                self.ws();
            }
            if vars.is_empty() {
                return Err(self.err("expected projection variables or '*'"));
            }
        }
        if !self.eat_ci("WHERE") {
            return Err(self.err("expected WHERE"));
        }
        self.ws();
        if !self.eat("{") {
            return Err(self.err("expected '{'"));
        }
        let mut patterns = Vec::new();
        let mut filters = Vec::new();
        loop {
            self.ws();
            if self.eat("}") {
                break;
            }
            if self.eat_ci("FILTER") {
                self.ws();
                if !self.eat("(") {
                    return Err(self.err("expected '('"));
                }
                self.ws();
                let left = self.pat_term()?;
                self.ws();
                let equal = if self.eat("!=") {
                    false
                } else if self.eat("=") {
                    true
                } else {
                    return Err(self.err("expected '=' or '!='"));
                };
                self.ws();
                let right = self.pat_term()?;
                self.ws();
                if !self.eat(")") {
                    return Err(self.err("expected ')'"));
                }
                self.ws();
                self.eat(".");
                filters.push(Filter { left, equal, right });
                continue;
            }
            let s = self.pat_term()?;
            self.ws();
            let p = self.pat_term()?;
            self.ws();
            let o = self.pat_term()?;
            self.ws();
            self.eat(".");
            patterns.push(TriplePattern { s, p, o });
        }
        self.ws();
        let mut order_by = Vec::new();
        if self.eat_ci("ORDER") {
            self.ws();
            if !self.eat_ci("BY") {
                return Err(self.err("expected BY after ORDER"));
            }
            loop {
                self.ws();
                if self.eat("?") {
                    order_by.push(self.name()?);
                } else {
                    break;
                }
            }
            if order_by.is_empty() {
                return Err(self.err("expected at least one ?var after ORDER BY"));
            }
        }
        self.ws();
        let mut limit = None;
        if self.eat_ci("LIMIT") {
            self.ws();
            let r = self.rest();
            let end = r
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(r.len());
            if end == 0 {
                return Err(self.err("expected a number after LIMIT"));
            }
            limit = Some(r[..end].parse().map_err(|_| self.err("limit overflow"))?);
            self.pos += end;
        }
        Ok(SelectQuery {
            vars,
            distinct,
            patterns,
            filters,
            order_by,
            limit,
        })
    }

    fn pat_term(&mut self) -> Result<PatTerm, SparqlError> {
        self.ws();
        if self.eat("?") {
            return Ok(PatTerm::Var(self.name()?));
        }
        if self.eat("<") {
            let r = self.rest();
            let end = r.find('>').ok_or_else(|| self.err("unterminated IRI"))?;
            let iri = r[..end].to_string();
            self.pos += end + 1;
            return Ok(PatTerm::Const(Term::Iri(iri)));
        }
        if self.eat("\"") {
            let r = self.rest();
            let end = r
                .find('"')
                .ok_or_else(|| self.err("unterminated literal"))?;
            let value = r[..end].to_string();
            self.pos += end + 1;
            if self.eat("^^<") {
                let r = self.rest();
                let end = r.find('>').ok_or_else(|| self.err("unterminated IRI"))?;
                let dt = r[..end].to_string();
                self.pos += end + 1;
                return Ok(PatTerm::Const(Term::typed(value, dt)));
            }
            return Ok(PatTerm::Const(Term::lit(value)));
        }
        // 'a' or prefixed name
        let r = self.rest();
        if r.starts_with('a')
            && r[1..]
                .chars()
                .next()
                .map(|c| c.is_whitespace())
                .unwrap_or(false)
        {
            self.pos += 1;
            return Ok(PatTerm::Const(Term::iri(RDF_TYPE)));
        }
        let end = r
            .find(|c: char| c.is_whitespace() || matches!(c, '.' | '}' | ')' | '=' | '!'))
            .unwrap_or(r.len());
        let token = &r[..end];
        let Some(colon) = token.find(':') else {
            return Err(self.err(format!("unrecognised token {token:?}")));
        };
        let (prefix, local) = (&token[..colon], &token[colon + 1..]);
        let ns = self
            .prefixes
            .get(prefix)
            .ok_or_else(|| self.err(format!("unknown prefix {prefix:?}")))?
            .clone();
        self.pos += end;
        Ok(PatTerm::Const(Term::Iri(format!("{ns}{local}"))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::export_prov_into;
    use crate::vocab::{activity_iri, PROV_NS};
    use weblab_prov::{infer_provenance, paper_example, EngineOptions};

    fn paper_store() -> TripleStore {
        let (doc, trace, rules) = paper_example::build();
        let graph = infer_provenance(&doc, &trace, &rules, &EngineOptions::default());
        let mut store = TripleStore::new();
        export_prov_into(&graph, &mut store);
        store
    }

    #[test]
    fn what_did_the_translator_use() {
        let store = paper_store();
        let q = parse_select(&format!(
            "PREFIX prov: <{PROV_NS}> \
             SELECT ?used WHERE {{ <{}> prov:used ?used . }}",
            activity_iri("Translator", 3)
        ))
        .unwrap();
        let sols = select(&store, &q);
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0]["used"], Term::iri("r4"));
    }

    #[test]
    fn derivation_chain_join() {
        let store = paper_store();
        // what did r8's inputs themselves derive from?
        let q = parse_select(&format!(
            "PREFIX prov: <{PROV_NS}> \
             SELECT ?mid ?origin WHERE {{ \
               <r8> prov:wasDerivedFrom ?mid . \
               ?mid prov:wasDerivedFrom ?origin . }}"
        ))
        .unwrap();
        let sols = select(&store, &q);
        // r8 → r4 → r3
        assert!(sols
            .iter()
            .any(|s| s["mid"] == Term::iri("r4") && s["origin"] == Term::iri("r3")));
    }

    #[test]
    fn select_star_and_filters() {
        let store = paper_store();
        let q = parse_select(&format!(
            "PREFIX prov: <{PROV_NS}> \
             SELECT * WHERE {{ ?e a prov:Entity . FILTER(?e != <r8>) }}"
        ))
        .unwrap();
        let sols = select(&store, &q);
        assert!(!sols.is_empty());
        assert!(sols.iter().all(|s| s["e"] != Term::iri("r8")));
    }

    #[test]
    fn type_keyword_a_and_literals() {
        let mut store = TripleStore::new();
        store.insert(crate::term::Triple::new(
            Term::iri("x"),
            Term::iri(RDF_TYPE),
            Term::iri("T"),
        ));
        store.insert(crate::term::Triple::new(
            Term::iri("x"),
            Term::iri("p"),
            Term::lit("v"),
        ));
        let q = parse_select("SELECT ?s WHERE { ?s a <T> . ?s <p> \"v\" . }").unwrap();
        let sols = select(&store, &q);
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0]["s"], Term::iri("x"));
    }

    #[test]
    fn unbound_query_returns_nothing() {
        let store = TripleStore::new();
        let q = parse_select("SELECT ?s WHERE { ?s <p> ?o . }").unwrap();
        assert!(select(&store, &q).is_empty());
    }

    #[test]
    fn order_by_and_limit() {
        let store = paper_store();
        let q = parse_select(&format!(
            "PREFIX prov: <{PROV_NS}> \
             SELECT ?e WHERE {{ ?e a prov:Entity . }} ORDER BY ?e LIMIT 2"
        ))
        .unwrap();
        assert_eq!(q.order_by, vec!["e".to_string()]);
        assert_eq!(q.limit, Some(2));
        let sols = select(&store, &q);
        assert_eq!(sols.len(), 2);
        // sorted ascending by term
        assert!(sols[0]["e"] <= sols[1]["e"]);
        // LIMIT 0 yields nothing
        let q0 = parse_select(&format!(
            "PREFIX prov: <{PROV_NS}> SELECT ?e WHERE {{ ?e a prov:Entity . }} LIMIT 0"
        ))
        .unwrap();
        assert!(select(&store, &q0).is_empty());
    }

    #[test]
    fn parse_errors() {
        assert!(parse_select("SELEKT ?a WHERE { }").is_err());
        assert!(parse_select("SELECT WHERE { }").is_err());
        assert!(parse_select("SELECT ?a WHERE { zz:a zz:b zz:c . }").is_err());
        assert!(parse_select("SELECT DISTINCT WHERE { }").is_err());
    }

    #[test]
    fn projection_restricts_solutions() {
        let store = paper_store();
        let q = parse_select(&format!(
            "PREFIX prov: <{PROV_NS}> \
             SELECT ?g WHERE {{ ?e prov:wasGeneratedBy ?g . }}"
        ))
        .unwrap();
        let sols = select(&store, &q);
        assert!(sols.iter().all(|s| s.len() == 1 && s.contains_key("g")));
    }

    #[test]
    fn distinct_parses_and_dedups() {
        let q = parse_select("SELECT DISTINCT ?g WHERE { ?e <g> ?g . }").unwrap();
        assert!(q.distinct);
        assert_eq!(q.vars, vec!["g".to_string()]);
        let q_star = parse_select("SELECT DISTINCT * WHERE { ?e <g> ?g . }").unwrap();
        assert!(q_star.distinct && q_star.vars.is_empty());
        // case-insensitive like the other keywords
        assert!(parse_select("select distinct ?g where { ?e <g> ?g . }")
            .unwrap()
            .distinct);
        // a variable named "DISTINCTish" is not the keyword
        let q_var = parse_select("SELECT ?DISTINCTvar WHERE { ?DISTINCTvar <g> ?g . }");
        assert!(q_var.is_ok());

        let mut store = TripleStore::new();
        for (s, o) in [("a", "x"), ("b", "x"), ("c", "y")] {
            store.insert(crate::term::Triple::new(
                Term::iri(s),
                Term::iri("g"),
                Term::iri(o),
            ));
        }
        let sols = select(&store, &q);
        assert_eq!(sols.len(), 2, "DISTINCT collapses equal projections");
        assert_eq!(sols[0]["g"], Term::iri("x"));
        assert_eq!(sols[1]["g"], Term::iri("y"));
    }
}
