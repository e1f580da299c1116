//! The Turtle writer `weblab_rdf::to_turtle` replaced, kept as its byte
//! oracle: subjects grouped through a `BTreeMap` keyed by cloned terms,
//! every term `format!`ed into its own `String`, literals escaped by
//! chained `replace` calls. Only the literal escape set (a CR becomes
//! `\r`) and the prefixed-name rule (a local name neither starts with `-`
//! or `.` nor ends with `.`) follow the writer's current rules.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use weblab::rdf::vocab::{default_prefixes, RDF_TYPE};
use weblab::rdf::{Term, Triple};

/// Serialise triples to Turtle, grouping by subject.
pub fn to_turtle(triples: &[Triple]) -> String {
    let prefixes = default_prefixes();
    let mut out = String::new();
    for (p, ns) in &prefixes {
        let _ = writeln!(out, "@prefix {p}: <{ns}> .");
    }
    out.push('\n');

    let mut by_subject: BTreeMap<Term, Vec<&Triple>> = BTreeMap::new();
    for t in triples {
        by_subject.entry(t.s.clone()).or_default().push(t);
    }
    for (s, ts) in by_subject {
        let _ = write!(out, "{}", fmt_term(&s, &prefixes));
        for (i, t) in ts.iter().enumerate() {
            if i > 0 {
                let _ = write!(out, " ;\n    ");
            } else {
                out.push(' ');
            }
            let _ = write!(
                out,
                "{} {}",
                fmt_pred(&t.p, &prefixes),
                fmt_term(&t.o, &prefixes)
            );
        }
        out.push_str(" .\n");
    }
    out
}

fn fmt_pred(p: &Term, prefixes: &[(&str, &str)]) -> String {
    if p.as_iri() == Some(RDF_TYPE) {
        return "a".into();
    }
    fmt_term(p, prefixes)
}

fn escape_literal(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
        .replace('\r', "\\r")
}

fn escape_iri(iri: &str) -> String {
    let mut out = String::with_capacity(iri.len());
    for c in iri.chars() {
        if c <= '\u{20}' || matches!(c, '<' | '>' | '"' | '{' | '}' | '|' | '^' | '`' | '\\') {
            let code = c as u32;
            if code <= 0xFFFF {
                let _ = write!(out, "\\u{code:04X}");
            } else {
                let _ = write!(out, "\\U{code:08X}");
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn fmt_term(t: &Term, prefixes: &[(&str, &str)]) -> String {
    match t {
        Term::Iri(iri) => {
            for (p, ns) in prefixes {
                if let Some(local) = iri.strip_prefix(ns) {
                    if !local.is_empty()
                        && !local.starts_with(['-', '.'])
                        && !local.ends_with('.')
                        && local
                            .chars()
                            .all(|c| c.is_alphanumeric() || matches!(c, '_' | '-' | '.'))
                    {
                        return format!("{p}:{local}");
                    }
                }
            }
            format!("<{}>", escape_iri(iri))
        }
        Term::Literal {
            value,
            datatype: None,
        } => format!("\"{}\"", escape_literal(value)),
        Term::Literal {
            value,
            datatype: Some(dt),
        } => {
            let dts = fmt_term(&Term::iri(dt.clone()), prefixes);
            format!("\"{}\"^^{dts}", escape_literal(value))
        }
        Term::Blank(l) => format!("_:{l}"),
    }
}
