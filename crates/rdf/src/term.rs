//! RDF terms and triples.

use std::fmt::{self, Write as _};

/// An RDF term.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An IRI reference.
    Iri(String),
    /// A literal with optional datatype IRI.
    Literal {
        /// Lexical value.
        value: String,
        /// Datatype IRI (`None` = xsd:string).
        datatype: Option<String>,
    },
    /// A blank node with a local label.
    Blank(String),
}

impl Term {
    /// Construct an IRI term.
    pub fn iri(s: impl Into<String>) -> Self {
        Term::Iri(s.into())
    }

    /// Construct a plain string literal.
    pub fn lit(s: impl Into<String>) -> Self {
        Term::Literal {
            value: s.into(),
            datatype: None,
        }
    }

    /// Construct a typed literal.
    pub fn typed(s: impl Into<String>, datatype: impl Into<String>) -> Self {
        Term::Literal {
            value: s.into(),
            datatype: Some(datatype.into()),
        }
    }

    /// Construct an `xsd:integer` literal.
    pub fn int(i: i64) -> Self {
        Term::typed(i.to_string(), crate::vocab::XSD_INTEGER)
    }

    /// The IRI string, if this is an IRI.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(s) => Some(s),
            _ => None,
        }
    }

    /// The literal value, if this is a literal.
    pub fn as_literal(&self) -> Option<&str> {
        match self {
            Term::Literal { value, .. } => Some(value),
            _ => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(s) => write!(f, "<{s}>"),
            Term::Literal { value, datatype } => {
                f.write_char('"')?;
                write_escaped_literal(f, value)?;
                f.write_char('"')?;
                match datatype {
                    Some(dt) => write!(f, "^^<{dt}>"),
                    None => Ok(()),
                }
            }
            Term::Blank(l) => write!(f, "_:{l}"),
        }
    }
}

/// Write `s` as the body of a `"…"` literal (Turtle `STRING_LITERAL_QUOTE`,
/// also valid N-Triples): the four characters that cannot appear raw —
/// `"`, `\`, LF and CR — become the ECHARs `\"`, `\\`, `\n` and `\r`;
/// everything between them is copied as one run.
pub(crate) fn write_escaped_literal<W: fmt::Write>(w: &mut W, s: &str) -> fmt::Result {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            _ => continue,
        };
        // the four escaped bytes are ASCII, so `i` is a char boundary
        w.write_str(&s[run..i])?;
        w.write_str(esc)?;
        run = i + 1;
    }
    w.write_str(&s[run..])
}

/// A triple `(subject, predicate, object)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    /// Subject (IRI or blank).
    pub s: Term,
    /// Predicate (IRI).
    pub p: Term,
    /// Object (any term).
    pub o: Term,
}

impl Triple {
    /// Construct a triple.
    pub fn new(s: Term, p: Term, o: Term) -> Self {
        Triple { s, p, o }
    }
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} .", self.s, self.p, self.o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(Term::iri("http://x/a").to_string(), "<http://x/a>");
        assert_eq!(Term::lit("hi \"there\"").to_string(), "\"hi \\\"there\\\"\"");
        assert_eq!(
            Term::int(5).to_string(),
            "\"5\"^^<http://www.w3.org/2001/XMLSchema#integer>"
        );
        assert_eq!(Term::Blank("b0".into()).to_string(), "_:b0");
    }

    #[test]
    fn accessors() {
        assert_eq!(Term::iri("x").as_iri(), Some("x"));
        assert_eq!(Term::lit("v").as_literal(), Some("v"));
        assert_eq!(Term::lit("v").as_iri(), None);
    }
}
