//! Turtle serialisation and a matching subset parser.
//!
//! The writer groups triples by subject and abbreviates IRIs through the
//! prefix table; the parser accepts the writer's output plus the common
//! Turtle conveniences (`@prefix`, `a`, `;` and `,` continuation).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::term::{write_escaped_literal, Term, Triple};
use crate::vocab::{default_prefixes, RDF_TYPE};

/// Serialise triples to Turtle, grouping by subject.
///
/// Subjects appear in [`Term`] order. A subject's triples keep their
/// input order, duplicates included. Every term is written straight into
/// the one output string.
pub fn to_turtle(triples: &[Triple]) -> String {
    let prefixes = default_prefixes();
    let mut out = String::with_capacity(256 + 64 * triples.len());
    for (p, ns) in &prefixes {
        let _ = writeln!(out, "@prefix {p}: <{ns}> .");
    }
    out.push('\n');

    let mut by_subject: Vec<&Triple> = triples.iter().collect();
    // a stable sort keeps each subject's triples in input order
    by_subject.sort_by(|a, b| a.s.cmp(&b.s));
    let mut subject: Option<&Term> = None;
    for t in by_subject {
        if subject == Some(&t.s) {
            out.push_str(" ;\n    ");
        } else {
            if subject.is_some() {
                out.push_str(" .\n");
            }
            write_term(&mut out, &t.s, &prefixes);
            out.push(' ');
            subject = Some(&t.s);
        }
        if t.p.as_iri() == Some(RDF_TYPE) {
            out.push('a');
        } else {
            write_term(&mut out, &t.p, &prefixes);
        }
        out.push(' ');
        write_term(&mut out, &t.o, &prefixes);
    }
    if subject.is_some() {
        out.push_str(" .\n");
    }
    out
}

fn write_term(out: &mut String, t: &Term, prefixes: &[(&str, &str)]) {
    match t {
        Term::Iri(iri) => write_iri(out, iri, prefixes),
        Term::Literal { value, datatype } => {
            out.push('"');
            // writing into a `String` cannot fail
            let _ = write_escaped_literal(out, value);
            out.push('"');
            if let Some(dt) = datatype {
                out.push_str("^^");
                write_iri(out, dt, prefixes);
            }
        }
        Term::Blank(l) => {
            out.push_str("_:");
            out.push_str(l);
        }
    }
}

/// Write an IRI as a prefixed name when it lies in a prefix's namespace
/// and its local part passes [`is_local_name`]; otherwise as an `<…>`
/// IRIREF.
fn write_iri(out: &mut String, iri: &str, prefixes: &[(&str, &str)]) {
    for (p, ns) in prefixes {
        if let Some(local) = iri.strip_prefix(ns) {
            if is_local_name(local) {
                out.push_str(p);
                out.push(':');
                out.push_str(local);
                return;
            }
        }
    }
    out.push('<');
    write_escaped_iri(out, iri);
    out.push('>');
}

/// Whether `local` can be written as the local part of a prefixed name:
/// alphanumerics, `_`, `-` and `.`, where (as in Turtle's `PN_LOCAL`) the
/// first character is neither `-` nor `.` and the last is not `.` — a
/// final `.` would end the statement instead.
fn is_local_name(local: &str) -> bool {
    !local.is_empty()
        && !local.starts_with(['-', '.'])
        && !local.ends_with('.')
        && local
            .chars()
            .all(|c| c.is_alphanumeric() || matches!(c, '_' | '-' | '.'))
}

/// Escape an IRI for an `<…>` IRIREF per the Turtle grammar: code points
/// `#x00`–`#x20` and ``< > " { } | ^ ` \`` cannot appear raw and are
/// emitted as numeric `\u00XX` (UCHAR) escapes. All of them are ASCII,
/// so the scan runs over bytes and copies the runs between them whole.
fn write_escaped_iri(out: &mut String, iri: &str) {
    const HEX: &[u8; 16] = b"0123456789ABCDEF";
    let mut run = 0;
    for (i, b) in iri.bytes().enumerate() {
        if b <= b' '
            || matches!(
                b,
                b'<' | b'>' | b'"' | b'{' | b'}' | b'|' | b'^' | b'`' | b'\\'
            )
        {
            out.push_str(&iri[run..i]);
            out.push_str("\\u00");
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xF)] as char);
            run = i + 1;
        }
    }
    out.push_str(&iri[run..]);
}

/// Turtle parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TurtleError {
    /// Byte offset.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for TurtleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "turtle parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for TurtleError {}

/// Parse the Turtle subset the writer emits.
pub fn parse_turtle(input: &str) -> Result<Vec<Triple>, TurtleError> {
    let mut p = TP {
        input,
        pos: 0,
        prefixes: BTreeMap::new(),
    };
    let mut out = Vec::new();
    loop {
        p.ws();
        if p.at_end() {
            break;
        }
        if p.eat("@prefix") {
            p.ws();
            let name = p.until(':')?;
            p.expect(":")?;
            p.ws();
            p.expect("<")?;
            let raw = p.until('>')?;
            let ns = p.unescape_iri(&raw)?;
            p.expect(">")?;
            p.ws();
            p.expect(".")?;
            p.prefixes.insert(name, ns);
            continue;
        }
        // subject
        let s = p.term()?;
        loop {
            p.ws();
            let pred = p.term()?;
            loop {
                p.ws();
                let o = p.term()?;
                out.push(Triple::new(s.clone(), pred.clone(), o));
                p.ws();
                if p.eat(",") {
                    continue;
                }
                break;
            }
            if p.eat(";") {
                p.ws();
                // allow trailing "; ." style
                if p.peek(".") {
                    break;
                }
                continue;
            }
            break;
        }
        p.ws();
        p.expect(".")?;
    }
    Ok(out)
}

struct TP<'a> {
    input: &'a str,
    pos: usize,
    prefixes: BTreeMap<String, String>,
}

impl<'a> TP<'a> {
    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn at_end(&self) -> bool {
        self.rest().is_empty()
    }

    fn err(&self, m: impl Into<String>) -> TurtleError {
        TurtleError {
            offset: self.pos,
            message: m.into(),
        }
    }

    fn ws(&mut self) {
        loop {
            let r = self.rest();
            let t = r.trim_start();
            self.pos += r.len() - t.len();
            if self.rest().starts_with('#') {
                match self.rest().find('\n') {
                    Some(i) => self.pos += i + 1,
                    None => self.pos = self.input.len(),
                }
            } else {
                break;
            }
        }
    }

    fn peek(&self, s: &str) -> bool {
        self.rest().starts_with(s)
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.rest().starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), TurtleError> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected {s:?}")))
        }
    }

    fn until(&mut self, c: char) -> Result<String, TurtleError> {
        let r = self.rest();
        let end = r.find(c).ok_or_else(|| self.err(format!("expected {c:?}")))?;
        let s = r[..end].trim().to_string();
        self.pos += end;
        Ok(s)
    }

    /// Resolve the `\uXXXX`/`\UXXXXXXXX` (UCHAR) escapes the writer emits
    /// inside IRIREFs. Any other backslash sequence is an error — raw
    /// backslashes cannot appear in an IRIREF.
    fn unescape_iri(&self, raw: &str) -> Result<String, TurtleError> {
        if !raw.contains('\\') {
            return Ok(raw.to_string());
        }
        let mut out = String::with_capacity(raw.len());
        let mut chars = raw.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            out.push(match chars.next() {
                Some('u') => self.uchar(&mut chars, 4)?,
                Some('U') => self.uchar(&mut chars, 8)?,
                other => {
                    return Err(self.err(format!(
                        "invalid IRI escape \\{}",
                        other.map(String::from).unwrap_or_default()
                    )))
                }
            });
        }
        Ok(out)
    }

    /// Decode the `len` hex digits that follow a `\u` (4) or `\U` (8)
    /// UCHAR escape.
    fn uchar(&self, digits: impl Iterator<Item = char>, len: usize) -> Result<char, TurtleError> {
        let hex: String = digits.take(len).collect();
        if hex.len() != len || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(self.err(format!("invalid \\u escape {hex:?}")));
        }
        let code = u32::from_str_radix(&hex, 16).expect("hex digits checked above");
        char::from_u32(code)
            .ok_or_else(|| self.err(format!("escape U+{code:X} is not a character")))
    }

    fn term(&mut self) -> Result<Term, TurtleError> {
        self.ws();
        if self.eat("<") {
            let raw = self.until('>')?;
            let iri = self.unescape_iri(&raw)?;
            self.expect(">")?;
            return Ok(Term::Iri(iri));
        }
        if self.eat("\"") {
            let mut value = String::new();
            let mut chars = self.rest().char_indices();
            let mut consumed = None;
            while let Some((i, c)) = chars.next() {
                match c {
                    '"' => {
                        consumed = Some(i + 1);
                        break;
                    }
                    // ECHAR and UCHAR escapes
                    '\\' => value.push(match chars.next().map(|(_, e)| e) {
                        Some('t') => '\t',
                        Some('b') => '\u{8}',
                        Some('n') => '\n',
                        Some('r') => '\r',
                        Some('f') => '\u{c}',
                        Some(e @ ('"' | '\'' | '\\')) => e,
                        Some('u') => self.uchar(chars.by_ref().map(|(_, c)| c), 4)?,
                        Some('U') => self.uchar(chars.by_ref().map(|(_, c)| c), 8)?,
                        Some(e) => return Err(self.err(format!("invalid literal escape \\{e}"))),
                        None => break,
                    }),
                    c => value.push(c),
                }
            }
            let Some(consumed) = consumed else {
                return Err(self.err("unterminated literal"));
            };
            self.pos += consumed;
            if self.eat("^^") {
                let dt = self.term()?;
                let Term::Iri(dt) = dt else {
                    return Err(self.err("datatype must be an IRI"));
                };
                return Ok(Term::typed(value, dt));
            }
            return Ok(Term::lit(value));
        }
        if self.eat("_:") {
            let r = self.rest();
            let end = r
                .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == '-'))
                .unwrap_or(r.len());
            let label = r[..end].to_string();
            self.pos += end;
            return Ok(Term::Blank(label));
        }
        // 'a' keyword or prefixed name
        let r = self.rest();
        if r.starts_with("a ") || r.starts_with("a\t") || r.starts_with("a\n") {
            self.pos += 1;
            return Ok(Term::iri(RDF_TYPE));
        }
        // A prefixed name runs to whitespace, `;` or `,`. A `.` inside it
        // is part of the local name, but trailing dots end the statement:
        // a `PN_LOCAL` never ends with one.
        let run = r
            .find(|c: char| c.is_whitespace() || matches!(c, ';' | ','))
            .unwrap_or(r.len());
        let end = r[..run].trim_end_matches('.').len();
        let token = &r[..end];
        let Some(colon) = token.find(':') else {
            return Err(self.err(format!("unrecognised token {token:?}")));
        };
        let (prefix, local) = (&token[..colon], &token[colon + 1..]);
        let ns = self
            .prefixes
            .get(prefix)
            .ok_or_else(|| self.err(format!("unknown prefix {prefix:?}")))?;
        self.pos += end;
        Ok(Term::Iri(format!("{ns}{local}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::{PROV_ENTITY, PROV_WAS_DERIVED_FROM};

    #[test]
    fn round_trip_preserves_triples() {
        let triples = vec![
            Triple::new(Term::iri("http://x/r8"), Term::iri(RDF_TYPE), Term::iri(PROV_ENTITY)),
            Triple::new(
                Term::iri("http://x/r8"),
                Term::iri(PROV_WAS_DERIVED_FROM),
                Term::iri("http://x/r4"),
            ),
            Triple::new(
                Term::iri("http://x/act"),
                Term::iri("http://www.w3.org/ns/prov#startedAtTime"),
                Term::int(3),
            ),
            Triple::new(Term::Blank("b0".into()), Term::iri("http://x/p"), Term::lit("v \"q\"")),
        ];
        let ttl = to_turtle(&triples);
        let mut parsed = parse_turtle(&ttl).unwrap();
        let mut original = triples;
        parsed.sort();
        original.sort();
        assert_eq!(parsed, original);
    }

    #[test]
    fn writer_uses_prefixes_and_a() {
        let triples = vec![Triple::new(
            Term::iri("http://www.w3.org/ns/prov#Entity"),
            Term::iri(RDF_TYPE),
            Term::iri("http://www.w3.org/ns/prov#Entity"),
        )];
        let ttl = to_turtle(&triples);
        assert!(ttl.contains("prov:Entity a prov:Entity ."));
    }

    #[test]
    fn parser_handles_comments_and_lists() {
        let ttl = "@prefix ex: <http://e/> .\n# a comment\nex:a ex:p ex:b , ex:c ; ex:q \"v\" .";
        let parsed = parse_turtle(ttl).unwrap();
        assert_eq!(parsed.len(), 3);
    }

    #[test]
    fn unknown_prefix_is_an_error() {
        assert!(parse_turtle("zz:a zz:b zz:c .").is_err());
    }

    #[test]
    fn hostile_iris_are_escaped_and_round_trip() {
        // every character class the IRIREF production forbids raw
        let hostile = "http://x/a<b>c\"d{e}f|g^h`i\\j k\tl\nm";
        let triples = vec![Triple::new(
            Term::iri(hostile),
            Term::iri("http://x/p"),
            Term::iri("http://x/o"),
        )];
        let ttl = to_turtle(&triples);
        // nothing forbidden leaks into the IRIREF between the angle brackets
        for line in ttl.lines().filter(|l| l.contains("http://x/a")) {
            assert!(!line.contains('<') || line.matches('<').count() == line.matches('>').count());
            assert!(!line.contains('\t') && !line.contains('"') && !line.contains('{'));
        }
        assert!(ttl.contains("\\u003C"), "escaped '<' missing: {ttl}");
        let parsed = parse_turtle(&ttl).unwrap();
        assert_eq!(parsed[0].s, Term::iri(hostile));
    }

    #[test]
    fn dotted_local_names_abbreviate_only_where_pn_local_allows() {
        let wl = crate::vocab::WL_NS;
        let cases = [
            ("a.b", "wl:a.b"),
            ("a..b-c", "wl:a..b-c"),
            ("a.", "<http://weblab.example.org/prov#a.>"),
            (".a", "<http://weblab.example.org/prov#.a>"),
            ("-a", "<http://weblab.example.org/prov#-a>"),
        ];
        for (local, written) in cases {
            let triples = vec![Triple::new(
                Term::iri(format!("{wl}{local}")),
                Term::iri(format!("{wl}p")),
                Term::iri(format!("{wl}{local}")),
            )];
            let ttl = to_turtle(&triples);
            assert!(
                ttl.contains(&format!("{written} wl:p {written} .")),
                "{local}: {ttl}"
            );
            assert_eq!(parse_turtle(&ttl).unwrap(), triples, "{local}");
        }
        // a dot that ends the name ends the statement, with or without a
        // space before it
        let parsed = parse_turtle(&format!("@prefix wl: <{wl}> .\nwl:a.b wl:p wl:c.d.")).unwrap();
        assert_eq!(
            parsed,
            vec![Triple::new(
                Term::iri(format!("{wl}a.b")),
                Term::iri(format!("{wl}p")),
                Term::iri(format!("{wl}c.d")),
            )]
        );
    }

    #[test]
    fn literal_escapes_are_conformant_and_lossless() {
        let value = "tab\t lf\n cr\r quote\" backslash\\ nul\u{0} bell\u{7} é 😀";
        let triples = vec![Triple::new(
            Term::iri("http://x/s"),
            Term::iri("http://x/p"),
            Term::lit(value),
        )];
        let ttl = to_turtle(&triples);
        // STRING_LITERAL_QUOTE forbids a raw CR or LF
        assert!(!ttl.contains('\r'), "raw CR in {ttl:?}");
        // a tab stays raw, which the grammar allows
        assert!(
            ttl.contains("\"tab\t lf\\n cr\\r quote\\\" backslash\\\\ nul"),
            "{ttl:?}"
        );
        assert_eq!(parse_turtle(&ttl).unwrap(), triples);
    }

    #[test]
    fn parser_decodes_every_echar_and_uchar() {
        let parsed = parse_turtle(
            r#"<http://x/s> <http://x/p> "\t\b\n\r\f\"\'\\ \u0041\u00e9 \U0001F600" ."#,
        )
        .unwrap();
        assert_eq!(parsed[0].o, Term::lit("\t\u{8}\n\r\u{c}\"'\\ Aé 😀"));
    }

    #[test]
    fn invalid_literal_escapes_are_rejected() {
        let bad_escapes = [
            r"\q",
            r"\u12",
            r"\u12G4",
            r"\U0000004",
            r"\uD800",
            r"\U00110000",
            r"\u+041",
        ];
        for bad in bad_escapes {
            let ttl = format!(r#"<http://x/s> <http://x/p> "a{bad}z" ."#);
            assert!(parse_turtle(&ttl).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn invalid_iri_escapes_are_rejected() {
        assert!(parse_turtle("<http://x/\\q> <http://x/p> <http://x/o> .").is_err());
        assert!(parse_turtle("<http://x/\\u12> <http://x/p> <http://x/o> .").is_err());
        assert!(parse_turtle("<http://x/\\uZZZZ> <http://x/p> <http://x/o> .").is_err());
        // a surrogate code point is not a character
        assert!(parse_turtle("<http://x/\\uD800> <http://x/p> <http://x/o> .").is_err());
    }
}
