//! Robustness: every parser in the workspace must return `Err` on garbage,
//! never panic — and must be total over arbitrary near-miss inputs derived
//! from valid ones.

mod support;

use proptest::prelude::*;

use support::AnyJson;
use weblab::json::Json;
use weblab::platform::{Mapper, Platform, ServiceCatalog};
use weblab::prov::MappingRule;
use weblab::rdf::vocab::WL_NS;
use weblab::rdf::{parse_select, parse_turtle, to_turtle, Term, Triple};
use weblab::serve::handle_line;
use weblab::xml::parse_document;
use weblab::xpath::parse_pattern;
use weblab::xquery::parse_query;

/// Strategy for one triple: IRI subject and predicate in `http://ex.org/`
/// (always written as IRIREFs) or in the writer's `wl:` namespace, with
/// local names that put `.` and `-` in any position — so some abbreviate
/// to dotted prefixed names and some (a leading `-` or `.`, a trailing
/// `.`) must stay IRIREFs. The object is (by `kind`) an IRI, a plain
/// literal over printable ASCII, every control character (CR, LF, tab and
/// NUL among them) and non-ASCII text, or an `xsd:integer`.
fn triple() -> impl Strategy<Value = Triple> {
    (
        "[a-zA-Z0-9_.-]{1,8}",
        "[a-zA-Z0-9_.-]{1,8}",
        any::<bool>(),
        0u8..3,
        "[ -~\t\n\r\u{0}-\u{1f}\u{7f}é€😀]{0,20}",
        any::<i64>(),
    )
        .prop_map(|(s, p, prefixed, kind, lit, int)| {
            let ns = if prefixed { WL_NS } else { "http://ex.org/" };
            let o = match kind {
                0 => Term::iri(format!("{ns}o_{s}")),
                1 => Term::lit(lit),
                _ => Term::int(int),
            };
            Triple::new(
                Term::iri(format!("{ns}{s}")),
                Term::iri(format!("{ns}{p}")),
                o,
            )
        })
}

/// Well-formed protocol lines, one per op shape, for the mutation fuzz.
const PROTOCOL_LINES: [&str; 8] = [
    r#"{"id":1,"op":"why","exec":"e","uri":"r8"}"#,
    r#"{"op":"lineage","exec":"e","uri":"r8","depth":3}"#,
    r#"{"op":"sparql","exec":"e","query":"PREFIX prov: <http://www.w3.org/ns/prov#> SELECT ?d ?s WHERE { ?d prov:wasDerivedFrom ?s . }"}"#,
    r#"{"op":"rank","exec":"e","uri":"r3","direction":"up","limit":10,"budget":4096,"decay":0.5,"weights":{"Translator":0.25}}"#,
    r#"{"id":"b","op":"batch","exec":"e","requests":[{"id":[1,2.5],"op":"why","uri":"r8"},{"op":"summary","uri":"r3"}]}"#,
    r#"{"op":"ingest","exec":"e","xml":"<Resource wl:id=\"weblab://doc/0\"><NativeContent wl:id=\"weblab://src/0\">caf\u00e9 \"quoted\"\n</NativeContent></Resource>","live":true}"#,
    r#"{"op":"replay","exec":"e","as":"e2","xml":"<R/>","changed":["r3"],"proof":"concordant","tolerance":0.5}"#,
    r#"{"id":null,"op":"status"}"#,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The serve codec round-trips every value: arbitrary Unicode strings
    /// (every escape included), finite numbers of every magnitude, nesting.
    #[test]
    fn json_round_trips_random_values(v in AnyJson { depth: 4 }) {
        let text = v.to_string();
        let back = Json::parse(&text)
            .unwrap_or_else(|e| panic!("writer output must reparse: {e}\n{text}"));
        prop_assert_eq!(back, v);
    }

    /// Byte-level mutations of protocol lines (replaced, inserted and
    /// deleted bytes) never panic the parser or the dispatcher, and every
    /// reply is itself valid JSON.
    #[test]
    fn mutated_protocol_lines_never_panic(
        which in 0usize..PROTOCOL_LINES.len(),
        edits in prop::collection::vec((0usize..512, any::<u8>(), 0u8..3), 1..6),
    ) {
        let mut bytes = PROTOCOL_LINES[which].as_bytes().to_vec();
        for (at, byte, kind) in edits {
            let i = at % (bytes.len() + 1);
            match kind {
                0 if i < bytes.len() => bytes[i] = byte,
                1 => bytes.insert(i, byte),
                _ if i < bytes.len() => {
                    bytes.remove(i);
                }
                _ => {}
            }
        }
        let line = String::from_utf8_lossy(&bytes);
        let _ = Json::parse(&line);
        let platform = Platform::new(Mapper::native());
        let (reply, _) = handle_line(&platform, &line);
        prop_assert!(Json::parse(&reply).is_ok(), "reply is not JSON: {reply}");
    }

    #[test]
    fn xml_parser_never_panics(input in ".{0,200}") {
        let _ = parse_document(&input);
    }

    #[test]
    fn xml_parser_never_panics_on_taglike_input(
        input in "[<>/a-z \"'=&;]{0,100}"
    ) {
        let _ = parse_document(&input);
    }

    #[test]
    fn pattern_parser_never_panics(input in ".{0,120}") {
        let _ = parse_pattern(&input);
    }

    #[test]
    fn pattern_parser_never_panics_on_patternlike_input(
        input in "[/\\[\\]@$:= a-zA-Z0-9'<>!-]{0,80}"
    ) {
        let _ = parse_pattern(&input);
    }

    #[test]
    fn rule_parser_never_panics(input in ".{0,160}") {
        let _ = MappingRule::parse(&input);
    }

    #[test]
    fn xquery_parser_never_panics(
        input in "[a-z$/{}<>\"'= ,.:\\[\\]0-9]{0,120}"
    ) {
        let _ = parse_query(&input);
    }

    #[test]
    fn sparql_parser_never_panics(
        input in "[A-Za-z?<>{}=!\\. :#/\"']{0,120}"
    ) {
        let _ = parse_select(&input);
    }

    #[test]
    fn turtle_parser_never_panics(
        input in "[a-z<>@:\\.;,\"_ \\^#-]{0,120}"
    ) {
        let _ = parse_turtle(&input);
    }

    #[test]
    fn catalog_parser_never_panics(input in ".{0,200}") {
        let _ = ServiceCatalog::from_text(&input);
    }

    #[test]
    fn mutated_valid_pattern_never_panics(
        flip in 0usize..60,
        ch in prop::char::any(),
    ) {
        let base = "//TextMediaUnit[$x := @id]/Annotation[Language = 'fr']";
        let mut bytes: Vec<char> = base.chars().collect();
        if flip < bytes.len() {
            bytes[flip] = ch;
        }
        let mutated: String = bytes.into_iter().collect();
        let _ = parse_pattern(&mutated);
        let _ = MappingRule::parse(&format!("{mutated} => //X"));
    }

    #[test]
    fn mutated_valid_xquery_never_panics(
        flip in 0usize..90,
        ch in prop::char::any(),
    ) {
        let base = "for $v in //TextMediaUnit let $x := $v/@id \
                    where $v/@id = 'u1' \
                    return <hit from=\"{$x}\" to=\"-\"/>";
        let mut chars: Vec<char> = base.chars().collect();
        if flip < chars.len() {
            chars[flip] = ch;
        }
        let mutated: String = chars.into_iter().collect();
        let _ = parse_query(&mutated);
    }

    #[test]
    fn turtle_writer_round_trips(triples in prop::collection::vec(triple(), 0..12)) {
        let ttl = to_turtle(&triples);
        // no production of the writer's output admits a raw CR
        prop_assert!(!ttl.contains('\r'), "raw CR in {:?}", ttl);
        let mut parsed = parse_turtle(&ttl)
            .unwrap_or_else(|e| panic!("writer output must reparse: {e}\n{ttl}"));
        let mut original = triples;
        parsed.sort();
        original.sort();
        prop_assert_eq!(parsed, original);
    }

    /// Hostile URIs — angle brackets, quotes, braces, backslashes, control
    /// characters — must survive the writer → parser round trip via the
    /// IRIREF `\u` escapes, not corrupt neighbouring triples.
    #[test]
    fn turtle_writer_round_trips_hostile_iris(
        evil in "[a-z<>\"{}|\\^`\\\\\\t\\n ]{0,24}",
        tail in "[a-zA-Z0-9_]{1,8}",
    ) {
        let triples = vec![
            Triple::new(
                Term::iri(format!("http://ex.org/{evil}")),
                Term::iri(format!("http://ex.org/p_{tail}")),
                Term::iri(format!("http://ex.org/{evil}#{tail}")),
            ),
            Triple::new(
                Term::iri(format!("http://ex.org/{tail}")),
                Term::iri(format!("http://ex.org/p_{tail}")),
                Term::lit("witness"),
            ),
        ];
        let ttl = to_turtle(&triples);
        let mut parsed = parse_turtle(&ttl)
            .unwrap_or_else(|e| panic!("writer output must reparse: {e}\n{ttl}"));
        let mut original = triples;
        parsed.sort();
        original.sort();
        prop_assert_eq!(parsed, original);
    }
}
