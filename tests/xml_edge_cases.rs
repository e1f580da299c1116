//! Edge cases for the XML substrate: deep nesting, unicode, entity-heavy
//! content, metadata suppression, and state-view corner cases.

use weblab::xml::{
    parse_document, to_xml_string, write_with, CallLabel, Document, Error, XmlWriteOptions,
};

#[test]
fn deeply_nested_documents_round_trip() {
    // The parser and serialiser are recursive-descent; ~300 levels is well
    // within the default test-thread stack and far beyond real WebLab
    // payloads (the paper's documents nest a handful of levels).
    const DEPTH: usize = 300;
    let mut doc = Document::new("d0");
    let mut cur = doc.root();
    for i in 1..DEPTH {
        cur = doc.append_element(cur, format!("d{i}")).unwrap();
    }
    doc.append_text(cur, "bottom").unwrap();
    let xml = to_xml_string(&doc.view());
    let back = parse_document(&xml).unwrap();
    assert_eq!(back.node_count(), doc.node_count());
    assert_eq!(to_xml_string(&back.view()), xml);
}

#[test]
fn wide_documents_round_trip() {
    let mut doc = Document::new("root");
    for i in 0..5000 {
        let c = doc.append_element(doc.root(), "item").unwrap();
        doc.set_attr(c, "i", i.to_string()).unwrap();
    }
    let xml = to_xml_string(&doc.view());
    let back = parse_document(&xml).unwrap();
    assert_eq!(back.view().children(back.root()).len(), 5000);
}

#[test]
fn unicode_content_and_attributes() {
    let mut doc = Document::new("Ресурс");
    let root = doc.root();
    doc.set_attr(root, "λ", "提供-数据 🔗").unwrap();
    doc.append_text(root, "mixé 内容 with émojis 🎛️").unwrap();
    doc.register_resource(root, "weblab://docs/ünïcode", None)
        .unwrap();
    let xml = to_xml_string(&doc.view());
    let back = parse_document(&xml).unwrap();
    assert_eq!(back.view().attr(back.root(), "λ"), Some("提供-数据 🔗"));
    assert_eq!(
        back.view().uri(back.root()),
        Some("weblab://docs/ünïcode")
    );
    assert_eq!(to_xml_string(&back.view()), xml);
}

#[test]
fn entity_heavy_text_round_trips() {
    let nasty = r#"a<b&c>"d'e &amp; already-escaped"#;
    let mut doc = Document::new("t");
    doc.append_text(doc.root(), nasty).unwrap();
    doc.set_attr(doc.root(), "v", nasty).unwrap();
    let xml = to_xml_string(&doc.view());
    let back = parse_document(&xml).unwrap();
    assert_eq!(back.view().text_content(back.root()), nasty);
    assert_eq!(back.view().attr(back.root(), "v"), Some(nasty));
}

#[test]
fn metadata_suppression_strips_all_wl_attrs() {
    let mut doc = Document::new("Resource");
    let root = doc.root();
    doc.register_resource(root, "r1", Some(CallLabel::new("S", 3)))
        .unwrap();
    let opts = XmlWriteOptions {
        indent: None,
        include_meta: false,
    };
    let xml = write_with(&doc.view(), root, &opts);
    assert!(!xml.contains("wl:"));
    // with metadata, all three attributes appear
    let with = to_xml_string(&doc.view());
    for a in ["wl:id", "wl:s", "wl:t"] {
        assert!(with.contains(a), "{with}");
    }
}

#[test]
fn empty_and_minimal_documents() {
    let doc = parse_document("<a/>").unwrap();
    assert_eq!(doc.node_count(), 1);
    assert_eq!(to_xml_string(&doc.view()), "<a/>");
    let doc = parse_document("  <a></a>  ").unwrap();
    assert_eq!(to_xml_string(&doc.view()), "<a/>");
}

#[test]
fn serialising_old_states_ignores_later_registrations() {
    let mut doc = Document::new("Resource");
    let root = doc.root();
    let n = doc.append_element(root, "X").unwrap();
    let early = doc.mark();
    doc.register_resource(n, "rx", Some(CallLabel::new("S", 1)))
        .unwrap();
    let early_xml = write_with(&doc.view_at(early), root, &XmlWriteOptions::default());
    assert!(!early_xml.contains("wl:id"));
    let final_xml = to_xml_string(&doc.view());
    assert!(final_xml.contains("wl:id=\"rx\""));
}

#[test]
fn materialized_state_is_self_consistent() {
    let mut doc = Document::new("Resource");
    let root = doc.root();
    let a = doc.append_element(root, "A").unwrap();
    doc.register_resource(a, "ra", None).unwrap();
    let half = doc.mark();
    let b = doc.append_element(a, "B").unwrap();
    doc.register_resource(b, "rb", None).unwrap();

    let snap = doc.materialize_state(half);
    assert_eq!(snap.node_count(), 2);
    assert_eq!(snap.node_by_uri("ra"), Some(a));
    assert_eq!(snap.node_by_uri("rb"), None);
    // snapshot serialises identically to the live view of the same state
    assert_eq!(
        to_xml_string(&snap.view()),
        write_with(&doc.view_at(half), root, &XmlWriteOptions::default())
    );
}

/// The byte offset `parse_document` reports `input` malformed at.
fn parse_error_offset(input: &str) -> usize {
    match parse_document(input) {
        Err(Error::Parse { offset, .. }) => offset,
        other => panic!("{input}: expected a parse error, got {other:?}"),
    }
}

#[test]
fn duplicate_attributes_are_rejected_at_the_duplicate() {
    // XML 1.0 Unique Att Spec: no attribute name twice in one tag, the
    // reserved metadata attributes included
    for (input, duplicate) in [
        (r#"<a k="1" k="2"/>"#, r#"k="2""#),
        (r#"<a wl:id="r1" wl:id="r2"/>"#, r#"wl:id="r2""#),
        (
            r#"<a wl:id="r" wl:s="S" wl:t="1" wl:s="T"/>"#,
            r#"wl:s="T""#,
        ),
        (
            r#"<a wl:id="r" wl:s="S" wl:t="1" wl:t="2"/>"#,
            r#"wl:t="2""#,
        ),
        (r#"<a><b x='1' y='2' x='3'></b></a>"#, "x='3'"),
    ] {
        assert_eq!(
            parse_error_offset(input),
            input.find(duplicate).unwrap(),
            "{input}"
        );
    }
    // the same name on two elements is fine
    let doc = parse_document(r#"<a k="1"><b k="2"/></a>"#).unwrap();
    assert_eq!(doc.view().attr(doc.root(), "k"), Some("1"));
}

#[test]
fn half_labels_and_labels_without_a_uri_are_rejected() {
    for (input, at) in [
        // half a label on an identified node
        (r#"<a wl:id="r1" wl:s="S"/>"#, "wl:s"),
        (r#"<a wl:id="r1" wl:t="3"/>"#, "wl:t"),
        // a label without a URI, reported at its first half
        (r#"<a wl:s="S" wl:t="3"/>"#, "wl:s"),
        (r#"<a><b wl:t="3" wl:s="S">x</b></a>"#, "wl:t"),
        (r#"<a><b wl:s="S"/></a>"#, "wl:s"),
    ] {
        assert_eq!(
            parse_error_offset(input),
            input.find(at).unwrap(),
            "{input}"
        );
    }
    // a whole label parses in any attribute order and re-serialises
    // canonically
    let doc = parse_document(r#"<a wl:t="2" wl:s="S" wl:id="r"/>"#).unwrap();
    assert_eq!(doc.view().label(doc.root()), Some(&CallLabel::new("S", 2)));
    assert_eq!(
        to_xml_string(&doc.view()),
        r#"<a wl:id="r" wl:s="S" wl:t="2"/>"#
    );
}

#[test]
fn an_invalid_time_is_reported_at_its_attribute() {
    let input = r#"<a><b wl:id="r1" wl:s="S" wl:t="notanumber"/></a>"#;
    assert_eq!(parse_error_offset(input), input.find("wl:t").unwrap());
}
