//! A small XML parser for WebLab documents.
//!
//! Supports the fragment of XML that WebLab payloads use: elements,
//! attributes, character data, CDATA sections, comments, processing
//! instructions (skipped), and the predefined/numeric entity references.
//! Doctypes and namespaces-as-semantics are out of scope; namespace
//! prefixes are kept verbatim in names.
//!
//! The parser writes straight into the document's arena: names are
//! interned from slices of the input, and text and attribute values are
//! unescaped into the pool, with no per-tag or per-text allocation.
//!
//! Resource metadata round-trips through three reserved attributes:
//! `wl:id` (URI), `wl:s` (producing service) and `wl:t` (timestamp).
//! On parse they are consumed into [`crate::ResourceMeta`]; the serialiser
//! re-emits them. This mirrors the paper's assumption that "each resource
//! node has two attributes `@t` and `@s` defining its service call label".
//! A label is both halves on an identified node: `wl:s` without `wl:t`
//! (or the reverse), or either without `wl:id`, is a parse error, as is an
//! attribute given twice (XML 1.0's Unique Att Spec).

use std::borrow::Cow;

use crate::document::{CallLabel, Document};
use crate::error::{Error, Result};
use crate::escape::unescape;
use crate::tree::NodeId;

/// Reserved attribute carrying the resource URI.
pub(crate) const ATTR_URI: &str = "wl:id";
/// Reserved attribute carrying the producing service name.
pub(crate) const ATTR_SERVICE: &str = "wl:s";
/// Reserved attribute carrying the producing call timestamp.
pub(crate) const ATTR_TIME: &str = "wl:t";

/// Parse a complete document from XML text.
pub fn parse_document(input: &str) -> Result<Document> {
    let mut p = Parser::new(input);
    p.skip_prolog();
    let name = p.open_tag_name()?;
    let mut doc = Document::new(name);
    let root = doc.root();
    if !p.parse_attrs(&mut doc, root)? {
        p.parse_children(&mut doc, root)?;
    }
    p.skip_misc();
    if !p.at_end() {
        return Err(p.err("trailing content after document element"));
    }
    doc.shrink_to_fit();
    Ok(doc)
}

/// Parse an XML fragment (one element) and attach it under `parent` of an
/// existing document. Returns the fragment root.
pub fn parse_fragment_into(doc: &mut Document, parent: NodeId, input: &str) -> Result<NodeId> {
    let mut p = Parser::new(input);
    p.skip_misc();
    let name = p.open_tag_name()?;
    let node = doc.append_element(parent, name)?;
    if !p.parse_attrs(doc, node)? {
        p.parse_children(doc, node)?;
    }
    p.skip_misc();
    if !p.at_end() {
        return Err(p.err("trailing content after fragment"));
    }
    Ok(node)
}

/// A reserved attribute's value and the offset of its name.
type Reserved<T> = Option<(T, usize)>;

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser { input, pos: 0 }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn at_end(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn err(&self, message: impl Into<String>) -> Error {
        err_at(self.pos, message)
    }

    fn skip_ws(&mut self) {
        let rest = self.rest();
        let trimmed = rest.trim_start();
        self.pos += rest.len() - trimmed.len();
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.rest().starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn skip_until(&mut self, end: &str, what: &str) -> Result<()> {
        match self.rest().find(end) {
            Some(i) => {
                self.pos += i + end.len();
                Ok(())
            }
            None => Err(self.err(format!("unterminated {what}"))),
        }
    }

    /// Skip XML declaration, doctype, comments and PIs before the root.
    fn skip_prolog(&mut self) {
        loop {
            self.skip_ws();
            if self.rest().starts_with("<?") {
                if self.skip_until("?>", "processing instruction").is_err() {
                    return;
                }
            } else if self.rest().starts_with("<!--") {
                if self.skip_until("-->", "comment").is_err() {
                    return;
                }
            } else if self.rest().starts_with("<!DOCTYPE") {
                if self.skip_until(">", "doctype").is_err() {
                    return;
                }
            } else {
                return;
            }
        }
    }

    /// Skip whitespace/comments/PIs (used after the root element).
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            if self.rest().starts_with("<!--") {
                if self.skip_until("-->", "comment").is_err() {
                    return;
                }
            } else if self.rest().starts_with("<?") {
                if self.skip_until("?>", "processing instruction").is_err() {
                    return;
                }
            } else {
                return;
            }
        }
    }

    fn parse_name(&mut self) -> Result<&'a str> {
        let rest = self.rest();
        let end = rest
            .find(|c: char| !is_name_char(c))
            .unwrap_or(rest.len());
        if end == 0 {
            return Err(self.err("expected a name"));
        }
        self.pos += end;
        Ok(&rest[..end])
    }

    /// Read `<name` of an open tag. Assumes the cursor is on `<`.
    fn open_tag_name(&mut self) -> Result<&'a str> {
        if !self.eat("<") {
            return Err(self.err("expected '<'"));
        }
        self.parse_name()
    }

    /// Read the attributes of the open tag whose name was just read into
    /// the element `node`, through its closing `>` or `/>`; `true` if the
    /// tag closes itself.
    fn parse_attrs(&mut self, doc: &mut Document, node: NodeId) -> Result<bool> {
        let mut uri: Reserved<Cow<'a, str>> = None;
        let mut service: Reserved<Cow<'a, str>> = None;
        let mut time: Reserved<u64> = None;
        let self_closing = loop {
            self.skip_ws();
            if self.eat("/>") {
                break true;
            }
            if self.eat(">") {
                break false;
            }
            let at = self.pos;
            let name = self.parse_name()?;
            self.skip_ws();
            if !self.eat("=") {
                return Err(self.err("expected '=' in attribute"));
            }
            self.skip_ws();
            let quote = if self.eat("\"") {
                '"'
            } else if self.eat("'") {
                '\''
            } else {
                return Err(self.err("expected quoted attribute value"));
            };
            let rest = self.rest();
            let end = rest
                .find(quote)
                .ok_or_else(|| self.err("unterminated attribute value"))?;
            let raw = &rest[..end];
            self.pos += end + 1;
            let duplicate = match name {
                ATTR_URI => uri.is_some(),
                ATTR_SERVICE => service.is_some(),
                ATTR_TIME => time.is_some(),
                _ => doc.view().attr(node, name).is_some(),
            };
            if duplicate {
                return Err(err_at(at, format!("duplicate attribute {name:?}")));
            }
            let malformed = || self.err("malformed entity in attribute");
            match name {
                ATTR_URI => uri = Some((unescape(raw).ok_or_else(malformed)?, at)),
                ATTR_SERVICE => service = Some((unescape(raw).ok_or_else(malformed)?, at)),
                ATTR_TIME => {
                    let v = unescape(raw).ok_or_else(malformed)?;
                    let t = v
                        .parse()
                        .map_err(|_| err_at(at, format!("invalid {ATTR_TIME} value {:?}", &*v)))?;
                    time = Some((t, at));
                }
                _ => {
                    if !doc.push_attr_escaped(node, name, raw) {
                        return Err(malformed());
                    }
                }
            }
        };
        let label = match (service, time) {
            (Some((s, s_at)), Some((t, t_at))) => Some((CallLabel::new(s, t), s_at.min(t_at))),
            (Some((_, at)), None) => {
                return Err(err_at(at, format!("{ATTR_SERVICE} without {ATTR_TIME}")))
            }
            (None, Some((_, at))) => {
                return Err(err_at(at, format!("{ATTR_TIME} without {ATTR_SERVICE}")))
            }
            (None, None) => None,
        };
        match (uri, label) {
            (Some((uri, _)), label) => doc.register_resource(node, uri, label.map(|(l, _)| l))?,
            (None, Some((_, at))) => {
                return Err(err_at(
                    at,
                    format!("call label ({ATTR_SERVICE}, {ATTR_TIME}) without {ATTR_URI}"),
                ))
            }
            (None, None) => {}
        }
        Ok(self_closing)
    }

    /// Parse the children of an element until its matching close tag.
    /// Character data goes straight into the pool; a run of it becomes one
    /// text node when the next tag starts, unless it is whitespace only.
    fn parse_children(&mut self, doc: &mut Document, parent: NodeId) -> Result<()> {
        let mut text = doc.pool_len();
        loop {
            if self.at_end() {
                return Err(self.err("unexpected end of input inside element"));
            }
            if self.rest().starts_with("</") {
                doc.finish_text(parent, text)?;
                self.pos += 2;
                let name = self.parse_name()?;
                self.skip_ws();
                if !self.eat(">") {
                    return Err(self.err("expected '>' in close tag"));
                }
                let expected = doc.view().name(parent).unwrap_or_default();
                if name != expected {
                    return Err(self.err(format!(
                        "mismatched close tag: expected </{expected}>, found </{name}>"
                    )));
                }
                return Ok(());
            }
            if self.rest().starts_with("<!--") {
                self.skip_until("-->", "comment")?;
                continue;
            }
            if self.rest().starts_with("<![CDATA[") {
                self.pos += "<![CDATA[".len();
                let rest = self.rest();
                let end = rest
                    .find("]]>")
                    .ok_or_else(|| self.err("unterminated CDATA"))?;
                doc.pool_push(&rest[..end]);
                self.pos += end + 3;
                continue;
            }
            if self.rest().starts_with("<?") {
                self.skip_until("?>", "processing instruction")?;
                continue;
            }
            if self.rest().starts_with('<') {
                doc.finish_text(parent, text)?;
                let name = self.open_tag_name()?;
                let node = doc.append_element(parent, name)?;
                if !self.parse_attrs(doc, node)? {
                    self.parse_children(doc, node)?;
                }
                text = doc.pool_len();
                continue;
            }
            // character data
            let rest = self.rest();
            let end = rest.find('<').unwrap_or(rest.len());
            let raw = &rest[..end];
            self.pos += end;
            if !doc.pool_push_escaped(raw) {
                return Err(self.err("malformed entity in character data"));
            }
        }
    }
}

fn err_at(offset: usize, message: impl Into<String>) -> Error {
    Error::Parse {
        offset,
        message: message.into(),
    }
}

fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_elements_and_text() {
        let doc = parse_document(
            r#"<?xml version="1.0"?>
               <Resource><MetaData k="v"/><NativeContent>hello &amp; bye</NativeContent></Resource>"#,
        )
        .unwrap();
        let v = doc.view();
        let root = doc.root();
        assert_eq!(v.name(root), Some("Resource"));
        let kids: Vec<_> = v.children(root).collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(v.attr(kids[0], "k"), Some("v"));
        assert_eq!(v.text_content(kids[1]), "hello & bye");
    }

    #[test]
    fn reserved_attrs_become_resource_meta() {
        let doc = parse_document(
            r#"<Resource wl:id="r1"><TextMediaUnit wl:id="r4" wl:s="Normaliser" wl:t="1"/></Resource>"#,
        )
        .unwrap();
        let v = doc.view();
        let root = doc.root();
        assert_eq!(v.uri(root), Some("r1"));
        assert_eq!(v.label(root), None);
        let tmu = v.children(root).next().unwrap();
        assert_eq!(v.uri(tmu), Some("r4"));
        assert_eq!(v.label(tmu), Some(&CallLabel::new("Normaliser", 1)));
    }

    #[test]
    fn cdata_and_comments() {
        let doc = parse_document(
            "<a><!-- note --><![CDATA[<raw>&stuff]]></a>",
        )
        .unwrap();
        let v = doc.view();
        assert_eq!(v.text_content(doc.root()), "<raw>&stuff");
    }

    #[test]
    fn mismatched_close_tag_is_an_error() {
        let e = parse_document("<a><b></a></a>").unwrap_err();
        assert!(matches!(e, Error::Parse { .. }));
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        assert!(parse_document("<a/>junk").is_err());
    }

    #[test]
    fn fragment_parse_attaches_under_parent() {
        let mut doc = parse_document("<Resource/>").unwrap();
        let root = doc.root();
        let frag =
            parse_fragment_into(&mut doc, root, r#"<Annotation><Language>fr</Language></Annotation>"#)
                .unwrap();
        let v = doc.view();
        assert_eq!(v.name(frag), Some("Annotation"));
        assert_eq!(v.parent(frag), Some(root));
        assert_eq!(v.text_content(frag), "fr");
    }

    #[test]
    fn whitespace_only_text_is_dropped() {
        let doc = parse_document("<a>\n  <b/>\n</a>").unwrap();
        assert_eq!(doc.view().children(doc.root()).len(), 1);
    }

    #[test]
    fn single_quoted_attributes() {
        let doc = parse_document("<a k='v &#65;'/>").unwrap();
        assert_eq!(doc.view().attr(doc.root(), "k"), Some("v A"));
    }

    #[test]
    fn invalid_time_attribute_is_an_error() {
        assert!(parse_document(r#"<a wl:id="r1" wl:s="S" wl:t="notanumber"/>"#).is_err());
    }
}
