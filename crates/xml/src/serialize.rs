//! Serialising document states back to XML text.

use crate::document::DocView;
use crate::escape::{escape_attr, escape_text};
use crate::parse::{ATTR_SERVICE, ATTR_TIME, ATTR_URI};
use crate::tree::{NodeId, NodeKind};

/// Options controlling XML output.
#[derive(Debug, Clone)]
pub struct XmlWriteOptions {
    /// Pretty-print with this indent string per nesting level; `None` for
    /// compact single-line output.
    pub indent: Option<String>,
    /// Emit the reserved `wl:id`/`wl:s`/`wl:t` attributes so that resource
    /// metadata round-trips through [`crate::parse_document`].
    pub include_meta: bool,
}

impl Default for XmlWriteOptions {
    fn default() -> Self {
        XmlWriteOptions {
            indent: None,
            include_meta: true,
        }
    }
}

/// Serialise the state `view` to a compact XML string (metadata included).
pub fn to_xml_string(view: &DocView<'_>) -> String {
    write_with(view, view.root(), &XmlWriteOptions::default())
}

/// Serialise with two-space indentation.
pub fn to_xml_string_pretty(view: &DocView<'_>) -> String {
    write_with(
        view,
        view.root(),
        &XmlWriteOptions {
            indent: Some("  ".into()),
            include_meta: true,
        },
    )
}

/// Serialise the subtree rooted at `node` with explicit options.
pub fn write_with(view: &DocView<'_>, node: NodeId, opts: &XmlWriteOptions) -> String {
    let mut out = String::new();
    write_node(view, node, opts, 0, &mut out);
    if opts.indent.is_some() && out.ends_with('\n') {
        out.pop();
    }
    out
}

fn write_node(
    view: &DocView<'_>,
    node: NodeId,
    opts: &XmlWriteOptions,
    depth: usize,
    out: &mut String,
) {
    let Some(n) = view.node(node) else { return };
    let pad = |out: &mut String, depth: usize| {
        if let Some(ind) = &opts.indent {
            for _ in 0..depth {
                out.push_str(ind);
            }
        }
    };
    match n.kind() {
        NodeKind::Text { value } => {
            pad(out, depth);
            escape_text(value, out);
            if opts.indent.is_some() {
                out.push('\n');
            }
        }
        NodeKind::Element { name } => {
            pad(out, depth);
            out.push('<');
            out.push_str(name);
            for (k, v) in n.attrs() {
                out.push(' ');
                out.push_str(k);
                out.push_str("=\"");
                escape_attr(v, out);
                out.push('"');
            }
            if opts.include_meta {
                if let Some(meta) = view.resource(node) {
                    out.push(' ');
                    out.push_str(ATTR_URI);
                    out.push_str("=\"");
                    escape_attr(meta.uri, out);
                    out.push('"');
                    if let Some(label) = meta.label {
                        out.push(' ');
                        out.push_str(ATTR_SERVICE);
                        out.push_str("=\"");
                        escape_attr(&label.service, out);
                        out.push('"');
                        out.push(' ');
                        out.push_str(ATTR_TIME);
                        out.push_str("=\"");
                        out.push_str(&label.time.to_string());
                        out.push('"');
                    }
                }
            }
            let mut children = view.children(node).peekable();
            if children.peek().is_none() {
                out.push_str("/>");
                if opts.indent.is_some() {
                    out.push('\n');
                }
            } else {
                out.push('>');
                if opts.indent.is_some() {
                    out.push('\n');
                }
                for c in children {
                    write_node(view, c, opts, depth + 1, out);
                }
                pad(out, depth);
                out.push_str("</");
                out.push_str(name);
                out.push('>');
                if opts.indent.is_some() {
                    out.push('\n');
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_document, CallLabel, Document};

    #[test]
    fn compact_output() {
        let mut d = Document::new("a");
        let root = d.root();
        d.set_attr(root, "k", "v<w").unwrap();
        let b = d.append_element(root, "b").unwrap();
        d.append_text(b, "x & y").unwrap();
        assert_eq!(
            to_xml_string(&d.view()),
            r#"<a k="v&lt;w"><b>x &amp; y</b></a>"#
        );
    }

    #[test]
    fn meta_round_trip() {
        let mut d = Document::new("Resource");
        let root = d.root();
        d.register_resource(root, "r1", None).unwrap();
        let t = d.append_element(root, "TextMediaUnit").unwrap();
        d.register_resource(t, "r4", Some(CallLabel::new("Normaliser", 1)))
            .unwrap();
        let xml = to_xml_string(&d.view());
        let back = parse_document(&xml).unwrap();
        let v = back.view();
        assert_eq!(v.uri(back.root()), Some("r1"));
        let tmu = v.children(back.root()).next().unwrap();
        assert_eq!(v.label(tmu), Some(&CallLabel::new("Normaliser", 1)));
    }

    #[test]
    fn serialising_an_earlier_state_omits_later_nodes() {
        let mut d = Document::new("a");
        let d0 = d.mark();
        d.append_element(d.root(), "late").unwrap();
        assert_eq!(write_with(&d.view_at(d0), d.root(), &XmlWriteOptions::default()), "<a/>");
        assert_eq!(to_xml_string(&d.view()), "<a><late/></a>");
    }

    #[test]
    fn pretty_print_indents() {
        let mut d = Document::new("a");
        d.append_element(d.root(), "b").unwrap();
        assert_eq!(to_xml_string_pretty(&d.view()), "<a>\n  <b/>\n</a>");
    }

    #[test]
    fn meta_can_be_suppressed() {
        let mut d = Document::new("a");
        d.register_resource(d.root(), "r1", None).unwrap();
        let opts = XmlWriteOptions {
            indent: None,
            include_meta: false,
        };
        assert_eq!(write_with(&d.view(), d.root(), &opts), "<a/>");
    }
}
