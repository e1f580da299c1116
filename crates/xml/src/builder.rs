//! Ergonomic construction of XML fragments.
//!
//! Services in the workflow crate assemble their output fragments with this
//! builder rather than issuing raw arena calls, which keeps fragment shape
//! declarations readable:
//!
//! ```
//! use weblab_xml::{Document, ElementBuilder};
//!
//! let mut doc = Document::new("Resource");
//! let root = doc.root();
//! let tmu = ElementBuilder::new("TextMediaUnit")
//!     .attr("lang", "en")
//!     .child(ElementBuilder::new("TextContent").text("normalised text"))
//!     .build(&mut doc, root)
//!     .unwrap();
//! assert_eq!(doc.view().name(tmu), Some("TextMediaUnit"));
//! ```

use crate::document::Document;
use crate::error::Result;
use crate::tree::NodeId;

/// Declarative description of an element subtree, applied to a document in
/// one [`ElementBuilder::build`] call.
#[derive(Debug, Clone)]
pub struct ElementBuilder {
    name: String,
    attrs: Vec<(String, String)>,
    children: Vec<Part>,
}

#[derive(Debug, Clone)]
enum Part {
    Element(ElementBuilder),
    Text(String),
}

impl ElementBuilder {
    /// Start an element with the given tag name.
    pub fn new(name: impl Into<String>) -> Self {
        ElementBuilder {
            name: name.into(),
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Add an attribute.
    pub fn attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.attrs.push((name.into(), value.into()));
        self
    }

    /// Add a child element.
    pub fn child(mut self, child: ElementBuilder) -> Self {
        self.children.push(Part::Element(child));
        self
    }

    /// Add a text child.
    pub fn text(mut self, value: impl Into<String>) -> Self {
        self.children.push(Part::Text(value.into()));
        self
    }

    /// Materialise the subtree under `parent`, returning the new root node.
    pub fn build(&self, doc: &mut Document, parent: NodeId) -> Result<NodeId> {
        let node = doc.append_element(parent, &self.name)?;
        for (k, v) in &self.attrs {
            doc.set_attr(node, k, v)?;
        }
        for part in &self.children {
            match part {
                Part::Element(b) => {
                    b.build(doc, node)?;
                }
                Part::Text(t) => {
                    doc.append_text(node, t)?;
                }
            }
        }
        Ok(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_xml_string;

    #[test]
    fn builds_nested_structure() {
        let mut doc = Document::new("R");
        let root = doc.root();
        ElementBuilder::new("A")
            .attr("x", "1")
            .child(ElementBuilder::new("B").text("hi"))
            .text("tail")
            .build(&mut doc, root)
            .unwrap();
        assert_eq!(
            to_xml_string(&doc.view()),
            r#"<R><A x="1"><B>hi</B>tail</A></R>"#
        );
    }

    #[test]
    fn builder_is_reusable() {
        let b = ElementBuilder::new("Item").attr("k", "v");
        let mut doc = Document::new("R");
        let root = doc.root();
        let first = b.build(&mut doc, root).unwrap();
        let second = b.build(&mut doc, root).unwrap();
        assert_ne!(first, second);
        assert_eq!(doc.view().children(root).len(), 2);
    }
}
