//! # weblab-xml — XML tree substrate for WebLab PROV
//!
//! This crate implements the data substrate of the WebLab PROV provenance
//! model (Amann et al., EDBT 2013): *WebLab documents*, i.e. node-labelled
//! ordered trees over an append-only arena, where a subset of nodes — the
//! *resource nodes* — carry a URI and, optionally, a *service-call label*
//! `(service, timestamp)` recording which black-box service call produced
//! them.
//!
//! The central invariant of the WebLab model is **append semantics**: every
//! service call extends the document with new XML fragments and never deletes
//! or modifies existing content. The arena design exploits this directly:
//!
//! * nodes are allocated with monotonically increasing [`NodeId`]s,
//! * children are only ever appended, so within any parent the child ids are
//!   strictly increasing,
//! * resource registrations (URI + label) are recorded in an append-only log.
//!
//! A *document state* `d_i` (Definition 1/2 of the paper) is therefore fully
//! determined by a [`StateMark`] — a pair of high-water marks into the node
//! arena and the resource log — and can be *viewed* without copying through
//! [`DocView`]. The containment relation `d_i ⊑_uri d_j` of the paper holds
//! by construction between the views of one document, and is also provided
//! as a structural check between independent documents in the containment
//! module.
//!
//! The crate additionally provides:
//!
//! * a small standalone XML parser/serialiser for loading corpora and
//!   round-tripping documents,
//! * the append-only tree diff `d' \ d` used by the platform *Recorder*,
//!   returning the bag of new rooted fragments,
//! * navigation iterators (descendants, ancestors, subtree views).
//!
//! # Example
//!
//! ```
//! use weblab_xml::{Document, CallLabel};
//!
//! // d0: <Resource><MetaData/><NativeContent>…</NativeContent></Resource>
//! let mut doc = Document::new("Resource");
//! let root = doc.root();
//! doc.register_resource(root, "weblab://doc/1", None).unwrap();
//! let meta = doc.append_element(root, "MetaData").unwrap();
//! let native = doc.append_element(root, "NativeContent").unwrap();
//! doc.append_text(native, "raw bytes").unwrap();
//! let d0 = doc.mark();
//!
//! // a service call at time 1 appends a normalised version
//! let tmu = doc.append_element(root, "TextMediaUnit").unwrap();
//! doc.register_resource(tmu, "weblab://doc/1#4", Some(CallLabel::new("Normaliser", 1)))
//!     .unwrap();
//! let d1 = doc.mark();
//!
//! assert!(doc.view_at(d0).is_contained_in(&doc.view_at(d1)));
//! assert_eq!(doc.new_fragments_since(d0), vec![tmu]);
//! let _ = meta;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod contain;
mod diff;
mod document;
mod error;
mod escape;
mod iter;
mod parse;
mod serialize;
mod table;
mod tree;

pub use builder::ElementBuilder;
pub use contain::{containment_witness, is_contained, ContainmentWitness};
pub use diff::{diff_documents, DiffResult};
pub use document::{CallLabel, DocView, Document, ResourceMeta, StateMark, Timestamp};
pub use error::{Error, Result};
pub use iter::{Ancestors, Children, Descendants};
pub use parse::{parse_document, parse_fragment_into};
pub use serialize::{to_xml_string, to_xml_string_pretty, write_with, XmlWriteOptions};
pub use table::IdIndex;
pub use tree::{Attrs, Node, NodeId, NodeKind, Symbol};
