//! # weblab-rdf — PROV-O triple store, Turtle, and SPARQL-lite
//!
//! The metadata substrate of the WebLab PROV architecture (Figure 5 of the
//! paper): in the original platform, execution traces and provenance
//! graphs live in Sesame RDF repositories queried through SPARQL. This
//! crate provides the equivalent building blocks:
//!
//! * [`TripleStore`] — a dictionary-encoded columnar store: terms are
//!   interned to dense `u32` ids and triples live in sorted
//!   `Vec<[u32; 3]>` SPO/POS/OSP permutation indexes with binary-search
//!   range lookups;
//! * [`export_prov`] / [`export_prov_into`] — provenance graph → PROV-O
//!   (entities, activities, agents, `wasDerivedFrom`/`used`/
//!   `wasGeneratedBy` edges);
//! * [`to_turtle`] / [`parse_turtle`] — Turtle serialisation;
//! * [`parse_select`] / [`select`] — a SPARQL SELECT subset (BGP +
//!   FILTER + DISTINCT) evaluated in two stages: a cardinality-driven
//!   join planner, then streaming id-space joins that decode only the
//!   final projected solutions;
//! * [`QueryEngine`] — a shared store plus a query-text → plan cache for
//!   long-lived callers (one engine per published epoch).
//!
//! ```
//! use weblab_prov::{infer_provenance, EngineOptions, paper_example};
//! use weblab_rdf::{export_prov_into, parse_select, select, TripleStore, vocab};
//!
//! let (doc, trace, rules) = paper_example::build();
//! let graph = infer_provenance(&doc, &trace, &rules, &EngineOptions::default());
//! let mut store = TripleStore::new();
//! export_prov_into(&graph, &mut store);
//!
//! // "which resources did the Translator call use?"
//! let q = parse_select(&format!(
//!     "PREFIX prov: <{}> SELECT ?u WHERE {{ <{}> prov:used ?u . }}",
//!     vocab::PROV_NS, vocab::activity_iri("Translator", 3))).unwrap();
//! let solutions = select(&store, &q);
//! assert_eq!(solutions.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dict;
mod export;
mod plan;
mod provxml;
mod sparql;
mod store;
mod term;
mod turtle;
pub mod vocab;

pub use export::{export_prov, export_prov_into, link_triples, source_triples};
pub use plan::QueryEngine;
pub use provxml::{derivations_from_prov_xml, export_prov_xml};
pub use sparql::{parse_select, select, Filter, PatTerm, SelectQuery, Solution, SparqlError, TriplePattern};
pub use store::{TermPattern, TripleStore};
pub use term::{Term, Triple};
pub use turtle::{parse_turtle, to_turtle, TurtleError};
