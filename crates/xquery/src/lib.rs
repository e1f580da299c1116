//! # weblab-xquery — FLWOR engine and mapping-rule compiler
//!
//! The paper's Mapper component (Section 6) "translates mapping rules into
//! standard XQuery expressions" so that provenance-link computation can
//! "take advantage of existing query optimization techniques". This crate
//! supplies everything that pipeline needs:
//!
//! * a FLWOR-subset engine — AST ([`Query`]), parser ([`parse_query`]),
//!   evaluator ([`evaluate`]) with eager predicate scheduling;
//! * the rule compiler ([`compile_rule`], [`compile_pattern_embeddings`])
//!   reproducing Examples 8 and 9;
//! * the ID-join optimiser ([`fuse_id_joins`]) reproducing Example 9's
//!   optimised rewriting;
//! * the compiled inference strategy ([`infer_provenance_xquery`]) that
//!   plugs into the same trace/rule-set inputs as `weblab_prov`'s native
//!   engine and returns identical links, which the test suites check on
//!   random workflows and against the platform's graphs.
//!
//! ```
//! use weblab_prov::MappingRule;
//! use weblab_xquery::{compile_rule, fuse_id_joins};
//!
//! let rule = MappingRule::parse(
//!     "//TextMediaUnit[$x := @id]/TextContent => \
//!      //TextMediaUnit[$x := @id]/Annotation[Language]",
//! ).unwrap();
//! let query = compile_rule(&rule, Some(("LanguageExtractor", 2))).unwrap();
//! let optimised = fuse_id_joins(&query);
//! // the optimiser eliminated the second //TextMediaUnit scan:
//! assert!(optimised.for_clauses.len() < query.for_clauses.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
mod compile;
mod eval;
mod optimize;
mod parser;
mod strategy;

pub use ast::{Cond, Constructor, ConstructorItem, Expr, ForClause, LetClause, Path, PathStart, Query};
pub use compile::{compile_pattern_embeddings, compile_rule, CallConstraint, CompileError};
pub use eval::{evaluate, evaluate_with, Binding, QueryResult, XqEvalOptions};
pub use optimize::fuse_id_joins;
pub use parser::{parse_query, QueryParseError};
pub use strategy::{infer_provenance_xquery, XQueryStrategyOptions};
