//! Test support shared by the serve and parser suites.
//!
//! [`render_answer`], [`success_json`] and [`error_json`] are the tree
//! renderer the serve layer used before it wrote responses straight into
//! its output buffer: every answer is built as a [`Json`] value and then
//! serialised, here by [`to_wire`], the character-at-a-time serialiser
//! `Json`'s `Display` used to be. Together they are the **oracle** for the
//! direct writer: `tests/serve_render.rs` asserts that served and rendered
//! bytes equal the oracle's for every answer kind, in single and batch
//! replies alike. [`AnyJson`] generates random values for the codec's
//! property tests. [`turtle_oracle`] keeps the Turtle writer that
//! `weblab_rdf::to_turtle` replaced, as the byte oracle of
//! `tests/export_differential.rs`. [`edgewalk`] keeps the edge-list query
//! walks as the oracle of the reachability index.

#![allow(dead_code)]

pub mod edgewalk;
pub mod turtle_oracle;

use std::fmt::Write as _;
use std::sync::Arc;

use proptest::prelude::*;
use proptest::rng::SplitMix64;
use weblab::error::WebLabError;
use weblab::json::Json;
use weblab::platform::{Mapper, Platform, QueryAnswer, PROTOCOL_VERSION};
use weblab::prov::format_micro;
use weblab::workflow::services::{
    self, EntityExtractor, KeywordExtractor, LanguageExtractor, Normaliser, Summariser, Tokeniser,
};
use weblab::workflow::Service;

/// A platform with the built-in text services registered under their
/// default mapping rules — the same registration path `weblab serve` uses.
pub fn serve_platform() -> Arc<Platform> {
    let rules = services::default_rules();
    let platform = Platform::new(Mapper::native());
    let builtins: Vec<Box<dyn Service>> = vec![
        Box::new(Normaliser),
        Box::new(LanguageExtractor),
        Box::new(Tokeniser),
        Box::new(EntityExtractor),
        Box::new(KeywordExtractor),
        Box::new(Summariser),
    ];
    for svc in builtins {
        let texts: Vec<String> = rules
            .rules_for(svc.name())
            .iter()
            .map(|r| r.to_string())
            .collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        platform.register_service(Arc::from(svc), &refs).unwrap();
    }
    Arc::new(platform)
}

/// A success response object:
/// `{"id"?,"ok":true,"v":2,"epoch"?,"result":…}`.
pub fn success_json(epoch: Option<u64>, result: Json, id: Option<&Json>) -> Json {
    let mut pairs = Vec::with_capacity(5);
    if let Some(id) = id {
        pairs.push(("id", id.clone()));
    }
    pairs.push(("ok", Json::Bool(true)));
    pairs.push(("v", Json::num(PROTOCOL_VERSION)));
    if let Some(e) = epoch {
        pairs.push(("epoch", Json::num(e)));
    }
    pairs.push(("result", result));
    Json::obj(pairs)
}

/// An error response object:
/// `{"id"?,"ok":false,"v":2,"epoch"?,"code":…,"error":…}`.
pub fn error_json(e: &WebLabError, id: Option<&Json>, epoch: Option<u64>) -> Json {
    let mut pairs = Vec::with_capacity(6);
    if let Some(id) = id {
        pairs.push(("id", id.clone()));
    }
    pairs.push(("ok", Json::Bool(false)));
    pairs.push(("v", Json::num(PROTOCOL_VERSION)));
    if let Some(ep) = epoch {
        pairs.push(("epoch", Json::num(ep)));
    }
    pairs.push(("code", Json::str(e.code())));
    pairs.push(("error", Json::str(e.to_string())));
    Json::obj(pairs)
}

/// A [`QueryAnswer`] as a protocol [`Json`] tree.
pub fn render_answer(answer: &QueryAnswer) -> Json {
    match answer {
        QueryAnswer::Why(w) => Json::obj(vec![
            ("root", Json::str(w.root.as_str())),
            (
                "resources",
                Json::Arr(w.resources.iter().map(|r| Json::str(r.as_str())).collect()),
            ),
            (
                "links",
                Json::Arr(
                    w.links
                        .iter()
                        .map(|l| {
                            Json::obj(vec![
                                ("from", Json::str(l.from_uri.as_str())),
                                ("to", Json::str(l.to_uri.as_str())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "calls",
                Json::Arr(w.calls.iter().map(|c| Json::str(c.to_string())).collect()),
            ),
        ]),
        QueryAnswer::Lineage(rows) => Json::Arr(
            rows.iter()
                .map(|(uri, depth)| {
                    Json::Arr(vec![Json::str(uri.as_str()), Json::num(*depth as u64)])
                })
                .collect(),
        ),
        QueryAnswer::ImpactedBy(uris) | QueryAnswer::CommonOrigins(uris) => {
            Json::Arr(uris.iter().map(|u| Json::str(u.as_str())).collect())
        }
        QueryAnswer::Solutions(solutions) => Json::Arr(
            solutions
                .iter()
                .map(|sol| {
                    Json::Obj(
                        sol.iter()
                            .map(|(var, term)| (var.clone(), Json::str(term.to_string())))
                            .collect(),
                    )
                })
                .collect(),
        ),
        QueryAnswer::Ranked(entries) => Json::Arr(
            entries
                .iter()
                .map(|e| {
                    Json::obj(vec![
                        ("uri", Json::str(e.uri.as_str())),
                        ("score", Json::str(format_micro(e.score_micro))),
                        ("hop", Json::num(e.hop as u64)),
                    ])
                })
                .collect(),
        ),
        QueryAnswer::Summary(s) => {
            let services: Vec<Json> = s
                .services
                .iter()
                .map(|svc| {
                    Json::obj(vec![
                        ("service", Json::str(svc.service.as_str())),
                        ("resources", Json::num(svc.resources)),
                        ("influence", Json::num(svc.influence)),
                        ("origins", Json::num(svc.origins)),
                    ])
                })
                .collect();
            let clusters: Vec<Json> = s
                .clusters
                .iter()
                .map(|c| {
                    Json::obj(vec![
                        ("root", Json::str(c.root.as_str())),
                        ("size", Json::num(c.size)),
                    ])
                })
                .collect();
            let mut pairs = vec![
                ("resources", Json::num(s.resources)),
                ("edges", Json::num(s.edges)),
                ("services", Json::Arr(services)),
                ("clusters", Json::Arr(clusters)),
            ];
            if let Some(b) = &s.blast {
                pairs.push((
                    "blast",
                    Json::obj(vec![
                        ("uri", Json::str(b.uri.as_str())),
                        ("impacted", Json::num(b.impacted)),
                        ("origins", Json::num(b.origins)),
                    ]),
                ));
            }
            Json::obj(pairs)
        }
    }
}

/// Serialise `v` one character at a time, independently of the codec
/// under test (non-finite numbers as `null`, like the codec).
pub fn to_wire(v: &Json) -> String {
    let mut out = String::new();
    wire(&mut out, v);
    out
}

fn wire(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Json::Num(n) if !n.is_finite() => out.push_str("null"),
        Json::Num(n) if n.fract() == 0.0 && n.abs() < 9007199254740992.0 => {
            let _ = write!(out, "{}", *n as i64);
        }
        Json::Num(n) => {
            let _ = write!(out, "{n}");
        }
        Json::Str(s) => wire_str(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                wire(out, item);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                wire_str(out, k);
                out.push(':');
                wire(out, v);
            }
            out.push('}');
        }
    }
}

fn wire_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Characters the codec treats specially, mixed into random strings far
/// more often than uniform sampling would draw them.
const SPECIALS: [char; 14] = [
    '"', '\\', '/', '\n', '\t', '\r', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}', 'é', '\u{2028}',
    '\u{ffff}', '🎉',
];

/// A random string: arbitrary Unicode scalars, a third of them drawn from
/// [`SPECIALS`].
pub fn any_string(rng: &mut SplitMix64) -> String {
    (0..rng.below(12))
        .map(|_| {
            if rng.below(3) == 0 {
                SPECIALS[rng.below(SPECIALS.len() as u64) as usize]
            } else {
                prop::char::any().generate(rng)
            }
        })
        .collect()
}

/// A random finite number: small and 2^53-scale integers, and arbitrary
/// finite bit patterns (fractions, huge and subnormal magnitudes).
fn any_number(rng: &mut SplitMix64) -> f64 {
    match rng.below(3) {
        0 => rng.below(1000) as f64 - 500.0,
        1 => (rng.next_u64() >> 11) as f64,
        _ => Some(f64::from_bits(rng.next_u64()))
            .filter(|n| n.is_finite())
            .unwrap_or(0.5),
    }
}

/// Strategy over [`Json`] values nested at most `depth` containers deep.
#[derive(Debug, Clone, Copy)]
pub struct AnyJson {
    /// Remaining container depth.
    pub depth: u32,
}

impl Strategy for AnyJson {
    type Value = Json;

    fn generate(&self, rng: &mut SplitMix64) -> Json {
        let kinds = if self.depth == 0 { 4 } else { 6 };
        let inner = AnyJson {
            depth: self.depth.saturating_sub(1),
        };
        match rng.below(kinds) {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 1),
            2 => Json::Num(any_number(rng)),
            3 => Json::Str(any_string(rng)),
            4 => Json::Arr((0..rng.below(5)).map(|_| inner.generate(rng)).collect()),
            _ => Json::Obj(
                (0..rng.below(5))
                    .map(|_| (any_string(rng), inner.generate(rng)))
                    .collect(),
            ),
        }
    }
}
