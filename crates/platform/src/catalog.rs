//! The Service Catalog — service metadata and provenance mapping rules.
//!
//! Figure 5: "a Service Catalog with meta-data about services including the
//! service endpoints and signatures as well as the provenance mapping
//! rules". Rules are the *static* half of the provenance model — declared
//! per service type, independently of workflows — and persist in a simple
//! line-oriented text format so catalogs can be shipped alongside service
//! deployments.

use std::collections::BTreeMap;
use std::fmt;

use weblab_prov::{MappingRule, RuleError, RuleSet};

/// Metadata describing one registered service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceEntry {
    /// Service name (the key of `M(s)`).
    pub name: String,
    /// Endpoint descriptor (the original platform stores WSDL endpoints;
    /// here it is an opaque string).
    pub endpoint: String,
    /// Human-readable signature/description.
    pub signature: String,
    /// The provenance mapping rules `M(s)`.
    pub rules: Vec<MappingRule>,
}

/// Catalog error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// A rule failed to parse or validate.
    Rule(RuleError),
    /// Malformed persisted catalog text.
    Format {
        /// 1-based line number.
        line: usize,
        /// Description.
        message: String,
    },
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::Rule(e) => write!(f, "{e}"),
            CatalogError::Format { line, message } => {
                write!(f, "catalog format error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<RuleError> for CatalogError {
    fn from(e: RuleError) -> Self {
        CatalogError::Rule(e)
    }
}

/// The mapping rules a service is registered with: in concrete syntax,
/// parsed on registration, or already parsed. Both convert from what
/// callers hold: `&["rule", …]`, `&Vec<&str>` or `&[MappingRule]`.
#[derive(Debug, Clone, Copy)]
pub enum ServiceRules<'a> {
    /// Rules in concrete syntax.
    Text(&'a [&'a str]),
    /// Parsed rules.
    Parsed(&'a [MappingRule]),
}

impl<'a, const N: usize> From<&'a [&'a str; N]> for ServiceRules<'a> {
    fn from(rules: &'a [&'a str; N]) -> Self {
        ServiceRules::Text(rules)
    }
}

impl<'a> From<&'a Vec<&'a str>> for ServiceRules<'a> {
    fn from(rules: &'a Vec<&'a str>) -> Self {
        ServiceRules::Text(rules)
    }
}

impl<'a> From<&'a [MappingRule]> for ServiceRules<'a> {
    fn from(rules: &'a [MappingRule]) -> Self {
        ServiceRules::Parsed(rules)
    }
}

/// The catalog: service entries keyed by name.
#[derive(Debug, Clone, Default)]
pub struct ServiceCatalog {
    entries: BTreeMap<String, ServiceEntry>,
}

impl ServiceCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        ServiceCatalog::default()
    }

    /// Register (or replace) a service entry.
    pub fn register(&mut self, entry: ServiceEntry) {
        self.entries.insert(entry.name.clone(), entry);
    }

    /// Convenience: register a service with default endpoint and
    /// signature, its rules in concrete syntax or already parsed.
    pub fn register_simple<'a>(
        &mut self,
        name: impl Into<String>,
        rules: impl Into<ServiceRules<'a>>,
    ) -> Result<(), CatalogError> {
        let name = name.into();
        let rules = match rules.into() {
            ServiceRules::Text(texts) => {
                texts.iter().map(|r| MappingRule::parse(r)).collect::<Result<_, _>>()?
            }
            ServiceRules::Parsed(rules) => rules.to_vec(),
        };
        self.register(ServiceEntry {
            endpoint: format!("local://{name}"),
            signature: format!("{name}(doc) -> doc"),
            name,
            rules,
        });
        Ok(())
    }

    /// Look up a service entry.
    pub fn get(&self, name: &str) -> Option<&ServiceEntry> {
        self.entries.get(name)
    }

    /// All entries, in name order.
    pub fn entries(&self) -> impl Iterator<Item = &ServiceEntry> {
        self.entries.values()
    }

    /// Flatten the catalog into the [`RuleSet`] the provenance engine
    /// consumes.
    pub fn rule_set(&self) -> RuleSet {
        let mut rs = RuleSet::new();
        for e in self.entries.values() {
            for r in &e.rules {
                rs.add(e.name.clone(), r.clone());
            }
        }
        rs
    }

    /// Persist to the line-oriented text format:
    ///
    /// ```text
    /// [service] name | endpoint | signature
    /// rule: <mapping rule>
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for e in self.entries.values() {
            out.push_str(&format!(
                "[service] {} | {} | {}\n",
                e.name, e.endpoint, e.signature
            ));
            for r in &e.rules {
                let mut plain = r.clone();
                plain.name = None;
                out.push_str(&format!("rule: {plain}\n"));
            }
        }
        out
    }

    /// Load from the text format produced by [`ServiceCatalog::to_text`].
    pub fn from_text(text: &str) -> Result<Self, CatalogError> {
        let mut catalog = ServiceCatalog::new();
        let mut current: Option<ServiceEntry> = None;
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix("[service]") {
                if let Some(e) = current.take() {
                    catalog.register(e);
                }
                let parts: Vec<&str> = rest.split('|').map(str::trim).collect();
                if parts.len() != 3 || parts[0].is_empty() {
                    return Err(CatalogError::Format {
                        line: i + 1,
                        message: "expected 'name | endpoint | signature'".into(),
                    });
                }
                current = Some(ServiceEntry {
                    name: parts[0].to_string(),
                    endpoint: parts[1].to_string(),
                    signature: parts[2].to_string(),
                    rules: Vec::new(),
                });
            } else if let Some(rest) = line.strip_prefix("rule:") {
                let Some(entry) = current.as_mut() else {
                    return Err(CatalogError::Format {
                        line: i + 1,
                        message: "rule outside of a [service] block".into(),
                    });
                };
                entry.rules.push(MappingRule::parse(rest.trim())?);
            } else {
                return Err(CatalogError::Format {
                    line: i + 1,
                    message: format!("unrecognised line {line:?}"),
                });
            }
        }
        if let Some(e) = current.take() {
            catalog.register(e);
        }
        Ok(catalog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_flatten() {
        let mut c = ServiceCatalog::new();
        c.register_simple("Translator", &["//T[A/L = 'fr'] => //T[A/L = 'en']"])
            .unwrap();
        c.register_simple("Normaliser", &["/R//N => //T[1]"]).unwrap();
        assert_eq!(c.entries().count(), 2);
        let rs = c.rule_set();
        assert_eq!(rs.rules_for("Translator").len(), 1);
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn text_round_trip() {
        let mut c = ServiceCatalog::new();
        c.register_simple(
            "LanguageExtractor",
            &["//T[$x := @id]/C => //T[$x := @id]/A[L]"],
        )
        .unwrap();
        c.register_simple("Normaliser", &["/R//N => //T[1]"]).unwrap();
        let text = c.to_text();
        let back = ServiceCatalog::from_text(&text).unwrap();
        assert_eq!(back.entries().count(), 2);
        assert_eq!(
            back.get("LanguageExtractor").unwrap().rules,
            c.get("LanguageExtractor").unwrap().rules
        );
    }

    #[test]
    fn format_errors_carry_line_numbers() {
        let e = ServiceCatalog::from_text("rule: //A => //B").unwrap_err();
        assert!(matches!(e, CatalogError::Format { line: 1, .. }));
        let e = ServiceCatalog::from_text("[service] onlyname").unwrap_err();
        assert!(matches!(e, CatalogError::Format { line: 1, .. }));
        let e = ServiceCatalog::from_text("garbage").unwrap_err();
        assert!(matches!(e, CatalogError::Format { line: 1, .. }));
    }

    #[test]
    fn bad_rules_propagate() {
        let mut c = ServiceCatalog::new();
        assert!(c.register_simple("S", &["not a rule"]).is_err());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# catalog\n\n[service] S | ep | sig\n# note\nrule: //A => //B\n";
        let c = ServiceCatalog::from_text(text).unwrap();
        assert_eq!(c.get("S").unwrap().rules.len(), 1);
    }
}
