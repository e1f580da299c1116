//! Minimal XML escaping/unescaping for the five predefined entities.
//!
//! Both directions enforce the XML 1.0 `Char` production: `unescape`
//! rejects character references to code points outside it (`&#0;`,
//! `&#x1;`, surrogate halves …), because the resulting control characters
//! would serialise raw and break the round-trip re-parse; the escapers emit
//! `\r` as `&#13;` so carriage returns survive a re-parse instead of being
//! line-end-normalised away.

use std::borrow::Cow;

/// Is `c` in the XML 1.0 `Char` production? Everything else may not appear
/// in a document, even via a character reference.
fn is_xml_char(c: char) -> bool {
    matches!(c,
        '\t' | '\n' | '\r'
        | '\u{20}'..='\u{D7FF}'
        | '\u{E000}'..='\u{FFFD}'
        | '\u{10000}'..='\u{10FFFF}')
}

/// Escape text content (`&`, `<`, `>`, and `\r` as a character reference).
pub(crate) fn escape_text(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '\r' => out.push_str("&#13;"),
            _ => out.push(c),
        }
    }
}

/// Escape an attribute value (additionally `"`).
pub(crate) fn escape_attr(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\r' => out.push_str("&#13;"),
            _ => out.push(c),
        }
    }
}

/// Resolve the predefined entities and decimal/hex character references,
/// borrowing `s` when it has none. Returns `None` on a malformed reference
/// or a reference to a code point outside the XML 1.0 `Char` production.
pub(crate) fn unescape(s: &str) -> Option<Cow<'_, str>> {
    if !s.contains('&') {
        return Some(Cow::Borrowed(s));
    }
    let mut out = String::with_capacity(s.len());
    unescape_into(s, &mut out).then_some(Cow::Owned(out))
}

/// Append `s` to `out` with its references resolved, as [`unescape`]
/// does; `false` on a malformed reference (`out` then holds a prefix).
pub(crate) fn unescape_into(s: &str, out: &mut String) -> bool {
    let mut rest = s;
    while let Some(pos) = rest.find('&') {
        out.push_str(&rest[..pos]);
        rest = &rest[pos + 1..];
        let Some(end) = rest.find(';') else {
            return false;
        };
        let name = &rest[..end];
        let c = match name {
            "amp" => '&',
            "lt" => '<',
            "gt" => '>',
            "quot" => '"',
            "apos" => '\'',
            _ => {
                let code = if let Some(hex) = name.strip_prefix("#x").or(name.strip_prefix("#X")) {
                    u32::from_str_radix(hex, 16).ok()
                } else if let Some(dec) = name.strip_prefix('#') {
                    dec.parse().ok()
                } else {
                    None
                };
                match code.and_then(char::from_u32).filter(|&c| is_xml_char(c)) {
                    Some(c) => c,
                    None => return false,
                }
            }
        };
        out.push(c);
        rest = &rest[end + 1..];
    }
    out.push_str(rest);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trip() {
        let original = r#"a<b>&"quote" 'tick'"#;
        let mut esc = String::new();
        escape_attr(original, &mut esc);
        assert_eq!(unescape(&esc).unwrap(), original);
    }

    #[test]
    fn numeric_references() {
        assert_eq!(unescape("&#65;&#x42;").unwrap(), "AB");
    }

    #[test]
    fn malformed_references_rejected() {
        assert!(unescape("&bogus;").is_none());
        assert!(unescape("&#xZZ;").is_none());
        assert!(unescape("&unterminated").is_none());
    }

    #[test]
    fn non_xml_code_points_rejected() {
        // NUL and other C0 controls (except tab/lf/cr) are not XML chars
        assert!(unescape("&#0;").is_none());
        assert!(unescape("&#x1;").is_none());
        assert!(unescape("&#8;").is_none());
        // bare surrogate halves (already rejected by char::from_u32)
        assert!(unescape("&#xD800;").is_none());
        // the non-characters at the top of the BMP
        assert!(unescape("&#xFFFE;").is_none());
        // beyond the Unicode range
        assert!(unescape("&#x110000;").is_none());
        // whitespace controls remain legal
        assert_eq!(unescape("&#9;&#10;&#13;").unwrap(), "\t\n\r");
        assert_eq!(unescape("&#x1F600;").unwrap(), "😀");
    }

    #[test]
    fn carriage_returns_round_trip_through_escaping() {
        let original = "line1\r\nline2\rtail";
        let mut text = String::new();
        escape_text(original, &mut text);
        assert!(!text.contains('\r'), "raw CR must not be emitted: {text:?}");
        assert_eq!(unescape(&text).unwrap(), original);
        let mut attr = String::new();
        escape_attr(original, &mut attr);
        assert!(!attr.contains('\r'));
        assert_eq!(unescape(&attr).unwrap(), original);
    }

    #[test]
    fn plain_strings_pass_through() {
        assert_eq!(unescape("hello").unwrap(), "hello");
    }
}
