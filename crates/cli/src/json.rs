//! Minimal hand-rolled JSON emission for machine-readable reports.
//!
//! The workspace deliberately has no serialization dependency; the
//! `--json` reports (`smc check`, `corpus`, `separate`, `monitor`,
//! `loadgen`) only need flat objects with string/number/boolean fields,
//! which this builder covers. Objects are rendered on one line each so
//! reports stay greppable and diffable between runs.

/// Escape a string for inclusion in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A single-line JSON object under construction.
#[derive(Default)]
pub struct JsonObject {
    parts: Vec<String>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.parts
            .push(format!("\"{}\":\"{}\"", escape(key), escape(value)));
        self
    }

    /// Add an unsigned integer field.
    pub fn num(mut self, key: &str, value: u64) -> Self {
        self.parts.push(format!("\"{}\":{}", escape(key), value));
        self
    }

    /// Add a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.parts.push(format!("\"{}\":{}", escape(key), value));
        self
    }

    /// Add a pre-rendered JSON value (nested object or array) verbatim.
    pub fn raw(mut self, key: &str, value: &str) -> Self {
        self.parts.push(format!("\"{}\":{}", escape(key), value));
        self
    }

    /// Render the object on one line.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn builds_flat_objects() {
        let s = JsonObject::new()
            .str("name", "x\"y")
            .num("n", 3)
            .bool("ok", true)
            .raw("inner", "{\"a\":1}")
            .finish();
        assert_eq!(
            s,
            "{\"name\":\"x\\\"y\",\"n\":3,\"ok\":true,\"inner\":{\"a\":1}}"
        );
    }
}
