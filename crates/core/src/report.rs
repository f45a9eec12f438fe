//! Canonical JSON for experiment headline rows.
//!
//! Golden snapshots need a serialization that is byte-stable across runs,
//! platforms, and thread counts. The workspace's vendored `serde` is a
//! no-op marker stub (the container builds offline), so this module carries
//! its own tiny JSON value, a canonical pretty-printer, a strict parser for
//! the checked-in goldens, and a per-field differ that renders a readable
//! drift report.
//!
//! Canonical form: two-space indent, object keys in insertion order (struct
//! field order — deterministic), floats in Rust's shortest round-trip form
//! with a forced `.0` on integral values so floats never collapse into
//! integers, and a trailing newline. NaN and infinities are rejected:
//! headline numbers are always finite.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A finite float.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved and significant for canonical
    /// output (it follows struct field order, which is deterministic).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Renders the canonical form (see module docs).
    pub fn to_canonical_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders a single-line compact form (no whitespace between tokens)
    /// with the same number and escape rules as the canonical writer. Used
    /// for JSONL streams where each record must occupy exactly one line.
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null | Json::Bool(_) | Json::U64(_) | Json::I64(_) | Json::F64(_) | Json::Str(_) => {
                self.write(out, 0);
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::I64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) => out.push_str(&canonical_f64(*x)),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    fn render_leaf(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, 0);
        s
    }

    /// Looks up `key` in an object; `None` for other variants or a missing
    /// key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(x) => Some(*x),
            Json::U64(n) => Some(*n as f64),
            Json::I64(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::U64(v.into())
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Canonical float text: Rust's shortest round-trip `Display`, with `.0`
/// appended to integral values so the token stays float-typed.
///
/// # Panics
///
/// Panics on NaN or infinity — headline numbers must be finite.
fn canonical_f64(x: f64) -> String {
    assert!(x.is_finite(), "golden reports must contain only finite numbers, got {x}");
    let s = format!("{x}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a JSON document (the subset the canonical writer emits, plus
/// arbitrary whitespace). Returns a readable error on malformed input.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { text, bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("expected '{lit}' at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other.map(|b| b as char), self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            let hex =
                                self.bytes.get(self.pos + 1..self.pos + 5).ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            s.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or escape in
                    // one slice. Both delimiters are ASCII, so the run ends
                    // on a char boundary of the `&str` input.
                    let run = self.bytes[self.pos..].iter().position(|&b| b == b'"' || b == b'\\');
                    let end = run.map_or(self.bytes.len(), |n| self.pos + n);
                    s.push_str(&self.text[self.pos..end]);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if text.contains(['.', 'e', 'E']) {
            text.parse::<f64>().map(Json::F64).map_err(|e| format!("bad number '{text}': {e}"))
        } else if text.starts_with('-') {
            text.parse::<i64>().map(Json::I64).map_err(|e| format!("bad number '{text}': {e}"))
        } else {
            text.parse::<u64>().map(Json::U64).map_err(|e| format!("bad number '{text}': {e}"))
        }
    }
}

/// Structural diff: one line per drifted field, as
/// `at <path>: expected <golden>, got <live>`.
///
/// Arrays report length changes and recurse element-wise; objects report
/// missing and unexpected keys by name. An empty result means the values are
/// canonically identical.
pub fn diff(expected: &Json, actual: &Json) -> Vec<String> {
    let mut out = Vec::new();
    diff_at(expected, actual, "$", &mut out);
    out
}

fn diff_at(expected: &Json, actual: &Json, path: &str, out: &mut Vec<String>) {
    match (expected, actual) {
        (Json::Obj(e), Json::Obj(a)) => {
            for (k, ev) in e {
                match a.iter().find(|(ak, _)| ak == k) {
                    Some((_, av)) => diff_at(ev, av, &format!("{path}.{k}"), out),
                    None => out.push(format!("at {path}.{k}: expected {}, got <missing>", ev.render_leaf())),
                }
            }
            for (k, av) in a {
                if !e.iter().any(|(ek, _)| ek == k) {
                    out.push(format!("at {path}.{k}: expected <absent>, got {}", av.render_leaf()));
                }
            }
        }
        (Json::Arr(e), Json::Arr(a)) => {
            if e.len() != a.len() {
                out.push(format!("at {path}: expected {} rows, got {}", e.len(), a.len()));
            }
            for (i, (ev, av)) in e.iter().zip(a.iter()).enumerate() {
                diff_at(ev, av, &format!("{path}[{i}]"), out);
            }
        }
        (e, a) => {
            if e != a {
                out.push(format!("at {path}: expected {}, got {}", e.render_leaf(), a.render_leaf()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj([
            ("name", "e2".into()),
            (
                "rows",
                Json::Arr(vec![
                    Json::obj([("patch_rate", 0.25.into()), ("infected", Json::U64(39))]),
                    Json::obj([("patch_rate", 1.0.into()), ("infected", Json::U64(0))]),
                ]),
            ),
            ("ok", true.into()),
            ("note", Json::Null),
        ])
    }

    #[test]
    fn canonical_text_round_trips_through_the_parser() {
        let v = sample();
        let text = v.to_canonical_string();
        let back = parse(&text).expect("canonical text parses");
        assert_eq!(back, v);
        assert_eq!(back.to_canonical_string(), text, "serialize∘parse is the identity");
    }

    #[test]
    fn floats_stay_floats_and_ints_stay_ints() {
        assert_eq!(Json::F64(1.0).to_canonical_string(), "1.0\n");
        assert_eq!(Json::F64(267.6).to_canonical_string(), "267.6\n");
        assert_eq!(Json::U64(1).to_canonical_string(), "1\n");
        assert_eq!(Json::I64(-3).to_canonical_string(), "-3\n");
        assert_eq!(parse("1.0").unwrap(), Json::F64(1.0));
        assert_eq!(parse("1").unwrap(), Json::U64(1));
        assert_eq!(parse("-3").unwrap(), Json::I64(-3));
    }

    #[test]
    fn compact_form_is_one_line_and_parses_back() {
        let v = sample();
        let text = v.to_compact_string();
        assert!(!text.contains('\n'), "compact form must be a single line: {text:?}");
        assert!(!text.contains(": "), "no space after colons: {text:?}");
        assert_eq!(parse(&text).unwrap(), v, "compact∘parse is the identity");
        assert_eq!(Json::Arr(vec![]).to_compact_string(), "[]");
        assert_eq!(Json::obj([]).to_compact_string(), "{}");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_floats_are_rejected() {
        let _ = Json::F64(f64::NAN).to_canonical_string();
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}f — ünïcode".into());
        assert_eq!(parse(&v.to_canonical_string()).unwrap(), v);
    }

    #[test]
    fn megabyte_strings_round_trip_in_linear_time() {
        // A 1 MiB value mixing ASCII, multi-byte scalars and escapes. The
        // parser copies unescaped runs as slices; scanning the rest of the
        // input per character made this quadratic (hours, not milliseconds).
        let unit = "trace event — ünïcode \"quoted\" \\ tab\t line\n";
        let value: String = unit.repeat((1 << 20) / unit.len() + 1);
        assert!(value.len() >= 1 << 20);
        let doc = Json::obj([("trace", Json::Str(value)), ("tail", Json::U64(7))]);
        for text in [doc.to_compact_string(), doc.to_canonical_string()] {
            let back = parse(&text).expect("large document parses");
            assert_eq!(back, doc);
        }
    }

    #[test]
    fn diff_reports_each_drifted_field_with_its_path() {
        let golden = sample();
        let mut live = sample();
        // Perturb one leaf deep in the rows and drop a key.
        if let Json::Obj(pairs) = &mut live {
            if let Json::Arr(rows) = &mut pairs[1].1 {
                if let Json::Obj(row) = &mut rows[1] {
                    row[1].1 = Json::U64(7);
                }
            }
            pairs.retain(|(k, _)| k != "ok");
        }
        let report = diff(&golden, &live);
        assert_eq!(report.len(), 2, "{report:?}");
        assert!(report.iter().any(|l| l == "at $.rows[1].infected: expected 0, got 7"), "{report:?}");
        assert!(report.iter().any(|l| l.contains("$.ok") && l.contains("<missing>")), "{report:?}");
        assert!(diff(&golden, &golden).is_empty());
    }

    #[test]
    fn diff_reports_row_count_changes() {
        let a = Json::Arr(vec![Json::U64(1), Json::U64(2)]);
        let b = Json::Arr(vec![Json::U64(1)]);
        let report = diff(&a, &b);
        assert_eq!(report, vec!["at $: expected 2 rows, got 1".to_owned()]);
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinities_are_rejected_like_nan() {
        let _ = Json::F64(f64::INFINITY).to_compact_string();
    }

    #[test]
    fn negative_zero_round_trips_canonically() {
        let v = Json::F64(-0.0);
        let text = v.to_canonical_string();
        assert_eq!(text, "-0.0\n", "sign of zero is preserved");
        let back = parse(&text).unwrap();
        assert_eq!(back.to_canonical_string(), text, "serialize∘parse keeps the sign");
        match back {
            Json::F64(x) => assert!(x == 0.0 && x.is_sign_negative()),
            other => panic!("expected F64, got {other:?}"),
        }
    }

    #[test]
    fn extreme_integers_round_trip_exactly() {
        for v in [Json::U64(u64::MAX), Json::U64(u64::MAX - 1), Json::I64(i64::MIN), Json::I64(-1)] {
            let text = v.to_canonical_string();
            assert_eq!(parse(&text).unwrap(), v, "{text}");
        }
        // u64::MAX is not representable as f64; it must stay an integer
        // token, never degrade through a float path.
        assert_eq!(Json::U64(u64::MAX).to_canonical_string(), format!("{}\n", u64::MAX));
    }

    #[test]
    fn accessors_navigate_objects() {
        let v = sample();
        assert_eq!(v.get("name").and_then(Json::as_str), Some("e2"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::U64(7).get("name"), None, "non-objects have no keys");
        let rows = v.get("rows").unwrap();
        match rows {
            Json::Arr(items) => {
                assert_eq!(items[0].get("infected").and_then(Json::as_u64), Some(39));
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(Json::Str("7".into()).as_u64(), None);
        assert_eq!(Json::U64(7).as_str(), None);
    }

    #[test]
    fn checkpoint_style_records_round_trip_compactly() {
        // The shape the checkpoint writer emits: one compact object per line.
        let rec = Json::obj([
            ("experiment", "e13".into()),
            ("base_seed", Json::U64(42)),
            ("point", Json::U64(3)),
            ("status", "completed".into()),
            ("hash", "deadbeefdeadbeef".into()),
            ("row", Json::obj([("takedown_fraction", 0.5.into()), ("exfil_mb", 12.25.into())])),
            ("panic_msg", Json::Null),
            ("violations", Json::Arr(vec![])),
        ]);
        let line = rec.to_compact_string();
        assert!(!line.contains('\n'));
        assert_eq!(parse(&line).unwrap(), rec);
        assert_eq!(parse(&line).unwrap().to_compact_string(), line);
    }
}
