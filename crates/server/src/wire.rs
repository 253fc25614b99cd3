//! Dependency-free JSON for the newline-delimited line protocol.
//!
//! The repo's benchmark emitter (`bench/src/json.rs`) already hand-rolls
//! JSON *encoding*; the TCP front-end additionally needs *parsing* for
//! request lines. Both directions live here so there is exactly one
//! escaping/number policy in the tree — the bench emitter delegates its
//! `escape` to [`escape`] below, and non-finite floats become `null` in
//! both emitters ([`num`]).
//!
//! The parser is a small recursive-descent over the full JSON grammar
//! (objects, arrays, strings with escapes, numbers, literals). Documents
//! are request lines a few hundred bytes long; no streaming, no zero-copy.

use std::fmt;
use std::fmt::Write as _;

/// A parsed JSON value. Object keys keep their document order (the
/// protocol never relies on it, but determinism is free this way).
#[derive(Clone, Debug, PartialEq)]
pub enum JVal {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JVal>),
    /// An object, in document order.
    Obj(Vec<(String, JVal)>),
}

impl JVal {
    /// Member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&JVal> {
        match self {
            JVal::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JVal::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JVal::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric payload as `u64`, when non-negative, integral, and in
    /// range. The bound is strict: `u64::MAX as f64` rounds *up* to 2^64,
    /// which is one past the last representable `u64`, so an inclusive
    /// comparison would admit 18446744073709551616.0 and silently
    /// saturate it to `u64::MAX`. Every finite f64 strictly below 2^64 is
    /// exact under `as u64`.
    pub fn as_u64(&self) -> Option<u64> {
        const TWO_POW_64: f64 = u64::MAX as f64; // == 2^64 exactly
        match self {
            JVal::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < TWO_POW_64 => Some(*n as u64),
            _ => None,
        }
    }

    /// Boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JVal::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Object from `(key, value)` pairs, in order — the builder the TCP
    /// front-end assembles every response from, so reply framing is
    /// structurally correct by construction (hostile labels and error
    /// strings go through [`escape`], numbers through [`num`]).
    pub fn obj(members: Vec<(&str, JVal)>) -> JVal {
        JVal::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// String value.
    pub fn str(s: impl Into<String>) -> JVal {
        JVal::Str(s.into())
    }

    /// Render as a compact one-line JSON document: canonical [`escape`]
    /// for strings (keys included), the [`num`] policy for numbers
    /// (non-finite becomes `null`). [`parse`] round-trips the output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out);
        out
    }

    fn write_to(&self, out: &mut String) {
        match self {
            JVal::Null => out.push_str("null"),
            JVal::Bool(b) => {
                out.push_str(if *b { "true" } else { "false" });
            }
            JVal::Num(n) => out.push_str(&num(*n)),
            JVal::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            JVal::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_to(out);
                }
                out.push(']');
            }
            JVal::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for JVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// A parse failure: byte position plus message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub pos: usize,
    /// What was expected.
    pub msg: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parse one JSON document (trailing whitespace allowed, nothing else).
pub fn parse(input: &str) -> Result<JVal, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(ParseError {
            pos,
            msg: "trailing characters after document",
        });
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<JVal, ParseError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(ParseError {
            pos: *pos,
            msg: "unexpected end of input",
        }),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos).map(JVal::Str),
        Some(b't') => parse_literal(b, pos, "true", JVal::Bool(true)),
        Some(b'f') => parse_literal(b, pos, "false", JVal::Bool(false)),
        Some(b'n') => parse_literal(b, pos, "null", JVal::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(_) => Err(ParseError {
            pos: *pos,
            msg: "expected a JSON value",
        }),
    }
}

fn parse_literal(
    b: &[u8],
    pos: &mut usize,
    lit: &'static str,
    v: JVal,
) -> Result<JVal, ParseError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(ParseError {
            pos: *pos,
            msg: "invalid literal",
        })
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JVal, ParseError> {
    // Strict RFC 8259 grammar: `-? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?`.
    // The structure is validated *before* `f64::from_str`, so lenient forms
    // Rust's float parser accepts ("1.", ".5", "inf", "1e") can never leak
    // in: two shard peers must agree byte-for-byte on what a valid frame is.
    let start = *pos;
    let err = ParseError {
        pos: start,
        msg: "invalid number",
    };
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match b.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => {
            while matches!(b.get(*pos), Some(b'0'..=b'9')) {
                *pos += 1;
            }
        }
        _ => return Err(err),
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !matches!(b.get(*pos), Some(b'0'..=b'9')) {
            return Err(err);
        }
        while matches!(b.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !matches!(b.get(*pos), Some(b'0'..=b'9')) {
            return Err(err);
        }
        while matches!(b.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|n| n.is_finite())
        .map(JVal::Num)
        .ok_or(err)
}

/// Exactly four ASCII hex digits starting at `at`. `from_str_radix` alone
/// would also accept a leading `+`, so digits are checked explicitly.
fn hex4(b: &[u8], at: usize) -> Option<u32> {
    b.get(at..at + 4)
        .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
        .and_then(|h| std::str::from_utf8(h).ok())
        .and_then(|h| u32::from_str_radix(h, 16).ok())
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => {
                return Err(ParseError {
                    pos: *pos,
                    msg: "unterminated string",
                })
            }
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hi = hex4(b, *pos + 1).ok_or(ParseError {
                            pos: *pos,
                            msg: "invalid \\u escape",
                        })?;
                        *pos += 4;
                        match hi {
                            // High surrogate: a low-surrogate escape must
                            // follow immediately; together they name one
                            // astral-plane scalar.
                            0xD800..=0xDBFF => {
                                if b.get(*pos + 1) != Some(&b'\\') || b.get(*pos + 2) != Some(&b'u')
                                {
                                    return Err(ParseError {
                                        pos: *pos,
                                        msg: "lone high surrogate in \\u escape",
                                    });
                                }
                                let lo = hex4(b, *pos + 3).ok_or(ParseError {
                                    pos: *pos,
                                    msg: "invalid \\u escape",
                                })?;
                                if !(0xDC00..=0xDFFF).contains(&lo) {
                                    return Err(ParseError {
                                        pos: *pos,
                                        msg: "lone high surrogate in \\u escape",
                                    });
                                }
                                *pos += 6;
                                let scalar = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                out.push(char::from_u32(scalar).expect("valid surrogate pair"));
                            }
                            0xDC00..=0xDFFF => {
                                return Err(ParseError {
                                    pos: *pos,
                                    msg: "lone low surrogate in \\u escape",
                                });
                            }
                            _ => out.push(char::from_u32(hi).expect("non-surrogate BMP scalar")),
                        }
                    }
                    _ => {
                        return Err(ParseError {
                            pos: *pos,
                            msg: "invalid escape",
                        })
                    }
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume the whole unescaped run in one slice. `"` and
                // `\` are ASCII, so a byte scan can never split a
                // multi-byte UTF-8 sequence, and validating only the run
                // keeps the parser linear (validating the remaining input
                // per character made megabyte shard frames quadratic).
                let start = *pos;
                while matches!(b.get(*pos), Some(&c) if c != b'"' && c != b'\\') {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&b[start..*pos]).map_err(|_| ParseError {
                    pos: start,
                    msg: "invalid utf-8 in string",
                })?;
                out.push_str(run);
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<JVal, ParseError> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JVal::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JVal::Arr(items));
            }
            _ => {
                return Err(ParseError {
                    pos: *pos,
                    msg: "expected ',' or ']'",
                })
            }
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<JVal, ParseError> {
    *pos += 1; // consume '{'
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JVal::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(ParseError {
                pos: *pos,
                msg: "expected object key",
            });
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(ParseError {
                pos: *pos,
                msg: "expected ':'",
            });
        }
        *pos += 1;
        let value = parse_value(b, pos)?;
        members.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JVal::Obj(members));
            }
            _ => {
                return Err(ParseError {
                    pos: *pos,
                    msg: "expected ',' or '}'",
                })
            }
        }
    }
}

/// Escape a string for a JSON string literal (quotes not included). The
/// canonical implementation for the whole tree — `bench`'s emitter
/// delegates here.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// A finite JSON number; non-finite floats become `null` (JSON has no
/// NaN) — the same policy the benchmark record uses.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Exact `f64` transport for shard frames: the 16 lowercase hex digits of
/// the IEEE-754 bit pattern. JSON numbers round-trip through decimal and
/// cannot carry NaN or distinguish `-0.0`; shard partial-state shipping
/// needs bit-exactness, so floats cross the wire as bit patterns.
pub fn f64_to_hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Decode a [`f64_to_hex`] string. Exactly 16 hex digits; case-insensitive
/// on input, but a leading sign is rejected (`from_str_radix` would accept
/// `+`).
pub fn f64_from_hex(s: &str) -> Option<f64> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// Encode one relation cell for the wire: `Null`/`Bool`/`Int`/`Float` map
/// to their JSON natives, strings are escaped, and the internal lineage
/// variants (`Ref`, `Pending` — never user-visible in a published result)
/// fall back to their debug rendering as strings.
pub fn value_json(v: &iolap_relation::Value) -> String {
    use iolap_relation::Value;
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => num(*f),
        Value::Str(s) => format!("\"{}\"", escape(s)),
        other => format!("\"{}\"", escape(&format!("{other:?}"))),
    }
}

// ---------------------------------------------------------------------------
// Shard RPC frames (§8 scale-out: plan-fragment dispatch / partial-state ship)
// ---------------------------------------------------------------------------
//
// Frames must be *exact*: a decoded fragment folds on the shard and its
// partial merges into the coordinator's float state, so every number
// crosses as either a decimal integer string (i64) or an IEEE-754 bit
// pattern ([`f64_to_hex`]). Cells use tagged arrays — `["i","-42"]`,
// `["f","3ff8000000000000"]`, `["s","txt"]`, `["b",true]`, bare `null` —
// so the type survives independently of JSON number semantics. Lineage
// cells (`Ref`/`Pending`) are not shippable: encoders return `None` and
// the coordinator folds that batch locally (the `Ok(None)` contract of
// `ShardExec::fold`).

use iolap_core::{
    AccState, AvgAcc, CountAcc, FoldFragment, FoldPartial, FragKind, FragSrc, ORow, PartialCall,
    PartialGroup, SumAcc,
};
use iolap_relation::Value;

/// Encode one relation cell as an exact tagged frame; `None` for lineage
/// variants (those rows cannot leave the coordinator).
pub fn cell_json(v: &Value) -> Option<String> {
    Some(match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => format!("[\"b\",{b}]"),
        Value::Int(i) => format!("[\"i\",\"{i}\"]"),
        Value::Float(f) => format!("[\"f\",\"{}\"]", f64_to_hex(*f)),
        Value::Str(s) => format!("[\"s\",\"{}\"]", escape(s)),
        Value::Ref(_) | Value::Pending(_) => return None,
    })
}

/// Decode a [`cell_json`] frame. Strict: integer strings are canonical
/// decimal (no leading `+`), float strings are 16-hex-digit bit patterns.
pub fn cell_from_json(v: &JVal) -> Option<Value> {
    match v {
        JVal::Null => Some(Value::Null),
        JVal::Arr(items) => {
            let tag = items.first()?.as_str()?;
            match (tag, items.get(1)?) {
                ("b", JVal::Bool(b)) => Some(Value::Bool(*b)),
                ("i", JVal::Str(s)) if !s.starts_with('+') => s.parse::<i64>().ok().map(Value::Int),
                ("f", JVal::Str(s)) => f64_from_hex(s).map(Value::Float),
                ("s", JVal::Str(s)) => Some(Value::str(s)),
                _ => None,
            }
        }
        _ => None,
    }
}

fn hex_vec(out: &mut String, xs: &[f64]) {
    out.push('[');
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", f64_to_hex(*x));
    }
    out.push(']');
}

fn hex_vec_from(v: &JVal) -> Option<Vec<f64>> {
    match v {
        JVal::Arr(items) => items
            .iter()
            .map(|w| w.as_str().and_then(f64_from_hex))
            .collect(),
        _ => None,
    }
}

/// Encode a row batch for `shard.fold`: each row is
/// `{"m":"<hexf64>","w":["hex",...]|null,"v":[cells]}` (multiplicity,
/// per-trial Poisson weights, values). `None` when any cell is lineage.
pub fn rows_json(rows: &[ORow]) -> Option<String> {
    let mut out = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"m\":\"");
        out.push_str(&f64_to_hex(r.mult));
        out.push_str("\",\"w\":");
        match &r.weights {
            None => out.push_str("null"),
            Some(ws) => hex_vec(&mut out, ws),
        }
        out.push_str(",\"v\":[");
        for (j, v) in r.values.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&cell_json(v)?);
        }
        out.push_str("]}");
    }
    out.push(']');
    Some(out)
}

/// Decode a [`rows_json`] batch.
pub fn rows_from_json(v: &JVal) -> Option<Vec<ORow>> {
    let JVal::Arr(items) = v else { return None };
    let mut rows = Vec::with_capacity(items.len());
    for item in items {
        let mult = f64_from_hex(item.get("m")?.as_str()?)?;
        let weights = match item.get("w")? {
            JVal::Null => None,
            ws => Some(std::sync::Arc::from(hex_vec_from(ws)?)),
        };
        let JVal::Arr(vs) = item.get("v")? else {
            return None;
        };
        let values: Vec<Value> = vs.iter().map(cell_from_json).collect::<Option<_>>()?;
        rows.push(ORow {
            values: std::sync::Arc::from(values),
            mult,
            weights,
        });
    }
    Some(rows)
}

/// Encode a fold fragment for dispatch: aggregate id, group columns, and
/// per-call `[kind, srckind, arg]` triples. `None` when a literal argument
/// carries lineage (cannot happen for compiled fragments; defensive).
pub fn frag_json(frag: &FoldFragment) -> Option<String> {
    let mut out = format!("{{\"agg\":{},\"g\":[", frag.agg_id);
    for (i, g) in frag.group_cols.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{g}");
    }
    out.push_str("],\"calls\":[");
    for (i, (k, s)) in frag.kinds.iter().zip(&frag.srcs).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let kind = match k {
            FragKind::Count => "c",
            FragKind::Sum => "s",
            FragKind::Avg => "a",
        };
        match s {
            FragSrc::Col(j) => {
                let _ = write!(out, "[\"{kind}\",\"c\",{j}]");
            }
            FragSrc::Lit(v) => {
                let _ = write!(out, "[\"{kind}\",\"l\",{}]", cell_json(v)?);
            }
        }
    }
    let _ = write!(out, "],\"trials\":{}}}", frag.trials);
    Some(out)
}

/// Decode a [`frag_json`] frame.
pub fn frag_from_json(v: &JVal) -> Option<FoldFragment> {
    let agg_id = u32::try_from(v.get("agg")?.as_u64()?).ok()?;
    let JVal::Arr(gs) = v.get("g")? else {
        return None;
    };
    let group_cols: Vec<usize> = gs
        .iter()
        .map(|g| g.as_u64().and_then(|n| usize::try_from(n).ok()))
        .collect::<Option<_>>()?;
    let JVal::Arr(calls) = v.get("calls")? else {
        return None;
    };
    let mut kinds = Vec::with_capacity(calls.len());
    let mut srcs = Vec::with_capacity(calls.len());
    for call in calls {
        let JVal::Arr(parts) = call else { return None };
        kinds.push(match parts.first()?.as_str()? {
            "c" => FragKind::Count,
            "s" => FragKind::Sum,
            "a" => FragKind::Avg,
            _ => return None,
        });
        srcs.push(match parts.get(1)?.as_str()? {
            "c" => FragSrc::Col(usize::try_from(parts.get(2)?.as_u64()?).ok()?),
            "l" => FragSrc::Lit(cell_from_json(parts.get(2)?)?),
            _ => return None,
        });
    }
    let trials = usize::try_from(v.get("trials")?.as_u64()?).ok()?;
    Some(FoldFragment {
        agg_id,
        group_cols,
        kinds,
        srcs,
        trials,
    })
}

/// Encode one partition partial for the ship leg: group keys as cells,
/// accumulator state and trial vectors as bit patterns.
pub fn partial_json(p: &FoldPartial) -> Option<String> {
    let mut out = format!("{{\"p\":{},\"groups\":[", p.partition);
    for (i, g) in p.groups.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"k\":[");
        for (j, k) in g.key.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&cell_json(k)?);
        }
        let _ = write!(out, "],\"hc\":{},\"calls\":[", g.has_certain);
        for (j, c) in g.calls.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"acc\":");
            match &c.acc {
                AccState::Count(acc) => {
                    let _ = write!(out, "[\"c\",\"{}\"]", f64_to_hex(acc.state()));
                }
                AccState::Sum(acc) => {
                    let (sum, any) = acc.state();
                    let _ = write!(out, "[\"s\",\"{}\",{}]", f64_to_hex(sum), any);
                }
                AccState::Avg(acc) => {
                    let (sum, n) = acc.state();
                    let _ = write!(out, "[\"a\",\"{}\",\"{}\"]", f64_to_hex(sum), f64_to_hex(n));
                }
            }
            out.push_str(",\"a\":");
            hex_vec(&mut out, &c.a);
            out.push_str(",\"b\":");
            hex_vec(&mut out, &c.b);
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    Some(out)
}

/// Decode a [`partial_json`] frame.
pub fn partial_from_json(v: &JVal) -> Option<FoldPartial> {
    let partition = usize::try_from(v.get("p")?.as_u64()?).ok()?;
    let JVal::Arr(gs) = v.get("groups")? else {
        return None;
    };
    let mut groups = Vec::with_capacity(gs.len());
    for g in gs {
        let JVal::Arr(ks) = g.get("k")? else {
            return None;
        };
        let key: Vec<Value> = ks.iter().map(cell_from_json).collect::<Option<_>>()?;
        let has_certain = g.get("hc")?.as_bool()?;
        let JVal::Arr(cs) = g.get("calls")? else {
            return None;
        };
        let mut calls = Vec::with_capacity(cs.len());
        for c in cs {
            let JVal::Arr(acc) = c.get("acc")? else {
                return None;
            };
            let state = match acc.first()?.as_str()? {
                "c" => AccState::Count(CountAcc::from_state(f64_from_hex(acc.get(1)?.as_str()?)?)),
                "s" => AccState::Sum(SumAcc::from_state(
                    f64_from_hex(acc.get(1)?.as_str()?)?,
                    acc.get(2)?.as_bool()?,
                )),
                "a" => AccState::Avg(AvgAcc::from_state(
                    f64_from_hex(acc.get(1)?.as_str()?)?,
                    f64_from_hex(acc.get(2)?.as_str()?)?,
                )),
                _ => return None,
            };
            calls.push(PartialCall {
                acc: state,
                a: hex_vec_from(c.get("a")?)?,
                b: hex_vec_from(c.get("b")?)?,
            });
        }
        groups.push(PartialGroup {
            key,
            has_certain,
            calls,
        });
    }
    Some(FoldPartial { partition, groups })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_round_trips_through_parse() {
        let v = JVal::obj(vec![
            ("ok", JVal::Bool(true)),
            ("label", JVal::str("he\"said\\\n\t\u{1}done")),
            ("n", JVal::Num(42.0)),
            ("f", JVal::Num(1.5)),
            ("nan", JVal::Num(f64::NAN)),
            ("list", JVal::Arr(vec![JVal::Null, JVal::str("x")])),
        ]);
        let line = v.render();
        // One line, no raw control characters on the wire.
        assert!(!line.contains('\n'));
        assert!(line.bytes().all(|b| b >= 0x20));
        let back = parse(&line).unwrap();
        assert_eq!(
            back.get("label").and_then(JVal::as_str),
            Some("he\"said\\\n\t\u{1}done")
        );
        assert_eq!(back.get("n").and_then(JVal::as_u64), Some(42));
        // Non-finite numbers render as null (the shared `num` policy).
        assert_eq!(back.get("nan"), Some(&JVal::Null));
        assert_eq!(v.to_string(), line);
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JVal::Null);
        assert_eq!(parse("true").unwrap(), JVal::Bool(true));
        assert_eq!(parse(" false ").unwrap(), JVal::Bool(false));
        assert_eq!(parse("42").unwrap(), JVal::Num(42.0));
        assert_eq!(parse("-1.5e2").unwrap(), JVal::Num(-150.0));
        assert_eq!(parse("\"hi\"").unwrap(), JVal::Str("hi".into()));
    }

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"op":"submit","query":"C2","opts":{"batches":8,"tags":["a","b"]},"x":null}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("op").and_then(JVal::as_str), Some("submit"));
        assert_eq!(
            v.get("opts")
                .and_then(|o| o.get("batches"))
                .and_then(JVal::as_u64),
            Some(8)
        );
        assert_eq!(v.get("x"), Some(&JVal::Null));
        match v.get("opts").and_then(|o| o.get("tags")) {
            Some(JVal::Arr(items)) => assert_eq!(items.len(), 2),
            other => panic!("tags: {other:?}"),
        }
    }

    #[test]
    fn parses_string_escapes() {
        assert_eq!(
            parse(r#""a\"b\\c\ndA""#).unwrap(),
            JVal::Str("a\"b\\c\ndA".into())
        );
    }

    /// Unescaped runs are consumed slice-at-a-time, with escapes and
    /// multi-byte scalars at the run boundaries. The content check is the
    /// correctness guard; the megabyte scale is the performance guard —
    /// the per-character variant re-validated the remaining input on
    /// every byte, turning shard-sized fold frames quadratic (minutes to
    /// parse a 2.6 MB frame, timing out the coordinator's read).
    #[test]
    fn parses_long_strings_in_linear_time() {
        let chunk = "päy\\load\t→\u{1F300}";
        let body = chunk.repeat(120_000);
        let doc = format!("[\"{}\",\"{}\"]", escape(&body), escape(chunk));
        assert!(doc.len() > 2_000_000);
        match parse(&doc).unwrap() {
            JVal::Arr(items) => {
                assert_eq!(items[0], JVal::Str(body));
                assert_eq!(items[1], JVal::Str(chunk.into()));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn escape_then_parse_roundtrips() {
        let nasty = "line1\nline2\t\"quoted\" back\\slash \u{1}";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&doc).unwrap(), JVal::Str(nasty.into()));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn value_json_covers_variants() {
        use iolap_relation::Value;
        assert_eq!(value_json(&Value::Null), "null");
        assert_eq!(value_json(&Value::Int(-3)), "-3");
        assert_eq!(value_json(&Value::Bool(true)), "true");
        assert_eq!(value_json(&Value::Float(1.5)), "1.5");
        assert_eq!(value_json(&Value::Float(f64::NAN)), "null");
        assert_eq!(value_json(&Value::str("a\"b")), "\"a\\\"b\"");
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(JVal::Num(3.5).as_u64(), None);
        assert_eq!(JVal::Num(-1.0).as_u64(), None);
        assert_eq!(JVal::Num(7.0).as_u64(), Some(7));
    }

    #[test]
    fn as_u64_boundaries_are_exact() {
        // 2^53: the f64 integer-precision edge is still well inside u64.
        assert_eq!(JVal::Num(9007199254740992.0).as_u64(), Some(1u64 << 53));
        // Largest f64 strictly below 2^64 (2^64 - 2^11) converts exactly.
        let top = 18446744073709549568.0f64;
        assert_eq!(JVal::Num(top).as_u64(), Some(18446744073709549568));
        // 2^64 itself (== `u64::MAX as f64` after rounding) must NOT
        // saturate to u64::MAX — the old inclusive bound admitted it.
        assert_eq!(JVal::Num(18446744073709551616.0).as_u64(), None);
        assert_eq!(JVal::Num(u64::MAX as f64).as_u64(), None);
        // Negative zero is a representation of zero ("-0" is valid JSON).
        assert_eq!(JVal::Num(-0.0).as_u64(), Some(0));
        assert_eq!(JVal::Num(f64::NAN).as_u64(), None);
        assert_eq!(JVal::Num(f64::INFINITY).as_u64(), None);
    }

    #[test]
    fn parse_number_enforces_json_grammar() {
        // Forms f64::from_str would happily take but RFC 8259 rejects.
        for bad in [
            "1.", ".5", "1e", "1e+", "1e-", "-", "+1", "1.e3", "0x10", "inf", "nan", "--1", "-.5",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        // Leading zeros split into two tokens → trailing-garbage error.
        assert!(parse("01").is_err());
        assert!(parse("-01").is_err());
        // Digit-soup inside a composite document fails at the number.
        assert!(parse("[1-2]").is_err());
        assert!(parse("[1e+,2]").is_err());
        // The strict grammar still admits every legitimate shape.
        assert_eq!(parse("0").unwrap(), JVal::Num(0.0));
        assert_eq!(parse("-0").unwrap(), JVal::Num(-0.0));
        assert_eq!(parse("10.25").unwrap(), JVal::Num(10.25));
        assert_eq!(parse("1e3").unwrap(), JVal::Num(1000.0));
        assert_eq!(parse("1E+2").unwrap(), JVal::Num(100.0));
        assert_eq!(parse("-2.5e-1").unwrap(), JVal::Num(-0.25));
        assert_eq!(parse("0.125").unwrap(), JVal::Num(0.125));
    }

    #[test]
    fn parse_string_reassembles_surrogate_pairs() {
        // 😀 is U+1F600 = \uD83D\uDE00 — one scalar, not two U+FFFD.
        assert_eq!(
            parse(r#""\uD83D\uDE00""#).unwrap(),
            JVal::Str("\u{1F600}".into())
        );
        // Lowercase hex and a BMP neighbour in the same string.
        assert_eq!(
            parse(r#""x\ud83d\ude00y\u00e9""#).unwrap(),
            JVal::Str("x\u{1F600}y\u{e9}".into())
        );
    }

    #[test]
    fn parse_string_rejects_lone_surrogates() {
        // High surrogate with no continuation, wrong continuation, or a
        // bare low surrogate: all hard errors, never U+FFFD smoothing.
        for bad in [
            r#""\uD83D""#,
            r#""\uD83Dx""#,
            r#""\uD83D\u0041""#,
            r#""\uDC00""#,
            r#""a\uDE00b""#,
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        // Sign-bearing hex is not hex ('+' sneaks through from_str_radix).
        assert!(parse(r#""\u+123""#).is_err());
    }

    #[test]
    fn escape_parse_roundtrip_astral_and_control_property() {
        // Deterministic property sweep: strings drawn from an alphabet
        // that mixes ASCII, control chars, BMP accents, and astral-plane
        // scalars must survive escape → quote → parse unchanged.
        let alphabet: Vec<char> = ('\u{0}'..='\u{1f}')
            .chain(['"', '\\', '/', 'a', 'Z', '\u{e9}', '\u{2603}', '\u{fffd}'])
            .chain(['\u{1F600}', '\u{1F680}', '\u{10FFFF}', '\u{10000}'])
            .collect();
        let mut state = 0x243F6A8885A308D3u64; // fixed seed: π digits
        let mut next = move |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % m
        };
        for len in 0..64usize {
            let s: String = (0..len).map(|_| alphabet[next(alphabet.len())]).collect();
            let doc = format!("\"{}\"", escape(&s));
            assert_eq!(parse(&doc).unwrap(), JVal::Str(s.clone()), "doc {doc:?}");
        }
        // And explicitly through the \u path: escaped control char plus a
        // raw astral char in the same document.
        let doc = "\"\\u0001\u{1F600}\"";
        assert_eq!(parse(doc).unwrap(), JVal::Str("\u{1}\u{1F600}".into()));
    }

    #[test]
    fn f64_hex_roundtrip_is_bit_exact() {
        for x in [
            0.0,
            -0.0,
            1.5,
            -1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let hex = f64_to_hex(x);
            assert_eq!(hex.len(), 16);
            let back = f64_from_hex(&hex).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {hex}");
        }
        // NaN payload bits survive (equality on bits, not value).
        let nan = f64::from_bits(0x7ff8000000abcdef);
        assert_eq!(
            f64_from_hex(&f64_to_hex(nan)).unwrap().to_bits(),
            nan.to_bits()
        );
        // -0.0 and 0.0 stay distinguishable.
        assert_ne!(f64_to_hex(0.0), f64_to_hex(-0.0));
        assert_eq!(f64_from_hex("xyz"), None);
        assert_eq!(f64_from_hex("+ff8000000abcdef"), None);
        assert_eq!(f64_from_hex("00"), None);
    }

    #[test]
    fn cell_frames_roundtrip_exactly() {
        let cells = [
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Int(i64::MIN),
            Value::Float(-0.0),
            Value::Float(1.0 / 3.0),
            Value::str("a\"b\n😀"),
        ];
        for v in &cells {
            let doc = cell_json(v).unwrap();
            let back = cell_from_json(&parse(&doc).unwrap()).unwrap();
            // Bit-level float equality, not PartialEq smoothing.
            match (v, &back) {
                (Value::Float(x), Value::Float(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                _ => assert_eq!(*v, back, "via {doc}"),
            }
        }
        // Lineage cells are unshippable by contract.
        let r = Value::Ref(iolap_relation::AggRef {
            agg: 0,
            column: 0,
            key: std::sync::Arc::from(Vec::new()),
        });
        assert_eq!(cell_json(&r), None);
        // Decoder rejects sign-lenient integer strings.
        assert_eq!(cell_from_json(&parse("[\"i\",\"+3\"]").unwrap()), None);
        assert_eq!(cell_from_json(&parse("[\"f\",\"zz\"]").unwrap()), None);
    }

    #[test]
    fn row_frames_roundtrip_exactly() {
        let rows = vec![
            ORow {
                values: std::sync::Arc::from(vec![Value::Int(1), Value::Float(2.5)]),
                mult: 1.0,
                weights: None,
            },
            ORow {
                values: std::sync::Arc::from(vec![Value::str("k"), Value::Null]),
                mult: -1.0,
                weights: Some(std::sync::Arc::from(vec![0.0, 2.0, 1.0])),
            },
        ];
        let doc = rows_json(&rows).unwrap();
        let back = rows_from_json(&parse(&doc).unwrap()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].values[..], rows[0].values[..]);
        assert_eq!(back[1].mult.to_bits(), (-1.0f64).to_bits());
        assert_eq!(back[1].weights.as_deref(), Some(&[0.0, 2.0, 1.0][..]));
        // A lineage cell anywhere poisons the whole batch → None.
        let tainted = vec![ORow {
            values: std::sync::Arc::from(vec![Value::Ref(iolap_relation::AggRef {
                agg: 1,
                column: 0,
                key: std::sync::Arc::from(Vec::new()),
            })]),
            mult: 1.0,
            weights: None,
        }];
        assert_eq!(rows_json(&tainted), None);
    }

    #[test]
    fn frag_and_partial_frames_roundtrip() {
        let frag = FoldFragment {
            agg_id: 9,
            group_cols: vec![0, 2],
            kinds: vec![FragKind::Count, FragKind::Sum, FragKind::Avg],
            srcs: vec![
                FragSrc::Col(1),
                FragSrc::Lit(Value::Float(0.5)),
                FragSrc::Col(3),
            ],
            trials: 4,
        };
        let doc = frag_json(&frag).unwrap();
        assert_eq!(frag_from_json(&parse(&doc).unwrap()).unwrap(), frag);

        let partial = FoldPartial {
            partition: 3,
            groups: vec![PartialGroup {
                key: vec![Value::str("g"), Value::Int(2)],
                has_certain: true,
                calls: vec![
                    PartialCall {
                        acc: AccState::Count(CountAcc::from_state(5.0)),
                        a: vec![4.0, 6.0],
                        b: vec![0.0, 0.0],
                    },
                    PartialCall {
                        acc: AccState::Sum(SumAcc::from_state(-0.0, false)),
                        a: vec![1.5, 2.5],
                        b: vec![1.0, 1.0],
                    },
                    PartialCall {
                        acc: AccState::Avg(AvgAcc::from_state(7.0, 2.0)),
                        a: vec![],
                        b: vec![],
                    },
                ],
            }],
        };
        let doc = partial_json(&partial).unwrap();
        let back = partial_from_json(&parse(&doc).unwrap()).unwrap();
        assert_eq!(back, partial);
        // -0.0 survived as a bit pattern (PartialEq would also pass for
        // +0.0 — check the bits explicitly).
        match &back.groups[0].calls[1].acc {
            AccState::Sum(acc) => {
                let (sum, any) = acc.state();
                assert_eq!(sum.to_bits(), (-0.0f64).to_bits());
                assert!(!any);
            }
            _ => panic!("wrong acc kind"),
        }
    }
}
