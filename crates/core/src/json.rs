//! A minimal JSON reader for Diablo result files.
//!
//! The workspace carries no JSON dependency: `crate::output` writes the
//! results format, and this module reads it back — enabling post-mortem
//! tooling (the `diablo compare` subcommand, regression checks against
//! archived runs) on nothing but the standard library. It parses the
//! complete JSON grammar except for exotic number forms beyond `f64`.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (kept as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object (sorted keys; result files never rely on order).
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// The value at an object key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The array items, if this is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// A JSON parse error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the problem.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// How many arrays and objects may be open at once. A results file
/// nests four deep and a Chrome trace four; the bound keeps a hostile
/// file (two million `[`) from overflowing the stack of the recursive
/// descent.
const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing content"));
    }
    Ok(value)
}

fn err(offset: usize, message: impl Into<String>) -> JsonError {
    JsonError {
        offset,
        message: message.into(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, format!("expected `{}`", c as char)))
    }
}

/// Parses one value; `depth` counts the arrays and objects open around
/// it.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(err(*pos, format!("nesting deeper than {MAX_DEPTH} levels")))
        }
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(err(*pos, format!("unexpected byte `{}`", *c as char))),
        None => Err(err(*pos, "unexpected end of input")),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(*pos, format!("expected `{word}`")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && (bytes[*pos].is_ascii_digit() || matches!(bytes[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let raw = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err(start, "bad utf-8"))?;
    raw.parse::<f64>()
        .map(Json::Number)
        .map_err(|_| err(start, format!("bad number `{raw}`")))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        // Four hex digits and nothing else: `from_str_radix`
                        // would also take a sign (`\u+041`).
                        let code = hex.iter().try_fold(0u32, |code, &b| {
                            Some(code * 16 + (b as char).to_digit(16)?)
                        });
                        let code = code.ok_or_else(|| err(*pos, "bad \\u escape"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x80 => {
                out.push(b as char);
                *pos += 1;
            }
            Some(_) => {
                // Consume one multi-byte UTF-8 scalar. Validate at most
                // 4 bytes — validating the whole remaining input here
                // made parsing quadratic on large single-line files.
                let chunk = &bytes[*pos..(*pos + 4).min(bytes.len())];
                let c = match std::str::from_utf8(chunk) {
                    Ok(s) => s.chars().next().expect("non-empty"),
                    Err(e) if e.valid_up_to() > 0 => {
                        std::str::from_utf8(&chunk[..e.valid_up_to()])
                            .expect("validated prefix")
                            .chars()
                            .next()
                            .expect("non-empty")
                    }
                    Err(_) => return Err(err(*pos, "bad utf-8")),
                };
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(err(*pos, "expected `,` or `]`")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(map));
            }
            _ => return Err(err(*pos, "expected `,` or `}`")),
        }
    }
}

/// The statistics block of a results file, read back.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultStats {
    /// Chain name.
    pub chain: String,
    /// Workload name.
    pub workload: String,
    /// Transactions sent.
    pub sent: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Average throughput, TPS.
    pub avg_throughput: f64,
    /// Average latency, seconds.
    pub avg_latency: f64,
    /// Reason the chain could not run, if any.
    pub unable: Option<String>,
}

/// Reads the stats block of a `results.json` produced by
/// [`crate::output::results_json`].
pub fn read_result_stats(text: &str) -> Result<ResultStats, JsonError> {
    let root = parse(text)?;
    let field = |k: &str| root.get(k).cloned().unwrap_or(Json::Null);
    let stats = field("stats");
    let num = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    Ok(ResultStats {
        chain: field("chain").as_str().unwrap_or("?").to_string(),
        workload: field("workload").as_str().unwrap_or("?").to_string(),
        sent: num("sent") as u64,
        committed: num("committed") as u64,
        avg_throughput: num("avgThroughput"),
        avg_latency: num("avgLatency"),
        unable: field("unable").as_str().map(str::to_string),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("-12.5e2").unwrap(), Json::Number(-1250.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::String("a\nb".into()));
        assert_eq!(parse("\"\\u0041\"").unwrap(), Json::String("A".into()));
    }

    #[test]
    fn collections() {
        let v = parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[1], Json::Number(2.0));
        assert_eq!(arr[2].get("b"), Some(&Json::Null));
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn errors_have_positions() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("1 2").unwrap_err().message.contains("trailing"));
    }

    #[test]
    fn nesting_is_bounded() {
        // Two million `[` used to overflow the stack of the recursive
        // descent and abort the process (`diablo compare` exit 134).
        let hostile = "[".repeat(2_000_000);
        let e = parse(&hostile).unwrap_err();
        assert_eq!(e.offset, MAX_DEPTH);
        assert!(e.message.contains("nesting deeper"), "{e}");
        assert!(read_result_stats(&hostile).is_err());

        let nested = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        // Objects count toward the same bound.
        let objects =
            |levels: usize| format!("{}1{}", "{\"k\":".repeat(levels), "}".repeat(levels));
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn unicode_escapes_take_four_hex_digits() {
        assert_eq!(parse("\"\\u00e9\"").unwrap(), Json::String("é".into()));
        assert_eq!(parse("\"\\u00E9\"").unwrap(), Json::String("é".into()));
        // `u32::from_str_radix` takes a sign; JSON does not.
        for bad in ["\"\\u+041\"", "\"\\u-041\"", "\"\\u 041\"", "\"\\u00g1\"", "\"\\u004\""] {
            let e = parse(bad).unwrap_err();
            assert!(e.message.contains("\\u escape"), "{bad}: {e}");
        }
    }

    #[test]
    fn roundtrips_the_writer() {
        use diablo_chains::{Chain, RunResult, TxRecord, TxStatus};
        use diablo_sim::{SimDuration, SimTime};
        let submitted = SimTime::from_millis(100);
        let result = RunResult {
            chain: Chain::Algorand,
            workload: "native-10".into(),
            workload_secs: 30.0,
            records: vec![
                TxRecord {
                    submitted,
                    decided: Some(submitted + SimDuration::from_millis(530)),
                    status: TxStatus::Committed,
                },
                TxRecord {
                    submitted,
                    decided: None,
                    status: TxStatus::Pending,
                },
            ],
            unable_reason: None,
            blocks: Vec::new(),
            storage: None,
            trace: None,
        };
        let text = crate::output::results_json(&result);
        let stats = read_result_stats(&text).unwrap();
        assert_eq!(stats.chain, "Algorand");
        assert_eq!(stats.workload, "native-10");
        assert_eq!(stats.sent, 2);
        assert_eq!(stats.committed, 1);
        assert!(stats.unable.is_none());
        // The full tx array parses too.
        let root = parse(&text).unwrap();
        assert_eq!(root.get("txs").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn unable_results_roundtrip() {
        use diablo_chains::{Chain, RunResult};
        let r = RunResult::unable(Chain::Solana, "uber", 120.0, "budget exceeded".into());
        let stats = read_result_stats(&crate::output::results_json(&r)).unwrap();
        assert_eq!(stats.unable.as_deref(), Some("budget exceeded"));
    }
}
