//! A minimal JSON reader for Diablo result files.
//!
//! The workspace carries no JSON dependency: `crate::output` writes the
//! results format, and this module reads it back — enabling post-mortem
//! tooling (the `diablo compare` subcommand, regression checks against
//! archived runs) on nothing but the standard library. It parses the
//! complete JSON grammar except for exotic number forms beyond `f64`.
//!
//! A results file is a few hundred bytes of statistics and megabytes of
//! transaction array, so the readers that want the statistics
//! ([`read_result_stats`], `livediff::summarize_json`) build only the
//! members they name and check the rest without allocating; [`parse`]
//! builds the whole tree for `tracediff`, which needs all of it.

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
/// descent. `yaml.rs` holds its collections and tags to the same bound.
pub(crate) const MAX_DEPTH: usize = 128;

/// Which part of a value the parser builds. Whatever it does not build
/// it still checks against the whole grammar — one descent serves both,
/// so the two accept and reject the same documents with the same
/// errors — but allocates nothing for; a null or an empty container
/// stands in for it.
#[derive(Clone, Copy, PartialEq)]
enum Keep<'a> {
    /// The whole value.
    All,
    /// Nothing.
    Nothing,
    /// Of an object, the members with these keys (whole; the last
    /// duplicate wins, as in the full tree); of anything else, nothing.
    Members(&'a [&'a str]),
}

/// Parses a complete JSON document.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    document(text, Keep::All)
}

/// Parses a complete JSON document and builds, of a top-level object,
/// only the members named in `keys`: `get` on the result answers for
/// those keys what it answers on [`parse`]'s tree. Reading the seven
/// scalars of a results file's `stats` this way skips its `txs` array —
/// all but a few hundred of its bytes — without allocating.
pub(crate) fn parse_members(text: &str, keys: &[&str]) -> Result<Json, JsonError> {
    document(text, Keep::Members(keys))
}

fn document(text: &str, keep: Keep) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0, keep)?;
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
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize, keep: Keep) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(err(*pos, format!("nesting deeper than {MAX_DEPTH} levels")))
        }
        Some(b'{') => parse_object(bytes, pos, depth + 1, keep),
        Some(b'[') => parse_array(bytes, pos, depth + 1, keep == Keep::All),
        Some(b'"') if keep == Keep::All => {
            let mut out = String::new();
            parse_string(bytes, pos, Some(&mut out))?;
            Ok(Json::String(out))
        }
        Some(b'"') => parse_string(bytes, pos, None).map(|()| Json::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos, keep == Keep::All),
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

/// Whether `raw` — bytes out of `0-9 . e E + -`, led by a digit or a
/// minus — is a literal `str::parse::<f64>` takes:
/// `-? (D+ (. D*)? | . D+) ([eE] [+-]? D+)?`.
fn is_float_literal(raw: &[u8]) -> bool {
    fn digits(raw: &[u8]) -> usize {
        raw.iter().take_while(|b| b.is_ascii_digit()).count()
    }
    let mut rest = raw.strip_prefix(b"-").unwrap_or(raw);
    let whole = digits(rest);
    rest = &rest[whole..];
    if let Some(after) = rest.strip_prefix(b".") {
        let frac = digits(after);
        if whole + frac == 0 {
            return false;
        }
        rest = &after[frac..];
    } else if whole == 0 {
        return false;
    }
    if let [b'e' | b'E', exponent @ ..] = rest {
        let exponent = match exponent {
            [b'+' | b'-', unsigned @ ..] => unsigned,
            unsigned => unsigned,
        };
        let len = digits(exponent);
        return len > 0 && len == exponent.len();
    }
    rest.is_empty()
}

fn parse_number(bytes: &[u8], pos: &mut usize, build: bool) -> Result<Json, JsonError> {
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
    let bad = || err(start, format!("bad number `{raw}`"));
    if !is_float_literal(raw.as_bytes()) {
        return Err(bad());
    }
    if !build {
        return Ok(Json::Null);
    }
    raw.parse::<f64>().map(Json::Number).map_err(|_| bad())
}

/// Parses a string, appending its characters to `out` when there is
/// one.
fn parse_string(
    bytes: &[u8],
    pos: &mut usize,
    mut out: Option<&mut String>,
) -> Result<(), JsonError> {
    expect(bytes, pos, b'"')?;
    let mut push = |c: char| {
        if let Some(out) = out.as_deref_mut() {
            out.push(c);
        }
    };
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(());
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => push('"'),
                    Some(b'\\') => push('\\'),
                    Some(b'/') => push('/'),
                    Some(b'n') => push('\n'),
                    Some(b't') => push('\t'),
                    Some(b'r') => push('\r'),
                    Some(b'b') => push('\u{8}'),
                    Some(b'f') => push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        // Four hex digits and nothing else: `from_str_radix`
                        // would also take a sign (`\u+041`).
                        let code = hex
                            .iter()
                            .try_fold(0u32, |code, &b| Some(code * 16 + (b as char).to_digit(16)?));
                        let code = code.ok_or_else(|| err(*pos, "bad \\u escape"))?;
                        push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x80 => {
                push(b as char);
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
                push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
    build: bool,
) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[')?;
    let keep = if build { Keep::All } else { Keep::Nothing };
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        let item = parse_value(bytes, pos, depth, keep)?;
        if build {
            items.push(item);
        }
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

fn parse_object(
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
    keep: Keep,
) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        let mut key = String::new();
        let member = if keep == Keep::Nothing {
            parse_string(bytes, pos, None)?;
            Keep::Nothing
        } else {
            parse_string(bytes, pos, Some(&mut key))?;
            match keep {
                Keep::Members(keys) if !keys.contains(&key.as_str()) => Keep::Nothing,
                _ => Keep::All,
            }
        };
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth, member)?;
        if member == Keep::All {
            map.insert(key, value);
        }
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
    let root = parse_members(text, &["chain", "workload", "stats", "unable"])?;
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
    fn the_number_check_is_the_float_parsers() {
        // Every token of up to six bytes the scanner can hand over: a
        // digit or a minus, then anything out of its alphabet.
        let alphabet = *b"7.eE+-";
        let mut tokens: Vec<Vec<u8>> = vec![b"7".to_vec(), b"-".to_vec()];
        let mut from = 0;
        for _ in 1..6 {
            let until = tokens.len();
            for i in from..until {
                for c in alphabet {
                    let mut longer = tokens[i].clone();
                    longer.push(c);
                    tokens.push(longer);
                }
            }
            from = until;
        }
        assert_eq!(tokens.len(), 2 * (6usize.pow(6) - 1) / 5);
        for token in &tokens {
            let text = std::str::from_utf8(token).unwrap();
            assert_eq!(
                is_float_literal(token),
                text.parse::<f64>().is_ok(),
                "`{text}`"
            );
        }
        for huge in [
            "1e999999999999999999999",
            "0.0e-99999999999999999999",
            "00012",
        ] {
            assert!(is_float_literal(huge.as_bytes()), "`{huge}`");
            assert!(parse(huge).is_ok(), "`{huge}`");
        }
    }

    #[test]
    fn parse_members_builds_the_named_members_and_checks_the_rest() {
        let text =
            r#"{"a": [1, {"b": "x"}], "keep": {"n": 2}, "a": 3, "keep": [4], "z": "\u00e9"}"#;
        let full = parse(text).unwrap();
        let part = parse_members(text, &["keep", "absent"]).unwrap();
        // The last duplicate wins, as in the tree.
        assert_eq!(part.get("keep"), full.get("keep"));
        assert_eq!(part.get("keep").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(part.get("a"), None);
        assert_eq!(part.get("absent"), None);
        // What is skipped is still held to the grammar, at the same
        // offset with the same message.
        for bad in [
            r#"{"a": [1,], "keep": 1}"#,
            r#"{"a": {"b" 1}, "keep": 1}"#,
            r#"{"a": "\x", "keep": 1}"#,
            r#"{"a": 1e, "keep": 1}"#,
            r#"{"a": tru, "keep": 1}"#,
            r#"{"a": 1, "keep": 1} 2"#,
            r#"{"a": 1, "keep": 1"#,
        ] {
            assert_eq!(
                parse_members(bad, &["keep"]).unwrap_err(),
                parse(bad).unwrap_err(),
                "{bad}"
            );
        }
        // A root that is no object has no members.
        assert_eq!(
            parse_members("[1, 2]", &["keep"]).unwrap().get("keep"),
            None
        );
        assert!(parse_members("[1, 2", &["keep"]).is_err());
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
        let skipped = format!("{{\"txs\":{hostile}");
        assert_eq!(
            parse_members(&skipped, &["stats"]).unwrap_err(),
            parse(&skipped).unwrap_err()
        );

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
        for bad in [
            "\"\\u+041\"",
            "\"\\u-041\"",
            "\"\\u 041\"",
            "\"\\u00g1\"",
            "\"\\u004\"",
        ] {
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
