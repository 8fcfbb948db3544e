//! A YAML-subset parser for Diablo configuration files.
//!
//! The paper's workload specification language (§4) is YAML with a
//! handful of features: block maps and lists by indentation, inline
//! (flow) maps `{ ... }` and lists `[ ... ]`, scalars, comments,
//! anchors (`&name`), aliases (`*name`) and application tags
//! (`!location`, `!endpoint`, `!account`, `!contract`, `!invoke`,
//! `!transfer`). This module implements exactly that subset — enough to
//! parse every configuration in the paper and the artifact — with
//! precise error positions, so the workspace needs no external YAML
//! dependency.

use std::collections::HashMap;
use std::fmt;

use crate::json::MAX_DEPTH;

/// A parsed YAML value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A scalar (string, number, boolean — kept as text).
    Scalar(String),
    /// A sequence.
    List(Vec<Value>),
    /// A mapping with insertion order preserved.
    Map(Vec<(String, Value)>),
    /// A tagged value, e.g. `!account { number: 2000 }`.
    Tagged(String, Box<Value>),
}

impl Value {
    /// The scalar text, if this is a scalar.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Scalar(s) => Some(s),
            _ => None,
        }
    }

    /// The scalar parsed as an integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_str()?.parse().ok()
    }

    /// The scalar parsed as a float.
    pub fn as_f64(&self) -> Option<f64> {
        self.as_str()?.parse().ok()
    }

    /// The list items, if this is a list.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }

    /// The map entries, if this is a map.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(entries) => Some(entries),
            _ => None,
        }
    }

    /// Looks up a key in a map value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Unwraps one level of tagging, returning `(tag, inner)`.
    pub fn tagged(&self) -> Option<(&str, &Value)> {
        match self {
            Value::Tagged(tag, inner) => Some((tag, inner)),
            _ => None,
        }
    }
}

/// A parse error with a line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending content.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a document into a [`Value`], resolving anchors and aliases.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let lines: Vec<Line> = text
        .lines()
        .enumerate()
        .map(|(i, raw)| Line::new(i + 1, raw))
        .filter(|l| !l.is_blank())
        .collect();
    let mut parser = Parser {
        lines,
        pos: 0,
        anchors: HashMap::new(),
        depth: 0,
    };
    let value = parser.parse_block(0)?;
    if parser.pos < parser.lines.len() {
        let line = parser.lines[parser.pos].number;
        return Err(ParseError {
            line,
            message: "trailing content".to_string(),
        });
    }
    Ok(value)
}

/// One significant source line.
struct Line {
    number: usize,
    indent: usize,
    content: String,
}

impl Line {
    fn new(number: usize, raw: &str) -> Line {
        let indent = raw.len() - raw.trim_start().len();
        let content = strip_comment(raw.trim_start()).trim_end().to_string();
        Line {
            number,
            indent,
            content,
        }
    }

    fn is_blank(&self) -> bool {
        self.content.is_empty()
    }
}

/// Removes a trailing `# comment` that is not inside quotes.
fn strip_comment(s: &str) -> &str {
    let mut in_single = false;
    let mut in_double = false;
    for (i, c) in s.char_indices() {
        match c {
            '\'' if !in_double => in_single = !in_single,
            '"' if !in_single => in_double = !in_double,
            // YAML requires a preceding space (or start of line).
            '#' if !in_single
                && !in_double
                && (i == 0 || s.as_bytes()[i - 1].is_ascii_whitespace()) =>
            {
                return &s[..i];
            }
            _ => {}
        }
    }
    s
}

struct Parser {
    lines: Vec<Line>,
    pos: usize,
    anchors: HashMap<String, Value>,
    /// Lists, maps, tags and anchors open around the value being
    /// parsed; every function that recurses goes through
    /// [`Parser::nested`] or passes `depth + 1` down the flow parsers.
    depth: usize,
}

/// The error of a value nested deeper than [`MAX_DEPTH`]. A spec nests
/// six deep; the bound keeps a hostile one (200,000 `[`, or 20,000
/// indented `k:`) from overflowing the stack of the recursive descent.
fn too_deep(line: usize) -> ParseError {
    ParseError {
        line,
        message: format!("nesting deeper than {MAX_DEPTH} levels"),
    }
}

impl Parser {
    fn err(&self, line: usize, message: impl Into<String>) -> ParseError {
        ParseError {
            line,
            message: message.into(),
        }
    }

    /// Runs `parse` one level further in, or fails at `line` when that
    /// level is past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        line: usize,
        parse: impl FnOnce(&mut Parser) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(too_deep(line));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    /// Parses a block (map or list) whose items are indented at least
    /// `min_indent`.
    fn parse_block(&mut self, min_indent: usize) -> Result<Value, ParseError> {
        let Some(first) = self.lines.get(self.pos) else {
            return Ok(Value::Scalar(String::new()));
        };
        if first.indent < min_indent {
            return Ok(Value::Scalar(String::new()));
        }
        let (indent, number) = (first.indent, first.number);
        if first.content.starts_with("- ") || first.content == "-" {
            self.nested(number, |p| p.parse_list(indent))
        } else {
            self.nested(number, |p| p.parse_map(indent))
        }
    }

    fn parse_list(&mut self, indent: usize) -> Result<Value, ParseError> {
        let mut items = Vec::new();
        while let Some(line) = self.lines.get(self.pos) {
            if line.indent != indent || !(line.content.starts_with("- ") || line.content == "-") {
                break;
            }
            let number = line.number;
            let rest = line.content[1..].trim_start().to_string();
            self.pos += 1;
            let is_block_map_start =
                !rest.starts_with(['&', '*', '!', '{', '[']) && find_key_colon(&rest).is_some();
            if rest.is_empty() {
                // Item continues on following, deeper lines.
                items.push(self.parse_block(indent + 1)?);
            } else if is_block_map_start {
                // Inline first key of a block map: `- number: 3`.
                let virtual_line = Line {
                    number,
                    indent: indent + 2,
                    content: rest,
                };
                self.lines.insert(self.pos, virtual_line);
                items.push(self.nested(number, |p| p.parse_map(indent + 2))?);
            } else {
                items.push(self.parse_inline(&rest, number)?);
            }
        }
        Ok(Value::List(items))
    }

    fn parse_map(&mut self, indent: usize) -> Result<Value, ParseError> {
        let mut entries: Vec<(String, Value)> = Vec::new();
        while let Some(line) = self.lines.get(self.pos) {
            if line.indent != indent {
                break;
            }
            let number = line.number;
            let content = line.content.clone();
            let Some(colon) = find_key_colon(&content) else {
                return Err(self.err(number, format!("expected `key:`, found `{content}`")));
            };
            let key = unquote(content[..colon].trim());
            let rest = content[colon + 1..].trim().to_string();
            self.pos += 1;
            let value = if rest.is_empty() {
                self.parse_block(indent + 1)?
            } else {
                self.parse_inline_or_nested(&rest, number, indent)?
            };
            if entries.iter().any(|(k, _)| *k == key) {
                return Err(self.err(number, format!("duplicate key `{key}`")));
            }
            entries.push((key, value));
        }
        Ok(Value::Map(entries))
    }

    /// Parses a value that appears after `key:` on the same line; tags
    /// may still be followed by a nested block (`interaction: !invoke`
    /// with the fields below).
    fn parse_inline_or_nested(
        &mut self,
        text: &str,
        number: usize,
        indent: usize,
    ) -> Result<Value, ParseError> {
        if let Some(tag) = text.strip_prefix('!') {
            let mut parts = tag.splitn(2, char::is_whitespace);
            let name = parts.next().unwrap_or("").to_string();
            let rest = parts.next().map(str::trim).unwrap_or("");
            if rest.is_empty() {
                // `!tag` with a nested block (or nothing).
                let inner = if self.lines.get(self.pos).is_some_and(|l| l.indent > indent) {
                    self.parse_block(indent + 1)?
                } else {
                    Value::Scalar(String::new())
                };
                return Ok(Value::Tagged(name, Box::new(inner)));
            }
            let inner = self.nested(number, |p| p.parse_inline(rest, number))?;
            return Ok(Value::Tagged(name, Box::new(inner)));
        }
        self.parse_inline(text, number)
    }

    /// Parses an inline (flow) value: scalar, alias, anchor, `{...}`,
    /// `[...]`, or a tagged version of those.
    fn parse_inline(&mut self, text: &str, number: usize) -> Result<Value, ParseError> {
        let mut rest = text.trim();
        // Anchor definition: `&name value`.
        if let Some(anchored) = rest.strip_prefix('&') {
            let mut parts = anchored.splitn(2, char::is_whitespace);
            let name = parts.next().unwrap_or("").to_string();
            let tail = parts.next().map(str::trim).unwrap_or("");
            if name.is_empty() {
                return Err(self.err(number, "empty anchor name"));
            }
            let value = if tail.is_empty() {
                Value::Scalar(String::new())
            } else {
                self.nested(number, |p| p.parse_inline(tail, number))?
            };
            self.anchors.insert(name, value.clone());
            return Ok(value);
        }
        // Alias: `*name`.
        if let Some(alias) = rest.strip_prefix('*') {
            let name = alias.trim();
            return self
                .anchors
                .get(name)
                .cloned()
                .ok_or_else(|| self.err(number, format!("unknown alias `*{name}`")));
        }
        // Tag: `!tag inner`.
        if let Some(tag) = rest.strip_prefix('!') {
            let mut parts = tag.splitn(2, char::is_whitespace);
            let name = parts.next().unwrap_or("").to_string();
            let tail = parts.next().map(str::trim).unwrap_or("");
            let inner = if tail.is_empty() {
                Value::Scalar(String::new())
            } else {
                self.nested(number, |p| p.parse_inline(tail, number))?
            };
            return Ok(Value::Tagged(name, Box::new(inner)));
        }
        // Flow collections.
        if rest.starts_with('{') || rest.starts_with('[') {
            let (value, consumed) = parse_flow(rest, number, self.depth)?;
            rest = rest[consumed..].trim();
            if !rest.is_empty() {
                return Err(self.err(number, format!("trailing content `{rest}`")));
            }
            return Ok(value);
        }
        Ok(Value::Scalar(unquote(rest)))
    }
}

/// Finds the colon separating a map key from its value, skipping quoted
/// keys and flow contexts.
fn find_key_colon(s: &str) -> Option<usize> {
    let mut in_single = false;
    let mut in_double = false;
    for (i, c) in s.char_indices() {
        match c {
            '\'' if !in_double => in_single = !in_single,
            '"' if !in_single => in_double = !in_double,
            ':' if !in_single && !in_double => {
                let next = s[i + 1..].chars().next();
                if next.is_none() || next == Some(' ') {
                    return Some(i);
                }
            }
            '{' | '[' if !in_single && !in_double => return None,
            _ => {}
        }
    }
    None
}

/// Strips matching quotes from a scalar.
fn unquote(s: &str) -> String {
    let s = s.trim();
    if s.len() >= 2
        && ((s.starts_with('"') && s.ends_with('"')) || (s.starts_with('\'') && s.ends_with('\'')))
    {
        s[1..s.len() - 1].to_string()
    } else {
        s.to_string()
    }
}

/// Parses a flow value starting at the beginning of `s`, returning the
/// value and the number of bytes consumed. `depth` counts what is open
/// around it, block levels included.
fn parse_flow(s: &str, line: usize, depth: usize) -> Result<(Value, usize), ParseError> {
    let bytes = s.as_bytes();
    match bytes.first() {
        Some(b'{' | b'[' | b'!') if depth == MAX_DEPTH => Err(too_deep(line)),
        Some(b'{') => parse_flow_map(s, line, depth + 1),
        Some(b'[') => parse_flow_list(s, line, depth + 1),
        Some(b'!') => {
            // A tag: `!name` optionally followed by a flow value.
            let name_end = s
                .char_indices()
                .skip(1)
                .find(|&(_, c)| c.is_whitespace() || matches!(c, ',' | '}' | ']' | '{' | '['))
                .map(|(i, _)| i)
                .unwrap_or(s.len());
            let name = s[1..name_end].to_string();
            let mut i = name_end;
            i += count_ws(&s[i..]);
            if s[i..].starts_with([',', '}', ']']) || s[i..].is_empty() {
                return Ok((
                    Value::Tagged(name, Box::new(Value::Scalar(String::new()))),
                    i,
                ));
            }
            let (inner, consumed) = parse_flow(&s[i..], line, depth + 1)?;
            Ok((Value::Tagged(name, Box::new(inner)), i + consumed))
        }
        _ => {
            // A flow scalar: read until `,`, `}`, or `]`.
            let mut end = s.len();
            let mut in_single = false;
            let mut in_double = false;
            for (i, c) in s.char_indices() {
                match c {
                    '\'' if !in_double => in_single = !in_single,
                    '"' if !in_single => in_double = !in_double,
                    ',' | '}' | ']' if !in_single && !in_double => {
                        end = i;
                        break;
                    }
                    _ => {}
                }
            }
            let raw = s[..end].trim();
            Ok((Value::Scalar(unquote(raw)), end))
        }
    }
}

fn parse_flow_map(s: &str, line: usize, depth: usize) -> Result<(Value, usize), ParseError> {
    debug_assert!(s.starts_with('{'));
    let mut entries = Vec::new();
    let mut i = 1;
    loop {
        i += count_ws(&s[i..]);
        if s[i..].starts_with('}') {
            return Ok((Value::Map(entries), i + 1));
        }
        let rest = &s[i..];
        let colon = find_key_colon(rest)
            .or_else(|| rest.find(':'))
            .ok_or(ParseError {
                line,
                message: "missing `:` in flow map".into(),
            })?;
        let key = unquote(rest[..colon].trim());
        i += colon + 1;
        i += count_ws(&s[i..]);
        let (value, consumed) = parse_flow(&s[i..], line, depth)?;
        i += consumed;
        entries.push((key, value));
        i += count_ws(&s[i..]);
        if s[i..].starts_with(',') {
            i += 1;
        } else if !s[i..].starts_with('}') {
            return Err(ParseError {
                line,
                message: "expected `,` or `}` in flow map".into(),
            });
        }
    }
}

fn parse_flow_list(s: &str, line: usize, depth: usize) -> Result<(Value, usize), ParseError> {
    debug_assert!(s.starts_with('['));
    let mut items = Vec::new();
    let mut i = 1;
    loop {
        i += count_ws(&s[i..]);
        if s[i..].starts_with(']') {
            return Ok((Value::List(items), i + 1));
        }
        let (value, consumed) = parse_flow(&s[i..], line, depth)?;
        i += consumed;
        items.push(value);
        i += count_ws(&s[i..]);
        if s[i..].starts_with(',') {
            i += 1;
        } else if !s[i..].starts_with(']') {
            return Err(ParseError {
                line,
                message: "expected `,` or `]` in flow list".into(),
            });
        }
    }
}

fn count_ws(s: &str) -> usize {
    s.len() - s.trim_start().len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_maps() {
        let v = parse("name: diablo\ncount: 42\n").unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("diablo"));
        assert_eq!(v.get("count").unwrap().as_u64(), Some(42));
    }

    #[test]
    fn nested_blocks() {
        let v = parse("outer:\n  inner:\n    leaf: 1\n").unwrap();
        assert_eq!(
            v.get("outer")
                .unwrap()
                .get("inner")
                .unwrap()
                .get("leaf")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }

    #[test]
    fn block_lists() {
        let v = parse("items:\n  - 1\n  - 2\n  - 3\n").unwrap();
        let items = v.get("items").unwrap().as_list().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[2].as_u64(), Some(3));
    }

    #[test]
    fn list_of_maps() {
        let v =
            parse("workloads:\n  - number: 3\n    kind: a\n  - number: 5\n    kind: b\n").unwrap();
        let ws = v.get("workloads").unwrap().as_list().unwrap();
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].get("number").unwrap().as_u64(), Some(3));
        assert_eq!(ws[1].get("kind").unwrap().as_str(), Some("b"));
    }

    #[test]
    fn flow_collections() {
        let v = parse("m: { a: 1, b: [x, y] }\n").unwrap();
        let m = v.get("m").unwrap();
        assert_eq!(m.get("a").unwrap().as_u64(), Some(1));
        let list = m.get("b").unwrap().as_list().unwrap();
        assert_eq!(list[1].as_str(), Some("y"));
    }

    #[test]
    fn tags_anchors_aliases() {
        let text = "let:\n  - &acc { sample: !account { number: 2000 } }\nuse:\n  from: *acc\n";
        let v = parse(text).unwrap();
        let from = v.get("use").unwrap().get("from").unwrap();
        let (tag, inner) = from.get("sample").unwrap().tagged().unwrap();
        assert_eq!(tag, "account");
        assert_eq!(inner.get("number").unwrap().as_u64(), Some(2000));
    }

    #[test]
    fn tagged_flow_list() {
        let v = parse("loc: { sample: !location [ \"us-east-2\" ] }\n").unwrap();
        let (tag, inner) = v
            .get("loc")
            .unwrap()
            .get("sample")
            .unwrap()
            .tagged()
            .unwrap();
        assert_eq!(tag, "location");
        assert_eq!(inner.as_list().unwrap()[0].as_str(), Some("us-east-2"));
    }

    #[test]
    fn tag_with_nested_block() {
        let text = "behavior:\n  - interaction: !invoke\n      from: a\n      function: \"update(1, 1)\"\n    load:\n      0: 4432\n      50: 4438\n";
        let v = parse(text).unwrap();
        let b = &v.get("behavior").unwrap().as_list().unwrap()[0];
        let (tag, inner) = b.get("interaction").unwrap().tagged().unwrap();
        assert_eq!(tag, "invoke");
        assert_eq!(
            inner.get("function").unwrap().as_str(),
            Some("update(1, 1)")
        );
        let load = b.get("load").unwrap().as_map().unwrap();
        assert_eq!(
            load[1],
            ("50".to_string(), Value::Scalar("4438".to_string()))
        );
    }

    #[test]
    fn comments_ignored() {
        let v = parse("# header\na: 1 # trailing\nb: \"x # not a comment\"\n").unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x # not a comment"));
    }

    #[test]
    fn unknown_alias_errors() {
        let err = parse("a: *nope\n").unwrap_err();
        assert!(err.message.contains("unknown alias"));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn duplicate_key_errors() {
        let err = parse("a: 1\na: 2\n").unwrap_err();
        assert!(err.message.contains("duplicate key"));
    }

    /// `w: [[[…]]]`: one map and `levels - 1` lists open at once.
    fn flow_probe(levels: usize) -> String {
        format!("w: {}{}\n", "[".repeat(levels - 1), "]".repeat(levels - 1))
    }

    /// `levels` maps, one `k:` a line, each indented one deeper.
    fn block_probe(levels: usize) -> String {
        (0..levels).map(|i| format!("{}k:\n", " ".repeat(i))).collect()
    }

    /// A map whose value sits under `levels - 1` tags on one line.
    fn tag_probe(levels: usize) -> String {
        format!("w: {}x\n", "!t ".repeat(levels - 1))
    }

    #[test]
    fn nesting_is_bounded() {
        let too_deep = |text: &str| match parse(text) {
            Err(e) if e.message.contains("nesting deeper") => Some(e.line),
            _ => None,
        };
        for probe in [flow_probe, tag_probe] {
            assert!(parse(&probe(MAX_DEPTH)).is_ok());
            assert_eq!(too_deep(&probe(MAX_DEPTH + 1)), Some(1));
            // The depths that used to overflow the stack (exit 134).
            assert_eq!(too_deep(&probe(200_001)), Some(1));
        }
        assert!(parse(&block_probe(MAX_DEPTH)).is_ok());
        assert_eq!(too_deep(&block_probe(MAX_DEPTH + 1)), Some(MAX_DEPTH + 1));
        assert_eq!(too_deep(&block_probe(3_000)), Some(MAX_DEPTH + 1));
        // A list of maps opens two levels a line.
        let list_of_maps = |lines: usize| -> String {
            (0..lines).map(|i| format!("{}- k:\n", " ".repeat(3 * i))).collect()
        };
        assert!(parse(&list_of_maps(MAX_DEPTH / 2)).is_ok());
        assert_eq!(too_deep(&list_of_maps(3_000)), Some(MAX_DEPTH / 2 + 1));
    }

    #[test]
    fn paper_example_parses() {
        // The gaming DApp configuration from §4 of the paper, verbatim
        // (modulo whitespace).
        let text = r#"
let:
  - &loc { sample: !location [ "us-east-2" ] }
  - &end { sample: !endpoint [ ".*" ] }
  - &acc { sample: !account { number: 2000 } }
  - &dapp { sample: !contract { name: "dota" } }
workloads:
  - number: 3
    client:
      location: *loc
      view: *end
      behavior:
        - interaction: !invoke
            from: *acc
            contract: *dapp
            function: "update(1, 1)"
          load:
            0: 4432
            50: 4438
            120: 0
"#;
        let v = parse(text).unwrap();
        let w = &v.get("workloads").unwrap().as_list().unwrap()[0];
        assert_eq!(w.get("number").unwrap().as_u64(), Some(3));
        let client = w.get("client").unwrap();
        let (tag, inner) = client
            .get("location")
            .unwrap()
            .get("sample")
            .unwrap()
            .tagged()
            .unwrap();
        assert_eq!(tag, "location");
        assert_eq!(inner.as_list().unwrap()[0].as_str(), Some("us-east-2"));
        let behavior = &client.get("behavior").unwrap().as_list().unwrap()[0];
        let (itag, ival) = behavior.get("interaction").unwrap().tagged().unwrap();
        assert_eq!(itag, "invoke");
        let (ctag, cval) = ival
            .get("contract")
            .unwrap()
            .get("sample")
            .unwrap()
            .tagged()
            .unwrap();
        assert_eq!(ctag, "contract");
        assert_eq!(cval.get("name").unwrap().as_str(), Some("dota"));
        let load = behavior.get("load").unwrap().as_map().unwrap();
        assert_eq!(load.len(), 3);
        assert_eq!(load[2].0, "120");
    }
}
