//! Schema guard for the committed `BENCH_kernels.json`.
//!
//! The tracked artifact is consumed by people and scripts diffing kernel
//! performance across PRs, so its shape is a contract: this test fails
//! when a field the dashboarding relies on is renamed or dropped — or
//! when the committed file predates a schema change and needs
//! regenerating (`cargo run --release -p bench --bin kernels`).
//!
//! The parser below is a minimal recursive-descent JSON reader (the
//! workspace takes no dependencies); it validates the whole document and
//! exposes just enough structure to assert on.

use std::collections::HashMap;
use std::path::Path;

#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(HashMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    fn expect_field(&self, ctx: &str, key: &str) -> &Json {
        self.get(key)
            .unwrap_or_else(|| panic!("{ctx}: missing field `{key}`"))
    }

    fn as_arr(&self, ctx: &str) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("{ctx}: expected array, got {other:?}"),
        }
    }

    fn as_num(&self, ctx: &str) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("{ctx}: expected number, got {other:?}"),
        }
    }

    fn as_str(&self, ctx: &str) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{ctx}: expected string, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn parse(text: &'a str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at offset {}, found {:?}",
                b as char,
                self.pos,
                self.bytes.get(self.pos).map(|&c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut map = HashMap::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let esc = self.bytes.get(self.pos + 1);
                    self.pos += 2;
                    match esc {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at {}", self.pos))?;
                            self.pos += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                }
                Some(&b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: copy the whole code point.
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|&b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| format!("bad UTF-8 at offset {start}"))?,
                    );
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }
}

#[test]
fn committed_bench_json_keeps_its_schema() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernels.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let doc = Parser::parse(&text).unwrap_or_else(|e| panic!("BENCH_kernels.json: {e}"));

    // The parallel-suite contract: wall clocks, worker count, and a
    // status per row (so resource-degraded runs stay visible).
    let suite = doc.expect_field("top level", "suite");
    suite
        .expect_field("suite", "wall_clock_sec")
        .as_num("suite.wall_clock_sec");
    suite
        .expect_field("suite", "wall_clock_par_sec")
        .as_num("suite.wall_clock_par_sec");
    let jobs = suite.expect_field("suite", "jobs").as_num("suite.jobs");
    assert!(jobs >= 1.0, "suite.jobs must be at least 1, got {jobs}");
    // Machine context for the speedup number: a committed file produced
    // on a single-core container legitimately reports speedup < 1.0, and
    // `cores` is what lets a reader tell that apart from a regression.
    let cores = suite.expect_field("suite", "cores").as_num("suite.cores");
    assert!(cores >= 1.0, "suite.cores must be at least 1, got {cores}");
    let rows = suite.expect_field("suite", "rows").as_arr("suite.rows");
    assert!(!rows.is_empty(), "suite.rows must not be empty");
    for (i, row) in rows.iter().enumerate() {
        let ctx = format!("suite.rows[{i}]");
        row.expect_field(&ctx, "name").as_str(&ctx);
        let status = row.expect_field(&ctx, "status").as_str(&ctx);
        assert!(
            matches!(status, "ok" | "retried" | "degraded"),
            "{ctx}: unexpected status {status:?}"
        );
    }

    // The Table II contract: the sequential wall clock of the rows, and
    // per row its time, the mapped cells of the four flows and whether
    // all four passed the equivalence check.
    let table2 = doc.expect_field("top level", "table2");
    table2
        .expect_field("table2", "wall_clock_sec")
        .as_num("table2.wall_clock_sec");
    let rows = table2.expect_field("table2", "rows").as_arr("table2.rows");
    assert!(!rows.is_empty(), "table2.rows must not be empty");
    for (i, row) in rows.iter().enumerate() {
        let ctx = format!("table2.rows[{i}]");
        row.expect_field(&ctx, "name").as_str(&ctx);
        for key in [
            "sec",
            "bds_maj_cells",
            "bds_pga_cells",
            "abc_cells",
            "dc_cells",
        ] {
            row.expect_field(&ctx, key).as_num(&format!("{ctx}.{key}"));
        }
        assert!(
            matches!(row.expect_field(&ctx, "verified"), Json::Bool(_)),
            "{ctx}: `verified` must be a boolean"
        );
    }

    let storms = doc.expect_field("top level", "storms").as_arr("storms");
    assert!(!storms.is_empty(), "storms must not be empty");
}
