//! Content-hash incremental cache for the two-phase lint.
//!
//! The cache lives at `target/xtask-lint-cache.json` and has two parts:
//!
//! * **per-file records** — keyed by display path, each carrying the
//!   FNV-1a hash of the file's bytes plus the local findings, justified
//!   markers and locally-used marker set from the last run. A file whose
//!   hash matches is served from the record without any rule scanning.
//! * **a graph record** — keyed by a digest over *all* `(path, hash)`
//!   pairs. The graph rules (L9/L10) are whole-workspace properties, so
//!   their findings are reusable only when no file changed at all; any
//!   edit re-runs phase 2 from fresh symbols while unchanged files still
//!   skip their local scans.
//!
//! Invalidation is by content, not mtime: hashes are over bytes, and
//! [`RULES_VERSION`] is baked into the graph digest and checked on load,
//! so editing the rule set discards stale findings wholesale. The format
//! is a private std-only JSON dialect (objects, arrays, strings,
//! unsigned integers) — xtask must stay dependency-free so the lint runs
//! even when the workspace it checks does not compile.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::rules::Finding;

/// Cache format version: bump on any layout change.
pub const CACHE_VERSION: u64 = 1;

/// Rule-set version: bump whenever a rule family, its scoping, or its
/// diagnostic text changes, so stale findings cannot be replayed.
pub const RULES_VERSION: u64 = 4;

/// Every rule code a cached finding may carry. Findings are interned
/// back to these on load; an unknown code discards the cache.
const RULE_NAMES: [&str; 21] = [
    "L1/panic",
    "L1/index",
    "L2/time",
    "L2/collections",
    "L2/rand",
    "L3/float-eq",
    "L3/partial-cmp",
    "L4/unsafe",
    "L4/cargo",
    "L5/thread",
    "L5/seed",
    "L6/step",
    "L6/profile",
    "L7/hot-alloc",
    "L8/shared-state",
    "L9/hot-propagate",
    "L10/determinism-taint",
    "L11/verdict-match",
    "allow",
    "allow-unknown",
    "allow-unused",
];

/// 64-bit FNV-1a over `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest over the whole tree: every `(path, hash)` pair in sorted
/// order, plus the rule-set version.
pub fn tree_digest(hashes: &BTreeMap<String, u64>) -> u64 {
    let mut acc = String::new();
    for (path, hash) in hashes {
        acc.push_str(path);
        acc.push('\0');
        acc.push_str(&format!("{hash:016x}"));
        acc.push('\0');
    }
    acc.push_str(&format!("rules:{RULES_VERSION}"));
    fnv64(acc.as_bytes())
}

/// One file's cached state.
#[derive(Debug, Clone, Default)]
pub struct FileEntry {
    /// FNV-1a of the file bytes this record was computed from.
    pub hash: u64,
    /// Local findings (phase-1 rules) for the file.
    pub findings: Vec<Finding>,
    /// Justified `lint:allow` markers as `(line, category)`.
    pub markers: Vec<(usize, String)>,
    /// Marker indices consumed by the local rules.
    pub used: BTreeSet<usize>,
}

/// The whole-workspace graph record.
#[derive(Debug, Clone, Default)]
pub struct GraphEntry {
    /// [`tree_digest`] over the run that produced this record.
    pub digest: u64,
    /// L9/L10 findings.
    pub findings: Vec<Finding>,
    /// `(file path, marker index)` suppressions the graph rules used.
    pub used: BTreeSet<(String, usize)>,
    /// Node count, for the stats line.
    pub fns: usize,
    /// Edge count, for the stats line.
    pub edges: usize,
}

/// The on-disk cache.
#[derive(Debug, Clone, Default)]
pub struct Cache {
    pub files: BTreeMap<String, FileEntry>,
    pub graph: Option<GraphEntry>,
}

impl Cache {
    /// Loads and validates the cache; any structural problem or version
    /// mismatch yields `None` (a cold run), never an error.
    pub fn load(path: &Path) -> Option<Cache> {
        let text = std::fs::read_to_string(path).ok()?;
        let root = parse_json(&text)?;
        let obj = root.as_obj()?;
        if obj.get("version")?.as_u64()? != CACHE_VERSION {
            return None;
        }
        if obj.get("rules_version")?.as_u64()? != RULES_VERSION {
            return None;
        }
        let mut files = BTreeMap::new();
        for (path, entry) in obj.get("files")?.as_obj()? {
            let e = entry.as_obj()?;
            let hash = u64::from_str_radix(e.get("hash")?.as_str()?, 16).ok()?;
            let findings = parse_findings(e.get("findings")?)?;
            let mut markers = Vec::new();
            for m in e.get("markers")?.as_arr()? {
                let pair = m.as_arr()?;
                let line = pair.first()?.as_u64()? as usize;
                let category = pair.get(1)?.as_str()?.to_string();
                markers.push((line, category));
            }
            let mut used = BTreeSet::new();
            for u in e.get("used")?.as_arr()? {
                used.insert(u.as_u64()? as usize);
            }
            files.insert(path.clone(), FileEntry { hash, findings, markers, used });
        }
        let graph = match obj.get("graph") {
            None => None,
            Some(g) => {
                let g = g.as_obj()?;
                let digest = u64::from_str_radix(g.get("digest")?.as_str()?, 16).ok()?;
                let findings = parse_findings(g.get("findings")?)?;
                let mut used = BTreeSet::new();
                for u in g.get("used")?.as_arr()? {
                    let pair = u.as_arr()?;
                    let file = pair.first()?.as_str()?.to_string();
                    let marker = pair.get(1)?.as_u64()? as usize;
                    used.insert((file, marker));
                }
                let fns = g.get("fns")?.as_u64()? as usize;
                let edges = g.get("edges")?.as_u64()? as usize;
                Some(GraphEntry { digest, findings, used, fns, edges })
            }
        };
        Some(Cache { files, graph })
    }

    /// Renders and writes the cache, creating the parent directory.
    pub fn store(&self, path: &Path) -> Result<(), String> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("create {}: {e}", parent.display()))?;
        }
        std::fs::write(path, self.render())
            .map_err(|e| format!("write {}: {e}", path.display()))
    }

    /// The JSON text for this cache.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"version\":{CACHE_VERSION},\"rules_version\":{RULES_VERSION},\"files\":{{"
        ));
        for (i, (path, e)) in self.files.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, path);
            out.push_str(&format!(":{{\"hash\":\"{:016x}\",\"findings\":", e.hash));
            write_findings(&mut out, &e.findings);
            out.push_str(",\"markers\":[");
            for (j, (line, category)) in e.markers.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{line},"));
                write_str(&mut out, category);
                out.push(']');
            }
            out.push_str("],\"used\":[");
            for (j, u) in e.used.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{u}"));
            }
            out.push_str("]}");
        }
        out.push('}');
        if let Some(g) = &self.graph {
            out.push_str(&format!(",\"graph\":{{\"digest\":\"{:016x}\",\"findings\":", g.digest));
            write_findings(&mut out, &g.findings);
            out.push_str(",\"used\":[");
            for (j, (file, marker)) in g.used.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('[');
                write_str(&mut out, file);
                out.push_str(&format!(",{marker}]"));
            }
            out.push_str(&format!("],\"fns\":{},\"edges\":{}}}", g.fns, g.edges));
        }
        out.push('}');
        out
    }
}

/// Renders findings as a JSON array — shared between the cache file and
/// the `--format json` CI payload.
pub fn findings_json(findings: &[Finding]) -> String {
    let mut out = String::new();
    write_findings(&mut out, findings);
    out
}

fn parse_findings(v: &Json) -> Option<Vec<Finding>> {
    let mut findings = Vec::new();
    for f in v.as_arr()? {
        let f = f.as_obj()?;
        let rule_name = f.get("rule")?.as_str()?;
        let rule = RULE_NAMES.iter().copied().find(|r| *r == rule_name)?;
        findings.push(Finding {
            file: f.get("file")?.as_str()?.to_string(),
            line: f.get("line")?.as_u64()? as usize,
            rule,
            message: f.get("message")?.as_str()?.to_string(),
        });
    }
    Some(findings)
}

fn write_findings(out: &mut String, findings: &[Finding]) {
    out.push('[');
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"file\":");
        write_str(out, &f.file);
        out.push_str(&format!(",\"line\":{},\"rule\":", f.line));
        write_str(out, f.rule);
        out.push_str(",\"message\":");
        write_str(out, &f.message);
        out.push('}');
    }
    out.push(']');
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// A parsed JSON value — the subset the cache writes: objects, arrays,
/// strings and unsigned integers.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Str(String),
    Num(u64),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&Vec<Json>> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

fn parse_json(text: &str) -> Option<Json> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos == p.bytes.len() {
        Some(v)
    } else {
        None
    }
}

/// Recursion guard: the cache nests four levels deep; anything deeper
/// is not ours.
const MAX_DEPTH: usize = 16;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> u8 {
        self.bytes.get(self.pos).copied().unwrap_or(0)
    }

    fn skip_ws(&mut self) {
        while self.peek().is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Option<()> {
        self.skip_ws();
        if self.peek() == c {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn value(&mut self, depth: usize) -> Option<Json> {
        if depth > MAX_DEPTH {
            return None;
        }
        self.skip_ws();
        match self.peek() {
            b'{' => self.object(depth),
            b'[' => self.array(depth),
            b'"' => self.string().map(Json::Str),
            b'0'..=b'9' => self.number(),
            _ => None,
        }
    }

    fn object(&mut self, depth: usize) -> Option<Json> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == b'}' {
            self.pos += 1;
            return Some(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            let val = self.value(depth + 1)?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Some(Json::Obj(map));
                }
                _ => return None,
            }
        }
    }

    fn array(&mut self, depth: usize) -> Option<Json> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == b']' {
            self.pos += 1;
            return Some(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Some(Json::Arr(items));
                }
                _ => return None,
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        if self.peek() != b'"' {
            return None;
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.peek(), b'"' | b'\\' | 0) {
                self.pos += 1;
            }
            out.push_str(std::str::from_utf8(self.bytes.get(start..self.pos)?).ok()?);
            match self.peek() {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek() {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5)?;
                            let hex = std::str::from_utf8(hex).ok()?;
                            let code = u32::from_str_radix(hex, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            self.pos += 4;
                        }
                        _ => return None,
                    }
                    self.pos += 1;
                }
                _ => return None, // unterminated
            }
        }
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.pos;
        while self.peek().is_ascii_digit() {
            self.pos += 1;
        }
        if self.pos == start {
            return None;
        }
        let text = std::str::from_utf8(self.bytes.get(start..self.pos)?).ok()?;
        text.parse::<u64>().ok().map(Json::Num)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_order_sensitive() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"ab"), fnv64(b"ba"));
        let mut a = BTreeMap::new();
        a.insert("x.rs".to_string(), 1u64);
        let mut b = a.clone();
        b.insert("y.rs".to_string(), 2u64);
        assert_ne!(tree_digest(&a), tree_digest(&b));
    }

    #[test]
    fn cache_round_trips_through_render_and_parse() {
        let mut files = BTreeMap::new();
        files.insert(
            "crates/core/src/sds.rs".to_string(),
            FileEntry {
                hash: 0xdead_beef,
                findings: vec![Finding {
                    file: "crates/core/src/sds.rs".to_string(),
                    line: 12,
                    rule: "L1/panic",
                    message: "has \"quotes\" and\nnewlines — and dashes".to_string(),
                }],
                markers: vec![(3, "panic".to_string())],
                used: BTreeSet::from([0]),
            },
        );
        let graph = Some(GraphEntry {
            digest: 42,
            findings: vec![Finding {
                file: "crates/engine/src/engine.rs".to_string(),
                line: 700,
                rule: "L10/determinism-taint",
                message: "chain".to_string(),
            }],
            used: BTreeSet::from([("crates/runner/src/lib.rs".to_string(), 1usize)]),
            fns: 250,
            edges: 430,
        });
        let cache = Cache { files, graph };
        let text = cache.render();
        let dir = std::env::temp_dir().join("xtask-cache-test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("roundtrip.json");
        std::fs::write(&path, &text).expect("write temp cache");
        let loaded = Cache::load(&path).expect("cache parses");
        assert_eq!(loaded.files.len(), 1);
        let e = loaded.files.get("crates/core/src/sds.rs").expect("entry");
        assert_eq!(e.hash, 0xdead_beef);
        assert_eq!(e.findings, cache.files.get("crates/core/src/sds.rs").map(|e| e.findings.clone()).unwrap_or_default());
        assert_eq!(e.markers, vec![(3, "panic".to_string())]);
        assert!(e.used.contains(&0));
        let g = loaded.graph.expect("graph entry");
        assert_eq!(g.digest, 42);
        assert_eq!(g.fns, 250);
        assert_eq!(g.edges, 430);
        assert!(g.used.contains(&("crates/runner/src/lib.rs".to_string(), 1)));
    }

    #[test]
    fn version_mismatch_and_garbage_yield_cold_runs() {
        let dir = std::env::temp_dir().join("xtask-cache-test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("bad.json");
        std::fs::write(&path, "{\"version\":999,\"rules_version\":1,\"files\":{}}")
            .expect("write");
        assert!(Cache::load(&path).is_none());
        std::fs::write(&path, "not json at all").expect("write");
        assert!(Cache::load(&path).is_none());
        std::fs::write(&path, "{\"version\":1").expect("write");
        assert!(Cache::load(&path).is_none());
        assert!(Cache::load(&dir.join("missing.json")).is_none());
    }

    #[test]
    fn unknown_rule_codes_discard_the_cache() {
        let text = format!(
            "{{\"version\":{CACHE_VERSION},\"rules_version\":{RULES_VERSION},\"files\":{{\
             \"a.rs\":{{\"hash\":\"00000000000000ff\",\"findings\":[{{\"file\":\"a.rs\",\
             \"line\":1,\"rule\":\"L99/bogus\",\"message\":\"m\"}}],\"markers\":[],\
             \"used\":[]}}}}}}"
        );
        let dir = std::env::temp_dir().join("xtask-cache-test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("unknown-rule.json");
        std::fs::write(&path, text).expect("write");
        assert!(Cache::load(&path).is_none());
    }
}
