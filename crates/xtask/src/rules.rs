//! The local rule scanners (L1–L3, L5–L8, L11) that run over lexed
//! source files, plus the suppression-range machinery shared with the
//! graph rules in [`crate::callgraph`].
//!
//! Every scanner works on the *stripped* code from [`crate::lexer`], so
//! comments and string literals can never trigger a finding. Code inside
//! `#[cfg(test)]` items is exempt from all content rules: tests may
//! unwrap freely.

use std::collections::BTreeSet;

use crate::lexer::{strip, Allow};
use crate::symbols::FileSymbols;

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path as displayed to the user (workspace-relative).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Short rule code, e.g. `L1/panic`.
    pub rule: &'static str,
    /// Human-readable description with the remedy.
    pub message: String,
}

/// How a file is scoped for rule selection.
#[derive(Debug, Clone, Copy)]
pub struct FileScope {
    /// True for crates whose results must be bit-reproducible
    /// (`sim`, `stats`, `core`): bans `HashMap`/`HashSet` there.
    pub deterministic: bool,
    /// True for the harness crates (`runner`, `bench`, `xtask`): the only
    /// places allowed to spawn threads or read wall-clock time.
    pub harness: bool,
    /// True for the crate that owns seed derivation (`stats`): everywhere
    /// else the golden-ratio seed constant is a sign that a caller is
    /// re-deriving seeds by hand instead of going through
    /// `memdos_stats::rng`.
    pub seed_authority: bool,
    /// True for the crate that owns the detection schemes (`core`): the
    /// only place allowed to call the scheme-private `on_sample` stepping
    /// methods. Every other crate steps detectors through the `Detector`
    /// trait (`on_observation`), which is the sole supported surface
    /// since the verdict API unification.
    pub detector_authority: bool,
    /// True for the crates with an allocation-free ingest contract
    /// (`engine`, `metrics`): functions marked `// hot-path` there must
    /// not build `String`s (`format!`, `.to_string()`, …) — the L7
    /// family.
    pub hot_path_checked: bool,
    /// True for the crate sanctioned to hold cross-thread shared state
    /// (`runner`, whose `parallel_map` and grid fan hand jobs to worker
    /// threads): everywhere else
    /// `Mutex`/`RwLock`/`Atomic*`/`RefCell`/`Cell`/`static mut` are
    /// banned — the L8 family. Cross-thread mutable state is how
    /// determinism dies at fleet scale.
    pub shared_state_sanctioned: bool,
}

/// Every category a `lint:allow(<category>)` marker may name. A marker
/// with any other category is reported by the `allow-unknown` rule.
pub const KNOWN_CATEGORIES: [&str; 16] = [
    "panic",
    "index",
    "time",
    "collections",
    "rand",
    "float-eq",
    "partial-cmp",
    "thread",
    "seed",
    "step",
    "profile",
    "hot-alloc",
    "shared-state",
    "hot-propagate",
    "determinism-taint",
    "verdict-match",
];

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// True when `line` constructs a Stage-1 `Profiler` (`Profiler::new(`
/// or `Profiler::default(`, not a longer name ending in `Profiler`).
fn builds_profiler(line: &str) -> bool {
    ["Profiler::new(", "Profiler::default("].iter().any(|pat| {
        line.match_indices(pat)
            .any(|(at, _)| line.as_bytes().get(at.wrapping_sub(1)).is_none_or(|&b| !is_ident(b)))
    })
}

/// True when `token` occurs in `line` delimited by non-identifier chars.
fn has_token(line: &str, token: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0usize;
    while let Some(pos) = line.get(from..).and_then(|s| s.find(token)) {
        let start = from + pos;
        let end = start + token.len();
        let before_ok = start == 0 || !is_ident(bytes.get(start - 1).copied().unwrap_or(0));
        let after_ok = !is_ident(bytes.get(end).copied().unwrap_or(0));
        if before_ok && after_ok {
            return true;
        }
        from = start + 1;
    }
    false
}

/// Lines covered by `#[cfg(test)]` items (inclusive 1-based ranges).
///
/// Scans the stripped code for the attribute, then brace-matches the item
/// that follows. Brace matching on stripped code is reliable because
/// braces inside strings and comments are already blanked.
fn test_ranges(code: &str) -> Vec<(usize, usize)> {
    let bytes = code.as_bytes();
    let compact: String = code.split_whitespace().collect::<Vec<_>>().join("");
    // Fast path: no test attribute anywhere.
    if !compact.contains("#[cfg(test)]") {
        return Vec::new();
    }
    let mut ranges = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes.get(i).copied().unwrap_or(0);
        if c == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c == b'#' && code.get(i..).is_some_and(|s| {
            let head: String = s.chars().take_while(|&ch| ch != ']').collect();
            let squeezed: String = head.split_whitespace().collect();
            squeezed == "#[cfg(test)"
        }) {
            let start_line = line;
            // Find the item body: first '{' (brace-matched) or ';' for a
            // brace-less item like `#[cfg(test)] use foo;`.
            let mut depth = 0usize;
            let mut seen_brace = false;
            while i < bytes.len() {
                match bytes.get(i).copied().unwrap_or(0) {
                    b'\n' => line += 1,
                    b'{' => {
                        depth += 1;
                        seen_brace = true;
                    }
                    b'}' => {
                        depth = depth.saturating_sub(1);
                        if seen_brace && depth == 0 {
                            break;
                        }
                    }
                    b';' if !seen_brace => break,
                    _ => {}
                }
                i += 1;
            }
            ranges.push((start_line, line));
        }
        i += 1;
    }
    ranges
}

fn in_ranges(ranges: &[(usize, usize)], line: usize) -> bool {
    ranges.iter().any(|&(lo, hi)| (lo..=hi).contains(&line))
}

/// Inclusive 1-based line ranges of functions marked `// hot-path`.
///
/// The marker is a comment, so it is read from the *raw* source (the
/// stripped code has blanked it); the function body it announces is then
/// brace-matched in the stripped code, where braces in strings and
/// comments cannot confuse the matcher. The marker covers the first `fn`
/// within the next few lines, so it sits naturally between a doc comment
/// and the signature.
fn hot_path_ranges(source: &str, code: &str) -> Vec<(usize, usize)> {
    let markers: Vec<usize> = source
        .lines()
        .enumerate()
        .filter(|(_, l)| {
            let t = l.trim();
            t == "// hot-path" || t.starts_with("// hot-path ")
        })
        .map(|(i, _)| i + 1)
        .collect();
    if markers.is_empty() {
        return Vec::new();
    }
    let code_lines: Vec<&str> = code.lines().collect();
    let mut ranges = Vec::new();
    for mark in markers {
        // `mark` is 1-based, so index `mark` is the line after it.
        let Some(fn_idx) = (mark..code_lines.len().min(mark + 8))
            .find(|&i| code_lines.get(i).is_some_and(|l| has_token(l, "fn")))
        else {
            continue;
        };
        let mut depth = 0usize;
        let mut seen_brace = false;
        let mut end = fn_idx;
        'body: for (i, l) in code_lines.iter().enumerate().skip(fn_idx) {
            for c in l.bytes() {
                match c {
                    b'{' => {
                        depth += 1;
                        seen_brace = true;
                    }
                    b'}' => {
                        depth = depth.saturating_sub(1);
                        if seen_brace && depth == 0 {
                            end = i;
                            break 'body;
                        }
                    }
                    // A body-less signature (trait method) ends the item.
                    b';' if !seen_brace => {
                        end = i;
                        break 'body;
                    }
                    _ => {}
                }
            }
            end = i;
        }
        ranges.push((fn_idx + 1, end + 1));
    }
    ranges
}

/// A resolved suppression range: a justified `lint:allow` marker covers
/// lines `lo..=hi` (1-based, inclusive) for its category. `marker`
/// indexes the file's justified-marker list so the workspace pass can
/// report markers that suppressed nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowRange {
    pub category: String,
    pub lo: usize,
    pub hi: usize,
    pub marker: usize,
}

/// Everything the per-file phase knows about one source file.
#[derive(Debug, Clone, Default)]
pub struct FileReport {
    /// Local findings (L1–L3, L5–L8, L11 and the allow hygiene rules).
    pub findings: Vec<Finding>,
    /// Resolved suppression ranges, for the graph phase.
    pub allows: Vec<AllowRange>,
    /// Justified markers as `(line, category)`, indexed by
    /// [`AllowRange::marker`].
    pub markers: Vec<(usize, String)>,
    /// Marker indices consumed by the local rules (or exempt from the
    /// unused-allow report).
    pub used: BTreeSet<usize>,
}

/// Resolves justified markers to suppression ranges. A marker covers
/// its own line through the first following line with code; placed
/// above an `fn` signature (attributes in between are fine) it covers
/// the whole item, so one marker can justify a function-wide contract.
fn allow_ranges(
    allows: &[Allow],
    code: &str,
    symbols: &FileSymbols,
) -> (Vec<AllowRange>, Vec<(usize, String)>) {
    let lines: Vec<&str> = code.lines().collect();
    let mut ranges = Vec::new();
    let mut markers = Vec::new();
    for a in allows.iter().filter(|a| a.justified) {
        let marker = markers.len();
        markers.push((a.line, a.category.clone()));
        let mut hi = a.line;
        // First line with code below the marker (the marker's own line
        // is comment-only after stripping).
        let next = (a.line..lines.len())
            .find(|&i| lines.get(i).is_some_and(|l| !l.trim().is_empty()))
            .map(|i| i + 1);
        if let Some(next) = next {
            hi = next;
            // Walk past attribute lines to the signature they decorate.
            let mut sig = next;
            while lines
                .get(sig.wrapping_sub(1))
                .is_some_and(|l| l.trim_start().starts_with("#["))
            {
                sig += 1;
            }
            if let Some(f) = symbols.fns.iter().find(|f| f.sig_line as usize == sig) {
                hi = hi.max(f.span.1 as usize);
            }
        }
        ranges.push(AllowRange { category: a.category.clone(), lo: a.line, hi, marker });
    }
    (ranges, markers)
}

/// Resolves a file's justified markers to suppression ranges without
/// running any content rules. The cache-hit path replays findings but
/// still needs ranges when the graph phase has to rebuild.
pub fn resolve_allows(
    source: &str,
    symbols: &FileSymbols,
) -> (Vec<AllowRange>, Vec<(usize, String)>) {
    let stripped = strip(source);
    allow_ranges(&stripped.allows, &stripped.code, symbols)
}

/// Appends `finding` unless a suppression range covers it; covering
/// ranges have their markers recorded in `used` either way.
#[allow(clippy::too_many_arguments)]
fn push_finding(
    findings: &mut Vec<Finding>,
    ranges: &[AllowRange],
    used: &mut BTreeSet<usize>,
    file: &str,
    line: usize,
    rule: &'static str,
    category: &str,
    message: String,
) {
    let mut suppressed = false;
    for r in ranges {
        if r.category == category && (r.lo..=r.hi).contains(&line) {
            used.insert(r.marker);
            suppressed = true;
        }
    }
    if !suppressed {
        findings.push(Finding { file: file.to_string(), line, rule, message });
    }
}

/// Context window around a comparison operator, cut at expression
/// boundaries, used to decide whether the operands look like floats.
fn looks_float(context: &str) -> bool {
    if has_token(context, "f64") || has_token(context, "f32") {
        return true;
    }
    let bytes = context.as_bytes();
    bytes.iter().enumerate().any(|(i, &c)| {
        c == b'.'
            && i > 0
            && bytes.get(i - 1).copied().unwrap_or(0).is_ascii_digit()
            && bytes.get(i + 1).copied().unwrap_or(0).is_ascii_digit()
    })
}

const BOUNDARIES: [&str; 8] = ["&&", "||", ",", ";", "(", ")", "{", "}"]; // expression cut points

fn left_context(line: &str, op_start: usize) -> &str {
    let head = line.get(..op_start).unwrap_or("");
    let cut = BOUNDARIES
        .iter()
        .filter_map(|b| head.rfind(b).map(|p| p + b.len()))
        .max()
        .unwrap_or(0);
    head.get(cut..).unwrap_or("")
}

fn right_context(line: &str, op_end: usize) -> &str {
    let tail = line.get(op_end..).unwrap_or("");
    let cut = BOUNDARIES
        .iter()
        .filter_map(|b| tail.find(b))
        .min()
        .unwrap_or(tail.len());
    tail.get(..cut).unwrap_or("")
}

/// Scans one line for `==`/`!=` where an operand looks like a float.
fn float_eq_on_line(line: &str) -> bool {
    let bytes = line.as_bytes();
    (0..bytes.len()).any(|i| {
        let a = bytes.get(i).copied().unwrap_or(0);
        let b = bytes.get(i + 1).copied().unwrap_or(0);
        let c = bytes.get(i + 2).copied().unwrap_or(0);
        let is_eq = (a == b'=' || a == b'!') && b == b'=' && c != b'=';
        let prev = if i == 0 { 0 } else { bytes.get(i - 1).copied().unwrap_or(0) };
        // Exclude <=, >=, ==, +=, -=, ... second halves and pattern arms.
        let standalone = !matches!(prev, b'<' | b'>' | b'=' | b'!');
        is_eq
            && standalone
            && (looks_float(left_context(line, i)) || looks_float(right_context(line, i + 2)))
    })
}

/// Scans one line for indexing with a non-literal, non-range index.
fn unchecked_index_on_line(line: &str) -> bool {
    let bytes = line.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes.get(i).copied().unwrap_or(0) != b'[' {
            i += 1;
            continue;
        }
        // What precedes decides whether this is an index operation: an
        // identifier, `]`, or `)` — but not a keyword (`let [a, b] = ..`
        // is a slice pattern, not indexing).
        let head = line.get(..i).unwrap_or("").trim_end();
        let prev = head.bytes().last();
        let word: String = head
            .bytes()
            .rev()
            .take_while(|&c| is_ident(c))
            .map(char::from)
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        const KEYWORDS: [&str; 12] = [
            "let", "in", "if", "else", "match", "return", "mut", "ref", "as", "move", "box",
            "dyn",
        ];
        // A lifetime before the bracket (`&'a [u8]`) is a slice type,
        // not an indexing expression.
        let lifetime = head
            .len()
            .checked_sub(word.len() + 1)
            .and_then(|p| head.as_bytes().get(p))
            .is_some_and(|&c| c == b'\'');
        let is_index = matches!(prev, Some(c) if is_ident(c) || c == b']' || c == b')')
            && !KEYWORDS.contains(&word.as_str())
            && !lifetime;
        // Find the matching close bracket on this line.
        let mut depth = 0usize;
        let mut j = i;
        while j < bytes.len() {
            match bytes.get(j).copied().unwrap_or(0) {
                b'[' => depth += 1,
                b']' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let inner = line.get(i + 1..j.min(bytes.len())).unwrap_or("").trim();
        let literal = !inner.is_empty()
            && inner.bytes().all(|c| c.is_ascii_digit() || c == b'_');
        let range = inner.contains("..");
        if is_index && !literal && !range && !inner.is_empty() {
            return true;
        }
        i = j.max(i) + 1;
    }
    false
}

/// Runs all local content rules over one source file. The convenience
/// wrapper around [`check_file`] for callers that only want findings.
pub fn check_source(file: &str, source: &str, scope: FileScope) -> Vec<Finding> {
    let stream = crate::lexer::tokenize(source);
    let symbols = crate::symbols::extract(source, &stream);
    check_file(file, source, scope, &symbols).findings
}

/// Runs all local content rules (L1–L3, L5–L8, L11) over one source
/// file. `symbols` must be the phase-1 extraction of the same source;
/// the fn spans drive item-wide allow coverage, and the returned ranges
/// feed the graph phase.
pub fn check_file(
    file: &str,
    source: &str,
    scope: FileScope,
    symbols: &FileSymbols,
) -> FileReport {
    let stripped = strip(source);
    let tests = test_ranges(&stripped.code);
    let hot = if scope.hot_path_checked {
        hot_path_ranges(source, &stripped.code)
    } else {
        Vec::new()
    };
    let mut findings: Vec<Finding> = Vec::new();

    for a in &stripped.allows {
        if !a.justified {
            findings.push(Finding {
                file: file.to_string(),
                line: a.line,
                rule: "allow",
                message: format!(
                    "lint:allow({}) needs a written justification: `-- <reason>`",
                    a.category
                ),
            });
        }
        if !KNOWN_CATEGORIES.contains(&a.category.as_str()) {
            findings.push(Finding {
                file: file.to_string(),
                line: a.line,
                rule: "allow-unknown",
                message: format!(
                    "lint:allow({}) names no rule category; see KNOWN_CATEGORIES in \
                     xtask::rules for the full list",
                    a.category
                ),
            });
        }
    }

    let (ranges, markers) = allow_ranges(&stripped.allows, &stripped.code, symbols);
    let mut used: BTreeSet<usize> = BTreeSet::new();
    for (m, (line, category)) in markers.iter().enumerate() {
        // Markers inside test code can never fire (tests are exempt from
        // every rule), and unknown categories are already reported above:
        // neither belongs in the unused-allow report.
        if in_ranges(&tests, *line) || !KNOWN_CATEGORIES.contains(&category.as_str()) {
            used.insert(m);
        }
    }

    let panic_patterns: [(&str, &str); 6] = [
        (".unwrap()", "unwrap() can panic; propagate with `?` or handle the None/Err"),
        (".expect(", "expect() can panic; return an Err through the crate's error type"),
        ("panic!", "panic! in library code; return an Err instead"),
        ("unreachable!", "unreachable! in library code; make the state unrepresentable or return Err"),
        ("todo!", "todo! left in library code"),
        ("unimplemented!", "unimplemented! left in library code"),
    ];

    // In a file defining its own `fn expect(`, `self.expect(` calls it.
    let own_expect = symbols.fns.iter().any(|f| f.name == "expect" && !f.is_test);

    for (idx, raw_line) in stripped.code.lines().enumerate() {
        let line_no = idx + 1;
        if in_ranges(&tests, line_no) {
            continue;
        }
        let mut push = |rule: &'static str, category: &str, message: String| {
            push_finding(
                &mut findings,
                &ranges,
                &mut used,
                file,
                line_no,
                rule,
                category,
                message,
            );
        };
        let panic_line: std::borrow::Cow<str> = if own_expect {
            raw_line.replace("self.expect(", "self.own(").into()
        } else {
            raw_line.into()
        };
        for (pat, why) in panic_patterns {
            if panic_line.contains(pat) {
                push("L1/panic", "panic", format!("{pat} — {why}"));
                break;
            }
        }
        if unchecked_index_on_line(raw_line) {
            push(
                "L1/index",
                "index",
                "unchecked slice indexing can panic; use get()/iterators or justify with \
                 lint:allow(index)"
                    .to_string(),
            );
        }
        if !scope.harness
            && (has_token(raw_line, "Instant") || has_token(raw_line, "SystemTime"))
        {
            push(
                "L2/time",
                "time",
                "wall-clock time breaks reproducibility; thread tick counts through instead"
                    .to_string(),
            );
        }
        if scope.deterministic && (has_token(raw_line, "HashMap") || has_token(raw_line, "HashSet"))
        {
            push(
                "L2/collections",
                "collections",
                "HashMap/HashSet iteration order is nondeterministic; use BTreeMap/BTreeSet"
                    .to_string(),
            );
        }
        if has_token(raw_line, "thread_rng")
            || has_token(raw_line, "RandomState")
            || raw_line.contains("rand::") && !raw_line.contains("memdos")
        {
            let boundary_rand = {
                let bytes = raw_line.as_bytes();
                raw_line.match_indices("rand::").any(|(p, _)| {
                    p == 0 || !is_ident(bytes.get(p - 1).copied().unwrap_or(0))
                })
            } || has_token(raw_line, "thread_rng")
                || has_token(raw_line, "RandomState");
            if boundary_rand {
                push(
                    "L2/rand",
                    "rand",
                    "ambient randomness breaks reproducibility; use the seeded \
                     memdos_stats::rng::Rng"
                        .to_string(),
                );
            }
        }
        if float_eq_on_line(raw_line) {
            push(
                "L3/float-eq",
                "float-eq",
                "==/!= on floats is brittle; use memdos_stats::float::approx_eq".to_string(),
            );
        }
        if has_token(raw_line, "partial_cmp") {
            push(
                "L3/partial-cmp",
                "partial-cmp",
                "partial_cmp is NaN-unsafe; use f64::total_cmp for ordering".to_string(),
            );
        }
        if !scope.harness && spawns_thread(raw_line) {
            push(
                "L5/thread",
                "thread",
                "thread spawning is reserved for the harness crates \
                 (runner/bench/xtask); simulation and analysis code must stay \
                 single-threaded — hand the work to memdos_runner instead"
                    .to_string(),
            );
        }
        if !scope.seed_authority && has_seed_constant(raw_line) {
            push(
                "L5/seed",
                "seed",
                "hand-rolled seed derivation (golden-ratio constant) outside \
                 memdos_stats; derive seeds with memdos_stats::rng::derive_seed \
                 or Rng::fork"
                    .to_string(),
            );
        }
        if !scope.detector_authority && raw_line.contains(".on_sample(") {
            push(
                "L6/step",
                "step",
                "scheme-private on_sample stepping outside memdos-core; step \
                 detectors through the Detector trait (on_observation), which \
                 carries the Verdict and throttle state callers need"
                    .to_string(),
            );
        }
        if !scope.detector_authority && builds_profiler(raw_line) {
            push(
                "L6/profile",
                "profile",
                "Stage-1 profiler built outside memdos-core; profile through \
                 memdos_core::monitor (Monitor, profile_stage), which owns the \
                 profiler, its length and the arm step"
                    .to_string(),
            );
        }
        if !scope.shared_state_sanctioned {
            if let Some(prim) = shared_state_on_line(raw_line) {
                push(
                    "L8/shared-state",
                    "shared-state",
                    format!(
                        "`{prim}` outside the sanctioned shared-state crate \
                         (runner: parallel_map and the grid fan); cross-thread mutable \
                         state breaks the determinism contract — keep state single-owner, \
                         fan out through runner, or justify with lint:allow(shared-state)"
                    ),
                );
            }
        }
        if in_ranges(&hot, line_no) {
            const ALLOC_PATTERNS: [&str; 6] = [
                "format!",
                ".to_string(",
                ".to_owned(",
                "String::new(",
                "String::from(",
                "String::with_capacity(",
            ];
            for pat in ALLOC_PATTERNS {
                if raw_line.contains(pat) {
                    push(
                        "L7/hot-alloc",
                        "hot-alloc",
                        format!(
                            "{pat} inside a `// hot-path` function allocates a String \
                             per call; render through jsonl::LineBuf / the write_* \
                             formatters, or move the allocation out of the hot path"
                        ),
                    );
                    break;
                }
            }
        }
    }

    // L11/exhaustive-verdicts: bare `_` arms in matches over the
    // verdict/fault enums swallow new variants silently.
    for (line_no, enum_name) in wildcard_verdict_arms(&stripped.code) {
        if in_ranges(&tests, line_no) {
            continue;
        }
        push_finding(
            &mut findings,
            &ranges,
            &mut used,
            file,
            line_no,
            "L11/verdict-match",
            "verdict-match",
            format!(
                "`_` wildcard arm in a match over `{enum_name}`; a new \
                 {enum_name} variant would be silently swallowed — enumerate \
                 every variant, or justify with lint:allow(verdict-match)"
            ),
        );
    }

    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    FileReport { findings, allows: ranges, markers, used }
}

/// The first shared-state primitive named on the line: `Mutex`,
/// `RwLock`, `RefCell`, std's `Cell` (matched through its `cell::Cell`
/// path, because the workspace has unrelated `Cell` types of its own),
/// a std `Atomic*` type, or `static mut`.
fn shared_state_on_line(line: &str) -> Option<String> {
    for tok in ["Mutex", "RwLock", "RefCell"] {
        if has_token(line, tok) {
            return Some(tok.to_string());
        }
    }
    if line.contains("cell::Cell") {
        return Some("cell::Cell".to_string());
    }
    if let Some(name) = atomic_type_on_line(line) {
        return Some(name);
    }
    if static_mut_on_line(line) {
        return Some("static mut".to_string());
    }
    None
}

/// The std interior-mutability atomics are `Atomic` plus a width suffix
/// (`AtomicUsize`, `AtomicBool`, …). A bare `Atomic` identifier is the
/// simulated bus-lock op (`MemOp::Atomic`) and must not match.
fn atomic_type_on_line(line: &str) -> Option<String> {
    let bytes = line.as_bytes();
    let mut from = 0usize;
    while let Some(pos) = line.get(from..).and_then(|s| s.find("Atomic")) {
        let start = from + pos;
        let before_ok = start == 0 || !is_ident(bytes.get(start - 1).copied().unwrap_or(0));
        let end = (start..line.len())
            .find(|&i| !is_ident(bytes.get(i).copied().unwrap_or(0)))
            .unwrap_or(line.len());
        let ident = line.get(start..end).unwrap_or("");
        if before_ok && ident.len() > "Atomic".len() {
            return Some(ident.to_string());
        }
        from = end.max(start + 1);
    }
    None
}

/// True when the line declares a `static mut` item.
fn static_mut_on_line(line: &str) -> bool {
    let bytes = line.as_bytes();
    line.match_indices("static").any(|(p, _)| {
        let before_ok = p == 0 || !is_ident(bytes.get(p - 1).copied().unwrap_or(0));
        let rest = line.get(p + 6..).unwrap_or("").trim_start();
        before_ok && (rest == "mut" || rest.starts_with("mut "))
    })
}

/// Finds bare `_` arms in `match` bodies whose sibling arm *patterns*
/// name one of the verdict/fault enums. Only patterns (the text before
/// `=>`) are inspected, so an arm *body* mentioning `RecordError::…`
/// does not make its match a verdict match. Returns `(line, enum)`
/// pairs for each wildcard arm.
fn wildcard_verdict_arms(code: &str) -> Vec<(usize, String)> {
    const ENUMS: [&str; 3] = ["Verdict", "RecordError", "FaultClass"];
    let bytes = code.as_bytes();
    let at = |i: usize| bytes.get(i).copied().unwrap_or(0);
    let newlines: Vec<usize> = bytes
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .map(|(p, _)| p)
        .collect();
    let line_of = |p: usize| newlines.partition_point(|&q| q < p) + 1;

    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let boundary = i == 0 || !is_ident(at(i - 1));
        if !(boundary && code.get(i..i + 5) == Some("match") && !is_ident(at(i + 5))) {
            i += 1;
            continue;
        }
        // The match body is the first `{` at paren/bracket depth 0
        // (struct literals need parens in scrutinee position, so this
        // cannot be fooled by the scrutinee).
        let mut j = i + 5;
        let mut depth = 0usize;
        let body_open = loop {
            match at(j) {
                0 => break None,
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth = depth.saturating_sub(1),
                b'{' if depth == 0 => break Some(j),
                b';' if depth == 0 => break None, // not a match expression
                _ => {}
            }
            j += 1;
        };
        let Some(body_open) = body_open else {
            i = j.max(i + 5);
            continue;
        };

        // Walk the arms: patterns run to `=>` at depth 0 (relative to
        // the body); arm bodies are skipped (brace-matched blocks, or
        // expressions to the `,` at depth 0).
        let mut arms: Vec<(usize, usize)> = Vec::new();
        let mut k = body_open + 1;
        let mut pat_start = k;
        let mut d = 0usize;
        'body: while k < bytes.len() {
            match at(k) {
                b'(' | b'[' | b'{' => d += 1,
                b'}' if d == 0 => break 'body, // end of the match body
                b')' | b']' | b'}' => d = d.saturating_sub(1),
                b'=' if d == 0 && at(k + 1) == b'>' => {
                    arms.push((pat_start, k));
                    // Skip the arm body.
                    k += 2;
                    while at(k).is_ascii_whitespace() {
                        k += 1;
                    }
                    if at(k) == b'{' {
                        let mut bd = 0usize;
                        while k < bytes.len() {
                            match at(k) {
                                b'{' => bd += 1,
                                b'}' => {
                                    bd = bd.saturating_sub(1);
                                    if bd == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            k += 1;
                        }
                        k += 1;
                        while at(k).is_ascii_whitespace() {
                            k += 1;
                        }
                        if at(k) == b',' {
                            k += 1;
                        }
                    } else {
                        let mut ed = 0usize;
                        while k < bytes.len() {
                            match at(k) {
                                b'(' | b'[' | b'{' => ed += 1,
                                b',' if ed == 0 => {
                                    k += 1;
                                    break;
                                }
                                b'}' if ed == 0 => break 'body,
                                b')' | b']' | b'}' => ed = ed.saturating_sub(1),
                                _ => {}
                            }
                            k += 1;
                        }
                    }
                    pat_start = k;
                    continue 'body;
                }
                _ => {}
            }
            k += 1;
        }

        let pats: Vec<(usize, &str)> = arms
            .iter()
            .map(|&(s, e)| (s, code.get(s..e).unwrap_or("").trim()))
            .collect();
        if let Some(en) = ENUMS.iter().find(|en| {
            let needle = format!("{en}::");
            pats.iter().any(|(_, p)| p.contains(&needle))
        }) {
            for &(s, p) in &pats {
                if p == "_" {
                    // The pattern span may start with whitespace; report
                    // the line of the `_` itself.
                    let off = code.get(s..).map(|t| t.len() - t.trim_start().len()).unwrap_or(0);
                    out.push((line_of(s + off), en.to_string()));
                }
            }
        }
        // Resume just inside the body so nested matches are found too.
        i = body_open + 1;
    }
    out
}

/// True when the line creates OS threads: `std::thread` paths or the
/// `thread::spawn`/`thread::scope` idioms. `thread_local!` storage and
/// prose mentions of "thread" do not count.
fn spawns_thread(line: &str) -> bool {
    line.contains("std::thread")
        || line.contains("thread::spawn")
        || line.contains("thread::scope")
        || line.contains("thread::Builder")
}

/// True when the line spells the splitmix golden-ratio constant
/// (`0x9E3779B9…`), under any case or underscore grouping.
fn has_seed_constant(line: &str) -> bool {
    let squeezed: String = line
        .chars()
        .filter(|&c| c != '_')
        .collect::<String>()
        .to_ascii_lowercase();
    squeezed.contains("0x9e3779b9")
}

/// L4: `lib.rs` must forbid unsafe code, attribute checked on stripped
/// source so a commented-out attribute does not count.
pub fn check_forbid_unsafe(file: &str, source: &str) -> Vec<Finding> {
    let stripped = strip(source);
    let squeezed: String = stripped.code.split_whitespace().collect();
    if squeezed.contains("#![forbid(unsafe_code)]") {
        Vec::new()
    } else {
        vec![Finding {
            file: file.to_string(),
            line: 1,
            rule: "L4/unsafe",
            message: "lib.rs must carry #![forbid(unsafe_code)]".to_string(),
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCOPE: FileScope = FileScope {
        deterministic: true,
        harness: false,
        seed_authority: false,
        detector_authority: false,
        hot_path_checked: false,
        shared_state_sanctioned: false,
    };

    fn rules_of(source: &str) -> Vec<&'static str> {
        check_source("t.rs", source, SCOPE).iter().map(|f| f.rule).collect()
    }

    #[test]
    fn flags_unwrap_and_expect() {
        assert_eq!(rules_of("fn f() { x.unwrap(); }\n"), vec!["L1/panic"]);
        assert_eq!(rules_of("fn f() { x.expect(\"m\"); }\n"), vec!["L1/panic"]);
        assert!(rules_of("fn f() { x.unwrap_or(0); }\n").is_empty());
    }

    #[test]
    fn test_mod_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { x.unwrap(); }\n}\n";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn allow_with_reason_suppresses() {
        let src = "// lint:allow(panic) -- validated at startup\nfn f() { x.unwrap(); }\n";
        assert!(rules_of(src).is_empty());
        let bare = "// lint:allow(panic)\nfn f() { x.unwrap(); }\n";
        assert_eq!(rules_of(bare), vec!["allow", "L1/panic"]);
    }

    #[test]
    fn flags_variable_indexing_only() {
        assert_eq!(rules_of("fn f() { a[i] = 1; }\n"), vec!["L1/index"]);
        assert!(rules_of("fn f() { a[0] = 1; }\n").is_empty());
        assert!(rules_of("fn f() { b = &a[..n]; }\n").is_empty());
        assert!(rules_of("fn f() { v = vec![0; n]; }\n").is_empty());
        assert!(rules_of("fn f(x: [u8; 4]) {}\n").is_empty());
        assert!(rules_of("struct S<'a> { bytes: &'a [u8] }\n").is_empty());
    }

    #[test]
    fn flags_float_eq_not_int_eq() {
        assert_eq!(rules_of("fn f() { if x == 0.0 {} }\n"), vec!["L3/float-eq"]);
        assert_eq!(rules_of("fn f() { if y as f64 != z {} }\n"), vec!["L3/float-eq"]);
        assert!(rules_of("fn f() { if n == 0 {} }\n").is_empty());
        assert!(rules_of("fn f() { if n <= 0.5 {} }\n").is_empty());
    }

    #[test]
    fn flags_partial_cmp_and_time_and_hash() {
        assert_eq!(rules_of("fn f() { a.partial_cmp(&b); }\n"), vec!["L3/partial-cmp"]);
        assert_eq!(rules_of("fn f() { let t = Instant::now(); }\n"), vec!["L2/time"]);
        assert_eq!(
            rules_of("use std::collections::HashMap;\n"),
            vec!["L2/collections"]
        );
        let loose = FileScope { deterministic: false, ..SCOPE };
        assert!(check_source("t.rs", "use std::collections::HashMap;\n", loose).is_empty());
    }

    #[test]
    fn flags_thread_spawning_outside_harness_scope() {
        assert_eq!(rules_of("fn f() { std::thread::spawn(|| {}); }\n"), vec!["L5/thread"]);
        assert_eq!(rules_of("fn f() { thread::scope(|s| {}); }\n"), vec!["L5/thread"]);
        // Thread-local storage and prose are not spawning.
        assert!(rules_of("thread_local! { static X: u8 = 0; }\n").is_empty());
        let harness = FileScope { deterministic: false, harness: true, ..SCOPE };
        let src = "fn f() { std::thread::spawn(|| {}); let t = Instant::now(); }\n";
        assert!(check_source("t.rs", src, harness).is_empty());
    }

    #[test]
    fn flags_seed_constant_outside_stats() {
        assert_eq!(
            rules_of("const S: u64 = seed ^ run.wrapping_mul(0x9E37_79B9_7F4A_7C15);\n"),
            vec!["L5/seed"]
        );
        assert_eq!(rules_of("let s = x * 0x9e3779b97f4a7c15u64;\n"), vec!["L5/seed"]);
        let stats = FileScope { seed_authority: true, ..SCOPE };
        let src = "const S: u64 = 0x9E37_79B9_7F4A_7C15;\n";
        assert!(check_source("t.rs", src, stats).is_empty());
        assert!(rules_of("let s = memdos_stats::rng::derive_seed(base, run);\n").is_empty());
    }

    #[test]
    fn flags_on_sample_stepping_outside_core() {
        assert_eq!(rules_of("fn f() { det.on_sample(x); }\n"), vec!["L6/step"]);
        assert!(rules_of("fn f() { det.on_observation(obs); }\n").is_empty());
        // A local function *named* on_sample is not a method call.
        assert!(rules_of("fn on_sample(x: f64) {}\n").is_empty());
        let core = FileScope { detector_authority: true, ..SCOPE };
        assert!(check_source("t.rs", "fn f() { det.on_sample(x); }\n", core).is_empty());
    }

    #[test]
    fn flags_profiler_construction_outside_core() {
        assert_eq!(rules_of("fn f() { let p = Profiler::new(cfg)?; }\n"), vec!["L6/profile"]);
        assert_eq!(rules_of("let p = core::profile::Profiler::default();\n"), vec!["L6/profile"]);
        // A longer name, a type mention and the monitor are not builds.
        assert!(rules_of("let p = StageProfiler::new(cfg);\n").is_empty());
        assert!(rules_of("fn f(p: &Profiler) -> u64 { p.observations() }\n").is_empty());
        assert!(rules_of("let m = Monitor::<Sds>::new(&params, ticks)?;\n").is_empty());
        let core = FileScope { detector_authority: true, ..SCOPE };
        assert!(check_source("t.rs", "let p = Profiler::new(cfg)?;\n", core).is_empty());
    }

    #[test]
    fn flags_string_allocation_in_hot_path_functions_only() {
        let hot = FileScope { hot_path_checked: true, ..SCOPE };
        let rules = |src: &str| -> Vec<&'static str> {
            check_source("t.rs", src, hot).iter().map(|f| f.rule).collect()
        };
        // Inside a marked function: every String-allocating idiom flags.
        let src = "// hot-path\nfn f(x: u32) -> String { format!(\"{x}\") }\n";
        assert_eq!(rules(src), vec!["L7/hot-alloc"]);
        let src = "// hot-path\nfn f(x: u32) -> String { x.to_string() }\n";
        assert_eq!(rules(src), vec!["L7/hot-alloc"]);
        let src = "// hot-path\nfn f(s: &str) -> String { s.to_owned() }\n";
        assert_eq!(rules(src), vec!["L7/hot-alloc"]);
        let src = "// hot-path\nfn f() -> String { String::with_capacity(8) }\n";
        assert_eq!(rules(src), vec!["L7/hot-alloc"]);
        // The marker reaches past attributes to its fn, and the range
        // ends with the body: the next (unmarked) fn is free to allocate.
        let src = "// hot-path\n#[inline]\nfn f(out: &mut String) {\n    out.push('x');\n}\n\nfn cold() -> String { format!(\"ok\") }\n";
        assert!(rules(src).is_empty());
        // Unmarked functions never flag, and without scope nothing does.
        assert!(rules("fn f(x: u32) -> String { format!(\"{x}\") }\n").is_empty());
        let src = "// hot-path\nfn f(x: u32) -> String { format!(\"{x}\") }\n";
        assert!(check_source("t.rs", src, SCOPE).is_empty());
        // A justified allow suppresses, as everywhere.
        let src = "// hot-path\nfn f(x: u32) -> String {\n    // lint:allow(hot-alloc) -- cold error branch\n    format!(\"{x}\")\n}\n";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn flags_shared_state_outside_sanctioned_modules() {
        assert_eq!(rules_of("static COUNT: Mutex<u64> = Mutex::new(0);\n"), vec!["L8/shared-state"]);
        assert_eq!(rules_of("fn f() { let c = RefCell::new(0); }\n"), vec!["L8/shared-state"]);
        assert_eq!(rules_of("use std::sync::atomic::AtomicUsize;\n"), vec!["L8/shared-state"]);
        assert_eq!(rules_of("static mut X: u64 = 0;\n"), vec!["L8/shared-state"]);
        assert_eq!(rules_of("use std::cell::Cell;\n"), vec!["L8/shared-state"]);
        // The simulated bus-lock op is exactly `Atomic` — not a std type.
        assert!(rules_of("fn f() { ops.push(MemOp::Atomic); }\n").is_empty());
        // The workspace's own `Cell` types (bench figure cells) are fine.
        assert!(rules_of("fn f(c: &Cell) -> u32 { c.runs }\n").is_empty());
        // `OnceCell`/`OnceLock` are init-once, not shared mutability.
        assert!(rules_of("fn f() { let c = OnceLock::new(); }\n").is_empty());
        assert!(rules_of("static X: u64 = 0;\n").is_empty());
        let sanctioned = FileScope { shared_state_sanctioned: true, ..SCOPE };
        let src = "static COUNT: Mutex<u64> = Mutex::new(0);\n";
        assert!(check_source("t.rs", src, sanctioned).is_empty());
        // A justified allow suppresses, as everywhere.
        let src = "// lint:allow(shared-state) -- plan cache is thread-local\nfn f() { let c = RefCell::new(0); }\n";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn flags_wildcard_arms_over_verdict_enums_only() {
        let src = "\
fn f(v: Verdict) -> u32 {
    match v {
        Verdict::Normal => 0,
        _ => 1,
    }
}
";
        assert_eq!(rules_of(src), vec!["L11/verdict-match"]);
        // Line points at the wildcard arm.
        let f = check_source("t.rs", src, SCOPE);
        assert_eq!(f.first().map(|f| f.line), Some(4));
        // A match whose *body* mentions the enum is not a verdict match.
        let src = "\
fn g(x: u32) -> RawParse {
    match x {
        0 => RawParse::Ok,
        _ => RawParse::Reject(RecordError::Syntax),
    }
}
";
        assert!(rules_of(src).is_empty());
        // Exhaustive matches and guarded wildcards pass.
        let src = "\
fn h(v: Verdict) -> u32 {
    match v {
        Verdict::Normal => 0,
        Verdict::Suspicious { .. } => 1,
        Verdict::Alarm => 2,
    }
}
";
        assert!(rules_of(src).is_empty());
        let src = "\
fn k(c: FaultClass) -> u32 {
    match c {
        FaultClass::Stall => 4,
        _ if cheap() => 0,
        other => tag(other),
    }
}
";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn wildcard_detection_handles_nested_matches_and_block_arms() {
        let src = "\
fn f(v: Verdict, x: u32) -> u32 {
    match x {
        0 => {
            match v {
                Verdict::Alarm => 1,
                _ => 2,
            }
        }
        n => n,
    }
}
";
        let f = check_source("t.rs", src, SCOPE);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f.first().map(|f| (f.rule, f.line)), Some(("L11/verdict-match", 6)));
    }

    #[test]
    fn reports_unknown_allow_categories() {
        let src = "// lint:allow(sloppiness) -- because\nfn f() {}\n";
        assert_eq!(rules_of(src), vec!["allow-unknown"]);
    }

    #[test]
    fn allow_above_fn_signature_covers_the_whole_item() {
        let src = "\
// lint:allow(panic) -- prototype scaffolding, tracked in #42
fn f(x: Option<u32>) -> u32 {
    let a = x.unwrap();
    a + helper().unwrap()
}
fn g(x: Option<u32>) -> u32 { x.unwrap() }
";
        let f = check_source("t.rs", src, SCOPE);
        // Both unwraps in `f` are covered; `g` still flags.
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f.first().map(|f| f.line), Some(6));
        // Attributes between the marker and the signature are fine.
        let src = "\
// lint:allow(panic) -- fixture
#[inline]
fn f(x: Option<u32>) -> u32 {
    x.unwrap()
}
";
        assert!(check_source("t.rs", src, SCOPE).is_empty());
    }

    #[test]
    fn check_file_tracks_used_markers() {
        let src = "\
// lint:allow(panic) -- covers the unwrap below
fn f(x: Option<u32>) -> u32 { x.unwrap() }
// lint:allow(panic) -- covers nothing
fn g(x: u32) -> u32 { x }
";
        let stream = crate::lexer::tokenize(src);
        let symbols = crate::symbols::extract(src, &stream);
        let report = check_file("t.rs", src, SCOPE, &symbols);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.markers.len(), 2);
        assert!(report.used.contains(&0), "first marker suppressed the unwrap");
        assert!(!report.used.contains(&1), "second marker is stale");
    }

    #[test]
    fn forbid_unsafe_checked_on_stripped_source() {
        assert!(check_forbid_unsafe("l.rs", "#![forbid(unsafe_code)]\n").is_empty());
        assert_eq!(check_forbid_unsafe("l.rs", "// #![forbid(unsafe_code)]\n").len(), 1);
    }
}
