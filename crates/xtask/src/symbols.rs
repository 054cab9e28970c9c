//! Phase-1 item parser: per-file symbol extraction.
//!
//! Walks the token stream from [`crate::lexer::tokenize`] and pulls out
//! the items the graph rules need — `fn` definitions with their body
//! spans and `impl` context, the call sites inside each body, `use`
//! imports, and per-function *facts*: String-allocation sites (for
//! L9/hot-propagate) and determinism-taint sites (`HashMap`/`HashSet`,
//! `std::env` reads, wall-clock types — for L10). The parser is
//! deliberately conservative: it never needs to type-check, it only has
//! to over-approximate the call graph so reachability analysis errs
//! toward flagging.

use crate::lexer::{Token, TokKind, TokenStream};

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// The called identifier (`foo` in `foo(..)`, `bar` in `x.bar(..)`).
    pub name: String,
    /// 1-based line of the call.
    pub line: u32,
    /// True for method-call syntax (`recv.name(..)`).
    pub method: bool,
    /// Leading `::` path segments (`["ShardPool"]` for
    /// `ShardPool::new(..)`, `["std", "env"]` for `std::env::var(..)`).
    /// Empty for plain and method calls.
    pub path: Vec<String>,
}

/// Why a line inside a function is determinism-tainted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaintKind {
    /// `HashMap`/`HashSet`: iteration order varies per process.
    HashIter,
    /// `std::env` read: output depends on ambient environment.
    Env,
    /// `Instant`/`SystemTime`: wall-clock reads.
    Time,
}

impl TaintKind {
    /// Human-readable description for diagnostics.
    pub fn describe(self) -> &'static str {
        match self {
            TaintKind::HashIter => "hash-keyed collection (iteration order varies per process)",
            TaintKind::Env => "environment read (output depends on ambient state)",
            TaintKind::Time => "wall-clock read",
        }
    }

    /// Stable tag used by the cache serialization.
    pub fn tag(self) -> &'static str {
        match self {
            TaintKind::HashIter => "hash",
            TaintKind::Env => "env",
            TaintKind::Time => "time",
        }
    }

    /// Inverse of [`TaintKind::tag`].
    pub fn from_tag(tag: &str) -> Option<TaintKind> {
        match tag {
            "hash" => Some(TaintKind::HashIter),
            "env" => Some(TaintKind::Env),
            "time" => Some(TaintKind::Time),
            _ => None,
        }
    }
}

/// One `fn` definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// Enclosing `impl` subject type, when the fn is a method
    /// (`impl Engine { fn flush.. }` → `Some("Engine")`).
    pub impl_ctx: Option<String>,
    /// Generic type parameters in scope: those declared on the fn
    /// itself and on its enclosing `impl` block (`impl<D: Detector>
    /// Monitor<D> { fn arm<T>.. }` → `["T", "D"]`). A `D::f(..)` call
    /// whose head is one of these dispatches to whichever impl the
    /// caller is instantiated with.
    pub generics: Vec<String>,
    /// 1-based line of the `fn` keyword.
    pub sig_line: u32,
    /// Inclusive 1-based line span of the whole item (signature through
    /// closing brace, or through `;` for body-less trait methods).
    pub span: (u32, u32),
    /// The item sits inside a `#[cfg(test)]` region.
    pub is_test: bool,
    /// The item is announced by a `// hot-path` marker comment.
    pub hot: bool,
    /// Call sites in the body, in source order. Closure bodies are
    /// flattened into the enclosing fn — exactly what reachability
    /// wants.
    pub calls: Vec<CallSite>,
    /// String-allocation facts: `(line, pattern)`.
    pub allocs: Vec<(u32, String)>,
    /// Determinism-taint facts: `(line, kind, token text)`.
    pub taints: Vec<(u32, TaintKind, String)>,
}

impl FnDef {
    /// Display name with impl context: `Engine::flush` or `helper`.
    pub fn qual_name(&self) -> String {
        match &self.impl_ctx {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The per-file symbol summary phase 2 consumes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileSymbols {
    /// Every `fn` item in the file, in source order.
    pub fns: Vec<FnDef>,
    /// Raw text of every `use` statement (path part only, `;` excluded).
    pub imports: Vec<String>,
}

impl FileSymbols {
    /// True when any `use` line or the imports mention `needle` as an
    /// identifier segment (used for cross-crate call resolution tiers).
    pub fn imports_name(&self, needle: &str) -> bool {
        self.imports.iter().any(|u| {
            u.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .any(|seg| seg == needle)
        })
    }
}

const KEYWORDS: [&str; 24] = [
    "as", "break", "const", "continue", "crate", "else", "enum", "extern", "for", "if", "impl",
    "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return", "while", "where",
    "use",
];

/// String-allocating method names (receiver syntax).
const ALLOC_METHODS: [&str; 2] = ["to_string", "to_owned"];
/// String-allocating associated functions on `String`.
const ALLOC_ASSOC: [&str; 3] = ["new", "from", "with_capacity"];

fn tok_text<'a>(src: &'a str, toks: &[Token], i: usize) -> &'a str {
    toks.get(i).map(|t| t.text(src)).unwrap_or("")
}

fn tok_kind(toks: &[Token], i: usize) -> Option<TokKind> {
    toks.get(i).map(|t| t.kind)
}

fn tok_line(toks: &[Token], i: usize) -> u32 {
    toks.get(i).map(|t| t.line).unwrap_or(0)
}

fn open_char(src: &str, toks: &[Token], i: usize) -> Option<u8> {
    (tok_kind(toks, i) == Some(TokKind::Open)).then(|| tok_text(src, toks, i).bytes().next())?
}

fn close_char(src: &str, toks: &[Token], i: usize) -> Option<u8> {
    (tok_kind(toks, i) == Some(TokKind::Close)).then(|| tok_text(src, toks, i).bytes().next())?
}

/// True when tokens `i-2, i-1` spell `::`.
fn preceded_by_path_sep(src: &str, toks: &[Token], i: usize) -> bool {
    i >= 2
        && tok_text(src, toks, i - 1) == ":"
        && tok_text(src, toks, i - 2) == ":"
        && toks.get(i - 1).map(|t| t.start) == toks.get(i - 2).map(|t| t.start + 1)
}

/// Collects the `a::b::` path segments ending just before token `i`
/// (the called ident). Returns them outermost-first.
fn path_before(src: &str, toks: &[Token], i: usize) -> Vec<String> {
    let mut segs: Vec<String> = Vec::new();
    let mut at = i;
    while preceded_by_path_sep(src, toks, at) {
        let seg_idx = at.wrapping_sub(3);
        if tok_kind(toks, seg_idx) == Some(TokKind::Ident) {
            segs.push(tok_text(src, toks, seg_idx).to_string());
            at = seg_idx;
        } else {
            break; // `<T as Trait>::f(..)` and friends: give up on the prefix
        }
    }
    segs.reverse();
    segs
}

/// Token index ranges covered by `#[cfg(test)]` attributes: from the
/// attribute through the end of the item it announces.
fn test_token_ranges(src: &str, toks: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        // Match `# [ cfg ( test ) ]`.
        let is_attr = tok_text(src, toks, i) == "#"
            && open_char(src, toks, i + 1) == Some(b'[')
            && tok_text(src, toks, i + 2) == "cfg"
            && open_char(src, toks, i + 3) == Some(b'(')
            && tok_text(src, toks, i + 4) == "test"
            && close_char(src, toks, i + 5) == Some(b')')
            && close_char(src, toks, i + 6) == Some(b']');
        if !is_attr {
            i += 1;
            continue;
        }
        let start = i;
        let mut j = i + 7;
        let mut depth = 0usize;
        let mut seen_brace = false;
        while j < toks.len() {
            match tok_kind(toks, j) {
                Some(TokKind::Open) if open_char(src, toks, j) == Some(b'{') => {
                    depth += 1;
                    seen_brace = true;
                }
                Some(TokKind::Close) if close_char(src, toks, j) == Some(b'}') => {
                    depth = depth.saturating_sub(1);
                    if seen_brace && depth == 0 {
                        break;
                    }
                }
                Some(TokKind::Punct)
                    if !seen_brace && depth == 0 && tok_text(src, toks, j) == ";" =>
                {
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        ranges.push((start, j.min(toks.len().saturating_sub(1))));
        i = j + 1;
    }
    ranges
}

/// 1-based lines of `// hot-path` marker comments in the raw source.
fn hot_marker_lines(source: &str) -> Vec<u32> {
    source
        .lines()
        .enumerate()
        .filter(|(_, l)| {
            let t = l.trim();
            t == "// hot-path" || t.starts_with("// hot-path ")
        })
        .map(|(i, _)| (i + 1) as u32)
        .collect()
}

/// Names of the type parameters in the generic list whose `<` is token
/// `i`, plus the index just past its closing `>`. Lifetimes and `const`
/// parameters are skipped; bounds (`D: Detector`, `F: Fn(u32) -> u8`)
/// are walked over without being read as names.
fn generic_params(src: &str, toks: &[Token], i: usize) -> (Vec<String>, usize) {
    let mut names = Vec::new();
    let mut angle = 0usize;
    let mut parens = 0usize;
    let mut expect_name = false;
    let mut j = i;
    while j < toks.len() {
        let text = tok_text(src, toks, j);
        let arrow = text == ">" && j > 0 && tok_text(src, toks, j - 1) == "-";
        match tok_kind(toks, j) {
            Some(TokKind::Open) => parens += 1,
            Some(TokKind::Close) => parens = parens.saturating_sub(1),
            Some(TokKind::Punct) if text == "<" => {
                angle += 1;
                expect_name = angle == 1;
                j += 1;
                continue;
            }
            Some(TokKind::Punct) if text == ">" && !arrow => {
                angle = angle.saturating_sub(1);
                if angle == 0 {
                    return (names, j + 1);
                }
            }
            Some(TokKind::Punct) if text == "," && angle == 1 && parens == 0 => {
                expect_name = true;
                j += 1;
                continue;
            }
            Some(TokKind::Ident) if expect_name && text != "const" => {
                names.push(text.to_string());
            }
            _ => {}
        }
        expect_name = false;
        j += 1;
    }
    (names, j)
}

/// Extracts the impl subject type from the tokens of an `impl` header
/// (`impl` at index `i`, header runs to the first `{`). For
/// `impl Trait for Type` the subject is `Type`; otherwise the first
/// type identifier after the generic parameter list. Also returns the
/// names that list declares, and the index of the header's end.
fn impl_subject(src: &str, toks: &[Token], i: usize) -> (Option<String>, Vec<String>, usize) {
    let mut j = i + 1;
    // A leading generic parameter list `<..>` declares the impl's type
    // parameters.
    let mut generics = Vec::new();
    if tok_text(src, toks, j) == "<" {
        (generics, j) = generic_params(src, toks, j);
    }
    let mut subject: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    while j < toks.len() {
        let text = tok_text(src, toks, j);
        match tok_kind(toks, j) {
            Some(TokKind::Open) if text == "{" => break,
            Some(TokKind::Punct) if text == ";" => break, // `impl Trait for Type;` (never, but safe)
            Some(TokKind::Ident) if text == "for" => saw_for = true,
            Some(TokKind::Ident) if text != "dyn" => {
                if saw_for {
                    if after_for.is_none() {
                        after_for = Some(text.to_string());
                    }
                } else if subject.is_none() {
                    subject = Some(text.to_string());
                }
            }
            _ => {}
        }
        j += 1;
    }
    (after_for.or(subject), generics, j)
}

/// Parses one file's token stream into its symbol summary.
pub fn extract(source: &str, stream: &TokenStream) -> FileSymbols {
    let toks = &stream.tokens;
    let tests = test_token_ranges(source, toks);
    let in_test = |i: usize| tests.iter().any(|&(lo, hi)| (lo..=hi).contains(&i));
    let mut hot_marks = hot_marker_lines(source);

    let mut fns: Vec<FnDef> = Vec::new();
    let mut imports: Vec<String> = Vec::new();

    // Delimiter stack: each open brace carries the context it opens.
    #[derive(Clone, Copy)]
    enum Ctx {
        Plain,
        Impl(usize),     // index into `impl_types`
        Fn(usize),       // index into `fns`
    }
    // Subject type and generic parameter names of every impl block.
    let mut impl_types: Vec<(Option<String>, Vec<String>)> = Vec::new();
    let mut stack: Vec<(u8, Ctx)> = Vec::new();
    // Context that the *next* `{` opens, set by `impl`/`fn` headers.
    let mut pending: Option<Ctx> = None;
    // (fn index, tokens-depth at which its body brace will sit).
    let mut fn_stack: Vec<usize> = Vec::new();

    let mut i = 0usize;
    while i < toks.len() {
        let text = tok_text(source, toks, i);
        let kind = tok_kind(toks, i);
        match kind {
            Some(TokKind::Open) => {
                let c = text.bytes().next().unwrap_or(0);
                let ctx = if c == b'{' { pending.take().unwrap_or(Ctx::Plain) } else { Ctx::Plain };
                if let Ctx::Fn(f) = ctx {
                    fn_stack.push(f);
                }
                stack.push((c, ctx));
                i += 1;
                continue;
            }
            Some(TokKind::Close) => {
                if let Some((c, ctx)) = stack.pop() {
                    if c == b'{' {
                        if let Ctx::Fn(f) = ctx {
                            let close_line = tok_line(toks, i);
                            if let Some(def) = fns.get_mut(f) {
                                def.span.1 = close_line;
                            }
                            fn_stack.pop();
                        }
                    }
                }
                i += 1;
                continue;
            }
            Some(TokKind::Ident) => {}
            _ => {
                i += 1;
                continue;
            }
        }

        // --- Ident token ---
        let line = tok_line(toks, i);
        let enclosing_fn = fn_stack.last().copied();

        if text == "use" && enclosing_fn.is_none() {
            // Collect the path text up to the terminating `;`.
            let mut j = i + 1;
            let start = toks.get(j).map(|t| t.start);
            let mut end = start;
            while j < toks.len() && tok_text(source, toks, j) != ";" {
                end = toks.get(j).map(|t| t.end);
                j += 1;
            }
            if let (Some(s), Some(e)) = (start, end) {
                if let Some(t) = source.get(s..e) {
                    imports.push(t.split_whitespace().collect::<Vec<_>>().join(" "));
                }
            }
            i = j + 1;
            continue;
        }

        if text == "impl" && pending.is_none() {
            let (subject, generics, header_end) = impl_subject(source, toks, i);
            impl_types.push((subject, generics));
            pending = Some(Ctx::Impl(impl_types.len() - 1));
            i = header_end.max(i + 1);
            continue;
        }

        if text == "fn" {
            // `fn` pointer types (`fn(u32) -> u32`) have no name ident.
            let name_idx = i + 1;
            if tok_kind(toks, name_idx) != Some(TokKind::Ident) {
                i += 1;
                continue;
            }
            let name = tok_text(source, toks, name_idx).to_string();
            let sig_line = tok_line(toks, i);
            // Enclosing impl subject and generics, from the innermost
            // Impl frame.
            let (impl_ctx, impl_generics) = stack
                .iter()
                .rev()
                .find_map(|&(_, ctx)| match ctx {
                    Ctx::Impl(t) => impl_types.get(t).cloned(),
                    _ => None,
                })
                .unwrap_or_default();
            let mut generics = Vec::new();
            if tok_text(source, toks, name_idx + 1) == "<" {
                generics = generic_params(source, toks, name_idx + 1).0;
            }
            generics.extend(impl_generics);
            // A marker binds to the first fn signature below it (within
            // a small window for attributes and doc lines), then is
            // spent — it never leaks onto the following item.
            let hot = match hot_marks
                .iter()
                .position(|&m| sig_line > m && sig_line <= m + 8)
            {
                Some(idx) => {
                    hot_marks.remove(idx);
                    true
                }
                None => false,
            };
            let def = FnDef {
                name,
                impl_ctx,
                generics,
                sig_line,
                span: (sig_line, sig_line),
                is_test: in_test(i),
                hot,
                calls: Vec::new(),
                allocs: Vec::new(),
                taints: Vec::new(),
            };
            fns.push(def);
            let fn_idx = fns.len() - 1;
            // Scan the header for the body `{` (skipping param/array
            // groups) or a terminating `;`.
            let mut j = name_idx + 1;
            let mut depth = 0usize;
            while j < toks.len() {
                match tok_kind(toks, j) {
                    Some(TokKind::Open) => {
                        if open_char(source, toks, j) == Some(b'{') && depth == 0 {
                            pending = Some(Ctx::Fn(fn_idx));
                            break;
                        }
                        depth += 1;
                    }
                    Some(TokKind::Close) => depth = depth.saturating_sub(1),
                    Some(TokKind::Punct)
                        if depth == 0 && tok_text(source, toks, j) == ";" =>
                    {
                        let semi_line = tok_line(toks, j);
                        if let Some(def) = fns.get_mut(fn_idx) {
                            def.span.1 = semi_line;
                        }
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            if j >= toks.len() {
                if let Some(def) = fns.get_mut(fn_idx) {
                    def.span.1 = toks.last().map(|t| t.line).unwrap_or(sig_line);
                }
            }
            i = j; // resume at the `{`/`;` so the Open arm pushes the ctx
            continue;
        }

        // Facts and call sites only matter inside a fn body.
        let Some(f) = enclosing_fn else {
            i += 1;
            continue;
        };

        // Determinism-taint facts.
        match text {
            "HashMap" | "HashSet" => {
                push_taint(&mut fns, f, line, TaintKind::HashIter, text);
            }
            "Instant" | "SystemTime" => {
                push_taint(&mut fns, f, line, TaintKind::Time, text);
            }
            "var" | "vars" | "var_os" if path_ends_with_env(source, toks, i) => {
                push_taint(&mut fns, f, line, TaintKind::Env, "env read");
            }
            _ => {}
        }

        let next_text = tok_text(source, toks, i + 1);
        let next_is_bang = next_text == "!";
        let call_open = if next_is_bang {
            tok_text(source, toks, i + 2) == "("
                || open_char(source, toks, i + 2) == Some(b'(')
        } else {
            open_char(source, toks, i + 1) == Some(b'(')
        };

        if next_is_bang {
            // Macro invocation: `format!` is the one allocation macro
            // the L7/L9 contract names.
            if text == "format" && call_open {
                push_alloc(&mut fns, f, line, "format!");
            }
            i += 2;
            continue;
        }

        if call_open && !KEYWORDS.contains(&text) {
            let prev = if i == 0 { "" } else { tok_text(source, toks, i - 1) };
            if prev == "fn" {
                i += 1;
                continue;
            }
            let method = prev == ".";
            let path = if method { Vec::new() } else { path_before(source, toks, i) };
            // Allocation facts by shape.
            if method && ALLOC_METHODS.contains(&text) {
                push_alloc(&mut fns, f, line, &format!(".{text}()"));
            }
            if path.last().map(String::as_str) == Some("String")
                && ALLOC_ASSOC.contains(&text)
            {
                push_alloc(&mut fns, f, line, &format!("String::{text}"));
            }
            if let Some(def) = fns.get_mut(f) {
                def.calls.push(CallSite { name: text.to_string(), line, method, path });
            }
        }
        i += 1;
    }

    // Second pass for standalone `String::new()`-style allocations that
    // are *not* call-shaped is unnecessary: associated-fn allocations
    // are always calls. Done.
    FileSymbols { fns, imports }
}

fn push_taint(fns: &mut [FnDef], f: usize, line: u32, kind: TaintKind, text: &str) {
    if let Some(def) = fns.get_mut(f) {
        if !def.taints.iter().any(|&(l, k, _)| l == line && k == kind) {
            def.taints.push((line, kind, text.to_string()));
        }
    }
}

fn push_alloc(fns: &mut [FnDef], f: usize, line: u32, pat: &str) {
    if let Some(def) = fns.get_mut(f) {
        if !def.allocs.iter().any(|(l, p)| *l == line && p == pat) {
            def.allocs.push((line, pat.to_string()));
        }
    }
}

/// True when the path prefix before token `i` ends in `env` (matches
/// `std::env::var`, `env::var`, …).
fn path_ends_with_env(src: &str, toks: &[Token], i: usize) -> bool {
    path_before(src, toks, i).last().map(String::as_str) == Some("env")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn parse(src: &str) -> FileSymbols {
        extract(src, &tokenize(src))
    }

    #[test]
    fn extracts_fns_with_spans_and_impl_context() {
        let src = "\
struct S;
impl S {
    fn a(&self) -> u32 {
        self.b()
    }
}
fn free(x: u32) -> u32 { helper(x) }
trait T {
    fn sig_only(&self);
}
";
        let syms = parse(src);
        let names: Vec<String> = syms.fns.iter().map(|f| f.qual_name()).collect();
        assert_eq!(names, vec!["S::a", "free", "sig_only"]);
        let a = &syms.fns[0];
        assert_eq!(a.sig_line, 3);
        assert_eq!(a.span, (3, 5));
        assert_eq!(a.calls.len(), 1);
        assert!(a.calls[0].method);
        assert_eq!(a.calls[0].name, "b");
        let free = &syms.fns[1];
        assert_eq!(free.span, (7, 7));
        assert_eq!(free.calls[0].name, "helper");
        assert!(!free.calls[0].method);
        // Body-less trait method: span ends at the `;`.
        assert_eq!(syms.fns[2].span, (9, 9));
    }

    #[test]
    fn impl_trait_for_type_attributes_methods_to_the_type() {
        let src = "impl Detector for SdsP {\n    fn on_observation(&mut self) {}\n}\n";
        let syms = parse(src);
        assert_eq!(syms.fns[0].qual_name(), "SdsP::on_observation");
    }

    #[test]
    fn records_generic_parameters_of_the_fn_and_its_impl() {
        let src = "\
impl<'a, D: Detector + Into<Box<D>>, const N: usize> Monitor<'a, D> {
    fn arm<T: Fn(u32, u8) -> u8, U>(&self) {}
    fn plain(&self) {}
}
fn free<W>(w: W) {}
fn none(x: u32) {}
";
        let syms = parse(src);
        let generics: Vec<Vec<&str>> = syms
            .fns
            .iter()
            .map(|f| f.generics.iter().map(String::as_str).collect())
            .collect();
        assert_eq!(generics, [vec!["T", "U", "D"], vec!["D"], vec!["W"], vec![]]);
    }

    #[test]
    fn records_path_calls_imports_and_test_flags() {
        let src = "\
use memdos_core::Detector;
use std::collections::BTreeMap;
fn f() {
    ShardPool::new(4);
    std::env::var(\"X\");
}
#[cfg(test)]
mod tests {
    fn t() { g(); }
}
";
        let syms = parse(src);
        assert!(syms.imports_name("memdos_core"));
        assert!(!syms.imports_name("memdos_runner"));
        let f = &syms.fns[0];
        let new_call = f.calls.iter().find(|c| c.name == "new").expect("new call");
        assert_eq!(new_call.path, vec!["ShardPool"]);
        let var_call = f.calls.iter().find(|c| c.name == "var").expect("var call");
        assert_eq!(var_call.path, vec!["std", "env"]);
        assert!(matches!(f.taints.as_slice(), [(5, TaintKind::Env, _)]));
        // The test-module fn is marked as such.
        let t = syms.fns.iter().find(|d| d.name == "t").expect("test fn");
        assert!(t.is_test);
        assert!(!f.is_test);
    }

    #[test]
    fn records_alloc_and_taint_facts() {
        let src = "\
fn f(x: u32) -> String {
    let s = format!(\"{x}\");
    let t = x.to_string();
    let u = String::with_capacity(8);
    let m: HashMap<u32, u32> = HashMap::new();
    let now = Instant::now();
    s
}
";
        let syms = parse(src);
        let f = &syms.fns[0];
        let pats: Vec<&str> = f.allocs.iter().map(|(_, p)| p.as_str()).collect();
        assert!(pats.contains(&"format!"), "{pats:?}");
        assert!(pats.contains(&".to_string()"), "{pats:?}");
        assert!(pats.contains(&"String::with_capacity"), "{pats:?}");
        let kinds: Vec<TaintKind> = f.taints.iter().map(|&(_, k, _)| k).collect();
        assert!(kinds.contains(&TaintKind::HashIter));
        assert!(kinds.contains(&TaintKind::Time));
    }

    #[test]
    fn hot_marker_reaches_the_next_fn() {
        let src = "\
// hot-path
#[inline]
fn fast(out: &mut Vec<u8>) {
    render(out);
}

fn cold() {}
";
        let syms = parse(src);
        assert!(syms.fns[0].hot);
        assert!(!syms.fns[1].hot);
    }

    #[test]
    fn closures_flatten_into_the_enclosing_fn() {
        let src = "\
fn outer(items: &[u32]) -> u32 {
    items.iter().map(|x| helper(*x)).sum()
}
";
        let syms = parse(src);
        let calls: Vec<&str> = syms.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert!(calls.contains(&"helper"), "{calls:?}");
    }

    #[test]
    fn nested_fns_get_their_own_defs() {
        let src = "\
fn outer() {
    fn inner(x: u32) -> u32 { leaf(x) }
    inner(3);
}
";
        let syms = parse(src);
        let names: Vec<&str> = syms.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner"]);
        let outer = &syms.fns[0];
        assert!(outer.calls.iter().any(|c| c.name == "inner"));
        let inner = &syms.fns[1];
        assert!(inner.calls.iter().any(|c| c.name == "leaf"));
        assert_eq!(outer.span, (1, 4));
    }
}
