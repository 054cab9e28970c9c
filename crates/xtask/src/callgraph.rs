//! Phase-2 workspace call graph and the dataflow rule families.
//!
//! Builds a conservative call graph over every non-test `fn` extracted
//! by [`crate::symbols`], then runs:
//!
//! * **L9/hot-propagate** — the L7 hot-path allocation contract made
//!   transitive: a `// hot-path` function whose call chain reaches a
//!   String allocation *anywhere* (any hop count, any crate) is flagged
//!   at the call site, with the offending path printed.
//! * **L10/determinism-taint** — `HashMap`/`HashSet`, `std::env` reads
//!   and wall-clock types flagged anywhere reachable from the
//!   deterministic verdict path (`Detector::on_observation`, the
//!   paper-facing step surface) or the engine's `(seq, sub)` merge
//!   (`Engine::flush`), with the full reachability chain in the
//!   diagnostic.
//!
//! Call resolution is name-based and tiered: a call site resolves
//! against candidates in the same file first, then the same crate, then
//! crates the file imports. The first non-empty tier wins — this keeps
//! the over-approximation honest without letting ubiquitous method
//! names (`get`, `push`, `new`) connect every crate to every other. The
//! one exception is a call through a generic parameter (`D::f(..)` with
//! `D` declared on the calling fn or its `impl`): it resolves to every
//! impl of `f`, since any of them may be the instantiation.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::rules::{AllowRange, FileScope, Finding};
use crate::symbols::{FileSymbols, FnDef};

/// One analyzed file, assembled by the driver in `lib.rs`.
#[derive(Debug, Clone)]
pub struct FileAnalysis {
    /// Workspace-relative display path.
    pub path: String,
    /// Crate directory name (`"engine"`, `"."` for the root package).
    pub crate_name: String,
    pub scope: FileScope,
    pub symbols: FileSymbols,
    /// Resolved suppression ranges for this file.
    pub allows: Vec<AllowRange>,
}

/// One node: `(file index, fn index within that file)`.
type Node = (usize, usize);

/// The workspace call graph.
pub struct Graph<'a> {
    files: &'a [FileAnalysis],
    /// All non-test fns, in deterministic (file, fn) order.
    nodes: Vec<Node>,
    /// Callees of each node, each edge carrying the call-site line.
    edges: BTreeMap<usize, Vec<(usize, u32)>>,
}

fn def_at(files: &[FileAnalysis], n: Node) -> Option<&FnDef> {
    files.get(n.0).and_then(|f| f.symbols.fns.get(n.1))
}

impl<'a> Graph<'a> {
    /// Builds the graph over every non-test fn in `files`.
    pub fn build(files: &'a [FileAnalysis]) -> Graph<'a> {
        let mut nodes: Vec<Node> = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            for (di, d) in file.symbols.fns.iter().enumerate() {
                if !d.is_test {
                    nodes.push((fi, di));
                }
            }
        }

        // Name index: fn name -> node ids (deterministic order).
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, &n) in nodes.iter().enumerate() {
            if let Some(d) = def_at(files, n) {
                by_name.entry(&d.name).or_default().push(i);
            }
        }

        let node_at = |c: usize| nodes.get(c).copied().unwrap_or((usize::MAX, 0));
        let crate_of = |c: usize| {
            files
                .get(node_at(c).0)
                .map(|f| f.crate_name.as_str())
                .unwrap_or("")
        };

        // Method names that collide with std container/String methods.
        // The receiver's type is unknown to a name-based resolver, so
        // `out.push_str(..)` on a plain `String` would otherwise wire
        // into every workspace method that happens to share the name.
        // Path-qualified and uniquely-named calls still resolve.
        const STD_COLLIDERS: [&str; 14] = [
            "push", "push_str", "pop", "insert", "remove", "extend", "clear",
            "truncate", "reserve", "get", "len", "is_empty", "clone", "contains",
        ];

        let mut edges: BTreeMap<usize, Vec<(usize, u32)>> = BTreeMap::new();
        for (i, &n) in nodes.iter().enumerate() {
            let (fi, _) = n;
            let Some(caller_file) = files.get(fi) else { continue };
            let Some(caller) = def_at(files, n) else { continue };
            for call in &caller.calls {
                if call.method && STD_COLLIDERS.contains(&call.name.as_str()) {
                    continue;
                }
                let Some(cands) = by_name.get(call.name.as_str()) else {
                    continue;
                };
                // Explicit crate-qualified path: `memdos_core::...::f(..)`
                // resolves only into that crate, bypassing the tiers.
                let crate_hint = call
                    .path
                    .first()
                    .and_then(|seg| seg.strip_prefix("memdos_"));
                // `Type::assoc(..)` paths must match the impl subject.
                let type_hint = call
                    .path
                    .last()
                    .filter(|seg| seg.chars().next().is_some_and(char::is_uppercase));
                let matches_type = |c: &usize| match type_hint {
                    Some(t) => def_at(files, node_at(*c))
                        .is_some_and(|d| d.impl_ctx.as_deref() == Some(t.as_str())),
                    None => true,
                };
                // `D::f(..)` with `D` a generic parameter of the caller (or
                // of its impl block) dispatches to whichever impl `D` is
                // instantiated with: every impl of `f`, in any crate. Only
                // declared parameters qualify, so `String::new` stays
                // unresolved.
                let generic = type_hint.is_some_and(|t| caller.generics.contains(t));
                let tiered: Vec<usize> = if generic {
                    cands
                        .iter()
                        .copied()
                        .filter(|&c| def_at(files, node_at(c)).is_some_and(|d| d.impl_ctx.is_some()))
                        .collect()
                } else if let Some(target) = crate_hint {
                    cands
                        .iter()
                        .copied()
                        .filter(|&c| crate_of(c) == target)
                        .filter(|c| matches_type(c))
                        .collect()
                } else {
                    let same_file: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&c| node_at(c).0 == fi)
                        .filter(|c| matches_type(c))
                        .collect();
                    if !same_file.is_empty() {
                        same_file
                    } else {
                        let same_crate: Vec<usize> = cands
                            .iter()
                            .copied()
                            .filter(|&c| crate_of(c) == caller_file.crate_name)
                            .filter(|c| matches_type(c))
                            .collect();
                        if !same_crate.is_empty() {
                            same_crate
                        } else {
                            cands
                                .iter()
                                .copied()
                                .filter(|&c| {
                                    crate_of(c) != caller_file.crate_name
                                        && caller_file.symbols.imports_name(&format!(
                                            "memdos_{}",
                                            crate_of(c)
                                        ))
                                })
                                .filter(|c| matches_type(c))
                                .collect()
                        }
                    }
                };
                for c in tiered {
                    let out = edges.entry(i).or_default();
                    if c != i && !out.iter().any(|&(e, _)| e == c) {
                        out.push((c, call.line));
                    }
                }
            }
        }
        Graph { files, nodes, edges }
    }

    /// Number of nodes (non-test fns).
    pub fn fn_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of resolved call edges.
    pub fn edge_count(&self) -> usize {
        self.edges.values().map(Vec::len).sum()
    }

    fn node(&self, id: usize) -> Node {
        self.nodes.get(id).copied().unwrap_or((usize::MAX, 0))
    }

    fn node_def(&self, id: usize) -> Option<&FnDef> {
        def_at(self.files, self.node(id))
    }

    fn node_file(&self, id: usize) -> Option<&FileAnalysis> {
        self.files.get(self.node(id).0)
    }

    fn qual_name(&self, id: usize) -> String {
        self.node_def(id).map(FnDef::qual_name).unwrap_or_default()
    }

    /// BFS from `root`, returning the parent edge (`parent`, call line)
    /// for every reached node; the root maps to `None`.
    fn bfs(&self, root: usize) -> BTreeMap<usize, Option<(usize, u32)>> {
        let mut parents: BTreeMap<usize, Option<(usize, u32)>> = BTreeMap::new();
        parents.insert(root, None);
        let mut queue = VecDeque::from([root]);
        while let Some(n) = queue.pop_front() {
            for &(m, line) in self.edges.get(&n).into_iter().flatten() {
                if let std::collections::btree_map::Entry::Vacant(e) = parents.entry(m) {
                    e.insert(Some((n, line)));
                    queue.push_back(m);
                }
            }
        }
        parents
    }

    /// The chain of qualified fn names from the BFS root to `id`.
    fn chain(&self, parents: &BTreeMap<usize, Option<(usize, u32)>>, id: usize) -> Vec<String> {
        let mut names = vec![self.qual_name(id)];
        let mut cur = id;
        while let Some(Some((p, _))) = parents.get(&cur) {
            names.push(self.qual_name(*p));
            cur = *p;
        }
        names.reverse();
        names
    }

    /// First hop of the path root -> … -> `id`: the call line inside the
    /// root function. `None` for the root itself.
    fn first_hop_line(
        &self,
        parents: &BTreeMap<usize, Option<(usize, u32)>>,
        id: usize,
    ) -> Option<u32> {
        let mut cur = id;
        let mut hop = None;
        while let Some(Some((p, line))) = parents.get(&cur) {
            hop = Some(*line);
            cur = *p;
        }
        hop
    }
}

/// Marks the allow covering `(category, line)` in `file` as used and
/// returns true when one exists. `used` collects `(file index, marker
/// index)` pairs for the unused-allow report.
fn consume_allow(
    file_idx: usize,
    file: &FileAnalysis,
    category: &str,
    line: u32,
    used: &mut BTreeSet<(usize, usize)>,
) -> bool {
    let mut hit = false;
    for r in &file.allows {
        if r.category == category && (r.lo..=r.hi).contains(&(line as usize)) {
            used.insert((file_idx, r.marker));
            hit = true;
        }
    }
    hit
}

/// Runs L9/hot-propagate and L10/determinism-taint over the graph.
/// `used` collects the `(file, marker)` suppressions the graph rules
/// consumed, for the unused-allow report.
pub fn graph_findings(
    graph: &Graph<'_>,
    used: &mut BTreeSet<(usize, usize)>,
) -> Vec<Finding> {
    let mut findings = Vec::new();

    // ---- L9/hot-propagate ----
    for root in 0..graph.fn_count() {
        let (Some(rd), Some(rf)) = (graph.node_def(root), graph.node_file(root)) else {
            continue;
        };
        if !rd.hot || !rf.scope.hot_path_checked {
            continue;
        }
        let parents = graph.bfs(root);
        // BTreeMap iteration is by node id, so the report order is
        // deterministic at any worker count.
        let mut reported: BTreeSet<u32> = BTreeSet::new();
        for &id in parents.keys() {
            if id == root {
                continue; // the root's own allocations are L7's job
            }
            let Some(d) = graph.node_def(id) else { continue };
            // A justification at the allocation site itself ("this is
            // per-session control-plane work, not per-sample") clears
            // every chain that ends there; the first *unjustified*
            // allocation is the one reported.
            let (tfi, _) = graph.node(id);
            let Some(tf) = graph.node_file(id) else { continue };
            let mut alloc: Option<(u32, &str)> = None;
            for &(line, ref pat) in &d.allocs {
                if consume_allow(tfi, tf, "hot-propagate", line, used) {
                    continue;
                }
                alloc = Some((line, pat.as_str()));
                break;
            }
            let Some((alloc_line, pat)) = alloc else { continue };
            let Some(call_line) = graph.first_hop_line(&parents, id) else {
                continue;
            };
            let (rfi, _) = graph.node(root);
            if consume_allow(rfi, rf, "hot-propagate", call_line, used) {
                continue;
            }
            if !reported.insert(call_line) {
                continue; // one finding per call site
            }
            let chain = graph.chain(&parents, id).join(" -> ");
            let target_path = graph.node_file(id).map(|f| f.path.as_str()).unwrap_or("?");
            findings.push(Finding {
                file: rf.path.clone(),
                line: call_line as usize,
                rule: "L9/hot-propagate",
                message: format!(
                    "hot-path function `{}` reaches a String allocation through \
                     {chain} ({target_path}:{alloc_line}: {pat}); hot-path functions \
                     promise zero allocations per sample — lift the allocation out \
                     of the chain or justify with lint:allow(hot-propagate)",
                    rd.qual_name(),
                ),
            });
        }
    }

    // ---- L10/determinism-taint ----
    // Roots: every `Detector::on_observation` impl (the paper-facing
    // step surface) and the engine's `(seq, sub)` merge.
    let mut roots: Vec<usize> = Vec::new();
    for id in 0..graph.fn_count() {
        let (Some(d), Some(f)) = (graph.node_def(id), graph.node_file(id)) else {
            continue;
        };
        let step_impl = d.name == "on_observation" && d.impl_ctx.is_some();
        let merge = d.name == "flush"
            && d.impl_ctx.as_deref() == Some("Engine")
            && f.crate_name == "engine";
        if step_impl || merge {
            roots.push(id);
        }
    }
    let mut seen_taints: BTreeSet<(usize, u32)> = BTreeSet::new();
    for &root in &roots {
        let parents = graph.bfs(root);
        for &id in parents.keys() {
            let Some(d) = graph.node_def(id) else { continue };
            if d.taints.is_empty() {
                continue;
            }
            let Some(tf) = graph.node_file(id) else { continue };
            let (tfi, _) = graph.node(id);
            for &(line, kind, ref text) in &d.taints {
                if !seen_taints.insert((id, line)) {
                    continue; // one finding per taint site across all roots
                }
                if consume_allow(tfi, tf, "determinism-taint", line, used) {
                    continue;
                }
                let chain = graph.chain(&parents, id).join(" -> ");
                findings.push(Finding {
                    file: tf.path.clone(),
                    line: line as usize,
                    rule: "L10/determinism-taint",
                    message: format!(
                        "`{text}` — {} — is reachable from the deterministic verdict \
                         path: {chain}; the byte-identical replay guarantee forbids \
                         it — use ordered collections / tick counts, or justify with \
                         lint:allow(determinism-taint)",
                        kind.describe(),
                    ),
                });
            }
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings.dedup();
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;
    use crate::rules::FileScope;
    use crate::symbols::extract;

    fn analysis(path: &str, crate_name: &str, src: &str, scope: FileScope) -> FileAnalysis {
        FileAnalysis {
            path: path.to_string(),
            crate_name: crate_name.to_string(),
            scope,
            symbols: extract(src, &tokenize(src)),
            allows: Vec::new(),
        }
    }

    const HOT: FileScope = FileScope {
        deterministic: false,
        harness: false,
        seed_authority: false,
        detector_authority: false,
        hot_path_checked: true,
        shared_state_sanctioned: false,
    };
    const PLAIN: FileScope = FileScope { hot_path_checked: false, ..HOT };

    #[test]
    fn three_hop_hot_chain_is_flagged_at_the_call_site() {
        let src = "\
// hot-path
fn ingest(x: u32) -> u32 {
    mid(x)
}
fn mid(x: u32) -> u32 {
    leaf(x)
}
fn leaf(x: u32) -> u32 {
    let s = x.to_string();
    s.len() as u32
}
";
        let files = vec![analysis("e.rs", "engine", src, HOT)];
        let graph = Graph::build(&files);
        assert_eq!(graph.fn_count(), 3);
        assert!(graph.edge_count() >= 2);
        let mut used = BTreeSet::new();
        let findings = graph_findings(&graph, &mut used);
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.rule, "L9/hot-propagate");
        assert_eq!(f.line, 3, "flagged at the call site in the hot fn");
        assert!(f.message.contains("ingest -> mid -> leaf"), "{}", f.message);
        assert!(f.message.contains(".to_string()"), "{}", f.message);
    }

    #[test]
    fn cross_file_resolution_follows_crate_tiers() {
        let hot = "\
use memdos_metrics::render;
// hot-path
fn ingest(x: u32) {
    render(x);
}
";
        let helper = "\
pub fn render(x: u32) -> String {
    format!(\"{x}\")
}
";
        let files = vec![
            analysis("engine/src/a.rs", "engine", hot, HOT),
            analysis("metrics/src/b.rs", "metrics", helper, HOT),
        ];
        let graph = Graph::build(&files);
        let mut used = BTreeSet::new();
        let findings = graph_findings(&graph, &mut used);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("ingest -> render"));
    }

    #[test]
    fn unimported_crates_do_not_resolve() {
        let hot = "\
// hot-path
fn ingest(x: u32) {
    render(x);
}
";
        let helper = "pub fn render(x: u32) -> String { format!(\"{x}\") }\n";
        let files = vec![
            analysis("engine/src/a.rs", "engine", hot, HOT),
            analysis("metrics/src/b.rs", "metrics", helper, HOT),
        ];
        let graph = Graph::build(&files);
        let mut used = BTreeSet::new();
        let findings = graph_findings(&graph, &mut used);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn taint_reachable_from_on_observation_prints_the_chain() {
        let src = "\
impl Detector for SdsP {
    fn on_observation(&mut self, x: u32) {
        helper(x);
    }
}
fn helper(x: u32) {
    deep(x);
}
fn deep(_x: u32) {
    let m: HashMap<u32, u32> = HashMap::new();
    let _ = m;
}
";
        let files = vec![analysis("core/src/d.rs", "core", src, PLAIN)];
        let graph = Graph::build(&files);
        let mut used = BTreeSet::new();
        let findings = graph_findings(&graph, &mut used);
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.rule, "L10/determinism-taint");
        assert!(
            f.message.contains("SdsP::on_observation -> helper -> deep"),
            "{}",
            f.message
        );
    }

    #[test]
    fn taint_unreachable_from_roots_is_silent() {
        let src = "\
fn unrelated() {
    let m: HashMap<u32, u32> = HashMap::new();
    let _ = m;
}
";
        let files = vec![analysis("w.rs", "workloads", src, PLAIN)];
        let graph = Graph::build(&files);
        let mut used = BTreeSet::new();
        assert!(graph_findings(&graph, &mut used).is_empty());
    }

    #[test]
    fn allowed_taint_is_suppressed_and_marked_used() {
        let src = "\
impl Detector for SdsP {
    fn on_observation(&mut self, x: u32) {
        helper(x);
    }
}
fn helper(_x: u32) {
    let now = Instant::now();
    let _ = now;
}
";
        let mut file = analysis("core/src/d.rs", "core", src, PLAIN);
        file.allows.push(AllowRange {
            category: "determinism-taint".to_string(),
            lo: 7,
            hi: 7,
            marker: 0,
        });
        let files = vec![file];
        let graph = Graph::build(&files);
        let mut used = BTreeSet::new();
        let findings = graph_findings(&graph, &mut used);
        assert!(findings.is_empty(), "{findings:?}");
        assert!(used.contains(&(0, 0)));
    }

    #[test]
    fn type_hints_restrict_assoc_fn_candidates() {
        let src = "\
// hot-path
fn ingest() {
    Other::build();
}
impl Mine {
    fn build() -> String { format!(\"no\") }
}
";
        let files = vec![analysis("e.rs", "engine", src, HOT)];
        let graph = Graph::build(&files);
        let mut used = BTreeSet::new();
        // `Other::build` must not resolve to `Mine::build`.
        assert!(graph_findings(&graph, &mut used).is_empty());
    }
}
