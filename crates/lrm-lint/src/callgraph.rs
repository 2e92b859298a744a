//! The workspace call graph and the registry-drift check.
//!
//! Nodes are every `fn` item in every scanned file (as found by
//! [`crate::tokens`]); edges come from a lexical scan for
//! `identifier(` call sites, resolved *by name* against the workspace
//! index. That heuristic is deliberately coarse — it cannot tell
//! `self.run()` from `Job::run()` — so two blocklists keep the graph
//! honest:
//!
//! * `METHOD_BLOCKLIST` drops method calls (`.name(`) whose names are
//!   ubiquitous std/container vocabulary (`lock`, `push`, `read`, …):
//!   resolving those to same-named workspace fns would wire unrelated
//!   code together.
//! * `PATH_BLOCKLIST` drops names that are overwhelmingly
//!   constructors or std free functions in any position (`new`, `from`,
//!   `take`, …).
//!
//! Free-function and `Path::assoc(` calls otherwise resolve to *every*
//! workspace fn with that name (an over-approximation: reachability
//! consumers stay sound for the rules built on top, at the cost of
//! possible false edges between same-named fns).
//!
//! The drift check closes the registry loop: a fn named `decode*` /
//! `read_*` / `parse*` that takes `&[u8]` is a decode surface by this
//! repo's conventions, and must be registered under `[decode]` in
//! `lint.toml` so the decode-path rules actually reach it.

use crate::rules::{snippet_of, Finding};
use crate::tokens::param_list;
use crate::workspace::{SourceFile, Workspace};
use std::collections::{HashMap, HashSet};

/// A fn node: (index into `ws.files`, index into that file's
/// `map.fns`).
pub type FnRef = (usize, usize);

/// Method names (`.name(`) never resolved against the workspace index.
const METHOD_BLOCKLIST: &[&str] = &[
    // std / container vocabulary that would alias workspace fns
    "abs", "ceil", "clone", "collect", "drain", "extend", "expect", "find", "flush", "get",
    "insert", "iter", "join", "len", "lock", "map", "max", "min", "next", "pop", "push", "read",
    "recv", "round", "send", "set_len", "split", "sqrt", "floor", "take", "trim", "unwrap", "wait",
    "write",
    // workspace-specific aliases that must not become edges:
    // `stream.shutdown()` is not `Connection::shutdown`, `job.run()` /
    // `loop.run()` is not `EventLoop::run`, `header.parse()` is
    // generic, `reader.finish()` is not `Stager::finish`
    "shutdown", "run", "parse", "finish",
];

/// Names never resolved in any call position (constructors and std
/// free functions).
const PATH_BLOCKLIST: &[&str] = &[
    "new",
    "now",
    "default",
    "from",
    "with_capacity",
    "take",
    "min",
    "max",
    "swap",
    "replace",
    "drop",
];

/// One lexical call site on a line.
pub(crate) struct CallSite {
    /// The called identifier.
    pub name: String,
    /// Byte offset of the identifier on the line.
    pub col: usize,
    /// Preceded by `.` (a method call).
    pub is_method: bool,
}

/// Extracts `identifier(` call sites from one masked line, skipping fn
/// definitions (`fn name(`) and macro invocations (`name!(`).
pub(crate) fn calls_on_line(line: &str) -> Vec<CallSite> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut j = 0usize;
    let mut prev_word_fn = false;
    while j < bytes.len() {
        let c = bytes[j];
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = j;
            while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                j += 1;
            }
            let word = &line[start..j];
            if prev_word_fn {
                // `fn name(` is a definition, not a call.
                prev_word_fn = false;
                continue;
            }
            prev_word_fn = word == "fn";
            if bytes.get(j) != Some(&b'(') {
                continue;
            }
            let is_method = start > 0 && bytes[start - 1] == b'.';
            out.push(CallSite {
                name: word.to_owned(),
                col: start,
                is_method,
            });
            continue;
        }
        if !c.is_ascii_whitespace() {
            prev_word_fn = false;
        }
        j += 1;
    }
    out
}

/// Whether a call site's name may resolve against the workspace index.
pub(crate) fn resolvable(site: &CallSite) -> bool {
    if PATH_BLOCKLIST.contains(&site.name.as_str()) {
        return false;
    }
    !(site.is_method && METHOD_BLOCKLIST.contains(&site.name.as_str()))
}

/// The workspace call graph.
pub struct CallGraph {
    /// Caller -> resolved callees, deduped, in call-site order.
    pub edges: HashMap<FnRef, Vec<FnRef>>,
    /// fn name -> every workspace fn with that name.
    pub by_name: HashMap<String, Vec<FnRef>>,
}

impl CallGraph {
    /// Indexes every fn and resolves every call site by name. Edges
    /// out of test fns are dropped: tests may legally call anything.
    pub fn build(ws: &Workspace) -> CallGraph {
        let mut by_name: HashMap<String, Vec<FnRef>> = HashMap::new();
        for (fi, sf) in ws.files.iter().enumerate() {
            for (xi, f) in sf.map.fns.iter().enumerate() {
                by_name.entry(f.name.clone()).or_default().push((fi, xi));
            }
        }

        let mut edges: HashMap<FnRef, Vec<FnRef>> = HashMap::new();
        for (fi, sf) in ws.files.iter().enumerate() {
            for (ln, line) in sf.masked.lines.iter().enumerate().map(|(i, l)| (i + 1, l)) {
                let Some(xi) = enclosing_fn_index(sf, ln) else {
                    continue;
                };
                if sf.map.fns[xi].is_test {
                    continue;
                }
                for site in calls_on_line(line) {
                    if !resolvable(&site) {
                        continue;
                    }
                    let Some(targets) = by_name.get(&site.name) else {
                        continue;
                    };
                    let callees = edges.entry((fi, xi)).or_default();
                    for &t in targets {
                        if !callees.contains(&t) {
                            callees.push(t);
                        }
                    }
                }
            }
        }
        CallGraph { edges, by_name }
    }

    /// Every fn reachable from `roots` (inclusive) along call edges.
    pub fn reachable(&self, roots: &[FnRef]) -> HashSet<FnRef> {
        let mut seen: HashSet<FnRef> = roots.iter().copied().collect();
        let mut queue: Vec<FnRef> = roots.to_vec();
        while let Some(cur) = queue.pop() {
            for &next in self.edges.get(&cur).into_iter().flatten() {
                if seen.insert(next) {
                    queue.push(next);
                }
            }
        }
        seen
    }

    /// Human-readable dump for `--dump-callgraph`: one block per fn
    /// with at least one resolved callee.
    pub fn dump(&self, ws: &Workspace) -> String {
        let total_fns: usize = ws.files.iter().map(|sf| sf.map.fns.len()).sum();
        let total_edges: usize = self.edges.values().map(Vec::len).sum();
        let mut out = format!("callgraph: {total_fns} fns, {total_edges} resolved edges\n");
        let name_of = |(fi, xi): FnRef| {
            let sf = &ws.files[fi];
            format!("{}::{}", sf.rel, sf.map.fns[xi].name)
        };
        let mut callers: Vec<&FnRef> = self.edges.keys().collect();
        callers.sort();
        for &caller in callers {
            let sf = &ws.files[caller.0];
            out.push_str(&format!(
                "{} (line {})\n",
                name_of(caller),
                sf.map.fns[caller.1].sig_line
            ));
            for &callee in &self.edges[&caller] {
                out.push_str(&format!("  -> {}\n", name_of(callee)));
            }
        }
        out
    }
}

/// Index of the innermost fn whose body contains `ln`.
pub(crate) fn enclosing_fn_index(sf: &SourceFile, ln: usize) -> Option<usize> {
    sf.map
        .fns
        .iter()
        .enumerate()
        .rev()
        .find(|(_, f)| f.contains(ln))
        .map(|(i, _)| i)
}

/// Path components under which decode-named helpers are exempt from
/// registry drift (test/bench scaffolding, including the standalone
/// `perfbench` package, is not a decode surface).
const EXEMPT_COMPONENTS: &[&str] = &["tests", "benches", "examples", "fixtures", "perfbench"];

/// `unregistered-decode-path`: a non-test fn named `decode*` / `read_*`
/// / `parse*` that takes `&[u8]` in a file not registered `[decode]`.
pub(crate) fn registry_drift(ws: &Workspace, findings: &mut Vec<Finding>) {
    for sf in &ws.files {
        if sf.kind.decode {
            continue;
        }
        if sf.rel.split('/').any(|c| EXEMPT_COMPONENTS.contains(&c)) {
            continue;
        }
        let originals = sf.originals();
        for f in &sf.map.fns {
            if f.is_test {
                continue;
            }
            let name = f.name.as_str();
            let named_decode = name.starts_with("decode")
                || name.starts_with("read_")
                || name.starts_with("parse");
            if !named_decode {
                continue;
            }
            // The masked signature inserts spaces before identifiers;
            // squash them so `&[ u8]` matches.
            let params: String = param_list(&f.signature)
                .chars()
                .filter(|c| *c != ' ')
                .collect();
            if !params.contains("&[u8]") {
                continue;
            }
            findings.push(Finding {
                rule: "unregistered-decode-path",
                file: sf.rel.clone(),
                line: f.sig_line,
                snippet: snippet_of(&originals, f.sig_line),
                message: format!(
                    "`{name}` takes &[u8] but {} is not registered under [decode] in lint.toml",
                    sf.rel
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::FileKind;

    fn ws_of(files: &[(&str, &str)]) -> Workspace {
        Workspace {
            files: files
                .iter()
                .map(|(rel, src)| {
                    SourceFile::new((*rel).to_owned(), (*src).to_owned(), FileKind::default())
                })
                .collect(),
        }
    }

    fn names(ws: &Workspace, refs: &[FnRef]) -> Vec<String> {
        refs.iter()
            .map(|&(fi, xi)| ws.files[fi].map.fns[xi].name.clone())
            .collect()
    }

    #[test]
    fn free_calls_resolve_across_files() {
        let ws = ws_of(&[
            ("a.rs", "fn alpha() {\n    beta();\n}\n"),
            (
                "b.rs",
                "pub fn beta() {\n    gamma(1);\n}\nfn gamma(x: u8) { let _ = x; }\n",
            ),
        ]);
        let g = CallGraph::build(&ws);
        let alpha = (0usize, 0usize);
        assert_eq!(names(&ws, &g.edges[&alpha]), ["beta"]);
        let reach = g.reachable(&[alpha]);
        assert_eq!(reach.len(), 3);
    }

    #[test]
    fn method_blocklist_drops_ambiguous_methods() {
        let ws = ws_of(&[(
            "a.rs",
            "fn run() {\n    helper();\n}\nfn caller(j: &Job) {\n    j.run();\n}\nfn helper() {}\n",
        )]);
        let g = CallGraph::build(&ws);
        // `j.run()` must not become an edge to fn `run`.
        let caller = (0usize, 1usize);
        assert!(!g.edges.contains_key(&caller));
    }

    #[test]
    fn macros_and_definitions_are_not_calls() {
        let sites = calls_on_line("fn decode(b: u8) { vec![b]; panic!(\"x\"); other(b); }");
        let names: Vec<&str> = sites.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["other"]);
    }

    #[test]
    fn test_fns_contribute_no_edges() {
        let ws = ws_of(&[(
            "a.rs",
            "#[test]\nfn t() {\n    helper();\n}\nfn helper() {}\n",
        )]);
        let g = CallGraph::build(&ws);
        assert!(g.edges.is_empty());
    }

    #[test]
    fn drift_flags_unregistered_decode_named_slice_fns() {
        let mut ws = ws_of(&[(
            "crates/x/src/lib.rs",
            "pub fn decode_meta(b: &[u8]) -> u8 {\n    b.len() as u8\n}\n\
             pub fn read_settings(s: &str) -> u8 { s.len() as u8 }\n",
        )]);
        let mut findings = Vec::new();
        registry_drift(&ws, &mut findings);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "unregistered-decode-path");
        assert_eq!(findings[0].line, 1);

        // Registering the file clears it.
        ws.files[0].kind.decode = true;
        findings.clear();
        registry_drift(&ws, &mut findings);
        assert!(findings.is_empty());
    }

    #[test]
    fn drift_exempts_test_scaffolding_paths() {
        let ws = ws_of(&[(
            "crates/x/tests/helpers.rs",
            "pub fn decode_sample(b: &[u8]) -> u8 { b.len() as u8 }\n",
        )]);
        let mut findings = Vec::new();
        registry_drift(&ws, &mut findings);
        assert!(findings.is_empty());
    }

    #[test]
    fn dump_lists_resolved_edges() {
        let ws = ws_of(&[("a.rs", "fn alpha() {\n    beta();\n}\nfn beta() {}\n")]);
        let g = CallGraph::build(&ws);
        let dump = g.dump(&ws);
        assert!(dump.contains("a.rs::alpha"));
        assert!(dump.contains("-> a.rs::beta"));
    }
}
