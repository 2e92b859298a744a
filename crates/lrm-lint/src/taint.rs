//! Wire-taint dataflow: `wire-alloc-unclamped`.
//!
//! A length that came off the wire must be clamped before it sizes an
//! allocation. This pack tracks wire-derived values lexically through
//! one function body — plus one level of call via per-function
//! summaries — from **sources** to **sinks**:
//!
//! * **Sources** (seed taint): `u*::from_le_bytes` / `from_be_bytes`,
//!   the byte-reader accessors `.u8(`/`.u16(`/`.u32(`/`.u64(`, and
//!   `.varint(` and `.shape(` (a length, a grid shape), calls
//!   to `read_*` / `decode_*` / `decode` helpers (bit-level
//!   `read_bit`/`read_bits` excepted — they yield symbols, not
//!   lengths), the conventional `payload_len` name, and — inside
//!   decode-named fns — integer-typed parameters, which are wire
//!   values by this repo's calling convention.
//! * **Propagation**: `let` bindings whose right-hand side mentions a
//!   tainted name (or a source) taint the bound names; rebinding from a
//!   clean expression clears them. Multi-line `let` statements are
//!   joined before matching.
//! * **Cleansing**: a right-hand side or sink argument containing
//!   `.min(` / `.clamp(` / `checked_*` is treated as clamped; an
//!   `if name <|>|!= MAX_* | max_* | .len()` comparison sanitizes
//!   `name` for the rest of the function.
//! * **Sinks**: `Vec::with_capacity`, `.reserve(`, `.set_len(`,
//!   `vec![_; n]`, iterator/IO `.take(n)` (except the fallible
//!   `.take(..)?`, which is this repo's *bounds-checked* reader take),
//!   and `[a..b]` slice spans.
//!
//! The engine is deliberately one function deep: a value returned
//! through two calls and then allocated is not tracked. DESIGN.md
//! documents that false-negative budget.

use crate::callgraph::{calls_on_line, resolvable, CallGraph, FnRef};
use crate::rules::{snippet_of, Finding};
use crate::tokens::{has_word, is_decode_fn, param_list, split_top_level, FnScope};
use crate::workspace::{SourceFile, Workspace};
use std::collections::{HashMap, HashSet};

/// Names bit-level readers that yield symbols, not lengths.
const READ_EXEMPT: &[&str] = &["read_bit", "read_bits"];

/// Runs the pack: intraprocedural walk over every fn in `[taint]`
/// files, then call-site checks against per-fn sink-parameter
/// summaries.
pub fn apply(ws: &Workspace, graph: &CallGraph, findings: &mut Vec<Finding>) {
    let summaries = build_summaries(ws);
    for sf in &ws.files {
        if !sf.kind.taint {
            continue;
        }
        let originals = sf.originals();
        for f in &sf.map.fns {
            if f.is_test {
                continue;
            }
            walk_fn(
                sf,
                f,
                Mode::Report {
                    graph,
                    summaries: &summaries,
                    originals: &originals,
                    findings,
                },
            );
        }
    }
}

/// Sink-parameter summary: for each fn, which parameter positions flow
/// unclamped into a sink inside its body.
type Summaries = HashMap<FnRef, Vec<usize>>;

fn build_summaries(ws: &Workspace) -> Summaries {
    let mut out = Summaries::new();
    for (fi, sf) in ws.files.iter().enumerate() {
        if !sf.kind.taint {
            continue;
        }
        for (xi, f) in sf.map.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let mut positions = Vec::new();
            for (pos, name) in fn_params(f) {
                let mut hit = false;
                walk_fn(
                    sf,
                    f,
                    Mode::Probe {
                        param: &name,
                        hit: &mut hit,
                    },
                );
                if hit {
                    positions.push(pos);
                }
            }
            if !positions.is_empty() {
                out.insert((fi, xi), positions);
            }
        }
    }
    out
}

/// `(position, name)` of each named, non-self parameter.
fn fn_params(f: &FnScope) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (pos, part) in split_top_level(param_list(&f.signature)).iter().enumerate() {
        let Some(colon) = part.find(':') else {
            continue; // `self`, `&mut self`
        };
        let name = part[..colon].trim().trim_start_matches("mut ").trim();
        if !name.is_empty() && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_') {
            out.push((pos, name.to_owned()));
        }
    }
    out
}

/// Integer-typed parameter names of a decode-named fn — wire lengths by
/// calling convention.
fn seed_params(f: &FnScope) -> Vec<String> {
    if !is_decode_fn(&f.name) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for part in split_top_level(param_list(&f.signature)) {
        let Some(colon) = part.find(':') else {
            continue;
        };
        let name = part[..colon].trim().trim_start_matches("mut ").trim();
        // The masked signature spaces words apart; squash before
        // comparing types.
        let ty: String = part[colon + 1..].chars().filter(|c| *c != ' ').collect();
        if matches!(ty.as_str(), "u16" | "u32" | "u64" | "usize")
            && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
        {
            out.push(name.to_owned());
        }
    }
    out
}

/// What a walk does with a sink hit.
enum Mode<'a> {
    /// Full engine: sources on, call-site checks on, findings emitted.
    Report {
        graph: &'a CallGraph,
        summaries: &'a Summaries,
        originals: &'a [&'a str],
        findings: &'a mut Vec<Finding>,
    },
    /// Summary probe: only `param` is tainted, sources off, stop at the
    /// first sink hit.
    Probe { param: &'a str, hit: &'a mut bool },
}

fn walk_fn(sf: &SourceFile, f: &FnScope, mut mode: Mode<'_>) {
    let seeds_on = matches!(mode, Mode::Report { .. });
    let mut tainted: HashSet<String> = match &mode {
        Mode::Report { .. } => {
            let mut t: HashSet<String> = seed_params(f).into_iter().collect();
            // The conventional header-length name is wire data wherever
            // it appears in a taint-registered file.
            t.insert("payload_len".to_owned());
            t
        }
        Mode::Probe { param, .. } => [(*param).to_owned()].into_iter().collect(),
    };
    let mut sanitized: HashSet<String> = HashSet::new();

    for (first_ln, stmt) in statements(sf, f) {
        // Guard: `if name <|>|!= ...MAX/max_/.len()...` sanitizes.
        if has_word(&stmt, "if")
            && (stmt.contains('<') || stmt.contains('>') || stmt.contains("!="))
            && (stmt.contains("MAX") || stmt.contains("max_") || stmt.contains(".len()"))
        {
            let guarded: Vec<String> = tainted
                .iter()
                .filter(|n| has_word(&stmt, n))
                .cloned()
                .collect();
            for n in guarded {
                tainted.remove(&n);
                sanitized.insert(n);
            }
        }

        // Sinks first: `let n = src(); vec.set_len(n)` cannot occur in
        // one statement, and checking before the `let` update keeps
        // `let v = Vec::with_capacity(n)` attributed to the old `n`.
        let dirty = |expr: &str| -> Option<String> {
            if is_clamped(expr) {
                return None;
            }
            if let Some(n) = tainted.iter().find(|n| has_word(expr, n)) {
                return Some(format!("`{n}`"));
            }
            if seeds_on && seeded(expr) {
                return Some("a wire read".to_owned());
            }
            None
        };

        let mut hits: Vec<(String, String)> = Vec::new(); // (what, which sink)
        for (arg, sink) in sink_args(&stmt) {
            if let Some(what) = dirty(&arg) {
                hits.push((what, sink));
            }
        }

        match &mut mode {
            Mode::Probe { hit, .. } => {
                if !hits.is_empty() {
                    **hit = true;
                    return;
                }
            }
            Mode::Report {
                graph,
                summaries,
                originals,
                findings,
            } => {
                for (what, sink) in hits {
                    findings.push(Finding {
                        rule: "wire-alloc-unclamped",
                        file: sf.rel.clone(),
                        line: first_ln,
                        snippet: snippet_of(originals, first_ln),
                        message: format!(
                            "{sink} sized by {what} with no clamp — \
                             compare against a MAX_* bound or use .min()/checked_* first"
                        ),
                    });
                }

                // One level of call: tainted argument at a position the
                // callee's summary says reaches a sink unclamped.
                for site in calls_on_line(&stmt) {
                    if !resolvable(&site) {
                        continue;
                    }
                    let Some(targets) = graph.by_name.get(&site.name) else {
                        continue;
                    };
                    let Some(args) = call_args(&stmt, site.col + site.name.len()) else {
                        continue;
                    };
                    let args = split_top_level(&args);
                    let mut flagged = false;
                    for t in targets {
                        let Some(positions) = summaries.get(t) else {
                            continue;
                        };
                        for &pos in positions {
                            if flagged {
                                break;
                            }
                            let Some(arg) = args.get(pos) else { continue };
                            if let Some(what) = dirty(arg) {
                                findings.push(Finding {
                                    rule: "wire-alloc-unclamped",
                                    file: sf.rel.clone(),
                                    line: first_ln,
                                    snippet: snippet_of(originals, first_ln),
                                    message: format!(
                                        "passes {what} to `{}`, which sizes an \
                                         allocation from it — clamp before the call",
                                        site.name
                                    ),
                                });
                                flagged = true;
                            }
                        }
                    }
                }
            }
        }

        // `let` update: propagate or clear the bound names.
        if let Some((names, rhs)) = let_binding(&stmt) {
            let rhs_tainted = !is_clamped(rhs)
                && (tainted.iter().any(|n| has_word(rhs, n)) || (seeds_on && seeded(rhs)));
            for n in names {
                if rhs_tainted {
                    sanitized.remove(&n);
                    tainted.insert(n);
                } else {
                    tainted.remove(&n);
                }
            }
        }
    }
}

/// Joins the lines of `f`'s body into statements. A `let` joins until
/// all brackets close *and* a trailing `;` (so multi-line initializers
/// — including closure bodies — stay one statement); anything else
/// joins only while `(`/`[` groups are open, so control-flow headers
/// ending in `{` terminate immediately.
fn statements(sf: &SourceFile, f: &FnScope) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut i = f.body_start;
    while i <= f.body_end && i <= sf.masked.lines.len() {
        let first = i;
        let line = &sf.masked.lines[i - 1];
        let is_let = {
            let t = line.trim_start();
            t == "let" || t.starts_with("let ")
        };
        let mut joined = line.clone();
        let mut all_depth = depth_delta(line, true);
        let mut paren_depth = depth_delta(line, false);
        i += 1;
        loop {
            let done = if is_let {
                all_depth <= 0 && joined.trim_end().ends_with(';')
            } else {
                paren_depth <= 0
            };
            if done || i > f.body_end || i > sf.masked.lines.len() {
                break;
            }
            let next = &sf.masked.lines[i - 1];
            joined.push(' ');
            joined.push_str(next);
            all_depth += depth_delta(next, true);
            paren_depth += depth_delta(next, false);
            i += 1;
        }
        out.push((first, joined));
    }
    out
}

fn depth_delta(line: &str, count_braces: bool) -> i32 {
    let mut d = 0i32;
    for b in line.bytes() {
        match b {
            b'(' | b'[' => d += 1,
            b')' | b']' => d -= 1,
            b'{' if count_braces => d += 1,
            b'}' if count_braces => d -= 1,
            _ => {}
        }
    }
    d
}

/// Does this expression read wire data directly? `from_le_bytes` is
/// matched as a word, not a call — it is often passed as a function
/// reference (`.map(u32::from_le_bytes)`).
fn seeded(expr: &str) -> bool {
    if has_word(expr, "from_le_bytes") || has_word(expr, "from_be_bytes") {
        return true;
    }
    for acc in [".u8(", ".u16(", ".u32(", ".u64(", ".varint(", ".shape("] {
        if expr.contains(acc) {
            return true;
        }
    }
    calls_on_line(expr).iter().any(|s| {
        (s.name.starts_with("read_") && !READ_EXEMPT.contains(&s.name.as_str()))
            || s.name.starts_with("decode_")
            || s.name == "decode"
    })
}

/// Clamp / validation vocabulary that cleanses an expression.
fn is_clamped(expr: &str) -> bool {
    expr.contains(".min(") || expr.contains(".clamp(") || expr.contains("checked_")
}

/// If `stmt` is a `let`, the bound lowercase names and the right-hand
/// side. Uppercase idents (enum constructors in patterns) are skipped.
fn let_binding(stmt: &str) -> Option<(Vec<String>, &str)> {
    let t = stmt.trim_start();
    let body = t.strip_prefix("let")?;
    if !body.starts_with([' ', '\t']) {
        return None;
    }
    let eq = top_level_eq(body)?;
    let (lhs, rhs) = (&body[..eq], &body[eq + 1..]);
    // Drop a top-level type ascription so `let n: usize = ..` binds `n`
    // without tainting the word `usize`.
    let lhs = match lhs
        .find(':')
        .filter(|&i| lhs.as_bytes().get(i + 1) != Some(&b':'))
    {
        Some(i) if !lhs[..i].contains('(') => &lhs[..i],
        _ => lhs,
    };
    let mut names = Vec::new();
    let bytes = lhs.as_bytes();
    let mut j = 0usize;
    while j < bytes.len() {
        if bytes[j].is_ascii_alphabetic() || bytes[j] == b'_' {
            let start = j;
            while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                j += 1;
            }
            let word = &lhs[start..j];
            if word != "mut" && word != "ref" && !word.starts_with(char::is_uppercase) {
                names.push(word.to_owned());
            }
        } else {
            j += 1;
        }
    }
    Some((names, rhs))
}

/// Byte offset of the first `=` in `s` that is an assignment, not part
/// of `==`, `!=`, `<=`, `>=`, or `=>`.
fn top_level_eq(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut depth = 0i32;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b'=' if depth <= 0 => {
                let prev = i.checked_sub(1).map(|p| bytes[p]);
                let next = bytes.get(i + 1).copied();
                if prev != Some(b'=')
                    && prev != Some(b'!')
                    && prev != Some(b'<')
                    && prev != Some(b'>')
                    && next != Some(b'=')
                    && next != Some(b'>')
                {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Balanced paren group content starting at `open` (the `(` offset).
fn call_args(stmt: &str, open: usize) -> Option<String> {
    let bytes = stmt.as_bytes();
    if bytes.get(open) != Some(&b'(') {
        return None;
    }
    let mut depth = 0i32;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(stmt[open + 1..i].to_owned());
                }
            }
            _ => {}
        }
    }
    None
}

/// Every sink-argument expression in `stmt`, with a label for the
/// report: capacity/length calls, `vec![_; n]`, and `[a..b]` spans.
fn sink_args(stmt: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for pat in ["with_capacity(", ".reserve(", ".set_len(", ".take("] {
        let mut from = 0usize;
        while let Some(pos) = stmt[from..].find(pat) {
            let at = from + pos;
            let open = at + pat.len() - 1;
            from = open;
            let Some(args) = call_args(stmt, open) else {
                continue;
            };
            if pat == ".take(" {
                // `.take(n)?` is the fallible bounds-checked reader
                // take — a validated read, not an allocation.
                let close = open + args.len() + 1;
                if stmt[close + 1..].trim_start().starts_with('?') {
                    continue;
                }
            }
            out.push((args, format!("`{}..)`", pat.trim_end_matches('('))));
        }
    }

    // `vec![elem; n]`: the repeat count is the sink.
    let mut from = 0usize;
    while let Some(pos) = stmt[from..].find("vec![") {
        let open = from + pos + "vec![".len() - 1;
        from = open;
        if let Some(body) = bracket_body(stmt, open) {
            if let Some(semi) = top_level_semi(&body) {
                out.push((body[semi + 1..].to_owned(), "`vec![_; n]`".to_owned()));
            }
        }
    }

    // `[a..b]` spans: a range index sized by its bounds.
    let bytes = stmt.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| bytes[p]);
        if prev == Some(b'!') || prev == Some(b'#') {
            continue; // macro or attribute, handled above
        }
        if let Some(body) = bracket_body(stmt, i) {
            if body.contains("..") {
                out.push((body, "slice span".to_owned()));
            }
        }
    }
    out
}

/// Balanced `[..]` content starting at `open` (the `[` offset).
fn bracket_body(stmt: &str, open: usize) -> Option<String> {
    let bytes = stmt.as_bytes();
    let mut depth = 0i32;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(stmt[open + 1..i].to_owned());
                }
            }
            _ => {}
        }
    }
    None
}

/// Offset of the first `;` at paren/bracket depth 0 inside a
/// `vec![...]` body.
fn top_level_semi(body: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (i, b) in body.bytes().enumerate() {
        match b {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b';' if depth <= 0 => return Some(i),
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::FileKind;
    use crate::workspace::Workspace;

    fn taint_kind() -> FileKind {
        FileKind {
            taint: true,
            ..FileKind::default()
        }
    }

    fn run(src: &str) -> Vec<Finding> {
        let ws = Workspace {
            files: vec![SourceFile::new("t.rs".into(), src.into(), taint_kind())],
        };
        let graph = CallGraph::build(&ws);
        let mut findings = Vec::new();
        apply(&ws, &graph, &mut findings);
        findings
    }

    #[test]
    fn wire_length_into_with_capacity_flags() {
        let f = run("fn decode_header(b: &[u8]) -> Vec<u8> {\n\
             \x20   let n = u64::from_le_bytes([b[0]; 8]) as usize;\n\
             \x20   Vec::with_capacity(n)\n\
             }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "wire-alloc-unclamped");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn min_clamp_cleanses() {
        let f = run("fn decode_header(b: &[u8]) -> Vec<u8> {\n\
             \x20   let n = u64::from_le_bytes([b[0]; 8]) as usize;\n\
             \x20   let n = n.min(1024);\n\
             \x20   Vec::with_capacity(n)\n\
             }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn guard_comparison_sanitizes() {
        let f = run("fn decode_header(b: &[u8]) -> Option<Vec<u8>> {\n\
             \x20   let n = u32::from_le_bytes([b[0]; 4]) as usize;\n\
             \x20   if n > MAX_PAYLOAD {\n\
             \x20       return None;\n\
             \x20   }\n\
             \x20   Some(Vec::with_capacity(n))\n\
             }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn decode_fn_int_params_are_seeded() {
        let f = run("fn decode_block(data: &[u8], count: usize) -> Vec<u8> {\n\
             \x20   Vec::with_capacity(count)\n\
             }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn fallible_take_is_a_validated_read() {
        let f = run("fn decode_header(r: &mut Reader) -> Result<(), E> {\n\
             \x20   let n = r.u32(\"len\")? as usize;\n\
             \x20   let raw = r.take(n, \"body\")?;\n\
             \x20   Ok(())\n\
             }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn one_level_call_into_allocating_helper_flags() {
        let f = run("fn alloc_buf(n: usize) -> Vec<u8> {\n\
             \x20   Vec::with_capacity(n)\n\
             }\n\
             fn decode_header(b: &[u8]) -> Vec<u8> {\n\
             \x20   let n = u64::from_le_bytes([b[0]; 8]) as usize;\n\
             \x20   alloc_buf(n)\n\
             }\n");
        // One finding at the call site; `alloc_buf` alone is not
        // flagged (its caller may clamp).
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 6);
        assert!(f[0].message.contains("alloc_buf"));
    }

    #[test]
    fn vec_repeat_and_set_len_are_sinks() {
        let f = run("fn decode_header(b: &[u8]) -> Vec<u8> {\n\
             \x20   let n = u32::from_le_bytes([b[0]; 4]) as usize;\n\
             \x20   let mut v = vec![0u8; n];\n\
             \x20   unsafe { v.set_len(n) };\n\
             \x20   v\n\
             }\n");
        let lines: Vec<usize> = f.iter().map(|x| x.line).collect();
        assert_eq!(lines, [3, 4], "{f:?}");
    }

    #[test]
    fn unregistered_files_are_untouched() {
        let ws = Workspace {
            files: vec![SourceFile::new(
                "t.rs".into(),
                "fn decode(b: &[u8]) -> Vec<u8> {\n\
                 \x20   let n = u64::from_le_bytes([b[0]; 8]) as usize;\n\
                 \x20   Vec::with_capacity(n)\n\
                 }\n"
                .into(),
                FileKind::default(),
            )],
        };
        let graph = CallGraph::build(&ws);
        let mut findings = Vec::new();
        apply(&ws, &graph, &mut findings);
        assert!(findings.is_empty());
    }
}
