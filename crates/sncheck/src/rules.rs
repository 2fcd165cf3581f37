//! The rule set: each rule turns one of the workspace's dynamically
//! tested guarantees into a statically checked invariant.
//!
//! | rule | guarantee it backs |
//! |------|--------------------|
//! | `no-panic-in-lib` | the streaming runtime's "every frame yields exactly one decision" promise — a panic in scoring kills the stream |
//! | `no-ambient-clock` | bit-identical results at any thread count and with recording on/off — wall-clock reads belong to `obs::Stopwatch` |
//! | `no-raw-spawn` | the serial-parity proof — all parallelism funnels through `ndtensor::par` so one knob (and one proof) covers it |
//! | `no-nondeterministic-iteration` | byte-reproducible detector JSON and fault schedules — `HashMap` iteration order varies per process |
//! | `no-float-eq` | the ECDF-threshold contract — exact float equality is seed-hostile; epsilon helpers make tolerance explicit |
//! | `no-stdout-in-lib` | recording never perturbs detector output — library crates must not write to std streams |
//! | `recorded-parity` | the obs API lockstep — every public `*_recorded` entry point keeps a plain delegating wrapper |
//!
//! Rules run on *library* code only (the scope tracker exempts
//! `#[cfg(test)]`/`#[test]` regions; bins, benches, examples and
//! integration tests are exempted by path classification).

use crate::diag::{Diagnostic, Severity};
use crate::lexer::{Token, TokenKind};
use crate::scope::TestScopes;

/// Crate whose lib target the root `src/` belongs to.
pub const ROOT_CRATE: &str = "saliency-novelty";

/// Crates whose non-test lib code must be panic-free: they sit on the
/// frame→verdict hot path.
const PANIC_FREE_CRATES: &[&str] = &["ndtensor", "neural", "saliency", "metrics", "novelty"];

/// Crates on the deterministic scoring/calibration path where unordered
/// hash collections are banned.
const DETERMINISTIC_CRATES: &[&str] = &[
    "ndtensor", "neural", "saliency", "metrics", "novelty", "simdrive",
];

/// Crates where lexical float-equality comparisons are flagged.
const FLOAT_EQ_CRATES: &[&str] = &[
    "ndtensor", "neural", "saliency", "metrics", "novelty", "simdrive", "vision",
];

/// The one module allowed to spawn threads.
const SPAWN_ALLOWED_FILE: &str = "crates/ndtensor/src/par.rs";

/// Per-frame hot-path modules where ad-hoc heap allocation is banned:
/// buffers must come from `ndtensor::scratch` (or a reused workspace) so
/// a warmed stream performs zero allocations per frame — the guarantee
/// `tests/zero_alloc_stream.rs` proves dynamically.
const HOT_ALLOC_FILES: &[&str] = &[
    "crates/ndtensor/src/matmul.rs",
    "crates/ndtensor/src/conv.rs",
    "crates/ndtensor/src/routines/mod.rs",
    "crates/ndtensor/src/routines/kernels.rs",
    "crates/saliency/src/vbp.rs",
    "crates/novelty/src/runtime.rs",
];

/// The one crate allowed to read the ambient clock.
const CLOCK_ALLOWED_CRATE: &str = "obs";

/// How a file participates in the build, derived from its path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileKind {
    /// Library source of the named crate — rules apply here.
    Lib {
        /// Crate name from the path (`crates/<name>/…`), [`ROOT_CRATE`]
        /// for the root `src/`, or empty for paths outside any known
        /// layout (generic rules still apply there).
        krate: String,
    },
    /// Binary target (`src/bin/**`, `src/main.rs`) — exempt.
    Bin,
    /// Integration tests (`tests/**`) — exempt.
    Tests,
    /// Benchmarks (`benches/**` and the `crates/bench` binaries, which
    /// time the hot path and join it via `sncheck:hot-root`) — exempt
    /// from per-line rules, visible to the call-graph pass.
    Benches,
    /// Examples (`examples/**`) — exempt.
    Examples,
}

/// Classifies a workspace-relative path (with `/` separators).
pub fn classify(rel: &str) -> FileKind {
    let parts: Vec<&str> = rel.split('/').collect();
    let (krate, rest): (Option<&str>, &[&str]) = if parts.len() >= 3 && parts[0] == "crates" {
        (Some(parts[1]), &parts[2..])
    } else {
        (None, &parts[..])
    };
    match rest.first() {
        Some(&"src") => {
            if krate == Some("bench") && rest.get(1) == Some(&"bin") {
                // Bench binaries are bench scope, not plain binaries: they
                // time the scoring hot path, so their marked loops carry
                // the same transitive obligations the library does.
                FileKind::Benches
            } else if rest.get(1) == Some(&"bin") || rest.last() == Some(&"main.rs") {
                FileKind::Bin
            } else {
                FileKind::Lib {
                    krate: krate.unwrap_or(ROOT_CRATE).to_string(),
                }
            }
        }
        Some(&"tests") => FileKind::Tests,
        Some(&"benches") => FileKind::Benches,
        Some(&"examples") => FileKind::Examples,
        _ => FileKind::Lib {
            krate: krate.unwrap_or("").to_string(),
        },
    }
}

/// The crate a workspace-relative path belongs to, regardless of target
/// kind — bench binaries are `bench`, the root `src/` is [`ROOT_CRATE`],
/// paths outside any crate layout are `""`. The symbol table uses this so
/// fingerprints carry a crate for every file kind.
pub fn classify_crate(rel: &str) -> String {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.len() >= 3 && parts[0] == "crates" {
        parts[1].to_string()
    } else if parts.first() == Some(&"src") {
        ROOT_CRATE.to_string()
    } else {
        String::new()
    }
}

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable identifier used in diagnostics and `sncheck:allow` lists.
    pub id: &'static str,
    /// One-line summary for `--list-rules` and docs.
    pub summary: &'static str,
}

/// Every enforced rule, in documentation order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "no-panic-in-lib",
        summary: "unwrap/expect/panic!/unreachable!/todo!/unimplemented! are banned in hot-path library crates",
    },
    RuleInfo {
        id: "no-ambient-clock",
        summary: "Instant::now/SystemTime only inside crates/obs; use obs::Stopwatch elsewhere",
    },
    RuleInfo {
        id: "no-raw-spawn",
        summary: "thread spawning only inside ndtensor::par, preserving the serial-parity proof surface",
    },
    RuleInfo {
        id: "no-nondeterministic-iteration",
        summary: "HashMap/HashSet banned on deterministic paths; use BTreeMap/BTreeSet or sorted Vecs",
    },
    RuleInfo {
        id: "no-float-eq",
        summary: "==/!= against float literals or float constants; use epsilon helpers",
    },
    RuleInfo {
        id: "no-stdout-in-lib",
        summary: "print!/eprintln!/dbg! reserved for binaries and crates/bench",
    },
    RuleInfo {
        id: "recorded-parity",
        summary: "every public *_recorded fn needs a plain-named wrapper in the same file",
    },
    RuleInfo {
        id: "no-hot-alloc",
        summary: "vec!/Vec::with_capacity/.to_vec() banned in per-frame hot modules; use ndtensor::scratch",
    },
    RuleInfo {
        id: "hot-path-transitive-alloc",
        summary: "allocation (vec!/Vec::with_capacity/.to_vec()) in any fn reachable from a hot root",
    },
    RuleInfo {
        id: "hot-path-transitive-panic",
        summary: "panic!/unwrap/expect and friends in any fn reachable from a hot root",
    },
    RuleInfo {
        id: "hot-path-transitive-clock",
        summary: "raw Instant::now/SystemTime in any fn reachable from a hot root (obs exempt)",
    },
    RuleInfo {
        id: "recorded-parity-drift",
        summary: "the plain wrapper of a public *_recorded fn must be a pure forward to it",
    },
    RuleInfo {
        id: "lock-order",
        summary: "two mutexes acquired in both orders somewhere in the reachable call graph",
    },
    RuleInfo {
        id: "no-float-promotion",
        summary: "`as f32`/`as f64` casts inside fns marked `// sncheck:int-hot`",
    },
    RuleInfo {
        id: "unused-suppression",
        summary: "sncheck:allow(...) that suppresses nothing on its line (hygiene; warn severity)",
    },
    RuleInfo {
        id: "unknown-rule",
        summary: "sncheck:allow(...) naming a rule that does not exist (hygiene; warn severity)",
    },
];

/// True when `id` names a known rule.
pub fn is_known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// Everything a rule needs to examine one file.
#[derive(Debug)]
pub struct FileCtx<'a> {
    /// Workspace-relative path.
    pub rel: &'a str,
    /// Path classification.
    pub kind: &'a FileKind,
    /// Token stream.
    pub tokens: &'a [Token],
    /// Test-scope annotations for the token stream.
    pub scopes: &'a TestScopes,
}

impl FileCtx<'_> {
    fn lib_crate(&self) -> Option<&str> {
        match self.kind {
            FileKind::Lib { krate } => Some(krate.as_str()),
            _ => None,
        }
    }

    fn text(&self, i: usize) -> &str {
        self.tokens.get(i).map_or("", |t| t.text.as_str())
    }

    fn is_ident(&self, i: usize, name: &str) -> bool {
        self.tokens
            .get(i)
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text == name)
    }

    fn diag(&self, i: usize, rule: &'static str, message: String) -> Diagnostic {
        let t = &self.tokens[i];
        let mut d = Diagnostic::new(self.rel, t.line, t.col, rule, Severity::Deny, message);
        // The anchor token doubles as the fingerprint token; the engine
        // fills the enclosing fn path from the symbol table.
        d.token = t.text.clone();
        d
    }

    /// Indices of tokens that belong to library (non-test) code.
    fn lib_indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.tokens.len()).filter(|&i| !self.scopes.mask[i])
    }
}

/// Runs every applicable rule over one file.
pub fn run_rules(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let Some(krate) = ctx.lib_crate() else {
        return out; // bins, tests, benches, examples: exempt
    };

    if PANIC_FREE_CRATES.contains(&krate) {
        no_panic_in_lib(ctx, &mut out);
    }
    if krate != CLOCK_ALLOWED_CRATE {
        no_ambient_clock(ctx, &mut out);
    }
    if ctx.rel != SPAWN_ALLOWED_FILE {
        no_raw_spawn(ctx, &mut out);
    }
    if DETERMINISTIC_CRATES.contains(&krate) {
        no_nondeterministic_iteration(ctx, &mut out);
    }
    if FLOAT_EQ_CRATES.contains(&krate) {
        no_float_eq(ctx, &mut out);
    }
    if krate != "bench" {
        no_stdout_in_lib(ctx, &mut out);
    }
    if HOT_ALLOC_FILES.contains(&ctx.rel) {
        no_hot_alloc(ctx, &mut out);
    }
    recorded_parity(ctx, &mut out);
    out
}

const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

fn no_panic_in_lib(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for i in ctx.lib_indices() {
        let t = &ctx.tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        if PANIC_METHODS.contains(&name)
            && i > 0
            && ctx.text(i - 1) == "."
            && ctx.text(i + 1) == "("
        {
            out.push(ctx.diag(
                i,
                "no-panic-in-lib",
                format!(
                    "`.{name}()` can panic in hot-path library code; return a Result \
                     (or document infallibility with `sncheck:allow`)"
                ),
            ));
        } else if PANIC_MACROS.contains(&name) && ctx.text(i + 1) == "!" {
            out.push(ctx.diag(
                i,
                "no-panic-in-lib",
                format!(
                    "`{name}!` aborts the frame->verdict pipeline; return an error \
                     (or document unreachability with `sncheck:allow`)"
                ),
            ));
        }
    }
}

fn no_ambient_clock(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for i in ctx.lib_indices() {
        if ctx.is_ident(i, "Instant") && ctx.text(i + 1) == "::" && ctx.is_ident(i + 2, "now") {
            out.push(
                ctx.diag(
                    i,
                    "no-ambient-clock",
                    "ambient clock read; time through `obs::Stopwatch` so disabled recording \
                 performs zero clock reads"
                        .to_string(),
                ),
            );
        } else if ctx.is_ident(i, "SystemTime") {
            out.push(
                ctx.diag(
                    i,
                    "no-ambient-clock",
                    "wall-clock time is nondeterministic; only `crates/obs` may touch the clock"
                        .to_string(),
                ),
            );
        }
    }
}

const SPAWN_IDENTS: &[&str] = &["spawn", "scope", "Builder"];

fn no_raw_spawn(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for i in ctx.lib_indices() {
        if ctx.is_ident(i, "thread")
            && ctx.text(i + 1) == "::"
            && SPAWN_IDENTS.contains(&ctx.text(i + 2))
        {
            out.push(ctx.diag(
                i,
                "no-raw-spawn",
                format!(
                    "`thread::{}` outside `ndtensor::par` escapes the serial-parity proof; \
                     use `ndtensor::par::{{for_each_block, try_parallel_map}}`",
                    ctx.text(i + 2)
                ),
            ));
        }
    }
}

fn no_nondeterministic_iteration(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for i in ctx.lib_indices() {
        let t = &ctx.tokens[i];
        if t.kind == TokenKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            let ordered = if t.text == "HashMap" {
                "BTreeMap"
            } else {
                "BTreeSet"
            };
            out.push(ctx.diag(
                i,
                "no-nondeterministic-iteration",
                format!(
                    "`{}` iteration order varies per process and breaks byte-reproducible \
                     output; use `{ordered}` or a sorted Vec",
                    t.text
                ),
            ));
        }
    }
}

const FLOAT_CONSTS: &[&str] = &["NAN", "INFINITY", "NEG_INFINITY"];

fn no_float_eq(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let is_float_literal = |i: usize| {
        ctx.tokens
            .get(i)
            .is_some_and(|t| matches!(t.kind, TokenKind::Number { float: true }))
    };
    // `f32::NAN`-style constant whose *last* token sits at index `i`.
    let const_ends_at = |i: usize| {
        i >= 2
            && FLOAT_CONSTS.contains(&ctx.text(i))
            && ctx.text(i - 1) == "::"
            && (ctx.is_ident(i - 2, "f32") || ctx.is_ident(i - 2, "f64"))
    };
    let const_starts_at = |i: usize| {
        (ctx.is_ident(i, "f32") || ctx.is_ident(i, "f64"))
            && ctx.text(i + 1) == "::"
            && FLOAT_CONSTS.contains(&ctx.text(i + 2))
    };
    for i in ctx.lib_indices() {
        let t = &ctx.tokens[i];
        if t.kind != TokenKind::Punct || (t.text != "==" && t.text != "!=") {
            continue;
        }
        let lhs_float = i > 0 && (is_float_literal(i - 1) || const_ends_at(i - 1));
        let rhs_float = is_float_literal(i + 1) || const_starts_at(i + 1);
        if lhs_float || rhs_float {
            out.push(ctx.diag(
                i,
                "no-float-eq",
                format!(
                    "`{}` against a float is exact-representation roulette; compare with an \
                     epsilon helper or restructure",
                    t.text
                ),
            ));
        }
    }
}

const PRINT_MACROS: &[&str] = &["print", "println", "eprint", "eprintln", "dbg"];

fn no_stdout_in_lib(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for i in ctx.lib_indices() {
        let t = &ctx.tokens[i];
        if t.kind == TokenKind::Ident
            && PRINT_MACROS.contains(&t.text.as_str())
            && ctx.text(i + 1) == "!"
        {
            out.push(ctx.diag(
                i,
                "no-stdout-in-lib",
                format!(
                    "`{}!` writes to std streams from library code; report through the \
                     obs recorder or move the print to a binary",
                    t.text
                ),
            ));
        }
    }
}

fn no_hot_alloc(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for i in ctx.lib_indices() {
        let t = &ctx.tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let found = match t.text.as_str() {
            "vec" if ctx.text(i + 1) == "!" => Some("vec!"),
            "Vec" if ctx.text(i + 1) == "::" && ctx.is_ident(i + 2, "with_capacity") => {
                Some("Vec::with_capacity")
            }
            "to_vec" if i > 0 && ctx.text(i - 1) == "." && ctx.text(i + 1) == "(" => {
                Some(".to_vec()")
            }
            _ => None,
        };
        if let Some(what) = found {
            out.push(ctx.diag(
                i,
                "no-hot-alloc",
                format!(
                    "`{what}` allocates on the per-frame hot path; take a pooled buffer from \
                     `ndtensor::scratch` or reuse a workspace (or `sncheck:allow` a \
                     setup-path allocation with a reason)"
                ),
            ));
        }
    }
}

/// True when the `fn` keyword at `i` belongs to a `pub` item. Walks back
/// over the tokens a visibility-qualified signature can legally contain.
fn fn_is_pub(ctx: &FileCtx<'_>, i: usize) -> bool {
    let mut j = i;
    for _ in 0..8 {
        if j == 0 {
            return false;
        }
        j -= 1;
        match ctx.text(j) {
            "pub" => return true,
            "crate" | "in" | "self" | "super" | "(" | ")" | "const" | "async" | "unsafe"
            | "extern" => continue,
            _ => {
                // String literal for `extern "C"` ABIs.
                if ctx.tokens[j].kind == TokenKind::Str {
                    continue;
                }
                return false;
            }
        }
    }
    false
}

fn recorded_parity(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    // All fn names declared in non-test code in this file.
    let mut declared: Vec<&str> = Vec::new();
    let mut recorded: Vec<usize> = Vec::new(); // index of the *name* token
    for i in ctx.lib_indices() {
        if ctx.is_ident(i, "fn")
            && ctx
                .tokens
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::Ident)
        {
            declared.push(ctx.text(i + 1));
            if ctx.text(i + 1).ends_with("_recorded") && fn_is_pub(ctx, i) {
                recorded.push(i + 1);
            }
        }
    }
    for idx in recorded {
        let name = ctx.text(idx);
        let base = &name[..name.len() - "_recorded".len()];
        if base.is_empty() {
            continue;
        }
        if !declared.contains(&base) {
            out.push(ctx.diag(
                idx,
                "recorded-parity",
                format!(
                    "public `{name}` has no plain `{base}` wrapper in this file; keep the \
                     recorded/plain obs API in lockstep"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope::test_scopes;

    fn check(rel: &str, src: &str) -> Vec<Diagnostic> {
        let lexed = lex(src);
        let scopes = test_scopes(&lexed.tokens);
        let kind = classify(rel);
        let ctx = FileCtx {
            rel,
            kind: &kind,
            tokens: &lexed.tokens,
            scopes: &scopes,
        };
        run_rules(&ctx)
    }

    const LIB: &str = "crates/novelty/src/x.rs";

    #[test]
    fn classify_kinds() {
        assert_eq!(
            classify("crates/neural/src/train.rs"),
            FileKind::Lib {
                krate: "neural".into()
            }
        );
        // Bench binaries are bench scope: exempt from per-line rules but
        // first-class in the call graph (their marked loops are hot roots).
        assert_eq!(classify("crates/bench/src/bin/fig3.rs"), FileKind::Benches);
        assert_eq!(classify("src/bin/saliency-novelty.rs"), FileKind::Bin);
        assert_eq!(classify("crates/novelty/src/bin/tool.rs"), FileKind::Bin);
        assert_eq!(classify("crates/sncheck/src/main.rs"), FileKind::Bin);
        assert_eq!(
            classify("src/lib.rs"),
            FileKind::Lib {
                krate: ROOT_CRATE.into()
            }
        );
        assert_eq!(classify("tests/cli.rs"), FileKind::Tests);
        assert_eq!(classify("crates/obs/benches/b.rs"), FileKind::Benches);
        assert_eq!(classify("examples/demo.rs"), FileKind::Examples);
    }

    #[test]
    fn panic_rule_fires_and_spares_tests() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"n\"); unreachable!(); }\n\
                   #[cfg(test)] mod tests { fn t() { z.unwrap(); panic!(); } }";
        let diags = check(LIB, src);
        assert_eq!(
            diags.iter().filter(|d| d.rule == "no-panic-in-lib").count(),
            4
        );
    }

    #[test]
    fn panic_rule_ignores_unwrap_or_and_other_crates() {
        assert!(check(LIB, "fn f() { x.unwrap_or(1).unwrap_or_else(g); }").is_empty());
        // obs is not a panic-free crate.
        assert!(check("crates/obs/src/x.rs", "fn f() { x.unwrap(); }")
            .iter()
            .all(|d| d.rule != "no-panic-in-lib"));
    }

    #[test]
    fn clock_rule() {
        let src = "fn f() { let t = Instant::now(); let s = SystemTime::now(); }";
        let diags = check(LIB, src);
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.rule == "no-ambient-clock")
                .count(),
            2
        );
        assert!(check("crates/obs/src/x.rs", src).is_empty());
        // Storing an Instant someone else created is fine.
        assert!(check(LIB, "fn f(t: Instant) -> Instant { t }").is_empty());
    }

    #[test]
    fn spawn_rule() {
        let src = "fn f() { std::thread::spawn(|| {}); thread::scope(|s| {}); }";
        let diags = check(LIB, src);
        assert_eq!(diags.iter().filter(|d| d.rule == "no-raw-spawn").count(), 2);
        assert!(check("crates/ndtensor/src/par.rs", src).is_empty());
        // available_parallelism is not spawning.
        assert!(check(LIB, "fn f() { thread::available_parallelism(); }").is_empty());
    }

    #[test]
    fn hash_rule() {
        let src = "use std::collections::HashMap; fn f() { let m: HashMap<u8, u8>; }";
        let diags = check(LIB, src);
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.rule == "no-nondeterministic-iteration")
                .count(),
            2
        );
        // vision is outside the deterministic set.
        assert!(check("crates/vision/src/x.rs", src)
            .iter()
            .all(|d| d.rule != "no-nondeterministic-iteration"));
    }

    #[test]
    fn float_eq_rule() {
        let cases = [
            "fn f() { if x == 1.0 {} }",
            "fn f() { if 0.5 != y {} }",
            "fn f() { if x == f32::NAN {} }",
            "fn f() { if f64::INFINITY == x {} }",
        ];
        for src in cases {
            assert_eq!(
                check(LIB, src)
                    .iter()
                    .filter(|d| d.rule == "no-float-eq")
                    .count(),
                1,
                "{src}"
            );
        }
        // Integer equality, float inequality-ordering: fine.
        assert!(check(LIB, "fn f() { if x == 1 {} if x <= 1.0 {} }").is_empty());
    }

    #[test]
    fn stdout_rule() {
        let src = "fn f() { println!(\"x\"); eprintln!(\"y\"); dbg!(z); }";
        let diags = check(LIB, src);
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.rule == "no-stdout-in-lib")
                .count(),
            3
        );
        assert!(check("crates/bench/src/x.rs", src).is_empty());
        assert!(check("src/bin/cli.rs", src).is_empty());
    }

    #[test]
    fn hot_alloc_rule_fires_only_in_hot_files() {
        let src = "fn f() { let a = vec![0.0f32; 8]; let b = Vec::with_capacity(4); \
                   let c = s.to_vec(); }";
        let hot = "crates/ndtensor/src/matmul.rs";
        let diags = check(hot, src);
        assert_eq!(diags.iter().filter(|d| d.rule == "no-hot-alloc").count(), 3);
        // Other files in the same crate are not hot.
        assert!(check("crates/ndtensor/src/tensor.rs", src)
            .iter()
            .all(|d| d.rule != "no-hot-alloc"));
        // Test code inside a hot file is exempt.
        let test_src = "#[cfg(test)] mod tests { fn t() { let a = vec![1]; } }";
        assert!(check(hot, test_src).is_empty());
        // Non-allocating lookalikes do not fire.
        let ok = "fn f() { let v: Vec<f32> = scratch::take(8); v.to_vec; Vec::new(); }";
        assert!(check(hot, ok).iter().all(|d| d.rule != "no-hot-alloc"));
    }

    #[test]
    fn recorded_parity_rule() {
        let bad = "pub fn score_recorded() {}";
        let diags = check(LIB, bad);
        assert_eq!(
            diags.iter().filter(|d| d.rule == "recorded-parity").count(),
            1
        );
        let good = "pub fn score() { } pub fn score_recorded() {}";
        assert!(check(LIB, good).is_empty());
        // Private helpers are exempt.
        assert!(check(LIB, "fn helper_recorded() {}").is_empty());
        // pub(crate) still counts as public surface.
        let cr = "pub(crate) fn go_recorded() {}";
        assert_eq!(check(LIB, cr).len(), 1);
    }

    #[test]
    fn triggers_inside_literals_and_comments_do_not_fire() {
        let src = r#"
            fn f() {
                let a = "x.unwrap() panic! HashMap Instant::now()";
                let b = 'H';
                // x.unwrap(); thread::spawn; SystemTime
                /* println!("x"); x == 1.0 */
            }
        "#;
        assert!(check(LIB, src).is_empty());
    }
}
