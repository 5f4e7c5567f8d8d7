//! The determinism rule set (D1–D8) and the per-file token scan.
//!
//! Each rule guards one way a simulation run can silently stop being
//! bit-reproducible. The campaign runner's golden-run comparison and the
//! prefix-fork/snapshot-DAG optimisations are only sound when two runs with
//! the same seed are identical; these rules turn the known ways of losing
//! that property into CI failures. See `DESIGN.md` ("Determinism invariants
//! and the auditor") for the full rationale of each rule.
//!
//! This module owns the *textual* pass: rules that fire on identifiers and
//! short token sequences in a single file. The cross-file pass (aliased
//! re-exports resolved through the workspace use-graph) lives in
//! [`crate::usegraph`]; suppression (test regions, `allow(...)` waivers,
//! `host-region` markers) is applied by the orchestrator in [`crate`].

use crate::lexer::{Token, TokenKind};

/// One auditor rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable kebab-case id, used in diagnostics and `allow(...)`.
    pub id: &'static str,
    /// One-line description of what the rule forbids.
    pub summary: &'static str,
    /// Why violating it breaks reproducibility.
    pub why: &'static str,
}

/// Rule id for D1.
pub const HASH_COLLECTIONS: &str = "hash-collections";
/// Rule id for D2.
pub const WALL_CLOCK: &str = "wall-clock";
/// Rule id for D3.
pub const AMBIENT_RNG: &str = "ambient-rng";
/// Rule id for D4.
pub const GLOBAL_STATE: &str = "global-state";
/// Rule id for D5.
pub const FLOAT_ORDERING: &str = "float-ordering";
/// Rule id for D6.
pub const INTERIOR_MUTABILITY: &str = "interior-mutability";
/// Rule id for D7.
pub const FLOAT_REDUCTION: &str = "float-reduction";
/// Rule id for D8.
pub const SIM_IO: &str = "sim-io";
/// Pseudo-rule id for malformed `comfase-lint:` annotations.
pub const BAD_ANNOTATION: &str = "bad-annotation";

/// The full rule set, in diagnostic order.
pub const RULES: &[Rule] = &[
    Rule {
        id: HASH_COLLECTIONS,
        summary: "no `HashMap`/`HashSet` in simulation-state code (use `BTreeMap`/`BTreeSet`)",
        why: "hash iteration order is randomized per process, so any iteration \
              or serialization leaks nondeterminism into forked/snapshot runs",
    },
    Rule {
        id: WALL_CLOCK,
        summary: "no wall-clock reads (`Instant`, `SystemTime`) in simulation code",
        why: "simulation time must come from the DES kernel clock; wall-clock \
              values differ between runs and between fork points",
    },
    Rule {
        id: AMBIENT_RNG,
        summary: "no ambient randomness (`thread_rng`, `rand::random`, `from_entropy`, `OsRng`)",
        why: "all randomness must flow from seeded `comfase-des` RNG streams so \
              equal seeds give bit-identical runs",
    },
    Rule {
        id: GLOBAL_STATE,
        summary: "no mutable globals (`static mut`, `lazy_static`, `OnceLock`) or `std::env` reads",
        why: "process-global state survives across experiments and forks, and \
              environment reads make results depend on the host shell",
    },
    Rule {
        id: FLOAT_ORDERING,
        summary: "no `.partial_cmp(..).unwrap()`/`.expect(..)` on floats (use `total_cmp`)",
        why: "partial comparisons panic or reorder on NaN; `total_cmp` gives a \
              deterministic total order for every input",
    },
    Rule {
        id: INTERIOR_MUTABILITY,
        summary: "no interior mutability (`Cell`, `RefCell`, `Mutex`, `RwLock`, atomics) in sim state",
        why: "interior mutability hides state changes from `Clone`-based \
              forking, and lock/atomic ordering depends on host scheduling — \
              both break snapshot/fork bit-identity",
    },
    Rule {
        id: FLOAT_REDUCTION,
        summary: "no float `.sum()`/`.fold()`/`.reduce()` over unordered iterators (`.values()`, par-iters)",
        why: "float addition is not associative, so a reduction over an \
              iterator whose order can change (map views, work-stealing \
              parallel iterators) gives different bits for the same inputs",
    },
    Rule {
        id: SIM_IO,
        summary: "no host I/O or threading (`std::fs`, `std::net`, `std::thread::spawn`, stdio) in sim code",
        why: "I/O timing and thread scheduling are host-dependent; simulation \
              code must be a pure function of seed and configuration, with all \
              I/O at the campaign-runner boundary",
    },
];

/// `true` if `id` names a real rule (annotations may only reference these).
pub fn is_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// One raw textual finding, before suppression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFinding {
    /// The violated rule.
    pub rule: &'static str,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
    /// `true` when a `// comfase-lint: host-region(...)` marker may exempt
    /// this finding (host-side supervision concerns: clocks, locks, I/O,
    /// environment reads). Sim-determinism findings are never host-exempt.
    pub host_ok: bool,
}

/// Identifiers that fire D1 wherever they appear in non-test code.
const HASH_IDENTS: &[&str] = &[
    "HashMap",
    "HashSet",
    "RandomState",
    "AHashMap",
    "AHashSet",
    "FxHashMap",
    "FxHashSet",
    "IndexMap",
    "IndexSet",
];

/// Identifiers that fire D2.
const CLOCK_IDENTS: &[&str] = &["Instant", "SystemTime", "UNIX_EPOCH"];

/// Identifiers that fire D3.
const RNG_IDENTS: &[&str] = &[
    "thread_rng",
    "ThreadRng",
    "OsRng",
    "from_entropy",
    "getrandom",
];

/// Identifiers that fire D4 on their own.
const GLOBAL_IDENTS: &[&str] = &["lazy_static", "OnceLock", "OnceCell", "LazyLock"];

/// `env::<fn>` calls that fire D4.
const ENV_FNS: &[&str] = &["var", "vars", "var_os", "vars_os", "args", "args_os"];

/// Identifiers that fire D6 wherever they appear. Bare `Cell` is *not*
/// listed: the workspace defines unrelated `Cell` types (a grid coordinate
/// in `comfase_wireless::grid`), so `std::cell::Cell` is only flagged by the
/// use-graph pass, which resolves what the name actually refers to.
const INTERIOR_IDENTS: &[&str] = &["RefCell", "UnsafeCell", "Mutex", "RwLock", "Condvar"];

/// Output macros that fire D8 (`name` followed by `!`).
const IO_MACROS: &[&str] = &["println", "print", "eprintln", "eprint", "dbg"];

/// Iterator sources whose order is not the index order of a stable sequence:
/// map/set views (key order shifts with membership) and rayon-style parallel
/// iterators (work-stealing order).
const UNORDERED_SOURCES: &[&str] = &[
    "values",
    "into_values",
    "values_mut",
    "keys",
    "into_keys",
    "par_iter",
    "into_par_iter",
    "par_iter_mut",
    "par_bridge",
    "par_chunks",
];

/// Reduction operators that are order-independent, exempting a
/// `fold`/`reduce` from D7 (`f64::max`, `f64::min`, `u64::max`, ...).
const ORDER_FREE_OPS: &[&str] = &["max", "min", "total_max", "total_min"];

/// Runs every textual rule over the token stream.
pub fn scan_tokens(tokens: &[Token]) -> Vec<RawFinding> {
    let mut raw = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let text = t.text.as_str();
        if HASH_IDENTS.contains(&text) {
            raw.push(RawFinding {
                rule: HASH_COLLECTIONS,
                line: t.line,
                message: format!(
                    "`{text}` in simulation-state code: iteration order is \
                     nondeterministic and breaks fork bit-identity; use \
                     `BTreeMap`/`BTreeSet`"
                ),
                host_ok: false,
            });
        } else if CLOCK_IDENTS.contains(&text) {
            raw.push(RawFinding {
                rule: WALL_CLOCK,
                line: t.line,
                message: format!(
                    "wall-clock `{text}` in simulation code: time must come \
                     from the DES kernel (`Simulator::now`), never the host clock"
                ),
                host_ok: true,
            });
        } else if RNG_IDENTS.contains(&text) {
            raw.push(RawFinding {
                rule: AMBIENT_RNG,
                line: t.line,
                message: format!(
                    "ambient randomness `{text}`: use a seeded \
                     `comfase_des::rng::RngStream` so equal seeds reproduce runs"
                ),
                host_ok: false,
            });
        } else if GLOBAL_IDENTS.contains(&text) {
            raw.push(RawFinding {
                rule: GLOBAL_STATE,
                line: t.line,
                message: format!(
                    "`{text}` creates process-global state that leaks across \
                     experiments; thread state through `World` instead"
                ),
                host_ok: false,
            });
        } else if INTERIOR_IDENTS.contains(&text)
            || (text.starts_with("Atomic") && text.len() > "Atomic".len())
        {
            raw.push(RawFinding {
                rule: INTERIOR_MUTABILITY,
                line: t.line,
                message: format!(
                    "interior mutability `{text}` in simulation-state code: \
                     shared mutation bypasses `Clone`-based forking and orders \
                     effects by host scheduling; own the state in `World` and \
                     mutate through `&mut`"
                ),
                host_ok: true,
            });
        } else if IO_MACROS.contains(&text) && tokens.get(i + 1).is_some_and(|n| n.is_punct("!")) {
            raw.push(RawFinding {
                rule: SIM_IO,
                line: t.line,
                message: format!(
                    "`{text}!` writes to host stdio from simulation code: \
                     route output through the recorder/report layer at the \
                     campaign boundary"
                ),
                host_ok: true,
            });
        } else if text == "static" && tokens.get(i + 1).is_some_and(|n| n.is_ident("mut")) {
            raw.push(RawFinding {
                rule: GLOBAL_STATE,
                line: t.line,
                message: "`static mut` is mutable global state; thread state through \
                 `World` instead"
                    .to_string(),
                host_ok: false,
            });
        } else if text == "env"
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && tokens
                .get(i + 2)
                .is_some_and(|n| n.kind == TokenKind::Ident && ENV_FNS.contains(&n.text.as_str()))
        {
            raw.push(RawFinding {
                rule: GLOBAL_STATE,
                line: t.line,
                message: format!(
                    "`env::{}` read in simulation code: results must not depend \
                     on the host environment; take configuration explicitly",
                    tokens[i + 2].text
                ),
                host_ok: true,
            });
        } else if text == "std"
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && tokens.get(i + 2).is_some_and(|n| n.is_ident("env"))
            && !tokens.get(i + 3).is_some_and(|n| n.is_punct("::"))
        {
            // `use std::env;` (the qualified-call form is caught above).
            raw.push(RawFinding {
                rule: GLOBAL_STATE,
                line: t.line,
                message: "`std::env` in simulation code: results must not depend on the \
                 host environment"
                    .to_string(),
                host_ok: true,
            });
        } else if text == "rand" && tokens.get(i + 1).is_some_and(|n| n.is_punct("::")) {
            if tokens.get(i + 2).is_some_and(|n| n.is_ident("random")) {
                raw.push(RawFinding {
                    rule: AMBIENT_RNG,
                    line: t.line,
                    message: "`rand::random` draws from the thread-local RNG; use a \
                     seeded `comfase_des::rng::RngStream`"
                        .to_string(),
                    host_ok: false,
                });
            }
        } else if text == "partial_cmp"
            && i > 0
            && tokens[i - 1].is_punct(".")
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            // D5: `.partial_cmp(..)` whose result is immediately unwrapped.
            if let Some(close) = matching_paren(tokens, i + 1) {
                if tokens.get(close + 1).is_some_and(|n| n.is_punct("."))
                    && tokens
                        .get(close + 2)
                        .is_some_and(|n| n.is_ident("unwrap") || n.is_ident("expect"))
                {
                    raw.push(RawFinding {
                        rule: FLOAT_ORDERING,
                        line: t.line,
                        message: format!(
                            "`.partial_cmp(..).{}()` panics or misorders on NaN; \
                             use `f64::total_cmp` for a deterministic total order",
                            tokens[close + 2].text
                        ),
                        host_ok: false,
                    });
                }
            }
        } else if (text == "sum" || text == "product") && i > 0 && tokens[i - 1].is_punct(".") {
            check_sum_product(tokens, i, &mut raw);
        } else if (text == "fold" || text == "reduce")
            && i > 0
            && tokens[i - 1].is_punct(".")
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            check_fold_reduce(tokens, i, &mut raw);
        }
    }
    raw
}

/// D7 for `.sum()` / `.product()` terminals.
///
/// Fires over an unordered receiver unless the turbofish pins an *integer*
/// element type (integer addition is associative — adding e.g.
/// `.sum::<u64>()` is the sanctioned fix for map-view sums). A missing
/// turbofish is treated as suspect because the element type is invisible to
/// a lexical pass.
fn check_sum_product(tokens: &[Token], i: usize, raw: &mut Vec<RawFinding>) {
    let name = tokens[i].text.as_str();
    let mut k = i + 1;
    let mut has_turbofish = false;
    let mut float_turbofish = false;
    if tokens.get(k).is_some_and(|n| n.is_punct("::"))
        && tokens.get(k + 1).is_some_and(|n| n.is_punct("<"))
    {
        has_turbofish = true;
        let mut depth = 0i32;
        let mut m = k + 1;
        while let Some(t) = tokens.get(m) {
            if t.is_punct("<") {
                depth += 1;
            } else if t.is_punct(">") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.is_ident("f32") || t.is_ident("f64") {
                float_turbofish = true;
            }
            m += 1;
        }
        k = m + 1;
    }
    if !tokens.get(k).is_some_and(|n| n.is_punct("(")) {
        return;
    }
    if has_turbofish && !float_turbofish {
        // Integer element type: associative, order-independent.
        return;
    }
    if !receiver_is_unordered(tokens, i) {
        return;
    }
    let message = if float_turbofish {
        format!(
            "float `.{name}::<f32|f64>()` over an unordered iterator: float \
             addition is not associative, so map-view or parallel order \
             changes the bits; collect into an index-ordered buffer first"
        )
    } else {
        format!(
            "`.{name}()` over an unordered iterator: if the element type is \
             a float the result depends on iteration order; pin an integer \
             element type (`.{name}::<u64>()`) or collect into an \
             index-ordered buffer first"
        )
    };
    raw.push(RawFinding {
        rule: FLOAT_REDUCTION,
        line: tokens[i].line,
        message,
        host_ok: false,
    });
}

/// D7 for `.fold(seed, op)` / `.reduce(op)` terminals.
///
/// `fold` fires when the seed is a float literal; `reduce` always reduces
/// pairwise in iterator order. Both are exempt when the operator is an
/// order-independent `max`/`min`.
fn check_fold_reduce(tokens: &[Token], i: usize, raw: &mut Vec<RawFinding>) {
    let name = tokens[i].text.as_str();
    let Some(close) = matching_paren(tokens, i + 1) else {
        return;
    };
    let args = &tokens[i + 2..close];
    let order_free = args
        .iter()
        .any(|t| t.kind == TokenKind::Ident && ORDER_FREE_OPS.contains(&t.text.as_str()));
    if order_free {
        return;
    }
    let fires = match name {
        "fold" => args.first().is_some_and(Token::is_float_literal),
        _ => true,
    };
    if !fires || !receiver_is_unordered(tokens, i) {
        return;
    }
    raw.push(RawFinding {
        rule: FLOAT_REDUCTION,
        line: tokens[i].line,
        message: format!(
            "float `.{name}(..)` over an unordered iterator: the reduction \
             order follows map-view or parallel scheduling order, so the \
             result bits are not reproducible; use an order-independent \
             operator (`max`/`min`) or an index-ordered buffer"
        ),
        host_ok: false,
    });
}

/// Walks the method chain feeding the terminal at `term` (`tokens[term]` is
/// the method name, `tokens[term - 1]` the `.`) backwards, returning `true`
/// if any source/adaptor in the chain is an unordered iterator source.
fn receiver_is_unordered(tokens: &[Token], term: usize) -> bool {
    if term < 2 {
        return false;
    }
    let mut j = term as isize - 2;
    while j >= 0 {
        let t = &tokens[j as usize];
        if t.is_punct(")") {
            // `... name( .. ) . terminal` — inspect `name` and keep walking.
            let Some(open) = matching_back(tokens, j as usize) else {
                return false;
            };
            if open == 0 {
                return false;
            }
            let name = &tokens[open - 1];
            if name.kind != TokenKind::Ident {
                // Parenthesized expression receiver: stop (conservative).
                return false;
            }
            if UNORDERED_SOURCES.contains(&name.text.as_str()) {
                return true;
            }
            if open >= 2 && tokens[open - 2].is_punct(".") {
                j = open as isize - 3;
                continue;
            }
            // Free-function call at the chain head.
            return false;
        } else if t.kind == TokenKind::Ident || t.is_punct("?") {
            // Field access (`self.per_vehicle`) or try operator: step over.
            if j >= 2 && tokens[j as usize - 1].is_punct(".") {
                j -= 2;
                continue;
            }
            return false;
        } else {
            return false;
        }
    }
    false
}

/// Index of the `)` matching the `(` at `open`.
fn matching_paren(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Index of the `(` matching the `)` at `close`.
fn matching_back(tokens: &[Token], close: usize) -> Option<usize> {
    let mut depth = 0usize;
    for k in (0..=close).rev() {
        if tokens[k].is_punct(")") {
            depth += 1;
        } else if tokens[k].is_punct("(") {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_file;

    fn rules_hit(src: &str) -> Vec<String> {
        check_file("test.rs", src)
            .into_iter()
            .map(|v| v.rule)
            .collect()
    }

    #[test]
    fn hash_map_field_fires() {
        assert_eq!(
            rules_hit("struct S { m: HashMap<u32, u32> }"),
            vec![HASH_COLLECTIONS]
        );
    }

    #[test]
    fn instant_now_fires() {
        assert_eq!(
            rules_hit("fn f() { let t = Instant::now(); }"),
            vec![WALL_CLOCK]
        );
    }

    #[test]
    fn thread_rng_and_rand_random_fire() {
        assert_eq!(
            rules_hit("fn f() { let x = thread_rng(); let y: f64 = rand::random(); }"),
            vec![AMBIENT_RNG, AMBIENT_RNG]
        );
    }

    #[test]
    fn static_mut_and_env_fire() {
        assert_eq!(
            rules_hit("static mut COUNTER: u32 = 0;"),
            vec![GLOBAL_STATE]
        );
        assert_eq!(
            rules_hit("fn f() { let p = std::env::var(\"PATH\"); }"),
            vec![GLOBAL_STATE]
        );
        assert_eq!(rules_hit("use std::env;"), vec![GLOBAL_STATE]);
    }

    #[test]
    fn immutable_static_is_fine() {
        assert!(rules_hit("static NAME: &str = \"x\";").is_empty());
    }

    #[test]
    fn partial_cmp_unwrap_fires_across_lines() {
        let src = "fn f(a: f64, b: f64) { a.partial_cmp(&b)\n    .unwrap(); }";
        assert_eq!(rules_hit(src), vec![FLOAT_ORDERING]);
    }

    #[test]
    fn partial_cmp_definition_does_not_fire() {
        let src = "impl PartialOrd for S { fn partial_cmp(&self, o: &Self) -> Option<Ordering> { Some(self.cmp(o)) } }";
        assert!(rules_hit(src).is_empty());
    }

    #[test]
    fn handled_partial_cmp_does_not_fire() {
        assert!(rules_hit(
            "fn f(a: f64, b: f64) { a.partial_cmp(&b).unwrap_or(Ordering::Equal); }"
        )
        .is_empty());
    }

    #[test]
    fn refcell_mutex_and_atomics_fire_d6() {
        assert_eq!(
            rules_hit("struct W { cache: RefCell<Vec<u64>> }"),
            vec![INTERIOR_MUTABILITY]
        );
        assert_eq!(
            rules_hit("struct W { lock: Mutex<u32> }"),
            vec![INTERIOR_MUTABILITY]
        );
        assert_eq!(
            rules_hit("struct W { n: AtomicUsize }"),
            vec![INTERIOR_MUTABILITY]
        );
    }

    #[test]
    fn imported_cell_fires_d6_via_usegraph_but_local_cell_does_not() {
        assert_eq!(
            rules_hit("use std::cell::Cell;\nstruct W { c: Cell<u32> }"),
            vec![INTERIOR_MUTABILITY, INTERIOR_MUTABILITY]
        );
        // An unrelated local `Cell` (the wireless grid coordinate) is clean.
        assert!(rules_hit("type Cell = (i64, i64);\nfn f(c: Cell) -> Cell { c }").is_empty());
    }

    #[test]
    fn float_sum_over_values_fires_d7() {
        assert_eq!(
            rules_hit("fn f(m: &BTreeMap<u32, f64>) -> f64 { m.values().sum::<f64>() }"),
            vec![FLOAT_REDUCTION]
        );
        // Without a turbofish the element type is unknown: still suspect.
        assert_eq!(
            rules_hit("fn f(m: &BTreeMap<u32, f64>) -> f64 { m.values().sum() }"),
            vec![FLOAT_REDUCTION]
        );
        // Through adaptors.
        assert_eq!(
            rules_hit("fn f(m: &BTreeMap<u32, V>) -> f64 { m.values().map(|v| v.x).sum::<f64>() }"),
            vec![FLOAT_REDUCTION]
        );
    }

    #[test]
    fn integer_turbofish_sum_is_exempt_d7() {
        assert!(
            rules_hit("fn f(m: &BTreeMap<u32, u64>) -> u64 { m.values().sum::<u64>() }").is_empty()
        );
        assert!(rules_hit(
            "fn f(m: &BTreeMap<u32, Vec<u8>>) -> usize { m.values().map(Vec::len).sum::<usize>() }"
        )
        .is_empty());
    }

    #[test]
    fn ordered_receiver_sum_is_exempt_d7() {
        assert!(rules_hit("fn f(v: &[f64]) -> f64 { v.iter().sum::<f64>() }").is_empty());
        assert!(rules_hit("fn f(v: &Vec<f64>) -> f64 { v.iter().copied().sum() }").is_empty());
    }

    #[test]
    fn float_fold_and_reduce_over_values_fire_d7() {
        assert_eq!(
            rules_hit("fn f(m: &BTreeMap<u32, f64>) -> f64 { m.values().fold(0.0, |a, b| a + b) }"),
            vec![FLOAT_REDUCTION]
        );
        assert_eq!(
            rules_hit(
                "fn f(m: &BTreeMap<u32, f64>) -> f64 { m.values().copied().reduce(|a, b| a + b).unwrap_or(0.0) }"
            ),
            vec![FLOAT_REDUCTION]
        );
    }

    #[test]
    fn order_free_fold_and_reduce_are_exempt_d7() {
        assert!(rules_hit(
            "fn f(m: &BTreeMap<u32, f64>) -> f64 { m.values().fold(0.0, f64::max) }"
        )
        .is_empty());
        assert!(rules_hit(
            "fn f(m: &BTreeMap<u32, f64>) -> Option<f64> { m.values().copied().reduce(f64::min) }"
        )
        .is_empty());
    }

    #[test]
    fn stdio_macros_and_fs_fire_d8() {
        assert_eq!(rules_hit("fn f() { println!(\"hi\"); }"), vec![SIM_IO]);
        assert_eq!(
            rules_hit("fn f() { let _ = std::fs::read_to_string(\"x\"); }"),
            vec![SIM_IO]
        );
        assert_eq!(
            rules_hit("fn f() { std::thread::spawn(|| {}); }"),
            vec![SIM_IO]
        );
    }

    #[test]
    fn fmt_write_is_not_d8() {
        assert!(rules_hit(
            "use std::fmt::Write;\nfn f(s: &mut String) { let _ = write!(s, \"x\"); }"
        )
        .is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n use std::collections::HashMap;\n fn t() { let i = Instant::now(); }\n}";
        assert!(rules_hit(src).is_empty());
    }

    #[test]
    fn allow_annotation_suppresses_same_line_and_next_line() {
        let trailing = "struct S { m: HashSet<u32> } // comfase-lint: allow(hash-collections, reason = \"membership only\")";
        assert!(rules_hit(trailing).is_empty());
        let above =
            "// comfase-lint: allow(hash-collections, reason = \"membership only\")\nstruct S { m: HashSet<u32> }";
        assert!(rules_hit(above).is_empty());
    }

    #[test]
    fn allow_for_wrong_rule_does_not_suppress() {
        let src =
            "// comfase-lint: allow(wall-clock, reason = \"wrong rule\")\nstruct S { m: HashSet<u32> }";
        assert_eq!(rules_hit(src), vec![HASH_COLLECTIONS]);
    }

    #[test]
    fn host_region_exempts_host_rules_only() {
        // D2/D6/D8 are exempt inside a host region…
        let src = "// comfase-lint: host-region(reason = \"campaign supervision thread\")\nfn sup() {\n let t = Instant::now();\n let m = Mutex::new(0);\n let _ = std::fs::read(\"x\");\n}";
        assert!(rules_hit(src).is_empty(), "{:?}", rules_hit(src));
        // …but sim-determinism rules are not.
        let src = "// comfase-lint: host-region(reason = \"campaign supervision thread\")\nfn sup() {\n let m: HashMap<u32, u32> = HashMap::new();\n}";
        assert_eq!(rules_hit(src), vec![HASH_COLLECTIONS, HASH_COLLECTIONS]);
    }

    #[test]
    fn host_region_does_not_leak_past_its_item() {
        let src = "// comfase-lint: host-region(reason = \"journal writer\")\nfn host() { let t = Instant::now(); }\nfn sim() { let t = Instant::now(); }";
        assert_eq!(rules_hit(src), vec![WALL_CLOCK]);
    }

    #[test]
    fn malformed_annotation_is_reported() {
        assert_eq!(
            rules_hit("// comfase-lint: allow(hash-collections)"),
            vec![BAD_ANNOTATION]
        );
        assert_eq!(
            rules_hit("// comfase-lint: allow(no-such-rule, reason = \"hm\")"),
            vec![BAD_ANNOTATION]
        );
        assert_eq!(
            rules_hit("// comfase-lint: host-region()"),
            vec![BAD_ANNOTATION]
        );
    }

    #[test]
    fn clean_source_is_silent() {
        let src = "use std::collections::BTreeMap;\nstruct S { m: BTreeMap<u32, u32> }";
        assert!(rules_hit(src).is_empty());
    }

    #[test]
    fn violations_carry_location_and_snippet() {
        let v = check_file("crates/x/src/a.rs", "\nstruct S { m: HashMap<u32, u32> }");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].file, "crates/x/src/a.rs");
        assert_eq!(v[0].line, 2);
        assert!(v[0].snippet.contains("HashMap"));
    }
}
