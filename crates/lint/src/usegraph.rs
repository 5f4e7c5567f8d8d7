//! Cross-file use-graph pass: alias and re-export resolution.
//!
//! The per-file token rules (D1–D8) catch a banned name written where it is
//! used — but a banned *type* can be laundered across module boundaries:
//!
//! ```text
//! // crates/x/src/util.rs
//! pub use std::collections::HashMap as Map;   // caught here textually…
//! // crates/x/src/state.rs
//! use crate::util::Map;                       // …but this file is clean
//! struct S { m: Map<u32, u32> }               // …to a per-file scan
//! ```
//!
//! This pass closes that hole. Phase 1 (per file) extracts a
//! symbol summary: `use` bindings (including `as` renames, `pub use`
//! re-exports and grouped trees), `type` aliases, locally defined item
//! names, and every *candidate usage site* (qualified paths and bare uses
//! of bound names). Phase 2 joins the summaries into a workspace
//! [`SymbolTable`] and resolves every site transitively; a site whose final
//! absolute path lands in the banned-path table produces a violation that
//! reports the **full alias chain** (each `use`/`type` hop with file and
//! line), so the diagnostic explains *why* an innocent-looking name is
//! banned.
//!
//! Scope notes: glob imports (`use x::*`) and inline `mod m { ... }` blocks
//! are not traversed — a glob cannot *rename* a type, so the textual rules
//! still catch the banned name at its spelling sites; inline-module
//! bindings are attributed to the enclosing file's module, which is exact
//! for this workspace (one module per file).

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Token, TokenKind};
use crate::rules::{
    AMBIENT_RNG, GLOBAL_STATE, HASH_COLLECTIONS, INTERIOR_MUTABILITY, SIM_IO, WALL_CLOCK,
};

/// How a [`BannedPath`] pattern matches a resolved absolute path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MatchKind {
    /// The whole path must equal the pattern.
    Exact,
    /// The path must start with the pattern (module bans like `std::fs`).
    Prefix,
}

/// One entry of the banned-path table.
struct BannedPath {
    path: &'static [&'static str],
    kind: MatchKind,
    rule: &'static str,
    /// `true` when host-side supervision code may legitimately use it (the
    /// finding is then exempt inside a `host-region`).
    host_ok: bool,
    note: &'static str,
}

const E: MatchKind = MatchKind::Exact;
const P: MatchKind = MatchKind::Prefix;

/// Absolute paths (post `core`/`alloc` → `std` normalization) that must not
/// be reachable from simulation code, with the rule each one violates.
static BANNED_PATHS: &[BannedPath] = &[
    // D1 hash collections.
    BannedPath {
        path: &["std", "collections", "HashMap"],
        kind: E,
        rule: HASH_COLLECTIONS,
        host_ok: false,
        note: "hash iteration order is per-process random",
    },
    BannedPath {
        path: &["std", "collections", "HashSet"],
        kind: E,
        rule: HASH_COLLECTIONS,
        host_ok: false,
        note: "hash iteration order is per-process random",
    },
    BannedPath {
        path: &["std", "collections", "hash_map"],
        kind: P,
        rule: HASH_COLLECTIONS,
        host_ok: false,
        note: "hash iteration order is per-process random",
    },
    BannedPath {
        path: &["std", "collections", "hash_set"],
        kind: P,
        rule: HASH_COLLECTIONS,
        host_ok: false,
        note: "hash iteration order is per-process random",
    },
    BannedPath {
        path: &["std", "hash", "RandomState"],
        kind: E,
        rule: HASH_COLLECTIONS,
        host_ok: false,
        note: "randomized hasher state",
    },
    BannedPath {
        path: &["hashbrown"],
        kind: P,
        rule: HASH_COLLECTIONS,
        host_ok: false,
        note: "hash iteration order is per-process random",
    },
    BannedPath {
        path: &["ahash"],
        kind: P,
        rule: HASH_COLLECTIONS,
        host_ok: false,
        note: "hash iteration order is per-process random",
    },
    BannedPath {
        path: &["fxhash"],
        kind: P,
        rule: HASH_COLLECTIONS,
        host_ok: false,
        note: "hash iteration order is insertion-dependent",
    },
    BannedPath {
        path: &["rustc_hash"],
        kind: P,
        rule: HASH_COLLECTIONS,
        host_ok: false,
        note: "hash iteration order is insertion-dependent",
    },
    BannedPath {
        path: &["indexmap"],
        kind: P,
        rule: HASH_COLLECTIONS,
        host_ok: false,
        note: "insertion-order iteration leaks construction history",
    },
    // D2 wall clock.
    BannedPath {
        path: &["std", "time", "Instant"],
        kind: E,
        rule: WALL_CLOCK,
        host_ok: true,
        note: "host clock",
    },
    BannedPath {
        path: &["std", "time", "SystemTime"],
        kind: E,
        rule: WALL_CLOCK,
        host_ok: true,
        note: "host clock",
    },
    BannedPath {
        path: &["std", "time", "UNIX_EPOCH"],
        kind: E,
        rule: WALL_CLOCK,
        host_ok: true,
        note: "host clock",
    },
    // D3 ambient randomness.
    BannedPath {
        path: &["rand", "thread_rng"],
        kind: E,
        rule: AMBIENT_RNG,
        host_ok: false,
        note: "thread-local entropy",
    },
    BannedPath {
        path: &["rand", "random"],
        kind: E,
        rule: AMBIENT_RNG,
        host_ok: false,
        note: "thread-local entropy",
    },
    BannedPath {
        path: &["rand", "rngs", "ThreadRng"],
        kind: E,
        rule: AMBIENT_RNG,
        host_ok: false,
        note: "thread-local entropy",
    },
    BannedPath {
        path: &["rand", "rngs", "OsRng"],
        kind: E,
        rule: AMBIENT_RNG,
        host_ok: false,
        note: "OS entropy",
    },
    BannedPath {
        path: &["rand_core", "OsRng"],
        kind: E,
        rule: AMBIENT_RNG,
        host_ok: false,
        note: "OS entropy",
    },
    BannedPath {
        path: &["getrandom"],
        kind: P,
        rule: AMBIENT_RNG,
        host_ok: false,
        note: "OS entropy",
    },
    // D4 global state.
    BannedPath {
        path: &["std", "sync", "OnceLock"],
        kind: E,
        rule: GLOBAL_STATE,
        host_ok: false,
        note: "process-global cell",
    },
    BannedPath {
        path: &["std", "sync", "LazyLock"],
        kind: E,
        rule: GLOBAL_STATE,
        host_ok: false,
        note: "process-global cell",
    },
    BannedPath {
        path: &["std", "cell", "OnceCell"],
        kind: E,
        rule: GLOBAL_STATE,
        host_ok: false,
        note: "once-initialized cell",
    },
    BannedPath {
        path: &["std", "cell", "LazyCell"],
        kind: E,
        rule: GLOBAL_STATE,
        host_ok: false,
        note: "once-initialized cell",
    },
    BannedPath {
        path: &["once_cell"],
        kind: P,
        rule: GLOBAL_STATE,
        host_ok: false,
        note: "process-global cell",
    },
    BannedPath {
        path: &["lazy_static"],
        kind: P,
        rule: GLOBAL_STATE,
        host_ok: false,
        note: "process-global state",
    },
    BannedPath {
        path: &["std", "env"],
        kind: P,
        rule: GLOBAL_STATE,
        host_ok: true,
        note: "host environment read",
    },
    // D6 interior mutability.
    BannedPath {
        path: &["std", "cell", "Cell"],
        kind: E,
        rule: INTERIOR_MUTABILITY,
        host_ok: true,
        note: "interior mutability hides state changes from Clone-based forking",
    },
    BannedPath {
        path: &["std", "cell", "RefCell"],
        kind: E,
        rule: INTERIOR_MUTABILITY,
        host_ok: true,
        note: "interior mutability hides state changes from Clone-based forking",
    },
    BannedPath {
        path: &["std", "cell", "UnsafeCell"],
        kind: E,
        rule: INTERIOR_MUTABILITY,
        host_ok: true,
        note: "interior mutability hides state changes from Clone-based forking",
    },
    BannedPath {
        path: &["std", "sync", "Mutex"],
        kind: E,
        rule: INTERIOR_MUTABILITY,
        host_ok: true,
        note: "lock acquisition order is scheduling-dependent",
    },
    BannedPath {
        path: &["std", "sync", "RwLock"],
        kind: E,
        rule: INTERIOR_MUTABILITY,
        host_ok: true,
        note: "lock acquisition order is scheduling-dependent",
    },
    BannedPath {
        path: &["std", "sync", "Condvar"],
        kind: E,
        rule: INTERIOR_MUTABILITY,
        host_ok: true,
        note: "wakeup order is scheduling-dependent",
    },
    BannedPath {
        path: &["std", "sync", "Barrier"],
        kind: E,
        rule: INTERIOR_MUTABILITY,
        host_ok: true,
        note: "thread synchronization in sim state",
    },
    BannedPath {
        path: &["std", "sync", "mpsc"],
        kind: P,
        rule: INTERIOR_MUTABILITY,
        host_ok: true,
        note: "channel receive order is scheduling-dependent",
    },
    BannedPath {
        path: &["std", "sync", "atomic"],
        kind: P,
        rule: INTERIOR_MUTABILITY,
        host_ok: true,
        note: "atomics order cross-thread effects nondeterministically",
    },
    BannedPath {
        path: &["parking_lot"],
        kind: P,
        rule: INTERIOR_MUTABILITY,
        host_ok: true,
        note: "lock acquisition order is scheduling-dependent",
    },
    BannedPath {
        path: &["crossbeam", "atomic"],
        kind: P,
        rule: INTERIOR_MUTABILITY,
        host_ok: true,
        note: "atomics order cross-thread effects nondeterministically",
    },
    // D8 sim-side I/O and threading.
    BannedPath {
        path: &["std", "fs"],
        kind: P,
        rule: SIM_IO,
        host_ok: true,
        note: "filesystem access",
    },
    BannedPath {
        path: &["std", "net"],
        kind: P,
        rule: SIM_IO,
        host_ok: true,
        note: "network access",
    },
    BannedPath {
        path: &["std", "process"],
        kind: P,
        rule: SIM_IO,
        host_ok: true,
        note: "process spawning",
    },
    BannedPath {
        path: &["std", "thread", "spawn"],
        kind: E,
        rule: SIM_IO,
        host_ok: true,
        note: "thread spawning",
    },
    BannedPath {
        path: &["std", "thread", "scope"],
        kind: E,
        rule: SIM_IO,
        host_ok: true,
        note: "thread spawning",
    },
    BannedPath {
        path: &["std", "thread", "Builder"],
        kind: E,
        rule: SIM_IO,
        host_ok: true,
        note: "thread spawning",
    },
    BannedPath {
        path: &["std", "thread", "sleep"],
        kind: E,
        rule: SIM_IO,
        host_ok: true,
        note: "wall-clock-dependent blocking",
    },
    BannedPath {
        path: &["std", "thread", "park"],
        kind: E,
        rule: SIM_IO,
        host_ok: true,
        note: "scheduling-dependent blocking",
    },
    BannedPath {
        path: &["std", "thread", "park_timeout"],
        kind: E,
        rule: SIM_IO,
        host_ok: true,
        note: "scheduling-dependent blocking",
    },
    BannedPath {
        path: &["std", "io", "stdin"],
        kind: E,
        rule: SIM_IO,
        host_ok: true,
        note: "stdio",
    },
    BannedPath {
        path: &["std", "io", "stdout"],
        kind: E,
        rule: SIM_IO,
        host_ok: true,
        note: "stdio",
    },
    BannedPath {
        path: &["std", "io", "stderr"],
        kind: E,
        rule: SIM_IO,
        host_ok: true,
        note: "stdio",
    },
    BannedPath {
        path: &["std", "io", "Stdin"],
        kind: E,
        rule: SIM_IO,
        host_ok: true,
        note: "stdio",
    },
    BannedPath {
        path: &["std", "io", "Stdout"],
        kind: E,
        rule: SIM_IO,
        host_ok: true,
        note: "stdio",
    },
    BannedPath {
        path: &["std", "io", "Stderr"],
        kind: E,
        rule: SIM_IO,
        host_ok: true,
        note: "stdio",
    },
    BannedPath {
        path: &["std", "io", "Write"],
        kind: E,
        rule: SIM_IO,
        host_ok: true,
        note: "byte-stream output (use `std::fmt::Write` for strings)",
    },
    BannedPath {
        path: &["std", "io", "Read"],
        kind: E,
        rule: SIM_IO,
        host_ok: true,
        note: "byte-stream input",
    },
    BannedPath {
        path: &["std", "io", "BufWriter"],
        kind: E,
        rule: SIM_IO,
        host_ok: true,
        note: "byte-stream output",
    },
    BannedPath {
        path: &["std", "io", "BufReader"],
        kind: E,
        rule: SIM_IO,
        host_ok: true,
        note: "byte-stream input",
    },
    BannedPath {
        path: &["std", "io", "copy"],
        kind: E,
        rule: SIM_IO,
        host_ok: true,
        note: "byte-stream copy",
    },
    BannedPath {
        path: &["crossbeam", "thread"],
        kind: P,
        rule: SIM_IO,
        host_ok: true,
        note: "thread spawning",
    },
    BannedPath {
        path: &["crossbeam", "channel"],
        kind: P,
        rule: SIM_IO,
        host_ok: true,
        note: "channel receive order is scheduling-dependent",
    },
    BannedPath {
        path: &["crossbeam_channel"],
        kind: P,
        rule: SIM_IO,
        host_ok: true,
        note: "channel receive order is scheduling-dependent",
    },
    BannedPath {
        path: &["rayon"],
        kind: P,
        rule: SIM_IO,
        host_ok: true,
        note: "work-stealing scheduling is nondeterministic",
    },
    BannedPath {
        path: &["tokio"],
        kind: P,
        rule: SIM_IO,
        host_ok: true,
        note: "async runtime scheduling is nondeterministic",
    },
    BannedPath {
        path: &["async_std"],
        kind: P,
        rule: SIM_IO,
        host_ok: true,
        note: "async runtime scheduling is nondeterministic",
    },
];

/// What produced a name binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindKind {
    /// A `use` declaration (possibly `pub use`, possibly `as`-renamed).
    Use,
    /// A `type Name = Target;` alias.
    TypeAlias,
}

/// One name binding inside a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binding {
    /// The bound name as visible in the module.
    pub name: String,
    /// The target path as written (unresolved; may be relative).
    pub target: Vec<String>,
    /// 1-based line of the declaration.
    pub line: u32,
    /// `true` for `pub use` / `pub type` (re-exports).
    pub is_pub: bool,
    /// Declaration kind.
    pub kind: BindKind,
}

impl Binding {
    /// Renders the declaration for alias-chain diagnostics.
    fn render(&self) -> String {
        let p = if self.is_pub { "pub " } else { "" };
        match self.kind {
            BindKind::Use => {
                let t = self.target.join("::");
                if self.target.last().map(String::as_str) == Some(self.name.as_str()) {
                    format!("{p}use {t}")
                } else {
                    format!("{p}use {t} as {}", self.name)
                }
            }
            BindKind::TypeAlias => {
                format!("{p}type {} = {}", self.name, self.target.join("::"))
            }
        }
    }
}

/// A candidate usage site: a qualified path (`a::b::C`) or a bare bound
/// name (single segment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseSite {
    /// Path segments as written.
    pub path: Vec<String>,
    /// 1-based line.
    pub line: u32,
}

/// The per-file symbol summary (phase-1 output).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileSymbols {
    /// Name bindings declared in this file.
    pub bindings: Vec<Binding>,
    /// Names of items defined locally (they shadow nothing bannable).
    pub locals: Vec<String>,
    /// Candidate usage sites to resolve in phase 2.
    pub sites: Vec<UseSite>,
}

/// Keywords that are never usage sites on their own.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "union", "unsafe", "use", "where", "while",
];

/// Item keywords whose following identifier is a local definition.
const DEF_KEYWORDS: &[&str] = &[
    "struct",
    "enum",
    "trait",
    "union",
    "fn",
    "mod",
    "const",
    "static",
    "macro_rules",
];

/// Extracts the symbol summary of one lexed file.
pub fn file_symbols(tokens: &[Token]) -> FileSymbols {
    let mut out = FileSymbols::default();
    extract_bindings(tokens, &mut out);
    extract_sites(tokens, &mut out);
    out
}

/// `true` if the token at `i` is at item position (start of file, after
/// `;`, `{`, `}`, or after a visibility modifier).
fn at_item_position(tokens: &[Token], i: usize) -> bool {
    if i == 0 {
        return true;
    }
    let prev = &tokens[i - 1];
    if prev.is_punct(";") || prev.is_punct("{") || prev.is_punct("}") || prev.is_punct("]") {
        return true;
    }
    if prev.is_ident("pub") {
        return true;
    }
    // `pub(crate)` / `pub(super)` end with `)`.
    if prev.is_punct(")") && i >= 4 {
        return tokens[..i - 1]
            .iter()
            .rev()
            .take(3)
            .any(|t| t.is_ident("pub"));
    }
    false
}

/// `true` when the `use`/`type` at `i` is preceded by a visibility modifier.
fn is_pub_before(tokens: &[Token], i: usize) -> bool {
    if i == 0 {
        return false;
    }
    if tokens[i - 1].is_ident("pub") {
        return true;
    }
    tokens[i - 1].is_punct(")")
        && tokens[..i - 1]
            .iter()
            .rev()
            .take(3)
            .any(|t| t.is_ident("pub"))
}

fn extract_bindings(tokens: &[Token], out: &mut FileSymbols) {
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        if t.text == "use" && at_item_position(tokens, i) {
            let is_pub = is_pub_before(tokens, i);
            i = parse_use_tree(tokens, i + 1, &mut Vec::new(), is_pub, out);
            continue;
        }
        if t.text == "type"
            && at_item_position(tokens, i)
            && tokens
                .get(i + 1)
                .is_some_and(|n| n.kind == TokenKind::Ident)
        {
            let is_pub = is_pub_before(tokens, i);
            i = parse_type_alias(tokens, i, is_pub, out);
            continue;
        }
        if DEF_KEYWORDS.contains(&t.text.as_str()) {
            if let Some(name) = tokens.get(i + 1).filter(|n| n.kind == TokenKind::Ident) {
                if !KEYWORDS.contains(&name.text.as_str()) {
                    out.locals.push(name.text.clone());
                }
            }
        }
        i += 1;
    }
    out.locals.sort();
    out.locals.dedup();
}

/// Parses one use tree starting at `i` (just after `use` or after a `::`
/// inside a group), binding every leaf. Returns the index after the tree.
fn parse_use_tree(
    tokens: &[Token],
    mut i: usize,
    prefix: &mut Vec<String>,
    is_pub: bool,
    out: &mut FileSymbols,
) -> usize {
    let depth_at_entry = prefix.len();
    loop {
        match tokens.get(i) {
            Some(t) if t.is_punct("{") => {
                // Group: parse comma-separated subtrees under the prefix.
                i += 1;
                loop {
                    match tokens.get(i) {
                        Some(t) if t.is_punct("}") => {
                            i += 1;
                            break;
                        }
                        Some(t) if t.is_punct(",") => i += 1,
                        Some(_) => {
                            let mut sub = prefix.clone();
                            i = parse_use_tree(tokens, i, &mut sub, is_pub, out);
                        }
                        None => break,
                    }
                }
                break;
            }
            Some(t) if t.is_punct("*") => {
                // Glob: cannot rename, not traversed (see module docs).
                i += 1;
                break;
            }
            Some(t) if t.kind == TokenKind::Ident => {
                if t.text == "self" && !prefix.is_empty() {
                    // `use a::b::{self, ..}` binds `b` to `a::b`.
                    if let Some(name) = prefix.last().cloned() {
                        out.bindings.push(Binding {
                            name,
                            target: prefix.clone(),
                            line: t.line,
                            is_pub,
                            kind: BindKind::Use,
                        });
                    }
                    i += 1;
                    break;
                }
                prefix.push(t.text.clone());
                let line = t.line;
                match tokens.get(i + 1) {
                    Some(n) if n.is_punct("::") => {
                        i += 2;
                        continue;
                    }
                    Some(n) if n.is_ident("as") => {
                        if let Some(rename) =
                            tokens.get(i + 2).filter(|r| r.kind == TokenKind::Ident)
                        {
                            out.bindings.push(Binding {
                                name: rename.text.clone(),
                                target: prefix.clone(),
                                line,
                                is_pub,
                                kind: BindKind::Use,
                            });
                        }
                        i += 3;
                        break;
                    }
                    _ => {
                        out.bindings.push(Binding {
                            name: prefix.last().cloned().unwrap_or_default(),
                            target: prefix.clone(),
                            line,
                            is_pub,
                            kind: BindKind::Use,
                        });
                        i += 1;
                        break;
                    }
                }
            }
            _ => break,
        }
    }
    prefix.truncate(depth_at_entry);
    i
}

/// Parses `type Name<..> = Target<..>;` starting at the `type` keyword.
/// Returns the index after the alias (best effort on malformed input).
fn parse_type_alias(tokens: &[Token], i: usize, is_pub: bool, out: &mut FileSymbols) -> usize {
    let name = tokens[i + 1].text.clone();
    let line = tokens[i + 1].line;
    let mut j = i + 2;
    // Skip generic parameters on the alias name.
    if tokens.get(j).is_some_and(|t| t.is_punct("<")) {
        let mut depth = 0i32;
        while let Some(t) = tokens.get(j) {
            if t.is_punct("<") {
                depth += 1;
            } else if t.is_punct(">") {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            } else if t.is_punct(";") {
                break;
            }
            j += 1;
        }
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct("=")) {
        // Associated type declaration without a default, or `where` bounds;
        // record the name as a local and move on.
        out.locals.push(name);
        return j;
    }
    j += 1;
    // Collect the leading path of the RHS (stop at `<`, `;`, or anything
    // that is not `ident` / `::`). `crate`/`self`/`super` are keywords but
    // legal path roots (`type Outer = crate::a::Inner;`).
    let mut target = Vec::new();
    while let Some(t) = tokens.get(j) {
        let is_path_root_kw = matches!(t.text.as_str(), "crate" | "self" | "super");
        if t.kind == TokenKind::Ident && (is_path_root_kw || !KEYWORDS.contains(&t.text.as_str())) {
            target.push(t.text.clone());
            j += 1;
            if tokens.get(j).is_some_and(|n| n.is_punct("::")) {
                j += 1;
                continue;
            }
        }
        break;
    }
    if target.is_empty() {
        // Non-path RHS (tuple, reference, fn pointer, `dyn`, …): the alias
        // is a local definition that shadows imports of the same name.
        out.locals.push(name);
    } else {
        out.bindings.push(Binding {
            name,
            target,
            line,
            is_pub,
            kind: BindKind::TypeAlias,
        });
    }
    j
}

fn extract_sites(tokens: &[Token], out: &mut FileSymbols) {
    let bound: BTreeSet<&str> = out.bindings.iter().map(|b| b.name.as_str()).collect();
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        if i > 0 && (tokens[i - 1].is_punct("::") || tokens[i - 1].is_punct(".")) {
            // Tail of a path or a method/field name: not a site start.
            i += 1;
            continue;
        }
        if tokens.get(i + 1).is_some_and(|n| n.is_punct("::")) {
            // Qualified path: collect `a::b::c` (stopping at turbofish).
            let mut path = vec![t.text.clone()];
            let mut j = i + 1;
            while tokens.get(j).is_some_and(|n| n.is_punct("::"))
                && tokens
                    .get(j + 1)
                    .is_some_and(|n| n.kind == TokenKind::Ident)
            {
                path.push(tokens[j + 1].text.clone());
                j += 2;
            }
            if path.len() > 1 {
                out.sites.push(UseSite { path, line: t.line });
            }
            i = j;
            continue;
        }
        if bound.contains(t.text.as_str()) && !KEYWORDS.contains(&t.text.as_str()) {
            out.sites.push(UseSite {
                path: vec![t.text.clone()],
                line: t.line,
            });
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// Module paths
// ---------------------------------------------------------------------------

/// Maps a workspace crate directory name to its crate identifier.
fn crate_ident(dir: &str) -> String {
    match dir {
        "des" => "comfase_des".to_string(),
        "traffic" => "comfase_traffic".to_string(),
        "wireless" => "comfase_wireless".to_string(),
        "platoon" => "comfase_platoon".to_string(),
        "core" => "comfase".to_string(),
        "obs" => "comfase_obs".to_string(),
        "bench" => "comfase_bench".to_string(),
        "tests" => "comfase_integration".to_string(),
        other => other.replace('-', "_"),
    }
}

/// Derives the module path of a file from its display label
/// (`crates/des/src/rng.rs` → `["comfase_des", "rng"]`). Binary targets
/// (`src/bin/x.rs`) are their own crate roots; files outside any `src/`
/// tree are standalone roots.
pub fn module_of(label: &str) -> Vec<String> {
    let norm = label.replace('\\', "/");
    let segs: Vec<&str> = norm.split('/').filter(|s| !s.is_empty()).collect();
    let Some(src_idx) = segs.iter().rposition(|s| *s == "src") else {
        let stem = segs
            .last()
            .map(|s| s.trim_end_matches(".rs"))
            .unwrap_or("file");
        return vec![format!("file_{}", stem.replace('-', "_"))];
    };
    let krate = if src_idx > 0 {
        crate_ident(segs[src_idx - 1])
    } else {
        "crate_root".to_string()
    };
    let rest = &segs[src_idx + 1..];
    if rest.first() == Some(&"bin") {
        let stem = rest
            .last()
            .map(|s| s.trim_end_matches(".rs"))
            .unwrap_or("main");
        return vec![format!("{krate}__bin_{}", stem.replace('-', "_"))];
    }
    let mut module = vec![krate];
    for (k, seg) in rest.iter().enumerate() {
        let is_last = k + 1 == rest.len();
        if is_last {
            let stem = seg.trim_end_matches(".rs");
            if stem != "lib" && stem != "main" && stem != "mod" {
                module.push(stem.to_string());
            }
        } else {
            module.push((*seg).to_string());
        }
    }
    module
}

// ---------------------------------------------------------------------------
// The workspace symbol table and resolution
// ---------------------------------------------------------------------------

/// One hop of an alias chain, for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainLink {
    /// File (display label) the binding lives in.
    pub file: String,
    /// Line of the binding.
    pub line: u32,
    /// Rendered declaration (`use std::collections::HashMap as Map`).
    pub decl: String,
}

/// A cross-file violation produced by the use-graph pass.
#[derive(Debug, Clone)]
pub struct AliasFinding {
    /// The rule the resolved target violates.
    pub rule: &'static str,
    /// File (display label) of the usage site.
    pub file: String,
    /// Line of the usage site.
    pub line: u32,
    /// Full diagnostic message including the alias chain.
    pub message: String,
    /// `true` when a `host-region` may exempt this finding.
    pub host_ok: bool,
}

#[derive(Debug, Clone)]
struct TableBinding {
    binding: Binding,
    file: String,
}

/// The joined workspace symbol table (phase 2).
#[derive(Debug, Default)]
pub struct SymbolTable {
    bindings: BTreeMap<Vec<String>, BTreeMap<String, TableBinding>>,
    locals: BTreeMap<Vec<String>, BTreeSet<String>>,
    modules: BTreeSet<Vec<String>>,
    crate_roots: BTreeSet<String>,
}

/// Result of resolving a path to an absolute target.
enum Resolved {
    /// A locally defined (or unindexed) item: cannot be banned.
    Internal,
    /// An external absolute path plus the alias chain that led to it.
    External(Vec<String>, Vec<ChainLink>),
}

impl SymbolTable {
    /// Builds the table from every scanned file's symbols.
    pub fn build(files: &[(String, FileSymbols)]) -> Self {
        let mut table = SymbolTable::default();
        for (label, symbols) in files {
            let module = module_of(label);
            table.crate_roots.insert(module[0].clone());
            // Register the module and all its ancestors.
            for k in 1..=module.len() {
                table.modules.insert(module[..k].to_vec());
            }
            let locals = table.locals.entry(module.clone()).or_default();
            for name in &symbols.locals {
                locals.insert(name.clone());
            }
            let bindings = table.bindings.entry(module.clone()).or_default();
            for b in &symbols.bindings {
                bindings.insert(
                    b.name.clone(),
                    TableBinding {
                        binding: b.clone(),
                        file: label.clone(),
                    },
                );
            }
        }
        table
    }

    /// Resolves every candidate site of every file and returns the findings
    /// whose final path is banned.
    pub fn findings(&self, files: &[(String, FileSymbols)]) -> Vec<AliasFinding> {
        let mut out = Vec::new();
        for (label, symbols) in files {
            let module = module_of(label);
            for site in &symbols.sites {
                let Resolved::External(path, chain) = self.resolve(&module, &site.path, 32) else {
                    continue;
                };
                let Some(banned) = banned_lookup(&path) else {
                    continue;
                };
                let written = site.path.join("::");
                let resolved = path.join("::");
                let mut message = if written == resolved {
                    format!("`{written}`: {} — banned in audited code", banned.note)
                } else {
                    format!(
                        "`{written}` resolves to `{resolved}`: {} — banned in audited code",
                        banned.note
                    )
                };
                if !chain.is_empty() {
                    let hops: Vec<String> = chain
                        .iter()
                        .map(|l| format!("`{}` ({}:{})", l.decl, l.file, l.line))
                        .collect();
                    message.push_str(&format!("; alias chain: {}", hops.join(" -> ")));
                }
                out.push(AliasFinding {
                    rule: banned.rule,
                    file: label.clone(),
                    line: site.line,
                    message,
                    host_ok: banned.host_ok,
                });
            }
        }
        out
    }

    fn resolve(&self, module: &[String], path: &[String], depth: u32) -> Resolved {
        if depth == 0 || path.is_empty() {
            return Resolved::Internal;
        }
        let mut chain = Vec::new();
        // Resolve the path root to either an internal module position or an
        // external absolute prefix.
        let first = path[0].as_str();
        let (mut abs, rest): (Vec<String>, &[String]) = match first {
            "crate" => (vec![module[0].clone()], &path[1..]),
            "self" => (module.to_vec(), &path[1..]),
            "super" => {
                let mut m = module.to_vec();
                let mut rest = &path[1..];
                m.pop();
                while rest.first().map(String::as_str) == Some("super") {
                    m.pop();
                    rest = &rest[1..];
                }
                if m.is_empty() {
                    return Resolved::Internal;
                }
                (m, rest)
            }
            _ if self.crate_roots.contains(first) => (vec![first.to_string()], &path[1..]),
            _ => {
                if let Some(tb) = self.bindings.get(module).and_then(|b| b.get(first)) {
                    chain.push(ChainLink {
                        file: tb.file.clone(),
                        line: tb.binding.line,
                        decl: tb.binding.render(),
                    });
                    match self.resolve(module, &tb.binding.target, depth - 1) {
                        Resolved::Internal => return Resolved::Internal,
                        Resolved::External(p, mut sub) => {
                            chain.append(&mut sub);
                            let mut full = p;
                            full.extend(path[1..].iter().cloned());
                            return Resolved::External(normalize(full), chain);
                        }
                    }
                }
                if self.locals.get(module).is_some_and(|l| l.contains(first)) {
                    return Resolved::Internal;
                }
                // Unknown root: an external crate (std, rand, …).
                return Resolved::External(normalize(path.to_vec()), chain);
            }
        };
        // Walk the remaining segments through workspace modules, following
        // re-exports as they appear.
        let mut idx = 0usize;
        while idx < rest.len() {
            let seg = rest[idx].as_str();
            if let Some(tb) = self.bindings.get(&abs).and_then(|b| b.get(seg)) {
                chain.push(ChainLink {
                    file: tb.file.clone(),
                    line: tb.binding.line,
                    decl: tb.binding.render(),
                });
                match self.resolve(&abs, &tb.binding.target, depth - 1) {
                    Resolved::Internal => return Resolved::Internal,
                    Resolved::External(p, mut sub) => {
                        chain.append(&mut sub);
                        let mut full = p;
                        full.extend(rest[idx + 1..].iter().cloned());
                        return Resolved::External(normalize(full), chain);
                    }
                }
            }
            let mut child = abs.clone();
            child.push(seg.to_string());
            if self.modules.contains(&child) {
                abs = child;
                idx += 1;
                continue;
            }
            // A plain item inside a workspace module: not bannable.
            return Resolved::Internal;
        }
        Resolved::Internal
    }
}

/// Normalizes `core::`/`alloc::` roots to `std::` for banned lookups.
fn normalize(mut path: Vec<String>) -> Vec<String> {
    if matches!(
        path.first().map(String::as_str),
        Some("core") | Some("alloc")
    ) {
        path[0] = "std".to_string();
    }
    path
}

fn banned_lookup(path: &[String]) -> Option<&'static BannedPath> {
    BANNED_PATHS.iter().find(|b| match b.kind {
        MatchKind::Exact => {
            path.len() == b.path.len() && path.iter().zip(b.path).all(|(a, e)| a == e)
        }
        MatchKind::Prefix => {
            path.len() >= b.path.len() && path.iter().zip(b.path).all(|(a, e)| a == e)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn symbols(src: &str) -> FileSymbols {
        file_symbols(&lex(src).tokens)
    }

    #[test]
    fn use_as_rename_binds() {
        let s = symbols("use std::collections::HashMap as Map;\nfn f(m: Map<u32, u32>) {}");
        assert_eq!(s.bindings.len(), 1);
        assert_eq!(s.bindings[0].name, "Map");
        assert_eq!(s.bindings[0].target, ["std", "collections", "HashMap"]);
        // `Map` at the use line and in the signature are both sites.
        assert!(s.sites.iter().any(|u| u.path == ["Map"] && u.line == 2));
    }

    #[test]
    fn grouped_use_binds_every_leaf() {
        let s = symbols("use std::{collections::BTreeMap, fs::{self, File}, io::Write as W};");
        let names: Vec<&str> = s.bindings.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names, ["BTreeMap", "fs", "File", "W"]);
        let fs = s.bindings.iter().find(|b| b.name == "fs").unwrap();
        assert_eq!(fs.target, ["std", "fs"]);
        let w = s.bindings.iter().find(|b| b.name == "W").unwrap();
        assert_eq!(w.target, ["std", "io", "Write"]);
    }

    #[test]
    fn type_alias_to_path_binds_and_tuple_alias_is_local() {
        let s = symbols("type Fast = HashMap<u32, u32>;\ntype Cell = (i64, i64);");
        assert_eq!(s.bindings.len(), 1);
        assert_eq!(s.bindings[0].name, "Fast");
        assert_eq!(s.bindings[0].target, ["HashMap"]);
        assert!(s.locals.contains(&"Cell".to_string()));
    }

    #[test]
    fn module_paths_derive_from_labels() {
        assert_eq!(module_of("crates/des/src/rng.rs"), ["comfase_des", "rng"]);
        assert_eq!(module_of("crates/core/src/lib.rs"), ["comfase"]);
        assert_eq!(
            module_of("crates/bench/src/bin/repro.rs"),
            ["comfase_bench__bin_repro"]
        );
        assert_eq!(module_of("tests/src/lib.rs"), ["comfase_integration"]);
        assert_eq!(
            module_of("crates/wireless/src/sub/mod.rs"),
            ["comfase_wireless", "sub"]
        );
        assert_eq!(module_of("standalone.rs"), ["file_standalone"]);
    }

    fn fire(files: &[(&str, &str)]) -> Vec<AliasFinding> {
        let parsed: Vec<(String, FileSymbols)> = files
            .iter()
            .map(|(label, src)| ((*label).to_string(), symbols(src)))
            .collect();
        SymbolTable::build(&parsed).findings(&parsed)
    }

    #[test]
    fn cross_file_alias_laundering_is_resolved_with_chain() {
        let findings = fire(&[
            ("crates/des/src/lib.rs", "pub mod util;\npub mod state;"),
            (
                "crates/des/src/util.rs",
                "pub use std::collections::HashMap as Map;",
            ),
            (
                "crates/des/src/state.rs",
                "use crate::util::Map;\npub struct S { pub m: Map<u32, u32> }",
            ),
        ]);
        let in_state: Vec<&AliasFinding> = findings
            .iter()
            .filter(|f| f.file.ends_with("state.rs"))
            .collect();
        assert!(!in_state.is_empty(), "{findings:?}");
        let f = in_state[0];
        assert_eq!(f.rule, HASH_COLLECTIONS);
        assert!(
            f.message.contains("std::collections::HashMap"),
            "{}",
            f.message
        );
        assert!(f.message.contains("alias chain"), "{}", f.message);
        assert!(f.message.contains("util.rs"), "{}", f.message);
    }

    #[test]
    fn local_type_alias_shadows_banned_name() {
        // `type Cell = (i64, i64)` must not look like `std::cell::Cell`.
        let findings = fire(&[(
            "crates/wireless/src/grid.rs",
            "type Cell = (i64, i64);\nfn f(c: Cell) -> Cell { c }",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn direct_std_paths_resolve_without_imports() {
        let findings = fire(&[(
            "crates/des/src/a.rs",
            "fn f() { let _ = std::fs::read_to_string(\"x\"); }",
        )]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, SIM_IO);
        assert!(findings[0].host_ok);
    }

    #[test]
    fn imported_cell_fires_but_unrelated_cell_does_not() {
        let fires = fire(&[(
            "crates/des/src/a.rs",
            "use std::cell::Cell;\nstruct S { c: Cell<u32> }",
        )]);
        assert!(
            fires.iter().any(|f| f.rule == INTERIOR_MUTABILITY),
            "{fires:?}"
        );
        let clean = fire(&[("crates/des/src/b.rs", "struct Cell;\nfn f(c: Cell) {}")]);
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn transitive_type_alias_chain_resolves() {
        let findings = fire(&[
            (
                "crates/des/src/a.rs",
                "pub use std::collections::HashMap as Inner;",
            ),
            ("crates/des/src/b.rs", "pub type Outer = crate::a::Inner;"),
            (
                "crates/des/src/c.rs",
                "use crate::b::Outer;\nfn f(m: Outer) {}",
            ),
            (
                "crates/des/src/lib.rs",
                "pub mod a;\npub mod b;\npub mod c;",
            ),
        ]);
        let f = findings
            .iter()
            .find(|f| f.file.ends_with("c.rs"))
            .expect("finding in c.rs");
        assert!(
            f.message.contains("std::collections::HashMap"),
            "{}",
            f.message
        );
        // Both hops appear in the chain.
        assert!(f.message.contains("type Outer"), "{}", f.message);
        assert!(f.message.contains("as Inner"), "{}", f.message);
    }

    #[test]
    fn cross_crate_reexport_resolves() {
        let findings = fire(&[
            (
                "crates/des/src/lib.rs",
                "pub use std::collections::HashSet as FastSet;",
            ),
            (
                "crates/wireless/src/a.rs",
                "use comfase_des::FastSet;\nfn f(s: FastSet<u32>) {}",
            ),
        ]);
        assert!(
            findings.iter().any(|f| f.file.ends_with("a.rs")),
            "{findings:?}"
        );
    }

    #[test]
    fn benign_paths_do_not_fire() {
        let findings = fire(&[(
            "crates/des/src/a.rs",
            "use std::collections::BTreeMap;\nuse std::fmt::Write;\nfn f(m: BTreeMap<u32, u32>) {}",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
