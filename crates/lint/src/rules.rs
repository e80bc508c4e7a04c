//! The determinism rule set (R1–R6) and the unsafe-surface rule (R8)
//! over a scanned file.
//!
//! Every rule pattern-matches the significant-token stream; the lexer
//! already removed comments and string/char literal interiors, and the
//! scanner masked test-gated items, so an identifier hit here is real
//! non-test code.
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | R1 | No wall clock (`Instant::now`, `SystemTime`) in sim crates |
//! | R2 | No unseeded randomness (`thread_rng`, `from_entropy`, `OsRng`) |
//! | R3 | No OS threads (`std::thread`, `thread::spawn/scope/…`) |
//! | R4 | No order-dependent `HashMap`/`HashSet` iteration |
//! | R5 | No `unwrap`/`expect`/`panic!` in hot-path library files |
//! | R6 | No wall clock at all (`SystemTime`, `Instant::now`, any `std::time` path) in telemetry paths |
//! | R8 | `allow(unsafe_code)` only in the one unsafe file; every other crate root forbids `unsafe_code` |
//! | A0 | Suppression hygiene (reasonless or malformed `allow`) |

use crate::lexer::TokKind;
use crate::scanner::ScanFile;
use crate::{Finding, LintConfig};

/// Iteration methods whose visiting order leaks the hasher state.
const ORDER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
    "extract_if",
];

/// Unseeded randomness sources (R2).
const RNG_IDENTS: &[&str] = &["thread_rng", "from_entropy", "OsRng"];

/// `std::thread` members that create or schedule real threads (R3).
const THREAD_MEMBERS: &[&str] = &[
    "spawn",
    "scope",
    "sleep",
    "park",
    "yield_now",
    "Builder",
    "JoinHandle",
    "available_parallelism",
];

/// `.unwrap()`-family methods (R5).
const PANICKY_METHODS: &[&str] = &["unwrap", "expect"];

/// Panicking macros (R5).
const PANICKY_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Identifier keywords at which the backwards `name: Hash…` walk gives
/// up — crossing one means the `HashMap` is not a binding's type.
const DECL_WALK_BAIL: &[&str] = &[
    "impl", "for", "fn", "where", "let", "pub", "use", "struct", "enum", "trait", "return",
    "match", "if", "else", "in", "as", "move", "static", "const", "type", "crate", "self", "super",
    "mod",
];

/// The one file (workspace-relative) where R8 lets
/// `allow(unsafe_code)` appear: the SHA-NI call.
pub const UNSAFE_FILE: &str = "crates/hash/src/sha256.rs";

/// The one crate root R8 does not hold to `#![forbid(unsafe_code)]`:
/// the root of [`UNSAFE_FILE`]'s crate, which denies `unsafe_code`
/// instead.
pub const UNSAFE_CRATE_ROOT: &str = "crates/hash/src/lib.rs";

/// Runs every applicable rule on one scanned file. `rel_path` uses `/`
/// separators and is relative to the workspace root.
pub fn check_file(rel_path: &str, scan: &ScanFile<'_>, config: &LintConfig) -> Vec<Finding> {
    let mut findings = Vec::new();

    let r1_applies = !config
        .wallclock_exempt_dirs
        .iter()
        .any(|d| rel_path.starts_with(d.as_str()));
    let r5_applies = config
        .hot_path_files
        .iter()
        .any(|f| rel_path.ends_with(f.as_str()));
    let r6_applies = config
        .telemetry_dirs
        .iter()
        .any(|d| rel_path.starts_with(d.as_str()));

    let hashed_names = collect_hashed_bindings(scan);

    let n = scan.sig.len();
    let txt = |k: usize| scan.text(k);
    let is_ident = |k: usize| scan.kind(k) == TokKind::Ident;
    // `::` is two adjacent `:` puncts.
    let path_sep = |k: usize| {
        k + 1 < n && txt(k) == ":" && txt(k + 1) == ":" && scan.sig[k + 1].start == scan.sig[k].end
    };

    for k in 0..n {
        if scan.masked[k] || !is_ident(k) {
            continue;
        }
        let t = txt(k);
        let line = scan.line(k);

        // R1 — wall clock.
        if r1_applies {
            if t == "Instant" && path_sep(k + 1) && k + 3 < n && txt(k + 3) == "now" {
                findings.push(Finding::new(
                    "R1",
                    rel_path,
                    line,
                    "wall-clock read (`Instant::now`) in simulation code; use the DES clock",
                ));
            }
            if t == "SystemTime" {
                findings.push(Finding::new(
                    "R1",
                    rel_path,
                    line,
                    "wall-clock type (`SystemTime`) in simulation code; use the DES clock",
                ));
            }
        }

        // R6 — wall clock anywhere in telemetry paths. Stricter than
        // R1: telemetry stamps every record with sim time handed in by
        // the simulation, so beyond the `::now()` reads R1 catches,
        // any `SystemTime` mention and any `std::time` path — imports
        // included, the gateway for a later bare `Instant` — is a
        // finding. (A bare `Instant` ident alone is not matched: the
        // crate's own `TraceRecord::Instant` variant shares the name.)
        if r6_applies {
            if t == "SystemTime"
                || (t == "Instant" && path_sep(k + 1) && k + 3 < n && txt(k + 3) == "now")
            {
                findings.push(Finding::new(
                    "R6",
                    rel_path,
                    line,
                    &format!(
                        "wall-clock use (`{t}`) in a telemetry path; telemetry records sim time only"
                    ),
                ));
            }
            if t == "std" && path_sep(k + 1) && k + 3 < n && txt(k + 3) == "time" {
                findings.push(Finding::new(
                    "R6",
                    rel_path,
                    line,
                    "`std::time` in a telemetry path; telemetry records sim time only",
                ));
            }
        }

        // R2 — unseeded randomness.
        if RNG_IDENTS.contains(&t) {
            findings.push(Finding::new(
                "R2",
                rel_path,
                line,
                &format!("unseeded randomness (`{t}`); derive every RNG from an explicit seed"),
            ));
        }

        // R3 — OS threads.
        if t == "std" && path_sep(k + 1) && k + 3 < n && txt(k + 3) == "thread" {
            findings.push(Finding::new(
                "R3",
                rel_path,
                line,
                "OS threads (`std::thread`) in the single-threaded DES",
            ));
        } else if t == "thread"
            && path_sep(k + 1)
            && k + 3 < n
            && THREAD_MEMBERS.contains(&txt(k + 3))
        {
            findings.push(Finding::new(
                "R3",
                rel_path,
                line,
                &format!(
                    "OS threads (`thread::{}`) in the single-threaded DES",
                    txt(k + 3)
                ),
            ));
        }

        // R4 — order-dependent iteration.
        if (t == "HashMap" || t == "HashSet")
            && path_sep(k + 1)
            && k + 3 < n
            && ORDER_METHODS.contains(&txt(k + 3))
        {
            findings.push(Finding::new(
                "R4",
                rel_path,
                line,
                &format!(
                    "order-dependent iteration (`{t}::{}`); use a BTree collection or sort",
                    txt(k + 3)
                ),
            ));
        }
        if hashed_names.contains(&t)
            && k + 2 < n
            && txt(k + 1) == "."
            && ORDER_METHODS.contains(&txt(k + 2))
            && !scan.masked[k + 2]
        {
            findings.push(Finding::new(
                "R4",
                rel_path,
                scan.line(k + 2),
                &format!(
                    "order-dependent iteration (`{t}.{}()` where `{t}` is a HashMap/HashSet); \
                     use a BTree collection or sort the result",
                    txt(k + 2)
                ),
            ));
        }
        // `for x in &name { … }` over a hashed binding.
        if t == "for" {
            if let Some(f) = check_for_loop(scan, k, &hashed_names, rel_path) {
                findings.push(f);
            }
        }

        // R5 — panics in hot paths.
        if r5_applies {
            if PANICKY_METHODS.contains(&t) && k > 0 && txt(k - 1) == "." {
                findings.push(Finding::new(
                    "R5",
                    rel_path,
                    line,
                    &format!("`.{t}()` in a hot-path file; return a typed error or justify with an allow"),
                ));
            }
            if PANICKY_MACROS.contains(&t) && k + 1 < n && txt(k + 1) == "!" {
                findings.push(Finding::new(
                    "R5",
                    rel_path,
                    line,
                    &format!(
                        "`{t}!` in a hot-path file; return a typed error or justify with an allow"
                    ),
                ));
            }
        }
    }

    findings.extend(check_unsafe(rel_path, scan));

    // A0 — suppression hygiene.
    for s in &scan.suppressions {
        if !s.has_reason() {
            findings.push(Finding::new(
                "A0",
                rel_path,
                s.line,
                "suppression without a reason; write `shredder-lint: allow(<rule>) — <why>`",
            ));
        }
    }
    for &line in &scan.malformed {
        findings.push(Finding::new(
            "A0",
            rel_path,
            line,
            "malformed `shredder-lint:` marker; expected `allow(R<n>[, R<n>…]) — <why>`",
        ));
    }

    // Dedup (rule, line) — `std::thread::spawn` should not double-fire —
    // then apply suppressions.
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings.dedup_by(|a, b| a.rule == b.rule && a.line == b.line);
    for f in &mut findings {
        if f.rule == "A0" {
            continue;
        }
        if let Some(s) = scan.allowed(f.rule, f.line) {
            f.suppressed = true;
            f.suppress_reason = Some(s.reason.clone());
        }
    }
    findings
}

/// R8 — the unsafe surface. The compiler does the rest: every crate
/// root but [`UNSAFE_CRATE_ROOT`] forbids `unsafe_code`, so `unsafe`
/// compiles only where an `allow(unsafe_code)` lets it, and clippy's
/// `undocumented_unsafe_blocks` holds each block to a `// SAFETY:`
/// comment.
///
/// * An `allow(unsafe_code)` outside [`UNSAFE_FILE`] is a finding, test
///   code included.
/// * A crate root (`lib.rs`, `main.rs` or `bin/*.rs` under `src/` or
///   `crates/<name>/src/`) other than [`UNSAFE_CRATE_ROOT`] must hold
///   `#![forbid(unsafe_code)]`.
fn check_unsafe(rel_path: &str, scan: &ScanFile<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut root_forbids = false;
    for k in 0..scan.sig.len() {
        if scan.kind(k) != TokKind::Ident || scan.text(k) != "unsafe_code" {
            continue;
        }
        match lint_level(scan, k) {
            Some(("allow", _)) if rel_path != UNSAFE_FILE => findings.push(Finding::new(
                "R8",
                rel_path,
                scan.line(k),
                &format!("`allow(unsafe_code)` outside `{UNSAFE_FILE}`"),
            )),
            Some(("forbid", true)) => root_forbids = true,
            _ => {}
        }
    }
    if is_crate_root(rel_path) && rel_path != UNSAFE_CRATE_ROOT && !root_forbids {
        findings.push(Finding::new(
            "R8",
            rel_path,
            1,
            "crate root without `#![forbid(unsafe_code)]`",
        ));
    }
    findings
}

/// For the lint name at `k` inside a lint attribute (`#[allow(a, b)]`,
/// `#![forbid(b)]`), the attribute's level and whether it is an inner
/// (`#!`) attribute.
fn lint_level<'a>(scan: &ScanFile<'a>, k: usize) -> Option<(&'a str, bool)> {
    let mut j = k;
    while j > 0 && (scan.text(j - 1) == "," || scan.kind(j - 1) == TokKind::Ident) {
        j -= 1;
    }
    if j < 4 || scan.text(j - 1) != "(" {
        return None;
    }
    let level = scan.text(j - 2);
    let inner = scan.text(j - 3) == "[" && scan.text(j - 4) == "!";
    Some((level, inner))
}

/// True for `lib.rs`, `main.rs` and `bin/<file>.rs` under `src/` or
/// `crates/<name>/src/`.
fn is_crate_root(rel_path: &str) -> bool {
    let in_src = rel_path.strip_prefix("src/").or_else(|| {
        let (_, rest) = rel_path.strip_prefix("crates/")?.split_once('/')?;
        rest.strip_prefix("src/")
    });
    match in_src {
        Some("lib.rs" | "main.rs") => true,
        Some(path) => path
            .strip_prefix("bin/")
            .is_some_and(|file| file.ends_with(".rs") && !file.contains('/')),
        None => false,
    }
}

/// Collects the names of bindings (fields, params, lets) declared with
/// a `HashMap`/`HashSet` type in non-test code.
fn collect_hashed_bindings<'a>(scan: &ScanFile<'a>) -> Vec<&'a str> {
    let n = scan.sig.len();
    let mut names: Vec<&str> = Vec::new();
    for k in 0..n {
        if scan.masked[k] || scan.kind(k) != TokKind::Ident {
            continue;
        }
        let t = scan.text(k);
        // `name: …HashMap<…>` — walk back through the type path to the
        // single colon that binds it to a name.
        if t == "HashMap" || t == "HashSet" {
            if let Some(name) = binding_name_before(scan, k) {
                if !names.contains(&name) {
                    names.push(name);
                }
            }
        }
        // `let [mut] name = HashMap::new()` — type inferred, no colon.
        if t == "let" {
            let mut m = k + 1;
            if m < n && scan.text(m) == "mut" {
                m += 1;
            }
            if m < n && scan.kind(m) == TokKind::Ident {
                let name = scan.text(m);
                let mut j = m + 1;
                let mut steps = 0;
                while j < n && steps < 300 {
                    let tj = scan.text(j);
                    if tj == ";" {
                        break;
                    }
                    if (tj == "HashMap" || tj == "HashSet") && !names.contains(&name) {
                        names.push(name);
                        break;
                    }
                    j += 1;
                    steps += 1;
                }
            }
        }
    }
    names
}

/// From the `HashMap`/`HashSet` ident at `k`, walks backwards through
/// the type expression looking for the `name :` that declares it.
fn binding_name_before<'a>(scan: &ScanFile<'a>, k: usize) -> Option<&'a str> {
    let mut j = k;
    while j > 0 {
        j -= 1;
        let t = scan.text(j);
        match t {
            ":" => {
                if j > 0 && scan.text(j - 1) == ":" {
                    // `::` path separator — keep walking past it.
                    if j == 0 {
                        return None;
                    }
                    j -= 1;
                    continue;
                }
                // Single colon: the ident before it is the binding.
                if j > 0 && scan.kind(j - 1) == TokKind::Ident {
                    let name = scan.text(j - 1);
                    if DECL_WALK_BAIL.contains(&name) {
                        return None;
                    }
                    return Some(name);
                }
                return None;
            }
            "<" | ">" | "&" => continue,
            _ if scan.kind(j) == TokKind::Lifetime => continue,
            _ if scan.kind(j) == TokKind::Ident => {
                if DECL_WALK_BAIL.contains(&t) {
                    return None;
                }
                continue;
            }
            _ => return None,
        }
    }
    None
}

/// Checks a `for … in EXPR {` loop for iteration over a hashed binding.
fn check_for_loop(
    scan: &ScanFile<'_>,
    k: usize,
    hashed_names: &[&str],
    rel_path: &str,
) -> Option<Finding> {
    let n = scan.sig.len();
    // Find `in` before the loop body opens (bail on `impl … for …`,
    // which hits `{` or `::` first without an `in`).
    let mut j = k + 1;
    let mut steps = 0;
    while j < n && steps < 60 {
        let t = scan.text(j);
        if t == "{" || t == ";" {
            return None;
        }
        if t == "in" && scan.kind(j) == TokKind::Ident {
            break;
        }
        j += 1;
        steps += 1;
    }
    if j >= n || steps >= 60 {
        return None;
    }
    // Scan the iterable expression up to the body `{`.
    let mut m = j + 1;
    steps = 0;
    while m < n && steps < 100 {
        let t = scan.text(m);
        if t == "{" {
            return None;
        }
        if scan.kind(m) == TokKind::Ident && hashed_names.contains(&t) && !scan.masked[m] {
            return Some(Finding::new(
                "R4",
                rel_path,
                scan.line(m),
                &format!(
                    "order-dependent iteration (`for … in` over `{t}`, a HashMap/HashSet); \
                     use a BTree collection or iterate a sorted copy"
                ),
            ));
        }
        m += 1;
        steps += 1;
    }
    None
}
