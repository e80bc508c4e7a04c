//! `shredder-lint` — the workspace's determinism & invariant
//! static-analysis pass.
//!
//! Every headline result of this reproduction (GPU, host and
//! sequential engines chunking bit-identically, replayable
//! `ServiceReport`s, the CI bench gate) rests on the discrete-event simulation being
//! deterministic. This crate machine-checks that contract instead of
//! trusting convention: a dependency-free lexer ([`lexer`]) and a
//! brace/attribute-aware scanner ([`scanner`]) walk every workspace
//! `src/` tree and enforce the rule set in [`rules`]:
//!
//! * **R1** — no wall clock (`Instant::now`, `SystemTime`) in sim crates
//! * **R2** — no unseeded randomness (`thread_rng`, `from_entropy`, `OsRng`)
//! * **R3** — no OS threads (`std::thread`) in the single-threaded DES
//! * **R4** — no order-dependent `HashMap`/`HashSet` iteration
//! * **R5** — no `unwrap`/`expect`/`panic!` in hot-path library files
//! * **R6** — no wall clock at all (`SystemTime`, `Instant::now`, any
//!   `std::time` path — imports included) in telemetry paths:
//!   telemetry records sim time only
//! * **R8** — `allow(unsafe_code)` only in `crates/hash/src/sha256.rs`
//!   (the SHA-NI call); every other crate root carries
//!   `#![forbid(unsafe_code)]`, so the compiler rejects `unsafe`
//!   anywhere else
//! * **A0** — suppression hygiene (every `allow` carries a reason)
//!
//! (R7 is reserved for a public-surface rule.) Test code is exempt
//! from R1–R6: items behind `#[cfg(test)]`/`#[test]` are masked. R8
//! covers them too, as the compiler's `unsafe_code` lint does. The
//! `tests/`, `benches/`, `examples/` and `vendor/` trees are never
//! walked. Intentional exceptions are annotated inline:
//!
//! ```text
//! // shredder-lint: allow(R4) — collected into a Vec and sorted below
//! ```
//!
//! Run it with `cargo run -p shredder-lint` (add `--json` for machine
//! output); the process exits non-zero when any unsuppressed finding
//! remains.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod output;
pub mod rules;
pub mod scanner;

use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`"R1"`…`"R6"`, `"R8"`, or `"A0"` for suppression
    /// hygiene).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human explanation.
    pub message: String,
    /// True when an inline `allow` with a reason covers this finding.
    pub suppressed: bool,
    /// The covering suppression's reason, when suppressed.
    pub suppress_reason: Option<String>,
}

impl Finding {
    /// Creates an unsuppressed finding.
    pub fn new(rule: &'static str, file: &str, line: u32, message: &str) -> Self {
        Finding {
            rule,
            file: file.to_string(),
            line,
            message: message.to_string(),
            suppressed: false,
            suppress_reason: None,
        }
    }
}

/// What the lint enforces where.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Directory prefixes (workspace-relative) exempt from R1 — code
    /// that legitimately measures wall-clock time (the bench harness)
    /// and the lint itself.
    pub wallclock_exempt_dirs: Vec<String>,
    /// Path suffixes of the hot-path library files R5 covers: the
    /// engine and its admission queues, the pipeline, the sink stages
    /// and the store commit path.
    pub hot_path_files: Vec<String>,
    /// Directory prefixes (workspace-relative) where R6 forbids *any*
    /// wall clock (`SystemTime`, `Instant::now`, any `std::time` path,
    /// imports included) — the telemetry subsystem, whose determinism
    /// contract requires every timestamp to be sim time handed in by
    /// the simulation.
    pub telemetry_dirs: Vec<String>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            wallclock_exempt_dirs: vec!["crates/bench".into(), "crates/lint".into()],
            hot_path_files: [
                "crates/core/src/engine.rs",
                "crates/core/src/ready.rs",
                "crates/core/src/pipeline.rs",
                "crates/core/src/sink.rs",
                "crates/core/src/frontend.rs",
                "crates/store/src/store.rs",
                "crates/store/src/segment.rs",
            ]
            .into_iter()
            .map(String::from)
            .collect(),
            telemetry_dirs: vec!["crates/telemetry".into()],
        }
    }
}

/// Lints one source text under its workspace-relative path. Returns
/// every finding, suppressed ones included (check
/// [`Finding::suppressed`]).
pub fn lint_source(rel_path: &str, src: &str, config: &LintConfig) -> Vec<Finding> {
    let scan = scanner::ScanFile::new(src);
    rules::check_file(rel_path, &scan, config)
}

/// Collects every lintable `.rs` file under `root`: the root `src/`
/// tree plus each `crates/*/src` tree, skipping `target`, `vendor`,
/// `tests`, `benches`, `examples` and `fixtures` directories. The list
/// is sorted so output and JSON are byte-stable across platforms.
pub fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut roots = vec![root.join("src")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for e in entries.flatten() {
            roots.push(e.path().join("src"));
        }
    }
    for r in roots {
        collect_rs(&r, &mut files);
    }
    files.sort();
    files
}

const SKIP_DIRS: &[&str] = &[
    "target", "vendor", "tests", "benches", "examples", "fixtures",
];

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let path = e.path();
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !SKIP_DIRS.contains(&name) {
                collect_rs(&path, out);
            }
        } else if path.extension().and_then(|x| x.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

/// Result of linting a whole workspace.
#[derive(Debug, Clone, Default)]
pub struct LintRun {
    /// Every finding across every file, suppressed included.
    pub findings: Vec<Finding>,
    /// How many files were scanned.
    pub files_scanned: usize,
}

impl LintRun {
    /// Findings not covered by a reasoned suppression.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.suppressed)
    }

    /// Count of unsuppressed findings (the CI-gating number).
    pub fn unsuppressed_count(&self) -> usize {
        self.unsuppressed().count()
    }

    /// Count of suppressed findings.
    pub fn suppressed_count(&self) -> usize {
        self.findings.iter().filter(|f| f.suppressed).count()
    }
}

/// Lints every workspace file under `root`.
pub fn lint_workspace(root: &Path, config: &LintConfig) -> LintRun {
    let files = workspace_files(root);
    let mut run = LintRun {
        files_scanned: files.len(),
        ..LintRun::default()
    };
    for path in &files {
        let Ok(bytes) = std::fs::read(path) else {
            continue;
        };
        let src = String::from_utf8_lossy(&bytes);
        let rel = rel_path(root, path);
        run.findings.extend(lint_source(&rel, &src, config));
    }
    run
}

/// `path` relative to `root`, `/`-separated.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
