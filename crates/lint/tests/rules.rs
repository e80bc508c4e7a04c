//! Fixture-corpus tests: each rule R1–R6 must fire on its seeded
//! violation file, stay silent on the known-good file, respect reasoned
//! `allow` suppressions, and report suppression-hygiene breaks (A0).
//! R8 (the unsafe surface) is tested on inline sources.

use shredder_lint::rules::{UNSAFE_CRATE_ROOT, UNSAFE_FILE};
use shredder_lint::{lint_source, Finding, LintConfig};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Config under which fixtures are "simulation code": nothing is
/// wall-clock exempt, and the named files are R5 hot paths.
fn config(hot: &[&str]) -> LintConfig {
    LintConfig {
        wallclock_exempt_dirs: vec![],
        hot_path_files: hot.iter().map(|s| s.to_string()).collect(),
        telemetry_dirs: vec!["crates/telemetry".into()],
    }
}

fn lint(name: &str, hot: &[&str]) -> Vec<Finding> {
    lint_source(name, &fixture(name), &config(hot))
}

fn unsuppressed<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings
        .iter()
        .filter(|f| f.rule == rule && !f.suppressed)
        .collect()
}

#[test]
fn r1_fires_on_wall_clock() {
    let findings = lint("r1_bad.rs", &[]);
    assert!(findings.iter().all(|f| f.rule == "R1"), "{findings:?}");
    let lines: Vec<u32> = unsuppressed(&findings, "R1")
        .iter()
        .map(|f| f.line)
        .collect();
    assert!(lines.contains(&6), "Instant::now missed: {lines:?}");
    assert!(lines.contains(&11), "SystemTime::now missed: {lines:?}");
}

#[test]
fn r1_respects_wallclock_exempt_dirs() {
    let src = fixture("r1_bad.rs");
    let mut cfg = config(&[]);
    cfg.wallclock_exempt_dirs = vec!["crates/bench".into()];
    let findings = lint_source("crates/bench/src/harness.rs", &src, &cfg);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn r2_fires_on_unseeded_rng() {
    let findings = lint("r2_bad.rs", &[]);
    let lines: Vec<u32> = unsuppressed(&findings, "R2")
        .iter()
        .map(|f| f.line)
        .collect();
    assert_eq!(lines, vec![4, 9], "thread_rng + from_entropy");
}

#[test]
fn r3_fires_on_os_threads() {
    let findings = lint("r3_bad.rs", &[]);
    let lines: Vec<u32> = unsuppressed(&findings, "R3")
        .iter()
        .map(|f| f.line)
        .collect();
    assert_eq!(lines, vec![4, 8], "std::thread::spawn + thread::scope");
}

#[test]
fn r4_fires_on_hash_iteration() {
    let findings = lint("r4_bad.rs", &[]);
    let lines: Vec<u32> = unsuppressed(&findings, "R4")
        .iter()
        .map(|f| f.line)
        .collect();
    assert!(lines.contains(&12), "field method call missed: {lines:?}");
    assert!(
        lines.contains(&21),
        "for loop over binding missed: {lines:?}"
    );
    assert!(lines.contains(&29), "HashMap::iter path missed: {lines:?}");
}

#[test]
fn r5_fires_only_in_hot_path_files() {
    let hot = lint("r5_bad.rs", &["r5_bad.rs"]);
    let lines: Vec<u32> = unsuppressed(&hot, "R5").iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![4, 5, 7], "unwrap + expect + panic!");

    let cold = lint("r5_bad.rs", &[]);
    assert!(cold.is_empty(), "R5 must not apply off hot paths: {cold:?}");
}

#[test]
fn r6_fires_on_wall_clock_in_telemetry_paths() {
    let src = fixture("r6_bad.rs");
    let findings = lint_source("crates/telemetry/src/recorder.rs", &src, &config(&[]));
    let lines: Vec<u32> = unsuppressed(&findings, "R6")
        .iter()
        .map(|f| f.line)
        .collect();
    assert!(lines.contains(&3), "std::time import missed: {lines:?}");
    assert!(lines.contains(&6), "Instant missed: {lines:?}");
    assert!(lines.contains(&11), "SystemTime::now missed: {lines:?}");
}

#[test]
fn r6_stays_quiet_off_telemetry_paths() {
    let src = fixture("r6_bad.rs");
    // In an ordinary sim crate only R1 applies (wall-clock *reads*);
    // the blanket type ban is telemetry-specific.
    let findings = lint_source("crates/core/src/engine.rs", &src, &config(&[]));
    assert!(unsuppressed(&findings, "R6").is_empty(), "{findings:?}");
    assert!(!unsuppressed(&findings, "R1").is_empty(), "{findings:?}");
}

#[test]
fn reasoned_allows_suppress_every_rule() {
    let findings = lint("suppressed.rs", &["suppressed.rs"]);
    assert!(!findings.is_empty(), "violations should still be recorded");
    for f in &findings {
        assert!(f.suppressed, "should be suppressed: {f:?}");
        assert!(f.suppress_reason.is_some(), "reason must carry over: {f:?}");
    }
    let rules: std::collections::BTreeSet<&str> = findings.iter().map(|f| f.rule).collect();
    assert_eq!(
        rules.into_iter().collect::<Vec<_>>(),
        vec!["R1", "R2", "R3", "R4", "R5"],
        "one suppressed finding per rule"
    );
}

#[test]
fn hygiene_breaks_report_a0_and_do_not_suppress() {
    let findings = lint("malformed.rs", &[]);
    let a0: Vec<u32> = unsuppressed(&findings, "A0")
        .iter()
        .map(|f| f.line)
        .collect();
    assert_eq!(
        a0,
        vec![5, 10, 15, 19],
        "reasonless, no-parens, unknown-rule, wrong-verb"
    );
    // The unparsed allow above the spawn does not shield it.
    let r3 = unsuppressed(&findings, "R3");
    assert_eq!(r3.len(), 1, "{findings:?}");
    assert_eq!(r3[0].line, 11);
}

#[test]
fn good_file_is_silent_even_as_hot_path() {
    let findings = lint("good.rs", &["good.rs"]);
    assert!(findings.is_empty(), "{findings:?}");
}

/// R8 lines of `src` linted as `path`.
fn r8_lines(path: &str, src: &str) -> Vec<u32> {
    let findings = lint_source(path, src, &LintConfig::default());
    unsuppressed(&findings, "R8")
        .iter()
        .map(|f| f.line)
        .collect()
}

#[test]
fn r8_allows_unsafe_code_only_in_the_unsafe_file() {
    let src = "fn f() {\n\
               \x20   // SAFETY: the CPU has the feature.\n\
               \x20   #[allow(unsafe_code)]\n\
               \x20   unsafe { g() };\n\
               }\n\
               #[cfg(test)]\n\
               mod tests {\n\
               \x20   #[allow(dead_code, unsafe_code)]\n\
               \x20   fn h() {}\n\
               }\n";
    assert_eq!(r8_lines(UNSAFE_FILE, src), Vec::<u32>::new());
    // Anywhere else each allow is a finding, test code included.
    assert_eq!(r8_lines("crates/store/src/store.rs", src), vec![3, 8]);
    // Other levels, and words in strings and comments, are not allows.
    let quiet = "#[deny(unsafe_code)]\n\
                 fn f() -> &'static str { \"allow(unsafe_code)\" } // allow(unsafe_code)\n";
    assert_eq!(
        r8_lines("crates/store/src/store.rs", quiet),
        Vec::<u32>::new()
    );
}

#[test]
fn r8_requires_forbid_at_every_other_crate_root() {
    let forbids = "//! A crate.\n#![forbid(unsafe_code)]\n#![warn(missing_docs)]\npub mod a;\n";
    let denies = "//! A crate.\n#![deny(unsafe_code)]\npub mod a;\n";
    let outer = "//! A crate.\n#[forbid(unsafe_code)]\nmod a;\n";
    for root in [
        "src/lib.rs",
        "crates/store/src/lib.rs",
        "crates/lint/src/main.rs",
        "crates/bench/src/bin/bench_gate.rs",
    ] {
        assert_eq!(r8_lines(root, forbids), Vec::<u32>::new(), "{root}");
        assert_eq!(r8_lines(root, denies), vec![1], "{root}");
        assert_eq!(r8_lines(root, outer), vec![1], "{root}");
        assert_eq!(r8_lines(root, "pub mod a;\n"), vec![1], "{root}");
    }
    // The unsafe file's crate root may deny instead; modules are not
    // crate roots.
    assert_eq!(r8_lines(UNSAFE_CRATE_ROOT, denies), Vec::<u32>::new());
    for module in [
        "crates/store/src/index.rs",
        "crates/store/src/index/lib.rs",
        "crates/bench/src/bin/util/mod.rs",
    ] {
        assert_eq!(r8_lines(module, denies), Vec::<u32>::new(), "{module}");
    }
}
