//! Source-level lint rules the compiler cannot enforce, pinned as a test so they
//! fail in CI with file:line diagnostics rather than bit-rotting in review lore:
//!
//! 1. **Clocks live in `nev-obs`.** `Instant::now` / `SystemTime::now` may appear
//!    only in the observability crate's timer paths (`Timer`, the metrics
//!    registry epoch, the span clock). Everywhere else must thread an
//!    [`nev_obs`] timer through, so every clock read in the workspace goes
//!    through one timer type.
//! 2. **No `.unwrap()` in serving-layer request handling.** `nev-serve`'s
//!    library code handles untrusted wire input; every panic site must carry an
//!    `.expect("why this cannot fail")` message (also enforced by the CI clippy
//!    lane with `-D clippy::unwrap_used`).
//! 3. **Every `Ordering::Relaxed` is justified.** Each relaxed atomic access
//!    must sit under a `// relaxed: <reason>` comment (inline, within the three
//!    preceding lines, or continuing a commented run) saying why the access
//!    needs no ordering. Relaxed atomics are correct exactly when the
//!    surrounding code does not rely on them for synchronisation — the comment
//!    records that argument next to the site.
//!
//! Test modules (everything after a `#[cfg(test)]` marker) and comment lines are
//! exempt from rules 1 and 2; the scan covers `crates/*/src/**/*.rs` only, so
//! the vendored stand-ins in `vendor/` are out of scope.

use std::fs;
use std::path::PathBuf;

/// Files allowed to read the wall clock directly: the `nev-obs` timer paths.
const CLOCK_ALLOWLIST: &[&str] = &[
    "crates/obs/src/lib.rs",
    "crates/obs/src/registry.rs",
    "crates/obs/src/span.rs",
];

/// How many lines above a relaxed access a `// relaxed:` justification may sit
/// (accommodates a loop header or struct literal opener between the two).
const RELAXED_LOOKBACK: usize = 3;

/// Every `.rs` file under `crates/*/src`, relative paths normalised to `/`.
fn workspace_sources() -> Vec<(String, String)> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    let crates = root.join("crates");
    let mut dirs: Vec<PathBuf> = fs::read_dir(&crates)
        .expect("crates/ directory readable")
        .map(|e| e.expect("crates/ entry readable").path().join("src"))
        .filter(|p| p.is_dir())
        .collect();
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(&dir).expect("source directory readable") {
            let path = entry.expect("source entry readable").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path
                    .strip_prefix(&root)
                    .expect("source under workspace root")
                    .to_string_lossy()
                    .replace('\\', "/");
                let text = fs::read_to_string(&path).expect("source file readable");
                files.push((rel, text));
            }
        }
    }
    assert!(
        files.len() >= 10,
        "suspiciously few sources found — did the layout move?"
    );
    files.sort();
    files
}

/// True for lines that are purely comments (docs or otherwise), which rules 1
/// and 2 must not fire on.
fn is_comment_line(line: &str) -> bool {
    line.trim_start().starts_with("//")
}

/// Lines of `text` up to (and excluding) the first `#[cfg(test)]` marker — the
/// convention throughout this workspace is that test modules close out a file.
fn non_test_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .take_while(|(_, line)| !line.trim_start().starts_with("#[cfg(test)]"))
        .map(|(i, line)| (i + 1, line))
}

#[test]
fn clock_reads_stay_inside_nev_obs() {
    let mut violations = Vec::new();
    for (path, text) in workspace_sources() {
        if CLOCK_ALLOWLIST.contains(&path.as_str()) {
            continue;
        }
        for (line_no, line) in non_test_lines(&text) {
            if is_comment_line(line) {
                continue;
            }
            if line.contains("Instant::now") || line.contains("SystemTime::now") {
                violations.push(format!("{path}:{line_no}: {}", line.trim()));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "direct clock reads outside the nev-obs timer paths (route them through \
         nev_obs::Timer, the workspace's one clock type):\n{}",
        violations.join("\n")
    );
}

#[test]
fn serve_request_handling_never_unwraps() {
    let mut violations = Vec::new();
    for (path, text) in workspace_sources() {
        if !path.starts_with("crates/serve/src/") {
            continue;
        }
        for (line_no, line) in non_test_lines(&text) {
            if is_comment_line(line) {
                continue;
            }
            if line.contains(".unwrap()") {
                violations.push(format!("{path}:{line_no}: {}", line.trim()));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "bare .unwrap() in nev-serve library code (use .expect(\"why this cannot \
         fail\") so the panic message names the violated invariant):\n{}",
        violations.join("\n")
    );
}

#[test]
fn every_relaxed_ordering_is_justified() {
    let mut violations = Vec::new();
    let mut justified = 0usize;
    for (path, text) in workspace_sources() {
        // `ttl` counts lines of remaining coverage from a `// relaxed:` comment;
        // `prev_covered` lets a consecutive run of relaxed accesses share one.
        let mut ttl = 0usize;
        let mut prev_covered = false;
        for (line_no, line) in text.lines().enumerate().map(|(i, l)| (i + 1, l)) {
            if line.contains("// relaxed:") {
                ttl = RELAXED_LOOKBACK + 1;
            }
            if line.contains("Ordering::Relaxed") && !is_comment_line(line) {
                let covered = ttl > 0 || prev_covered;
                if covered {
                    justified += 1;
                } else {
                    violations.push(format!("{path}:{line_no}: {}", line.trim()));
                }
                prev_covered = covered;
            } else if !line.trim().is_empty() {
                prev_covered = false;
            }
            ttl = ttl.saturating_sub(1);
        }
    }
    assert!(
        violations.is_empty(),
        "Ordering::Relaxed without a `// relaxed: <reason>` justification \
         (state why the access needs no synchronisation):\n{}",
        violations.join("\n")
    );
    // The workspace genuinely uses relaxed atomics; if this ever hits zero the
    // scan itself has rotted (renamed import, moved sources), not the code.
    assert!(
        justified >= 10,
        "expected >= 10 justified relaxed accesses, found {justified} — \
         is the scan still finding the sources?"
    );
}

/// The lint algorithms themselves, pinned on synthetic inputs so a refactor of
/// the scanner cannot silently weaken a rule.
#[test]
fn relaxed_coverage_algorithm_behaves() {
    fn uncovered(text: &str) -> Vec<usize> {
        let mut out = Vec::new();
        let mut ttl = 0usize;
        let mut prev_covered = false;
        for (line_no, line) in text.lines().enumerate().map(|(i, l)| (i + 1, l)) {
            if line.contains("// relaxed:") {
                ttl = RELAXED_LOOKBACK + 1;
            }
            if line.contains("Ordering::Relaxed") && !is_comment_line(line) {
                let covered = ttl > 0 || prev_covered;
                if !covered {
                    out.push(line_no);
                }
                prev_covered = covered;
            } else if !line.trim().is_empty() {
                prev_covered = false;
            }
            ttl = ttl.saturating_sub(1);
        }
        out
    }

    // Inline and immediately-above comments cover; a bare access does not.
    assert_eq!(
        uncovered("x.load(Ordering::Relaxed); // relaxed: test"),
        vec![] as Vec<usize>
    );
    assert_eq!(
        uncovered("// relaxed: test\nx.load(Ordering::Relaxed);"),
        vec![] as Vec<usize>
    );
    assert_eq!(uncovered("x.load(Ordering::Relaxed);"), vec![1]);

    // A comment covers through a loop header / struct opener within the lookback…
    assert_eq!(
        uncovered("// relaxed: test\nfor x in xs {\n    x.load(Ordering::Relaxed);\n}"),
        vec![] as Vec<usize>
    );
    // …but not arbitrarily far below.
    assert_eq!(
        uncovered("// relaxed: test\n\n\n\n\nx.load(Ordering::Relaxed);"),
        vec![6]
    );

    // A consecutive run shares one justification; interrupting code resets it.
    assert_eq!(
        uncovered("// relaxed: test\na.load(Ordering::Relaxed);\nb.load(Ordering::Relaxed);\nc.load(Ordering::Relaxed);"),
        vec![] as Vec<usize>
    );
    assert_eq!(
        uncovered(
            "// relaxed: test\na.load(Ordering::Relaxed);\nfn other() {}\nfn more() {}\nfn still_more() {}\nb.load(Ordering::Relaxed);"
        ),
        vec![6]
    );
}
