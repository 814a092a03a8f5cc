//! DESIGN.md is organised by layer: one chapter per layer, edited in
//! place, never a section appended per change. This test keeps that
//! shape and keeps every citation of the document pointing somewhere:
//!
//! - DESIGN.md has at most [`MAX_LINES`] lines and no per-change
//!   heading (`## 4` followed by letters);
//! - every citation of the form "DESIGN", optionally ".md", then a
//!   section sign and an id, in the program's Rust files, CI, README,
//!   EXPERIMENTS and the verify skill, names a heading of DESIGN.md;
//! - none of those files still uses a retired per-change id (a section
//!   sign, a 4 and lowercase letters), which no heading carries.
//!
//! Paper section numbers (a section sign not preceded by "DESIGN") are
//! not citations of the document and are left alone. CHANGES.md is
//! history and keeps the ids it was written with; each DESIGN chapter's
//! "Supersedes" line says where they went.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const MAX_LINES: usize = 1_200;
const SECTION: char = '§';

/// Top-level documents and CI files whose citations must resolve.
const DOCUMENTS: [&str; 4] = [
    ".github/workflows/ci.yml",
    "README.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];

/// Directories whose `.rs` files are scanned, recursively.
const SOURCE_DIRS: [&str; 4] = ["crates", "src", "tests", "examples"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn design() -> String {
    fs::read_to_string(root().join("DESIGN.md")).expect("reading DESIGN.md")
}

/// The id a heading line carries: its first word, without a trailing
/// period (`## 1. Substitutions` → `1`, `### 4.6 Fleet loop` → `4.6`).
fn heading_id(line: &str) -> Option<&str> {
    let rest = line.strip_prefix('#')?.trim_start_matches('#').trim_start();
    let word = rest.split_whitespace().next()?;
    Some(word.trim_end_matches('.'))
}

/// A per-change id: `4` followed by one or more lowercase letters.
fn is_retired_id(id: &str) -> bool {
    let Some(letters) = id.strip_prefix('4') else {
        return false;
    };
    !letters.is_empty() && letters.chars().all(|c| c.is_ascii_lowercase())
}

fn id_at(text: &str) -> &str {
    let end = text
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '.'))
        .unwrap_or(text.len());
    text[..end].trim_end_matches('.')
}

/// Every id a line cites as a DESIGN section: after "DESIGN" (or
/// "DESIGN.md", backticked or not), a section sign and an id, then any
/// further ids joined by ", ", " and " or "/".
fn cited_ids(line: &str) -> Vec<&str> {
    let mut ids = Vec::new();
    let mut rest = line;
    while let Some(at) = rest.find("DESIGN") {
        let mut tail = &rest[at + "DESIGN".len()..];
        tail = tail.strip_prefix(".md").unwrap_or(tail);
        tail = tail.strip_prefix('`').unwrap_or(tail);
        tail = tail.trim_start_matches(' ');
        while let Some(after) = tail.strip_prefix(SECTION) {
            let id = id_at(after);
            if id.is_empty() {
                break;
            }
            ids.push(id);
            tail = &after[id.len()..];
            tail = tail.strip_prefix('.').unwrap_or(tail);
            let joined = [", ", " and ", "/"]
                .iter()
                .find_map(|sep| tail.strip_prefix(sep));
            match joined {
                Some(next) if next.starts_with(SECTION) => tail = next,
                _ => break,
            }
        }
        rest = &rest[at + "DESIGN".len()..];
    }
    ids
}

/// Every bare id after a section sign that is a retired per-change id.
fn retired_ids(line: &str) -> Vec<&str> {
    line.match_indices(SECTION)
        .map(|(at, _)| id_at(&line[at + SECTION.len_utf8()..]))
        .filter(|id| is_retired_id(id))
        .collect()
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn scanned_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = DOCUMENTS.iter().map(|f| root().join(f)).collect();
    for dir in SOURCE_DIRS {
        rust_files(&root().join(dir), &mut files);
    }
    files.sort();
    files
}

#[test]
fn design_is_one_chapter_per_layer_within_its_line_budget() {
    let text = design();
    let lines = text.lines().count();
    assert!(
        lines <= MAX_LINES,
        "DESIGN.md has {lines} lines, over the {MAX_LINES}-line budget: \
         edit the layer's chapter instead of adding to it"
    );
    let per_change: Vec<&str> = text
        .lines()
        .filter(|l| heading_id(l).is_some_and(is_retired_id))
        .collect();
    assert!(
        per_change.is_empty(),
        "per-change headings in DESIGN.md; fold them into their layer's chapter: {per_change:?}"
    );
}

#[test]
fn every_design_citation_names_a_heading_and_no_retired_id_is_left() {
    let text = design();
    let headings: BTreeSet<&str> = text.lines().filter_map(heading_id).collect();
    assert!(
        headings.contains("4.1"),
        "DESIGN.md lost its layer chapters"
    );

    let mut citations = 0;
    let mut broken = Vec::new();
    for path in scanned_files() {
        let body =
            fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        let name = path
            .strip_prefix(root())
            .unwrap_or(&path)
            .display()
            .to_string();
        for (n, line) in body.lines().enumerate() {
            for id in cited_ids(line) {
                citations += 1;
                if !headings.contains(id) {
                    broken.push(format!(
                        "{name}:{}: DESIGN {SECTION}{id} names no heading",
                        n + 1
                    ));
                }
            }
            for id in retired_ids(line) {
                broken.push(format!("{name}:{}: retired id {SECTION}{id}", n + 1));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "stale DESIGN citations:\n{}",
        broken.join("\n")
    );
    // The scan must see the citations it is meant to check.
    assert!(citations >= 10, "only {citations} DESIGN citations found");
}

#[test]
fn the_citation_reader_understands_the_forms_in_use() {
    let sign = SECTION;
    let line = format!("x (DESIGN {sign}4.1), `DESIGN.md` {sign}4.2, DESIGN.md {sign}2's");
    assert_eq!(cited_ids(&line), ["4.1", "4.2", "2"]);
    let joined = format!("(DESIGN {sign}4.6, {sign}4.9 and {sign}5.) DESIGN doc");
    assert_eq!(cited_ids(&joined), ["4.6", "4.9", "5"]);
    let paper = format!("the paper's {sign}5.2.1 and {sign}4");
    assert!(cited_ids(&paper).is_empty());
    assert!(retired_ids(&paper).is_empty());
    let retired = format!("({sign}4x, {sign}4aa)");
    assert_eq!(retired_ids(&retired), ["4x", "4aa"]);
    assert_eq!(heading_id("### 4.10 Perf harness"), Some("4.10"));
    assert_eq!(heading_id("## 1. Substitutions"), Some("1"));
}
