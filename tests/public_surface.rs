//! Nothing public without a caller. Every `pub fn`, `pub struct`,
//! `pub enum`, `pub trait`, `pub type` and `pub const` in the non-test
//! part of `src/` and `crates/*/src` (the `proptest` shim left out) must
//! be used by some non-test line of `src/`, `crates/*/src` or
//! `examples/` other than a definition. Comment lines, trailing
//! comments and `use` / `pub use` statements are not uses: a re-export
//! or a doc link calls nothing.
//!
//! The match is by name, so it is crude both ways: a field or a local
//! that shares an item's name counts as a use of it, and a name defined
//! twice passes or fails as one. [`ALLOWLIST`] is the explicit record of
//! what stays public with no caller in the program, one reason each; an
//! entry whose name has gained a caller or is no longer defined fails as
//! stale.
//!
//! A file's test part starts at its first `#[cfg(test)]` line that is
//! followed by a `mod` line, so a `#[cfg(test)] use` above the code does
//! not hide the code from the census.
//!
//! The same walk holds two more censuses: no library line reads the
//! environment, only the binaries under `bin/` do; and no layer outside
//! `mpdash-obs` writes a signal by name, only by a row of its table.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Names kept public although no program line uses them. Each reason
/// names the role and the reader that keeps the item: a reference a
/// property compares against, a hook a named test reads, or what only
/// the `perf` harness calls.
const ALLOWLIST: &[(&str, &str)] = &[
    (
        "chunk_path_splits",
        "reference: tests/hot_path.rs holds the online chunk split equal to this packet-log replay",
    ),
    (
        "counter_total",
        "hook: crates/obs/tests/merge_props.rs totals a merged epoch series",
    ),
    (
        "covers",
        "hook: tests/hot_path.rs checks IntervalSet's runs against a byte-set model",
    ),
    (
        "epochs_mut",
        "hook: crates/obs/tests/merge_props.rs mixes by-name epoch writes with a recorder's table rows",
    ),
    (
        "heap_bytes",
        "hook: tests/shared_traces.rs and tests/hot_path.rs bound a trace's and a packet log's heap",
    ),
    (
        "inc",
        "perf only: the obs.metrics_inc_ns probe times MetricsRegistry::inc",
    ),
    (
        "inflight",
        "hook: crates/http/tests/lifecycle_props.rs and origin_props.rs check HttpLayer's in-flight count",
    ),
    (
        "metrics_mut",
        "hook: crates/obs/tests/merge_props.rs mixes by-name registry writes with a recorder's table rows",
    ),
    (
        "next_change_after",
        "hook: crates/link/tests/profile_props.rs compares a profile's steps with its grid",
    ),
    (
        "optimal_min_cost",
        "reference: crates/core/tests/scheduler_props.rs holds the online scheduler to this offline optimum",
    ),
    (
        "run_count",
        "hook: tests/hot_path.rs counts IntervalSet's runs against a byte-set model",
    ),
    (
        "seed_pick",
        "reference: crates/mptcp/tests/scheduler_equiv.rs compares each scheduler's pick with it",
    ),
    (
        "session_energy",
        "perf only: the energy.session_replay_ms probe replays a session's packet log",
    ),
    (
        "total_bytes",
        "hook: tests/hot_path.rs sums IntervalSet's bytes against a byte-set model",
    ),
    (
        "with_loss",
        "test fixture: tests/failure_injection.rs and tests/proptests.rs build lossy links",
    ),
    (
        "with_max_watch",
        "perf only: perf/src/probes/obs.rs caps a session's watch time (ROADMAP item 1(a))",
    ),
    (
        "with_preference",
        "test fixture: tests/preference_policies.rs runs the CellularFirst policy no scenario reaches",
    ),
    (
        "with_queue_capacity",
        "test fixture: tests/hot_path.rs builds links with a fixed drop-tail queue",
    ),
];

/// The kinds of item the census collects, after `pub` and its qualifiers.
const KINDS: [&str; 6] = ["fn", "struct", "enum", "trait", "type", "const"];

/// Keywords after which the next identifier is a name being defined.
const DEFINERS: [&str; 8] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// One scanned file: its path relative to the root and its non-test text.
struct Source {
    path: String,
    text: String,
}

/// The part of a file before its test module.
fn non_test(text: &str) -> &str {
    let mut offset = 0;
    let mut lines = text.lines().peekable();
    while let Some(line) = lines.next() {
        if line.trim() == "#[cfg(test)]"
            && lines
                .peek()
                .is_some_and(|next| next.trim_start().starts_with("mod "))
        {
            return &text[..offset];
        }
        offset += line.len() + 1;
    }
    text
}

/// The name a line defines as a public item, if it defines one.
fn public_item(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    // `pub const fn f` is a function; `pub const N` is a constant.
    let rest = rest
        .strip_prefix("const ")
        .filter(|r| r.starts_with("fn "))
        .unwrap_or(rest);
    let (kind, name) = rest.split_once(' ')?;
    KINDS
        .contains(&kind)
        .then(|| identifier_at(name.trim_start()))
        .filter(|n| !n.is_empty())
}

fn is_identifier_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

fn identifier_at(text: &str) -> &str {
    let end = text
        .find(|c: char| !is_identifier_char(c))
        .unwrap_or(text.len());
    &text[..end]
}

/// A line without its comment: everything from a `//` that is not inside
/// a string literal.
fn code_of(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_string = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_string => i += 1,
            b'"' if !(i > 0 && bytes[i - 1] == b'\'') => in_string = !in_string,
            b'/' if !in_string && bytes.get(i + 1) == Some(&b'/') => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

/// Every identifier a code line uses: each one except a name that a
/// definition keyword introduces and the type an `impl` header extends.
fn used_identifiers(code: &str) -> Vec<&str> {
    let mut used = Vec::new();
    let mut defining = false;
    let mut rest = code;
    let extended = impl_self_type(code);
    while let Some(start) = rest.find(|c: char| is_identifier_char(c)) {
        let word = identifier_at(&rest[start..]);
        let boundary = rest[..start].chars().next_back();
        // Digits that start a word are a literal, not a name (`1u64`).
        let literal = word.starts_with(|c: char| c.is_ascii_digit());
        let at = code.len() - rest.len() + start;
        if !literal && boundary != Some('\'') {
            if !defining && extended != Some(at) {
                used.push(word);
            }
            rest = &rest[start + word.len()..];
            // `fn(u8)` is a pointer type; `fn name` defines `name`.
            defining = DEFINERS.contains(&word) && rest.starts_with(' ');
        } else {
            rest = &rest[start + word.len()..];
        }
    }
    used
}

/// Where the type an `impl` header extends starts, if the line is one:
/// the last segment of the path after `for`, or after `impl` and its
/// generics when there is no `for`.
fn impl_self_type(code: &str) -> Option<usize> {
    let header = code.trim_start();
    let mut rest = header.strip_prefix("impl")?;
    if rest.starts_with('<') {
        let mut depth = 0;
        let end = rest.find(|c| {
            depth += match c {
                '<' => 1,
                '>' => -1,
                _ => 0,
            };
            depth == 0
        })?;
        rest = &rest[end + 1..];
    } else if !rest.starts_with(' ') {
        return None;
    }
    if let Some(at) = rest.find(" for ") {
        rest = &rest[at + " for ".len()..];
    }
    let rest = rest.trim_start();
    let path_len = rest
        .find(|c: char| !(is_identifier_char(c) || c == ':'))
        .unwrap_or(rest.len());
    let last = rest[..path_len].rfind(':').map_or(0, |i| i + 1);
    Some(code.len() - rest.len() + last)
}

/// Whether a line opens a `use` statement (`use`, `pub use`,
/// `pub(crate) use`).
fn opens_use(code: &str) -> bool {
    let t = code.trim_start();
    let t = t
        .strip_prefix("pub(crate) ")
        .or_else(|| t.strip_prefix("pub "))
        .unwrap_or(t);
    t.starts_with("use ")
}

/// Every name that some line of `sources` uses.
fn names_used(sources: &[Source]) -> BTreeSet<String> {
    let mut used = BTreeSet::new();
    for source in sources {
        let mut in_use = false;
        for line in source.text.lines() {
            let code = code_of(line);
            if in_use || opens_use(code) {
                in_use = !code.contains(';');
                continue;
            }
            used.extend(used_identifiers(code).into_iter().map(str::to_owned));
        }
    }
    used
}

/// Every public item `sources` define, by name, with where.
fn public_items(sources: &[Source]) -> BTreeMap<String, Vec<String>> {
    let mut items: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for source in sources {
        for (n, line) in source.text.lines().enumerate() {
            if let Some(name) = public_item(code_of(line)) {
                items.entry(name.to_owned()).or_default().push(format!(
                    "{}:{}",
                    source.path,
                    n + 1
                ));
            }
        }
    }
    items
}

/// What the census finds: each uncalled item not allowlisted, and each
/// stale allowlist entry. `callers` are read only for uses (`examples/`).
fn census(defining: &[Source], callers: &[Source], allowlist: &[(&str, &str)]) -> Vec<String> {
    let items = public_items(defining);
    let mut used = names_used(defining);
    used.extend(names_used(callers));
    let allowed: BTreeMap<&str, &str> = allowlist.iter().copied().collect();

    let mut problems = Vec::new();
    for (name, sites) in &items {
        if !used.contains(name) && !allowed.contains_key(name.as_str()) {
            problems.push(format!(
                "{} `{name}` has no caller: delete it, or allowlist it with a reason",
                sites.join(", ")
            ));
        }
    }
    for (name, reason) in allowlist {
        if reason.trim().is_empty() {
            problems.push(format!("allowlist entry `{name}` gives no reason"));
        }
        if !items.contains_key(*name) {
            problems.push(format!(
                "stale allowlist entry `{name}`: no public item has that name"
            ));
        } else if used.contains(*name) {
            problems.push(format!(
                "stale allowlist entry `{name}`: it has a caller now"
            ));
        }
    }
    problems
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn sources(dirs: &[PathBuf]) -> Vec<Source> {
    let mut files = Vec::new();
    for dir in dirs {
        rust_files(dir, &mut files);
    }
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let text = fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
            Source {
                path: path
                    .strip_prefix(root())
                    .unwrap_or(&path)
                    .display()
                    .to_string(),
                text: non_test(&text).to_owned(),
            }
        })
        .collect()
}

/// `src/` and every `crates/*/src` but the `proptest` shim's.
fn program_dirs() -> Vec<PathBuf> {
    let mut dirs = vec![root().join("src")];
    let crates = fs::read_dir(root().join("crates")).expect("reading crates/");
    for entry in crates {
        let dir = entry.expect("directory entry").path();
        if dir.file_name().is_some_and(|n| n != "proptest") && dir.join("src").is_dir() {
            dirs.push(dir.join("src"));
        }
    }
    dirs.sort();
    dirs
}

#[test]
fn every_public_item_has_a_caller_or_an_allowlisted_reason() {
    let defining = sources(&program_dirs());
    let callers = sources(&[root().join("examples")]);
    let items = public_items(&defining);
    // The scan must see the surface it is meant to check.
    assert!(items.len() > 300, "only {} public items found", items.len());
    let problems = census(&defining, &callers, ALLOWLIST);
    assert!(
        problems.is_empty(),
        "{} public-surface problems:\n{}",
        problems.len(),
        problems.join("\n")
    );
}

/// No library reads the environment: each binary reads it once into an
/// `mpdash_obs::RunEnv` and hands that down (DESIGN §4.7). The
/// `proptest` shim's `PROPTEST_CASES` is the one read allowed, and
/// [`program_dirs`] leaves the shim out as it does for the census.
#[test]
fn no_library_reads_the_environment() {
    let reads = env_reads(&sources(&program_dirs()));
    assert!(
        reads.is_empty(),
        "{} environment reads outside a binary:\n{}",
        reads.len(),
        reads.join("\n")
    );
}

/// Every non-test line outside a `bin/` directory that calls
/// `env::var`, `env::var_os` or `env::vars`, as `path:line: code`.
fn env_reads(sources: &[Source]) -> Vec<String> {
    let mut reads = Vec::new();
    for source in sources.iter().filter(|s| !s.path.contains("/bin/")) {
        for (n, line) in source.text.lines().enumerate() {
            if code_of(line).contains("env::var") {
                reads.push(format!("{}:{}: {}", source.path, n + 1, line.trim()));
            }
        }
    }
    reads
}

/// No layer spells a signal name where it writes one: each writes the
/// rows of its static `Signal` table through an
/// `mpdash_obs::SignalRecorder`, which holds the names (DESIGN §4.7).
/// Only `mpdash-obs` itself, which defines the by-name writes, is left
/// out.
#[test]
fn no_layer_writes_a_signal_by_name() {
    let writes = named_writes(&sources(&program_dirs()));
    assert!(
        writes.is_empty(),
        "{} signal writes by name outside mpdash-obs:\n{}",
        writes.len(),
        writes.join("\n")
    );
}

/// Every non-test call of a registry or epoch write — a method named
/// `inc` or ending in `add` or `observe` (`.add(`, `.epoch_add(`) —
/// outside `crates/obs/` whose argument list holds a string literal, on
/// one line or several, as `path:line: code`.
fn named_writes(sources: &[Source]) -> Vec<String> {
    let mut writes = Vec::new();
    for source in sources
        .iter()
        .filter(|s| !s.path.starts_with("crates/obs/"))
    {
        let code = source
            .text
            .lines()
            .map(code_of)
            .collect::<Vec<_>>()
            .join("\n");
        for (open, _) in code.match_indices('(') {
            let before = &code[..open];
            let method = &before[before.trim_end_matches(is_identifier_char).len()..];
            let called = before[..open - method.len()].ends_with('.');
            let write = method == "inc" || method.ends_with("add") || method.ends_with("observe");
            if !(called && write) {
                continue;
            }
            let args = &code[open + 1..];
            let mut depth = 1;
            let end = args
                .find(|c| {
                    depth += match c {
                        '(' => 1,
                        ')' => -1,
                        _ => 0,
                    };
                    depth == 0
                })
                .unwrap_or(args.len());
            if args[..end].contains('"') {
                let line = before.matches('\n').count();
                let text = code.lines().nth(line).unwrap_or_default().trim();
                writes.push(format!("{}:{}: {text}", source.path, line + 1));
            }
        }
    }
    writes
}

fn fixture(path: &str, text: &str) -> Source {
    Source {
        path: path.to_owned(),
        text: non_test(text).to_owned(),
    }
}

#[test]
fn an_uncalled_public_fn_is_flagged() {
    let lib = fixture(
        "crates/a/src/lib.rs",
        "pub fn called() {}\npub fn orphan() {}\nfn main() { called(); }\n",
    );
    let problems = census(&[lib], &[], &[]);
    assert_eq!(problems.len(), 1, "{problems:?}");
    assert!(
        problems[0].contains("crates/a/src/lib.rs:2 `orphan`"),
        "{problems:?}"
    );
}

#[test]
fn doc_comments_use_lines_definitions_and_test_modules_are_not_callers() {
    let lib = fixture(
        "crates/a/src/lib.rs",
        "//! See [`Orphan`] and [`lonely`].\n\
         pub use inner::{\n    Orphan,\n    lonely,\n};\n\
         pub struct Orphan; // Orphan\n\
         impl Orphan {\n    pub fn lonely() -> u8 { 1 }\n}\n\
         #[cfg(test)]\nmod tests {\n    fn t() { super::Orphan::lonely(); }\n}\n",
    );
    let problems = census(&[lib], &[], &[]);
    assert_eq!(problems.len(), 2, "{problems:?}");
    assert!(problems[0].contains(":6 `Orphan`"), "{problems:?}");
    assert!(problems[1].contains(":8 `lonely`"), "{problems:?}");
    // A `//` inside a string starts no comment.
    let string = fixture(
        "x.rs",
        "pub fn lonely() {}\nfn f() -> &str { \"a // lonely\" }\n",
    );
    assert!(census(&[string], &[], &[]).is_empty());
}

#[test]
fn an_environment_read_is_flagged_outside_a_binary_and_its_tests() {
    let read = "fn f() -> Option<String> { std::env::var(\"X\").ok() }\n";
    let lib = fixture(
        "crates/a/src/lib.rs",
        &format!("// env::var in a comment\n{read}#[cfg(test)]\nmod tests {{\n{read}}}\n"),
    );
    let bin = fixture("crates/a/src/bin/a.rs", read);
    let reads = env_reads(&[lib, bin]);
    assert_eq!(reads.len(), 1, "{reads:?}");
    assert!(reads[0].starts_with("crates/a/src/lib.rs:2: "), "{reads:?}");
}

#[test]
fn a_signal_written_by_name_is_flagged_outside_obs() {
    let code = "fn f(m: &mut R, s: &mut S, t: T) {\n    m.observe(\"bytes\", 3);\n    s.epoch_add(\n        t,\n        \"chunks\",\n        1,\n    );\n    s.add(t, ROW, 1);\n    m.observe(t, f(\"x\"));\n    label.push_str(\"add\");\n}\n";
    let layer = fixture("crates/a/src/lib.rs", code);
    let obs = fixture("crates/obs/src/lib.rs", code);
    let tests = fixture(
        "crates/b/src/lib.rs",
        "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t(m: &mut M) { m.inc(\"x\"); }\n}\n",
    );
    let writes = named_writes(&[layer, obs, tests]);
    assert_eq!(
        writes,
        [
            "crates/a/src/lib.rs:2: m.observe(\"bytes\", 3);",
            "crates/a/src/lib.rs:3: s.epoch_add(",
            "crates/a/src/lib.rs:9: m.observe(t, f(\"x\"));",
        ]
    );
}

#[test]
fn a_call_from_an_example_keeps_an_item() {
    let lib = fixture("crates/a/src/lib.rs", "pub const fn helper() -> u8 { 1 }\n");
    let example = fixture("examples/demo.rs", "fn main() { let _ = a::helper(); }\n");
    assert!(census(&[lib], &[example], &[]).is_empty());
}

#[test]
fn a_stale_or_unreasoned_allowlist_entry_fails() {
    let lib = fixture(
        "crates/a/src/lib.rs",
        "pub fn reference() {}\npub fn used() {}\nfn main() { used(); }\n",
    );
    let ok = census(
        &[fixture("x.rs", lib.text.as_str())],
        &[],
        &[("reference", "oracle")],
    );
    assert!(ok.is_empty(), "{ok:?}");
    let stale = census(
        &[lib],
        &[],
        &[("reference", "oracle"), ("used", "kept"), ("gone", "kept")],
    );
    assert_eq!(stale.len(), 2, "{stale:?}");
    assert!(
        stale[0].contains("`used`: it has a caller now"),
        "{stale:?}"
    );
    assert!(stale[1].contains("`gone`: no public item"), "{stale:?}");
    let unreasoned = census(
        &[fixture("x.rs", "pub fn reference() {}\n")],
        &[],
        &[("reference", " ")],
    );
    assert_eq!(unreasoned.len(), 1, "{unreasoned:?}");
}

#[test]
fn the_item_reader_understands_the_forms_in_use() {
    assert_eq!(public_item("    pub fn run(&self) -> u8 {"), Some("run"));
    assert_eq!(public_item("pub const fn new() -> Self {"), Some("new"));
    assert_eq!(public_item("pub const MAX: u32 = 3;"), Some("MAX"));
    assert_eq!(public_item("pub struct Link<T> {"), Some("Link"));
    assert_eq!(public_item("pub enum Kind {"), Some("Kind"));
    assert_eq!(public_item("pub trait Abr: Send {"), Some("Abr"));
    assert_eq!(public_item("pub type Id = u64;"), Some("Id"));
    assert_eq!(public_item("pub(crate) fn hidden() {}"), None);
    assert_eq!(public_item("pub mod video;"), None);
    assert_eq!(public_item("pub use video::Video;"), None);
    assert_eq!(public_item("pub rate: Rate,"), None);
    assert_eq!(
        used_identifiers("fn f(x: Rate) -> u8 { 1u8 }"),
        ["fn", "x", "Rate", "u8"]
    );
    assert_eq!(
        used_identifiers("impl<'a, T: Bound> fmt::Debug for a::Link<'a, T> {"),
        ["impl", "T", "Bound", "fmt", "Debug", "for", "a", "T"]
    );
    assert_eq!(used_identifiers("impl Link {"), ["impl"]);
    assert_eq!(
        used_identifiers("pub const fn f(g: fn(Rate) -> u8) {"),
        ["pub", "const", "g", "fn", "Rate", "u8"]
    );
}

/// The verify skill's line count stops each file at its first
/// `#[cfg(test)]` line, and [`non_test`] at the first one that opens a
/// `mod`. They count the same lines only while no file puts a
/// test-only item above its test module.
#[test]
fn a_files_first_cfg_test_opens_its_test_module() {
    let mut files = Vec::new();
    for dir in program_dirs() {
        rust_files(&dir, &mut files);
    }
    let mut misplaced = Vec::new();
    for path in files {
        let text = fs::read_to_string(&path).expect("program file readable");
        let mut lines = text.lines().enumerate();
        if let Some((n, _)) = lines.find(|(_, l)| l.starts_with("#[cfg(test)]")) {
            if !lines.next().is_some_and(|(_, l)| l.starts_with("mod ")) {
                misplaced.push(format!("{}:{}", path.display(), n + 1));
            }
        }
    }
    assert!(
        misplaced.is_empty(),
        "a #[cfg(test)] item above the test module: {misplaced:?}"
    );
}
