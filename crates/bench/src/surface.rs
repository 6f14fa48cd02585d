//! Surface — lines of code and public items per crate, so the size of
//! the code base is one command rather than a script kept by hand.
//!
//! Every file `git ls-files` lists outside Markdown, JSON, `vendor/` and
//! `perfbench/` is counted by non-blank lines, in one of three columns:
//!
//! * `lib_lines` — the crate's `src/`, outside `#[cfg(test)]` items;
//! * `test_lines` — its `tests/` and its `#[cfg(test)]` items (a
//!   `#[cfg(test)] mod m;` takes all of `m.rs`);
//! * `other_lines` — the rest: manifests, examples, CI, licences.
//!
//! `pub_items` counts `pub fn|struct|enum|trait|const|static|type|mod`
//! declarations in `src/` outside `#[cfg(test)]` items. The root package
//! (`src/`, `tests/`, `examples/` and the top-level files) is row 0; the
//! `crates/*` members follow by name, and the last row sums them. The
//! table is a ledger, not a bound: no gate reads it.

use crate::params::Params;
use crate::table::Table;
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Counts for one crate.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    lib: usize,
    test: usize,
    other: usize,
    items: usize,
}

/// Item keywords a `pub` declaration counts under.
const ITEM_KEYWORDS: [&str; 8] = [
    "fn", "struct", "enum", "trait", "const", "static", "type", "mod",
];

/// The workspace root this crate was built from.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Surface: lines and public items per crate of the checkout this crate
/// was built from.
///
/// # Panics
/// Panics if `git ls-files` cannot list the checkout.
pub fn surface(_p: &Params) -> Table {
    let root = workspace_root();
    let out = Command::new("git")
        .arg("-C")
        .arg(&root)
        .arg("ls-files")
        .output()
        .expect("the surface table lists files with `git ls-files`");
    assert!(out.status.success(), "`git ls-files` failed in {root:?}");
    let listed = String::from_utf8(out.stdout).expect("file names are UTF-8");
    let files: Vec<&str> = listed
        .lines()
        .filter(|f| !(f.starts_with("vendor/") || f.starts_with("perfbench/")))
        .filter(|f| !(f.ends_with(".md") || f.ends_with(".json")))
        .collect();

    // Files a `#[cfg(test)] mod m;` declaration makes test-only.
    let mut test_files = HashSet::new();
    let sources: BTreeMap<&str, String> = files
        .iter()
        .map(|&f| (f, std::fs::read_to_string(root.join(f)).unwrap_or_default()))
        .collect();
    for (&f, text) in &sources {
        if f.ends_with(".rs") {
            let dir = Path::new(f).parent().unwrap_or(Path::new(""));
            for m in test_flags(text).1 {
                test_files.insert(dir.join(format!("{m}.rs")));
            }
        }
    }

    let mut crates: BTreeMap<String, Counts> = BTreeMap::new();
    for (&f, text) in &sources {
        let (name, rest) = match f.strip_prefix("crates/") {
            Some(path) => match path.split_once('/') {
                Some((name, rest)) => (format!("mdg-{name}"), rest),
                None => continue,
            },
            None => (String::new(), f),
        };
        let counts = crates.entry(name).or_default();
        let non_blank = text.lines().filter(|l| !l.trim().is_empty());
        if rest.starts_with("tests/") || test_files.contains(Path::new(f)) {
            counts.test += non_blank.count();
        } else if rest.starts_with("src/") && f.ends_with(".rs") {
            let (in_test, _) = test_flags(text);
            for (line, &test) in text.lines().zip(&in_test) {
                if line.trim().is_empty() {
                    continue;
                }
                if test {
                    counts.test += 1;
                } else {
                    counts.lib += 1;
                    counts.items += usize::from(is_pub_item(line));
                }
            }
        } else {
            counts.other += non_blank.count();
        }
    }

    let mut t = Table::new(
        "surface",
        "Lines of code and public items per crate",
        &[
            "crate",
            "lib_lines",
            "test_lines",
            "other_lines",
            "pub_items",
        ],
    );
    let mut total = Counts::default();
    let mut names = Vec::new();
    for (k, (name, c)) in crates.iter().enumerate() {
        let name = if name.is_empty() { "root" } else { name };
        println!(
            "  surface: {name:<16} lib {:>6}  tests {:>6}  other {:>6}  pub items {:>4}",
            c.lib, c.test, c.other, c.items
        );
        names.push(format!("{k} = {name}"));
        t.push_row(vec![
            k as f64,
            c.lib as f64,
            c.test as f64,
            c.other as f64,
            c.items as f64,
        ]);
        total.lib += c.lib;
        total.test += c.test;
        total.other += c.other;
        total.items += c.items;
    }
    t.push_row(vec![
        crates.len() as f64,
        total.lib as f64,
        total.test as f64,
        total.other as f64,
        total.items as f64,
    ]);
    t.notes = format!(
        "Non-blank lines of `git ls-files` outside Markdown, JSON, vendor/ and perfbench/; \
         lib_lines is src/ outside #[cfg(test)] items, test_lines is tests/ plus those items, \
         other_lines the rest. pub_items counts pub fn|struct|enum|trait|const|static|type|mod \
         declarations in src/ outside #[cfg(test)] items. Crates: {}, {} = total.",
        names.join(", "),
        crates.len()
    );
    t
}

/// Whether `line` declares a public item: `pub`, then optional `const`,
/// `unsafe`, `async` or `extern "ABI"` qualifiers, then an item keyword.
/// `pub(crate)` and other restricted visibilities do not count.
fn is_pub_item(line: &str) -> bool {
    let mut words = line.split_whitespace();
    if words.next() != Some("pub") {
        return false;
    }
    let mut words = words.peekable();
    while let Some(&w) = words.peek() {
        let qualifier = matches!(w, "unsafe" | "async" | "extern" | "\"C\"")
            || (w == "const" && {
                let mut ahead = words.clone();
                ahead.next();
                matches!(ahead.next(), Some("fn" | "unsafe" | "async" | "extern"))
            });
        if !qualifier {
            break;
        }
        words.next();
    }
    words.next().is_some_and(|w| ITEM_KEYWORDS.contains(&w))
}

/// Marks each line of `src` that belongs to a `#[cfg(test)]` item, and
/// returns the names of `#[cfg(test)] mod m;` declarations. An item runs
/// from its attribute to the `;` or the closing brace that ends it.
fn test_flags(src: &str) -> (Vec<bool>, Vec<String>) {
    let mut flags = Vec::new();
    let mut modules = Vec::new();
    let (mut pending, mut depth) = (false, 0i64);
    for line in src.lines() {
        let trimmed = line.trim();
        if depth > 0 {
            depth += brace_delta(line);
            flags.push(true);
            continue;
        }
        if trimmed.starts_with("#[cfg(test)]") {
            pending = true;
            flags.push(true);
            continue;
        }
        flags.push(pending);
        if !pending || trimmed.starts_with("#[") || trimmed.is_empty() {
            continue;
        }
        if let Some(name) = trimmed
            .strip_prefix("mod ")
            .or_else(|| trimmed.strip_prefix("pub mod "))
            .and_then(|m| m.strip_suffix(';'))
        {
            modules.push(name.trim().to_string());
        }
        if line.contains('{') {
            depth = brace_delta(line);
            pending = false;
        } else if trimmed.ends_with(';') {
            pending = false;
        }
    }
    (flags, modules)
}

/// Opening minus closing braces on `line`, outside string and character
/// literals and line comments.
fn brace_delta(line: &str) -> i64 {
    let chars: Vec<char> = line.chars().collect();
    let (mut delta, mut i) = (0, 0);
    while i < chars.len() {
        match chars[i] {
            '/' if chars.get(i + 1) == Some(&'/') => break,
            '"' => {
                i += 1;
                while i < chars.len() && chars[i] != '"' {
                    i += if chars[i] == '\\' { 2 } else { 1 };
                }
            }
            '\'' if chars.get(i + 2) == Some(&'\'') => i += 2,
            '\'' if chars.get(i + 1) == Some(&'\\') => {
                while i + 1 < chars.len() && chars[i + 1] != '\'' {
                    i += 1;
                }
                i += 1;
            }
            '{' => delta += 1,
            '}' => delta -= 1,
            _ => {}
        }
        i += 1;
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pub_items_follow_the_keyword_list() {
        for line in [
            "pub fn f() {",
            "    pub struct S;",
            "pub const N: usize = 1;",
            "pub const fn g() {}",
            "pub unsafe fn h() {}",
            "pub mod m;",
            "pub type T = u8;",
        ] {
            assert!(is_pub_item(line), "{line}");
        }
        for line in [
            "pub(crate) fn f() {",
            "pub use x::Y;",
            "fn f() {",
            "/// pub fn f()",
        ] {
            assert!(!is_pub_item(line), "{line}");
        }
    }

    #[test]
    fn cfg_test_items_end_at_their_closing_brace() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { '{'; \"}\" }\n}\npub fn c() {}\n#[cfg(test)]\nmod exact;\n";
        let (flags, modules) = test_flags(src);
        assert_eq!(flags, [false, true, true, true, true, false, true, true]);
        assert_eq!(modules, ["exact"]);
    }
}
