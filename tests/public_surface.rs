//! Public-surface guard: every `pub` item the workspace declares must be
//! named somewhere besides its own declaration.
//!
//! The rule is a whole-word grep. Declarations are collected from
//! `crates/*/src`, `src`, `examples` and `tests`: every line that starts
//! with `pub fn`, `pub const`, `pub static`, `pub struct`, `pub enum`,
//! `pub trait` or `pub type` (`pub(crate)` items are not surface). A
//! name is referenced when the word occurs more often than it is
//! declared in those directories, the crates' own `tests` and `examples`,
//! or `perfbench/src`. Comments and doc links count, as they do for grep;
//! this file is left out, so its own examples reference nothing.
//!
//! An item that must stay public without a caller goes into [`ALLOWED`]
//! with its reason; an entry whose item gained a caller, or was deleted,
//! fails the test until it is removed.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

/// `(name, reason)` for public items kept without an in-repo reference.
const ALLOWED: &[(&str, &str)] = &[];

/// Item keywords that make a `pub` line part of the surface.
const ITEM_KEYWORDS: &[&str] = &["fn", "const", "static", "struct", "enum", "trait", "type"];

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") && !path.ends_with(file!()) {
            out.push(path);
        }
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The item name a `pub` declaration line introduces, if it is one.
fn declared_name(line: &str) -> Option<&str> {
    let mut words = line
        .trim_start()
        .strip_prefix("pub ")?
        .split_whitespace()
        .peekable();
    let mut keyword = words.next()?;
    // `pub const fn`, `pub unsafe fn`, `pub const unsafe fn`, `pub async fn`.
    while matches!(keyword, "const" | "unsafe" | "async")
        && matches!(words.peek(), Some(&("fn" | "unsafe")))
    {
        keyword = words.next()?;
    }
    if !ITEM_KEYWORDS.contains(&keyword) {
        return None;
    }
    let mut name = words.next()?;
    if keyword == "static" && name == "mut" {
        name = words.next()?;
    }
    let name = &name[..name.find(|c| !is_ident_char(c)).unwrap_or(name.len())];
    (!name.is_empty() && !name.starts_with(|c: char| c.is_ascii_digit())).then_some(name)
}

#[test]
fn every_public_item_has_a_reference() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut declaring = Vec::new();
    let mut referencing = Vec::new();
    for dir in ["src", "examples", "tests"] {
        rs_files(&root.join(dir), &mut declaring);
    }
    let crates = fs::read_dir(root.join("crates")).expect("crates/ is listable");
    for krate in crates {
        let krate = krate.expect("readable crate entry").path();
        rs_files(&krate.join("src"), &mut declaring);
        rs_files(&krate.join("tests"), &mut referencing);
        rs_files(&krate.join("examples"), &mut referencing);
    }
    rs_files(&root.join("perfbench/src"), &mut referencing);

    let mut words: HashMap<String, usize> = HashMap::new();
    let mut declarations: Vec<(String, String)> = Vec::new();
    for (path, declares) in declaring
        .iter()
        .map(|p| (p, true))
        .chain(referencing.iter().map(|p| (p, false)))
    {
        let text = fs::read_to_string(path).expect("source file is UTF-8");
        for word in text.split(|c: char| !is_ident_char(c)) {
            if !word.is_empty() {
                *words.entry(word.to_owned()).or_default() += 1;
            }
        }
        if declares {
            let shown = path
                .strip_prefix(root)
                .unwrap_or(path)
                .display()
                .to_string();
            for (i, line) in text.lines().enumerate() {
                if let Some(name) = declared_name(line) {
                    declarations.push((name.to_owned(), format!("{shown}:{}", i + 1)));
                }
            }
        }
    }
    assert!(
        declarations.len() > 200,
        "the scan found only {} public items; is the walk still rooted at the workspace?",
        declarations.len()
    );

    let mut declared_times: HashMap<&str, usize> = HashMap::new();
    for (name, _) in &declarations {
        *declared_times.entry(name).or_default() += 1;
    }
    let unreferenced = |name: &str| {
        words.get(name).copied().unwrap_or(0) <= declared_times.get(name).copied().unwrap_or(0)
    };

    let mut dead: Vec<String> = declarations
        .iter()
        .filter(|(name, _)| unreferenced(name) && !ALLOWED.iter().any(|(a, _)| a == name))
        .map(|(name, at)| format!("{name} ({at})"))
        .collect();
    dead.sort();
    assert!(
        dead.is_empty(),
        "public items nothing references (delete them, or list them in ALLOWED with a reason):\n  {}",
        dead.join("\n  ")
    );

    let stale: Vec<&str> = ALLOWED
        .iter()
        .filter(|(name, reason)| {
            reason.is_empty() || !declared_times.contains_key(name) || !unreferenced(name)
        })
        .map(|(name, _)| *name)
        .collect();
    assert!(
        stale.is_empty(),
        "ALLOWED entries that are gone, now referenced, or give no reason: {stale:?}"
    );
}

#[test]
fn declaration_lines_are_recognised() {
    assert_eq!(declared_name("    pub fn step(&mut self) {"), Some("step"));
    assert_eq!(declared_name("pub const fn new() -> Self {"), Some("new"));
    assert_eq!(declared_name("pub unsafe fn raw() {"), Some("raw"));
    assert_eq!(declared_name("pub struct Unit;"), Some("Unit"));
    assert_eq!(declared_name("pub const E_GAP: f64 = 1.12;"), Some("E_GAP"));
    assert_eq!(
        declared_name("pub static mut COUNT: u32 = 0;"),
        Some("COUNT")
    );
    assert_eq!(declared_name("pub struct Netlist {"), Some("Netlist"));
    assert_eq!(declared_name("pub enum CellKind {"), Some("CellKind"));
    assert_eq!(declared_name("pub trait Engine: Send {"), Some("Engine"));
    assert_eq!(declared_name("pub type Word = u64;"), Some("Word"));
    assert_eq!(declared_name("pub(crate) fn hidden() {}"), None);
    assert_eq!(declared_name("pub use steal::fan_out;"), None);
    assert_eq!(declared_name("pub mod seq;"), None);
    assert_eq!(declared_name("    pub e_c: Vec<f64>,"), None);
    assert_eq!(declared_name("    pub fn $name(&self) {"), None);
    assert_eq!(declared_name("/// pub fn in a doc comment"), None);
}
