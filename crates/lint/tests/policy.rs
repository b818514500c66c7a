//! The panic/unsafe policy checks, migrated from the retired `xtask`
//! string heuristics: bare `.unwrap()` in library code and a missing
//! `#![forbid(unsafe_code)]` crate root are engine findings now, with
//! the same exemptions the heuristics had (binaries, `main.rs`, test
//! regions) — plus the lexer accuracy the heuristics lacked (doc
//! comments and string literals never count).

use busarb_lint::{run, Baseline, Config, Finding, SourceFile, Workspace};

fn findings_for(files: Vec<(&str, &str)>) -> Vec<Finding> {
    let ws = Workspace::from_files(
        files
            .into_iter()
            .map(|(path, text)| SourceFile {
                path: path.to_string(),
                text: text.to_string(),
            })
            .collect(),
    );
    let cfg = Config {
        enum_name: "ProtocolKind".to_string(),
        variants: vec![],
        slugs: vec![],
        graph_paths: vec![],
        hot_roots: vec![],
        fast_math_roots: vec![],
        runner_roots: vec![],
        determinism_paths: vec![],
        variant_sites: vec![],
        slug_sites: vec![],
        match_sites: vec![],
    };
    run(&ws, &cfg, &Baseline::empty()).open
}

#[test]
fn bare_unwrap_in_library_code_is_a_finding() {
    let open = findings_for(vec![(
        "crates/toy/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
    )]);
    assert_eq!(open.len(), 1, "{open:?}");
    assert_eq!(open[0].check, "unwrap-policy");
    assert_eq!(open[0].line, 2);
    assert_eq!(open[0].symbol, "f");
}

#[test]
fn unwrap_exemptions_match_the_policy() {
    // Binaries, main.rs, test regions, doc comments, and string
    // literals are all exempt; `.expect(...)` always is.
    let open = findings_for(vec![
        (
            "crates/toy/src/bin/tool.rs",
            "fn main() { std::env::args().next().unwrap(); }\n",
        ),
        ("crates/toy/src/main.rs", "fn main() { x().unwrap(); }\n"),
        (
            "crates/toy/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             //! doc: prefer .expect() over .unwrap()\n\
             pub fn f(x: Option<u32>) -> u32 { x.expect(\"caller checked; .unwrap() banned\") }\n\
             #[cfg(test)]\nmod tests { #[test] fn t() { super::f(Some(1)); Some(2).unwrap(); } }\n",
        ),
    ]);
    assert_eq!(open, vec![], "exempt contexts must not fire");
}

#[test]
fn a_crate_root_without_forbid_unsafe_is_a_finding() {
    let open = findings_for(vec![(
        "crates/toy/src/lib.rs",
        "//! A crate that forgot the policy.\npub fn f() {}\n",
    )]);
    assert_eq!(open.len(), 1, "{open:?}");
    assert_eq!(open[0].check, "forbid-unsafe");
    assert_eq!(open[0].line, 0, "file-scoped finding");
    // Mentioning the attribute in a comment is not carrying it.
    let open = findings_for(vec![(
        "crates/toy/src/lib.rs",
        "//! TODO: add #![forbid(unsafe_code)] someday.\npub fn f() {}\n",
    )]);
    assert_eq!(open.len(), 1, "{open:?}");
    assert_eq!(open[0].check, "forbid-unsafe");
    // Non-root modules are out of scope.
    let open = findings_for(vec![("crates/toy/src/inner.rs", "pub fn f() {}\n")]);
    assert_eq!(open, vec![]);
}
