//! Workspace call graph over extracted [`FnItem`]s.
//!
//! Call-site extraction walks each function's body tokens and records
//! three call shapes plus macro invocations:
//!
//! * **free calls** — `name(…)`;
//! * **method calls** — `.name(…)`, turbofish tolerated
//!   (`.collect::<AgentSet>(…)` keeps its turbofish text so the
//!   purity check can allow the bit-set case);
//! * **path calls** — `Qual::name(…)`, with the full path retained
//!   (`Vec::new` is an allocation sink even though `Vec` is not a
//!   workspace type);
//! * **macro calls** — `name!(…)` / `name![…]` / `name!{…}`.
//!
//! Resolution is name-based and deliberately over-approximate — this is
//! a lint, not a compiler: a method call `.push(…)` resolves to every
//! workspace `fn push(&self…)` in scope. Three things keep the
//! over-approximation useful: path calls resolve through their
//! qualifier (`FastEngine::refill` only reaches the `FastEngine` impl;
//! `Self::x` stays inside the caller's impl), resolution is restricted
//! to the crates the hot loop can actually link against
//! (`Config::graph_paths`), and anything still spurious is visible in
//! the committed baseline rather than silently ignored.

use crate::items::FnItem;
use crate::lexer::{Token, TokenKind};

/// Primitive-type qualifiers: lowercase like modules, but `u64::from(…)`
/// never resolves to a workspace fn.
const PRIMITIVES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64", "bool", "char", "str",
];

/// The shape of one call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `name(…)`.
    Free,
    /// `.name(…)`; the `Option` holds turbofish text (`AgentSet` for
    /// `.collect::<AgentSet>()`).
    Method(Option<String>),
    /// `qual::name(…)` — qualifier is the last path segment before the
    /// name; `full` is the whole dotted-out path (`Vec::new`).
    Path {
        /// Last path segment before the called name.
        qual: String,
        /// Full `::`-joined path text.
        full: String,
    },
    /// `name!(…)`.
    Macro,
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Called name (method/function/macro name; last path segment).
    pub name: String,
    /// Call shape.
    pub kind: CallKind,
    /// 1-based source line.
    pub line: u32,
}

/// Extracts every call site from the token slice of one function body.
#[must_use]
pub fn call_sites(tokens: &[Token<'_>]) -> Vec<CallSite> {
    let code: Vec<&Token<'_>> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut sites = Vec::new();
    let at = |j: usize| code.get(j).copied();
    let is_pathsep =
        |j: usize| at(j).is_some_and(|t| t.text == ":") && at(j + 1).is_some_and(|t| t.text == ":");

    let mut i = 0usize;
    while i < code.len() {
        let t = code[i];
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        // Look ahead: optional turbofish `::<…>` then an open delimiter.
        let mut j = i + 1;
        let mut turbofish = None;
        if is_pathsep(j) && at(j + 2).is_some_and(|t| t.text == "<") {
            let mut depth = 0i32;
            let mut text = String::new();
            let mut k = j + 2;
            while let Some(tok) = at(k) {
                match tok.text {
                    "<" => depth += 1,
                    ">" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {
                        if depth >= 1 {
                            text.push_str(tok.text);
                        }
                    }
                }
                k += 1;
            }
            turbofish = Some(text);
            j = k + 1;
        }

        let next = at(j);
        let is_macro = turbofish.is_none()
            && next.is_some_and(|t| t.text == "!")
            && at(j + 1).is_some_and(|t| matches!(t.text, "(" | "[" | "{"));
        let is_call = next.is_some_and(|t| t.text == "(");
        if !is_macro && !is_call {
            i += 1;
            continue;
        }

        let name = t.text.to_string();
        let kind = if is_macro {
            CallKind::Macro
        } else if i >= 1 && code[i - 1].text == "." {
            CallKind::Method(turbofish)
        } else if i >= 2 && is_pathsep(i - 2) {
            // Walk the path backwards: `a::b::name(` → qual `b`,
            // full `a::b::name`.
            let mut segs = vec![t.text];
            let mut k = i;
            while k >= 2 && is_pathsep(k - 2) && k >= 3 && code[k - 3].kind == TokenKind::Ident {
                segs.push(code[k - 3].text);
                k -= 3;
            }
            segs.reverse();
            if segs.len() >= 2 {
                CallKind::Path {
                    qual: segs[segs.len() - 2].to_string(),
                    full: segs.join("::"),
                }
            } else {
                // `::name(` with no leading ident (e.g. `<T>::name`).
                CallKind::Free
            }
        } else {
            CallKind::Free
        };
        sites.push(CallSite {
            name,
            kind,
            line: t.line,
        });
        i += 1;
    }
    sites
}

/// A function node in the workspace graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FnId {
    /// Index of the file in the workspace file list.
    pub file: usize,
    /// Index of the item within that file's [`FnItem`] list.
    pub item: usize,
}

/// The resolved workspace call graph.
pub struct CallGraph {
    /// Per-file, per-item call sites (parallel to the items lists).
    pub sites: Vec<Vec<Vec<CallSite>>>,
    /// Resolved edges per node.
    pub edges: std::collections::BTreeMap<FnId, Vec<FnId>>,
}

/// Per-file inputs to graph construction.
pub struct FileFns<'a> {
    /// Workspace-relative path.
    pub path: &'a str,
    /// Lexed tokens of the whole file.
    pub tokens: &'a [Token<'a>],
    /// Extracted items.
    pub items: &'a [FnItem],
    /// Whether this file's fns may be *resolution targets* (the hot
    /// loop can link against them). Files outside the graph scope
    /// still get their call sites extracted (so checks can scan them)
    /// but are never resolved *into*.
    pub resolvable: bool,
}

impl CallGraph {
    /// Builds the graph: extracts call sites for every non-test item
    /// and resolves them against the resolvable subset of the
    /// workspace.
    #[must_use]
    pub fn build(files: &[FileFns<'_>]) -> Self {
        // Index resolvable targets by name.
        let mut by_name: std::collections::BTreeMap<&str, Vec<FnId>> =
            std::collections::BTreeMap::new();
        for (fi, f) in files.iter().enumerate() {
            if !f.resolvable {
                continue;
            }
            for (ii, item) in f.items.iter().enumerate() {
                if item.is_test {
                    continue;
                }
                by_name
                    .entry(item.name.as_str())
                    .or_default()
                    .push(FnId { file: fi, item: ii });
            }
        }
        let item_of = |id: FnId| &files[id.file].items[id.item];

        let mut sites: Vec<Vec<Vec<CallSite>>> = Vec::with_capacity(files.len());
        let mut edges: std::collections::BTreeMap<FnId, Vec<FnId>> =
            std::collections::BTreeMap::new();
        for (fi, f) in files.iter().enumerate() {
            let mut file_sites = Vec::with_capacity(f.items.len());
            for (ii, item) in f.items.iter().enumerate() {
                let body = &f.tokens[item.body.clone()];
                let item_sites = call_sites(body);
                if !item.is_test {
                    let id = FnId { file: fi, item: ii };
                    let mut out = Vec::new();
                    for site in &item_sites {
                        let candidates = by_name.get(site.name.as_str());
                        let Some(candidates) = candidates else {
                            continue;
                        };
                        match &site.kind {
                            CallKind::Macro => {}
                            CallKind::Method(_) => {
                                out.extend(
                                    candidates.iter().filter(|&&c| item_of(c).has_self).copied(),
                                );
                            }
                            CallKind::Free => {
                                out.extend(
                                    candidates
                                        .iter()
                                        .filter(|&&c| !item_of(c).has_self)
                                        .copied(),
                                );
                            }
                            CallKind::Path { qual, .. } => {
                                let qual: &str = if qual == "Self" {
                                    item.impl_type.as_deref().unwrap_or("Self")
                                } else {
                                    qual
                                };
                                let is_type_qual =
                                    qual.chars().next().is_some_and(char::is_uppercase);
                                if is_type_qual {
                                    // `Type::assoc(…)` — only that
                                    // impl's items.
                                    out.extend(
                                        candidates
                                            .iter()
                                            .filter(|&&c| {
                                                item_of(c).impl_type.as_deref() == Some(qual)
                                            })
                                            .copied(),
                                    );
                                } else if !PRIMITIVES.contains(&qual) {
                                    // Module-qualified free call
                                    // (`plane::word_of(…)`). A module
                                    // path cannot name an inherent
                                    // associated fn, so impl members are
                                    // excluded — otherwise `u64::from(x)`
                                    // would link every `impl From` in
                                    // the workspace.
                                    out.extend(
                                        candidates
                                            .iter()
                                            .filter(|&&c| {
                                                let it = item_of(c);
                                                !it.has_self && it.impl_type.is_none()
                                            })
                                            .copied(),
                                    );
                                }
                            }
                        }
                    }
                    out.sort_unstable();
                    out.dedup();
                    edges.insert(id, out);
                }
                file_sites.push(item_sites);
            }
            sites.push(file_sites);
        }
        CallGraph { sites, edges }
    }

    /// BFS from `roots`; returns every reachable node mapped to its
    /// predecessor on one shortest path (roots map to themselves).
    #[must_use]
    pub fn reachable(&self, roots: &[FnId]) -> std::collections::BTreeMap<FnId, FnId> {
        let mut parent: std::collections::BTreeMap<FnId, FnId> = std::collections::BTreeMap::new();
        let mut queue: std::collections::VecDeque<FnId> = std::collections::VecDeque::new();
        for &r in roots {
            if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(r) {
                e.insert(r);
                queue.push_back(r);
            }
        }
        while let Some(n) = queue.pop_front() {
            if let Some(next) = self.edges.get(&n) {
                for &m in next {
                    if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(m) {
                        e.insert(n);
                        queue.push_back(m);
                    }
                }
            }
        }
        parent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;
    use crate::lexer::lex;

    #[test]
    fn call_shapes_are_classified() {
        let toks = lex("{ helper(); x.method(); Vec::new(); plane::word_of(i); fmt!(\"x\"); it.collect::<AgentSet>(); }");
        let sites = call_sites(&toks);
        let find = |n: &str| sites.iter().find(|s| s.name == n).expect(n);
        assert_eq!(find("helper").kind, CallKind::Free);
        assert_eq!(find("method").kind, CallKind::Method(None));
        assert_eq!(
            find("new").kind,
            CallKind::Path {
                qual: "Vec".into(),
                full: "Vec::new".into()
            }
        );
        assert_eq!(
            find("word_of").kind,
            CallKind::Path {
                qual: "plane".into(),
                full: "plane::word_of".into()
            }
        );
        assert_eq!(find("fmt").kind, CallKind::Macro);
        assert_eq!(
            find("collect").kind,
            CallKind::Method(Some("AgentSet".into()))
        );
    }

    #[test]
    fn commented_calls_are_invisible() {
        let toks = lex("{ // Vec::new()\n /* helper() */ real(); }");
        let sites = call_sites(&toks);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].name, "real");
    }

    fn graph_of(files: &[(&str, &str)]) -> (Vec<Vec<crate::items::FnItem>>, CallGraph) {
        let lexed: Vec<_> = files.iter().map(|(_, src)| lex(src)).collect();
        let items: Vec<_> = lexed.iter().map(|t| parse_items(t)).collect();
        let fns: Vec<FileFns<'_>> = files
            .iter()
            .zip(&lexed)
            .zip(&items)
            .map(|(((path, _), tokens), items)| FileFns {
                path,
                tokens,
                items,
                resolvable: true,
            })
            .collect();
        let graph = CallGraph::build(&fns);
        (items, graph)
    }

    #[test]
    fn transitive_reachability_through_helpers() {
        let (items, graph) = graph_of(&[
            ("a.rs", "fn root() { helper(); }"),
            (
                "b.rs",
                "fn helper() { deep(); }\nfn deep() {}\nfn unrelated() {}",
            ),
        ]);
        let root = FnId { file: 0, item: 0 };
        let reach = graph.reachable(&[root]);
        let names: Vec<&str> = reach
            .keys()
            .map(|id| items[id.file][id.item].name.as_str())
            .collect();
        assert!(names.contains(&"root") && names.contains(&"helper") && names.contains(&"deep"));
        assert!(!names.contains(&"unrelated"));
    }

    #[test]
    fn path_qualifier_scopes_resolution_to_one_impl() {
        let (items, graph) = graph_of(&[(
            "e.rs",
            "impl Fast { fn go(&self) { Fast::inner(); } fn inner() {} }\n\
             impl Slow { fn inner() { } }",
        )]);
        let go = FnId { file: 0, item: 0 };
        let reach = graph.reachable(&[go]);
        let quals: Vec<String> = reach
            .keys()
            .map(|id| items[id.file][id.item].qualified_name())
            .collect();
        assert!(quals.contains(&"Fast::inner".to_string()));
        assert!(!quals.contains(&"Slow::inner".to_string()));
    }

    #[test]
    fn self_calls_stay_in_their_impl() {
        let (items, graph) = graph_of(&[(
            "e.rs",
            "impl Fast { fn go(&self) { Self::inner(); } fn inner() {} }\n\
             impl Slow { fn inner() {} }",
        )]);
        let reach = graph.reachable(&[FnId { file: 0, item: 0 }]);
        let quals: Vec<String> = reach
            .keys()
            .map(|id| items[id.file][id.item].qualified_name())
            .collect();
        assert!(quals.contains(&"Fast::inner".to_string()));
        assert!(!quals.contains(&"Slow::inner".to_string()));
    }

    #[test]
    fn unresolvable_files_are_not_targets() {
        let lexed_a = lex("fn root() { helper(); }");
        let lexed_b = lex("fn helper() { }");
        let items_a = parse_items(&lexed_a);
        let items_b = parse_items(&lexed_b);
        let graph = CallGraph::build(&[
            FileFns {
                path: "a.rs",
                tokens: &lexed_a,
                items: &items_a,
                resolvable: true,
            },
            FileFns {
                path: "b.rs",
                tokens: &lexed_b,
                items: &items_b,
                resolvable: false,
            },
        ]);
        let reach = graph.reachable(&[FnId { file: 0, item: 0 }]);
        assert_eq!(reach.len(), 1, "helper outside graph scope is not reached");
    }

    #[test]
    fn test_items_do_not_resolve_or_emit_edges() {
        let (_, graph) = graph_of(&[(
            "a.rs",
            "fn root() { helper(); }\n#[cfg(test)]\nmod t { fn helper() {} }",
        )]);
        let reach = graph.reachable(&[FnId { file: 0, item: 0 }]);
        assert_eq!(reach.len(), 1);
    }
}
