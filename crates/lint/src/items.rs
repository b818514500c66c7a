//! Item extraction over a lexed token stream.
//!
//! Produces every `fn` item in a file together with the context the
//! call-graph needs: the surrounding `impl` type (so `FastEngine::refill`
//! and `ReferenceEngine::think_time` are distinct nodes even though both
//! impl blocks define `think_time`), whether the function takes `self`
//! (method-call resolution), whether it lives in test code
//! (`#[cfg(test)]` modules/items and `#[test]` functions are excluded
//! from every production check), and the exact token range of its body.
//!
//! Because the stream comes from the real lexer, a `"{"` inside a string
//! literal or a commented-out `fn` cannot derail brace matching — the
//! failure mode of the old `fn_bodies` heuristic.

use crate::lexer::{Token, TokenKind};

/// One extracted `fn` item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Enclosing `impl` self-type (first path segment), if any.
    pub impl_type: Option<String>,
    /// Whether the first parameter is (some form of) `self`.
    pub has_self: bool,
    /// Whether the item is test-only code (`#[cfg(test)]` region or a
    /// `#[test]` function).
    pub is_test: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index range of the body, **braces included** — empty for
    /// bodiless trait method declarations.
    pub body: core::ops::Range<usize>,
}

impl FnItem {
    /// `Type::name` when inside an impl block, otherwise just `name`.
    #[must_use]
    pub fn qualified_name(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Skips a balanced `{ … }` starting at `open` (which must index a `{`
/// token); returns the index one past the matching `}`. Tolerates
/// unbalanced input by running to the end of the stream.
fn skip_braces(tokens: &[Token<'_>], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].kind == TokenKind::Punct {
            match tokens[i].text {
                "{" => depth += 1,
                "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
        }
        i += 1;
    }
    tokens.len()
}

/// Parses the attribute starting at `i` (which must index a `#`);
/// returns `(end_index, attribute_text)`.
fn parse_attribute(tokens: &[Token<'_>], i: usize) -> (usize, String) {
    let mut j = i + 1;
    // Optional inner-attribute bang.
    if tokens.get(j).is_some_and(|t| t.text == "!") {
        j += 1;
    }
    let mut text = String::new();
    if tokens.get(j).is_some_and(|t| t.text == "[") {
        let mut depth = 0usize;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.kind == TokenKind::Punct {
                match t.text {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            return (j + 1, text);
                        }
                    }
                    _ => {}
                }
            }
            if depth >= 1 && !(depth == 1 && t.text == "[") {
                text.push_str(t.text);
            }
            j += 1;
        }
    }
    (j, text)
}

/// The impl self-type: first identifier of the type after `impl`
/// generics (and after `for`, when the block is a trait impl).
fn impl_self_type(tokens: &[Token<'_>], impl_idx: usize, open_brace: usize) -> Option<String> {
    let mut i = impl_idx + 1;
    // Skip `<…>` generic parameters directly after `impl`.
    if tokens.get(i).is_some_and(|t| t.text == "<") {
        let mut depth = 0i32;
        while i < open_brace {
            match tokens[i].text {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    // If a `for` appears before the brace, the self type follows it.
    let for_idx =
        (i..open_brace).find(|&j| tokens[j].kind == TokenKind::Ident && tokens[j].text == "for");
    let from = for_idx.map_or(i, |j| j + 1);
    (from..open_brace)
        .find(|&j| tokens[j].kind == TokenKind::Ident)
        .map(|j| {
            // Take the *last* segment of a path like `crate::plane::AgentMask`.
            let mut seg = j;
            let mut k = j + 1;
            while k + 1 < open_brace && tokens[k].text == ":" && tokens[k + 1].text == ":" {
                if let Some(t) = tokens.get(k + 2) {
                    if t.kind == TokenKind::Ident {
                        seg = k + 2;
                        k += 3;
                        continue;
                    }
                }
                break;
            }
            tokens[seg].text.to_string()
        })
}

/// Whether the parameter list opening at `open_paren` starts with a
/// `self` parameter (`self`, `&self`, `&mut self`, `mut self`,
/// `self: Pin<&mut Self>`).
fn first_param_is_self(tokens: &[Token<'_>], open_paren: usize) -> bool {
    let mut i = open_paren + 1;
    let mut depth = 1usize;
    while i < tokens.len() && depth > 0 {
        let t = &tokens[i];
        if t.kind == TokenKind::Punct {
            match t.text {
                "(" => depth += 1,
                ")" => depth -= 1,
                "," if depth == 1 => return false,
                _ => {}
            }
        }
        if depth == 1 && t.kind == TokenKind::Ident && t.text != "mut" {
            return t.text == "self";
        }
        i += 1;
    }
    false
}

/// Token-index spans covered by `#[cfg(test)]` braced items or `#[test]`
/// functions — the regions the workspace panic policy exempts. Exposed
/// for `cargo xtask lint`'s unwrap scan, which needs the *regions*
/// rather than per-fn classification (a test module can hold unwraps
/// outside any fn, e.g. in a `const` table).
#[must_use]
pub fn test_spans(tokens: &[Token<'_>]) -> Vec<core::ops::Range<usize>> {
    let mut spans = Vec::new();
    let mut pending: Vec<String> = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind == TokenKind::Punct && t.text == "#" {
            let (end, text) = parse_attribute(tokens, i);
            pending.push(text);
            i = end;
            continue;
        }
        if t.kind == TokenKind::Ident {
            match t.text {
                "impl" | "mod" | "struct" | "enum" | "trait" | "union" | "fn" => {
                    let test = pending.iter().any(|a| a.contains("cfg(test)"))
                        || (t.text == "fn"
                            && pending
                                .iter()
                                .any(|a| a == "test" || a.starts_with("test(")));
                    pending.clear();
                    if test {
                        let mut j = i;
                        while j < tokens.len() && tokens[j].text != "{" && tokens[j].text != ";" {
                            j += 1;
                        }
                        if tokens.get(j).is_some_and(|t| t.text == "{") {
                            let end = skip_braces(tokens, j);
                            spans.push(i..end);
                            i = end;
                            continue;
                        }
                    }
                }
                "use" | "static" | "const" | "let" | "macro_rules" => pending.clear(),
                _ => {}
            }
        }
        i += 1;
    }
    spans
}

/// Extracts every `fn` item from `tokens`.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn parse_items(tokens: &[Token<'_>]) -> Vec<FnItem> {
    let mut items = Vec::new();
    // Stack of (close_token_index, impl_type) for impl blocks we are
    // inside of, plus test-region spans by token index.
    let mut impl_stack: Vec<(usize, Option<String>)> = Vec::new();
    let mut test_regions: Vec<core::ops::Range<usize>> = Vec::new();
    let mut pending_attrs: Vec<String> = Vec::new();
    let mut i = 0usize;

    let in_test =
        |regions: &[core::ops::Range<usize>], idx: usize| regions.iter().any(|r| r.contains(&idx));

    while i < tokens.len() {
        let t = &tokens[i];
        impl_stack.retain(|(close, _)| *close > i);

        if t.kind == TokenKind::Punct && t.text == "#" {
            let (end, text) = parse_attribute(tokens, i);
            pending_attrs.push(text);
            i = end;
            continue;
        }

        if t.kind == TokenKind::Ident {
            match t.text {
                "impl" => {
                    // Find the block's open brace: first `{` at
                    // angle/paren-agnostic scan (an impl header contains
                    // no braces).
                    let open = (i..tokens.len()).find(|&j| tokens[j].text == "{");
                    if let Some(open) = open {
                        let close = skip_braces(tokens, open);
                        let ty = impl_self_type(tokens, i, open);
                        if pending_attrs.iter().any(|a| a.contains("cfg(test)")) {
                            test_regions.push(i..close);
                        }
                        impl_stack.push((close, ty));
                        pending_attrs.clear();
                        i = open + 1;
                        continue;
                    }
                }
                "mod" | "struct" | "enum" | "trait" | "union" => {
                    // A `#[cfg(test)]` on any braced item marks the whole
                    // item as a test region. (Braceless `mod name;` and
                    // tuple structs end at `;`.)
                    if pending_attrs.iter().any(|a| a.contains("cfg(test)")) {
                        let mut j = i;
                        while j < tokens.len() && tokens[j].text != "{" && tokens[j].text != ";" {
                            j += 1;
                        }
                        if tokens.get(j).is_some_and(|t| t.text == "{") {
                            test_regions.push(i..skip_braces(tokens, j));
                        }
                    }
                    pending_attrs.clear();
                }
                "fn" => {
                    let is_test_attr = pending_attrs
                        .iter()
                        .any(|a| a.contains("cfg(test)") || a == "test" || a.starts_with("test("));
                    let Some(name_tok) = tokens.get(i + 1) else {
                        break;
                    };
                    if name_tok.kind != TokenKind::Ident {
                        pending_attrs.clear();
                        i += 1;
                        continue;
                    }
                    // Signature: runs to the first `{` (body) or `;`
                    // (bodiless trait declaration) at paren depth 0.
                    let mut j = i + 2;
                    let mut paren_depth = 0usize;
                    let mut open_paren = None;
                    let mut body_open = None;
                    while j < tokens.len() {
                        let s = &tokens[j];
                        if s.kind == TokenKind::Punct {
                            match s.text {
                                "(" => {
                                    if paren_depth == 0 && open_paren.is_none() {
                                        open_paren = Some(j);
                                    }
                                    paren_depth += 1;
                                }
                                ")" => paren_depth = paren_depth.saturating_sub(1),
                                ";" if paren_depth == 0 => break,
                                "{" if paren_depth == 0 => {
                                    body_open = Some(j);
                                    break;
                                }
                                _ => {}
                            }
                        }
                        j += 1;
                    }
                    let body = match body_open {
                        Some(open) => open..skip_braces(tokens, open),
                        None => j..j,
                    };
                    let region_test = is_test_attr || in_test(&test_regions, i);
                    if is_test_attr && !body.is_empty() {
                        test_regions.push(i..body.end);
                    }
                    items.push(FnItem {
                        name: name_tok.text.to_string(),
                        impl_type: impl_stack.last().and_then(|(_, ty)| ty.clone()),
                        has_self: open_paren.is_some_and(|p| first_param_is_self(tokens, p)),
                        is_test: region_test,
                        line: t.line,
                        body,
                    });
                    pending_attrs.clear();
                    // Continue scanning *inside* the body too: nested
                    // fns and closures containing fns are still items.
                    i += 2;
                    continue;
                }
                _ => {
                    // Any other item-ish token consumes pending attrs
                    // (`use`, `static`, `const`, `let`, …) so a stray
                    // `#[cfg(test)]` cannot leak onto a later fn.
                    if matches!(
                        t.text,
                        "use" | "static" | "const" | "let" | "pub" | "macro_rules"
                    ) && !pending_attrs.is_empty()
                        && t.text != "pub"
                    {
                        pending_attrs.clear();
                    }
                }
            }
        }
        i += 1;
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn items(src: &str) -> Vec<FnItem> {
        parse_items(&lex(src))
    }

    #[test]
    fn brace_in_string_does_not_derail_body_extraction() {
        let src = r#"
fn hot() -> &'static str { let s = "{"; s }
fn next() { vec![1]; }
"#;
        let its = items(src);
        assert_eq!(its.len(), 2);
        assert_eq!(its[0].name, "hot");
        assert_eq!(its[1].name, "next");
        // `hot`'s body must end before `next` begins.
        assert!(its[0].body.end <= its[1].body.start);
    }

    #[test]
    fn impl_context_disambiguates_same_named_methods() {
        let src = "
impl FastEngine { fn think_time(&mut self) {} }
impl ReferenceEngine { fn think_time(&mut self) {} }
";
        let its = items(src);
        assert_eq!(its.len(), 2);
        assert_eq!(its[0].qualified_name(), "FastEngine::think_time");
        assert_eq!(its[1].qualified_name(), "ReferenceEngine::think_time");
        assert!(its[0].has_self && its[1].has_self);
    }

    #[test]
    fn trait_impl_and_generic_impl_self_types() {
        let src = "
impl<A: Arbiter + ?Sized> Arbiter for Box<A> { fn name(&self) {} }
impl<const W: usize> CalendarQueue<W> { fn pop(&mut self) {} }
impl crate::plane::AgentMask { fn words(&self) {} }
";
        let its = items(src);
        assert_eq!(its[0].impl_type.as_deref(), Some("Box"));
        assert_eq!(its[1].impl_type.as_deref(), Some("CalendarQueue"));
        assert_eq!(its[2].impl_type.as_deref(), Some("AgentMask"));
    }

    #[test]
    fn cfg_test_module_marks_fns_as_test() {
        let src = "
fn prod() {}
#[cfg(test)]
mod tests {
    fn helper() {}
    #[test]
    fn case() {}
}
fn prod2() {}
";
        let its = items(src);
        let by_name = |n: &str| its.iter().find(|i| i.name == n).expect(n);
        assert!(!by_name("prod").is_test);
        assert!(by_name("helper").is_test);
        assert!(by_name("case").is_test);
        assert!(!by_name("prod2").is_test);
    }

    #[test]
    fn test_attribute_alone_marks_fn_as_test() {
        let src = "#[test]\nfn case() {}\nfn prod() {}";
        let its = items(src);
        assert!(its[0].is_test);
        assert!(!its[1].is_test);
    }

    #[test]
    fn cfg_test_in_comment_or_string_is_inert() {
        let src = "
// #[cfg(test)] — documentation only
fn prod() { let s = \"#[cfg(test)]\"; drop(s); }
fn also_prod() {}
";
        let its = items(src);
        assert!(its.iter().all(|i| !i.is_test));
    }

    #[test]
    fn bodiless_trait_declaration_has_empty_body() {
        let src = "trait T { fn on_event(&mut self, e: &E); }\nfn factory() { Box::new(1); }";
        let its = items(src);
        let decl = its.iter().find(|i| i.name == "on_event").expect("decl");
        assert!(decl.body.is_empty());
        let factory = its.iter().find(|i| i.name == "factory").expect("factory");
        assert!(!factory.body.is_empty());
    }

    #[test]
    fn has_self_detection() {
        let src = "
impl X {
    fn a(&self) {}
    fn b(&mut self, n: u32) {}
    fn c(mut self) {}
    fn d(n: u32) {}
    fn e() {}
}
";
        let its = items(src);
        let f = |n: &str| its.iter().find(|i| i.name == n).expect(n).has_self;
        assert!(f("a") && f("b") && f("c"));
        assert!(!f("d") && !f("e"));
    }

    #[test]
    fn commented_out_fn_is_not_an_item() {
        let src = "// fn ghost() { Vec::new(); }\nfn real() {}";
        let its = items(src);
        assert_eq!(its.len(), 1);
        assert_eq!(its[0].name, "real");
    }

    #[test]
    fn where_clause_and_return_type_before_body() {
        let src = "fn f<T>(x: T) -> Vec<T> where T: Clone { vec![x] }";
        let its = items(src);
        assert_eq!(its.len(), 1);
        assert!(!its[0].body.is_empty());
    }
}
