//! Structural model of one stripped source file: function spans from
//! brace-depth tracking, `#[cfg(test)]` module regions, and the parsed
//! `bdslint: allow(...)` annotations.
//!
//! Like the lexer, this is deliberately shallow — no AST, just enough
//! bracket accounting to answer "which function is line N in?" and "is
//! line N test code?". Closures and nested items are handled by the
//! same depth bookkeeping: the innermost enclosing `fn` wins.

use crate::lexer::Stripped;

/// One `fn` item: its name, where the declaration starts, and the
/// half-open body span in 0-based line indices.
#[derive(Debug)]
pub struct FnSpan {
    pub name: String,
    /// Line of the `fn` keyword (0-based).
    pub decl_line: usize,
    /// Line of the opening body brace.
    pub body_open_line: usize,
    /// Column just past the opening brace on `body_open_line`.
    pub body_open_col: usize,
    /// Line of the closing brace (inclusive).
    pub body_end_line: usize,
}

impl FnSpan {
    /// True when (`line`, `col`) lies inside the body, after the open brace.
    pub fn contains(&self, line: usize, col: usize) -> bool {
        if line < self.body_open_line || line > self.body_end_line {
            return false;
        }
        if line == self.body_open_line {
            col >= self.body_open_col
        } else {
            true
        }
    }
}

/// A `// bdslint: allow(rule, ...) -- reason` annotation on one line.
#[derive(Debug)]
pub struct Allow {
    pub line: usize,
    pub rules: Vec<String>,
    pub reason: bool,
    /// Set when the comment contains a `bdslint:` marker that did not
    /// parse as a well-formed allow annotation.
    pub malformed: bool,
}

/// Everything the rules need to know about one file.
pub struct FileModel {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    pub code: Vec<String>,
    pub comments: Vec<String>,
    pub fns: Vec<FnSpan>,
    /// True for lines inside a `#[cfg(test)]` module (or when the whole
    /// file is a test/bench target).
    pub is_test: Vec<bool>,
    pub allows: Vec<Allow>,
}

impl FileModel {
    pub fn build(path: String, stripped: Stripped, whole_file_is_test: bool) -> FileModel {
        let fns = find_fns(&stripped.code);
        let is_test = if whole_file_is_test {
            vec![true; stripped.code.len()]
        } else {
            test_regions(&stripped.code)
        };
        let allows = parse_allows(&stripped.comments);
        FileModel {
            path,
            code: stripped.code,
            comments: stripped.comments,
            fns,
            is_test,
            allows,
        }
    }

    /// The innermost function containing (`line`, `col`), if any.
    pub fn enclosing_fn(&self, line: usize, col: usize) -> Option<&FnSpan> {
        // Spans are emitted in open order; the last containing span is
        // the innermost.
        self.fns.iter().rfind(|f| f.contains(line, col))
    }

    /// True when `line` (or the run of pure-comment/attribute lines
    /// directly above it) carries an annotation allowing `rule`.
    pub fn allowed(&self, rule: &str, line: usize) -> bool {
        if line >= self.code.len() {
            return false;
        }
        self.annotation_lines(line).any(|l| {
            self.allows
                .iter()
                .any(|a| a.line == l && a.reason && a.rules.iter().any(|r| r == rule))
        })
    }

    /// True when `line` or the comment block above carries `SAFETY:`.
    pub fn has_safety_comment(&self, line: usize) -> bool {
        if line >= self.code.len() {
            return false;
        }
        self.annotation_lines(line)
            .any(|l| self.comments[l].contains("SAFETY:"))
    }

    /// `line` itself plus the contiguous run of lines above it that are
    /// comments, attributes, or blank — the span where an annotation for
    /// `line` may legally sit.
    fn annotation_lines(&self, line: usize) -> impl Iterator<Item = usize> + '_ {
        let mut first = line;
        while first > 0 {
            let above = first - 1;
            let code = self.code[above].trim();
            let carrier = code.is_empty() || code.starts_with("#[");
            if carrier {
                first = above;
            } else {
                break;
            }
        }
        first..=line
    }
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Splits a cleaned line into word tokens and single-char punctuation.
/// Columns are byte offsets, matching the rule engine's `find`-based
/// searches.
fn tokens(line: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut word = String::new();
    let mut start = 0;
    for (col, c) in line.char_indices() {
        if is_ident(c) {
            if word.is_empty() {
                start = col;
            }
            word.push(c);
        } else {
            if !word.is_empty() {
                out.push((start, std::mem::take(&mut word)));
            }
            if !c.is_whitespace() {
                out.push((col, c.to_string()));
            }
        }
    }
    if !word.is_empty() {
        out.push((start, word));
    }
    out
}

fn find_fns(code: &[String]) -> Vec<FnSpan> {
    #[derive(Clone)]
    struct Open {
        name: String,
        decl_line: usize,
        body_open_line: usize,
        body_open_col: usize,
        depth_after_open: usize,
    }
    enum Pending {
        None,
        /// Saw `fn`, waiting for the name token.
        AwaitName(usize),
        /// Saw `fn name`, waiting for the body `{` (or `;` for a
        /// bodyless trait/extern declaration).
        AwaitBody(String, usize),
    }
    let mut depth = 0usize;
    let mut stack: Vec<Open> = Vec::new();
    let mut done: Vec<FnSpan> = Vec::new();
    let mut pending = Pending::None;
    for (lineno, line) in code.iter().enumerate() {
        for (col, tok) in tokens(line) {
            match tok.as_str() {
                // A `fn` while already awaiting a body brace is a
                // `fn(...)` pointer type inside the signature — ignore it.
                "fn" => {
                    if !matches!(pending, Pending::AwaitBody(..)) {
                        pending = Pending::AwaitName(lineno);
                    }
                }
                "{" => {
                    depth += 1;
                    if let Pending::AwaitBody(name, decl_line) =
                        std::mem::replace(&mut pending, Pending::None)
                    {
                        stack.push(Open {
                            name,
                            decl_line,
                            body_open_line: lineno,
                            body_open_col: col + 1,
                            depth_after_open: depth,
                        });
                    }
                }
                "}" => {
                    if let Some(open) = stack.last() {
                        if open.depth_after_open == depth {
                            let open = stack.pop().expect("non-empty: just peeked");
                            done.push(FnSpan {
                                name: open.name,
                                decl_line: open.decl_line,
                                body_open_line: open.body_open_line,
                                body_open_col: open.body_open_col,
                                body_end_line: lineno,
                            });
                        }
                    }
                    depth = depth.saturating_sub(1);
                }
                ";" => {
                    if matches!(pending, Pending::AwaitBody(..)) {
                        pending = Pending::None; // bodyless declaration
                    }
                }
                _ => match std::mem::replace(&mut pending, Pending::None) {
                    Pending::AwaitName(decl) => {
                        if tok
                            .chars()
                            .next()
                            .is_some_and(|c| c.is_alphabetic() || c == '_')
                        {
                            pending = Pending::AwaitBody(tok, decl);
                        }
                        // `fn(` pointer types and the like: not an item.
                    }
                    other => pending = other,
                },
            }
        }
    }
    // Emit in declaration order so iteration is stable.
    done.sort_by_key(|f| (f.decl_line, f.body_open_line));
    done
}

/// Marks every line inside a module that carries `#[cfg(test)]`.
fn test_regions(code: &[String]) -> Vec<bool> {
    let mut is_test = vec![false; code.len()];
    let mut depth = 0usize;
    // Depth at which each active test module opened.
    let mut test_open: Vec<usize> = Vec::new();
    // Armed after seeing #[cfg(test)], consumed by the next `mod`.
    let mut armed = false;
    let mut awaiting_mod_brace = false;
    for (lineno, line) in code.iter().enumerate() {
        if line.contains("#[cfg(test)]") {
            armed = true;
        }
        for (_, tok) in tokens(line) {
            match tok.as_str() {
                "mod" if armed => {
                    awaiting_mod_brace = true;
                    armed = false;
                }
                ";" => awaiting_mod_brace = false, // `mod name;` — out-of-line
                "{" => {
                    depth += 1;
                    if awaiting_mod_brace {
                        test_open.push(depth);
                        awaiting_mod_brace = false;
                    }
                }
                "}" => {
                    if test_open.last() == Some(&depth) {
                        test_open.pop();
                        is_test[lineno] = true; // the closing line itself
                    }
                    depth = depth.saturating_sub(1);
                }
                _ => {}
            }
        }
        if !test_open.is_empty() {
            is_test[lineno] = true;
        }
    }
    is_test
}

/// Parses `bdslint: allow(rule, ...) -- reason` annotations out of the
/// comment view.
///
/// Only a comment that *starts* with the `bdslint:` marker is an
/// annotation; prose that merely mentions the marker (docs, examples) is
/// ignored. Ignoring a mis-written annotation is safe in the deny
/// direction: the violation it meant to suppress simply stays visible.
fn parse_allows(comments: &[String]) -> Vec<Allow> {
    let mut out = Vec::new();
    for (lineno, comment) in comments.iter().enumerate() {
        let trimmed = comment.trim_start();
        let Some(rest) = trimmed.strip_prefix("bdslint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let malformed = |line| Allow {
            line,
            rules: Vec::new(),
            reason: false,
            malformed: true,
        };
        let Some(rest) = rest.strip_prefix("allow") else {
            out.push(malformed(lineno));
            continue;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix('(') else {
            out.push(malformed(lineno));
            continue;
        };
        let Some(close) = rest.find(')') else {
            out.push(malformed(lineno));
            continue;
        };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() {
            out.push(malformed(lineno));
            continue;
        }
        let tail = rest[close + 1..].trim_start();
        let reason = tail
            .strip_prefix("--")
            .map(str::trim)
            .is_some_and(|r| !r.is_empty());
        out.push(Allow {
            line: lineno,
            rules,
            reason,
            malformed: false,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::strip;

    fn model(src: &str) -> FileModel {
        FileModel::build("x.rs".into(), strip(src), false)
    }

    #[test]
    fn finds_nested_functions() {
        let m =
            model("impl Foo {\n    fn outer(&self) {\n        fn inner() {\n        }\n    }\n}\n");
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner"]);
        let inner = m.enclosing_fn(3, 0).expect("line 3 is inside inner");
        assert_eq!(inner.name, "inner");
    }

    #[test]
    fn bodyless_trait_methods_are_skipped() {
        let m = model("trait T {\n    fn decl(&self);\n    fn with_body(&self) {\n    }\n}\n");
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["with_body"]);
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let m = model("fn real(cb: fn(u32) -> u32) {\n    cb(1);\n}\n");
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["real"]);
    }

    #[test]
    fn cfg_test_module_is_marked() {
        let m = model("fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn prod2() {}\n");
        assert!(!m.is_test[0]);
        assert!(m.is_test[3]);
        assert!(!m.is_test[5]);
    }

    #[test]
    fn allow_annotations_parse() {
        let m = model(
            "a(); // bdslint: allow(panic-surface) -- reason here\nb(); // bdslint: allow(kernel-tick)\nc(); // bdslint: allownothing\n",
        );
        assert_eq!(m.allows.len(), 3);
        assert!(m.allows[0].reason && m.allows[0].rules == ["panic-surface"]);
        assert!(!m.allows[1].reason);
        assert!(m.allows[2].malformed);
        assert!(m.allowed("panic-surface", 0));
        assert!(
            !m.allowed("kernel-tick", 1),
            "allow without reason must not suppress"
        );
    }

    #[test]
    fn annotation_above_through_attributes() {
        let m = model("// bdslint: allow(kernel-tick) -- not a recursion\n#[inline]\nfn f() {}\n");
        assert!(m.allowed("kernel-tick", 2));
        assert!(!m.allowed("kernel-tick", 5));
    }

    #[test]
    fn safety_comment_above_unsafe() {
        let m =
            model("// SAFETY: always in bounds\nlet x = unsafe { *p };\nlet y = unsafe { *q };\n");
        assert!(m.has_safety_comment(1));
        assert!(!m.has_safety_comment(2));
    }
}
