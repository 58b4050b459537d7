//! The five workspace invariants `bdslint` enforces, plus the annotation
//! hygiene diagnostics.
//!
//! Every rule is deny-by-default: a violation is suppressed only by a
//! `// bdslint: allow(<rule>) -- <justification>` annotation on the
//! offending line (or the comment/attribute block directly above it, or
//! the declaration of the offending function for function-scoped rules).
//! An `allow` without a justification is itself a finding.
//!
//! See `crates/lint/README.md` for the catalogue of invariants and the
//! PRs that introduced them.

use crate::model::FileModel;

/// Rule identifiers, exactly as they appear in findings and in
/// `allow(...)` annotations.
pub const RULES: [&str; 6] = [
    KERNEL_TICK,
    PANIC_SURFACE,
    UNSAFE_SAFETY,
    TELEMETRY_LIVENESS,
    COMPLEMENT_CANONICAL,
    ANNOTATION,
];

pub const KERNEL_TICK: &str = "kernel-tick";
pub const COMPLEMENT_CANONICAL: &str = "complement-canonical";
pub const PANIC_SURFACE: &str = "panic-surface";
pub const UNSAFE_SAFETY: &str = "unsafe-safety";
pub const TELEMETRY_LIVENESS: &str = "telemetry-liveness";
/// Meta-rule: malformed/unjustified/unknown `bdslint:` annotations.
pub const ANNOTATION: &str = "annotation";

/// One diagnostic, printed as `file:line: rule: message`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub file: String,
    /// 1-based line number (0 for file- or config-level findings).
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// What to scan and which repo-specific registries to enforce. The
/// [`Config::default`] values describe *this* workspace; fixture tests
/// build narrower configs, and future subsystems extend the registries
/// here.
pub struct Config {
    /// Directory whose recursive kernels are governance-checked.
    pub kernel_dir: &'static str,
    /// Recursive kernel functions (inside `kernel_dir`) that must call
    /// `self.tick()?` before their first `mk` or self-recursion — the
    /// PR 6 cooperative-governance contract. Grow this list when adding
    /// a kernel.
    pub kernel_fns: &'static [&'static str],
    /// Files whose non-test code must be panic-free (governed kernel
    /// paths and the BLIF reader).
    pub panic_free_files: &'static [&'static str],
    /// Telemetry structs: every public field must be read outside the
    /// defining file, or it is a dead counter (the PR 4 bug class).
    /// Entries are `(struct name, defining file)`.
    pub telemetry_structs: &'static [(&'static str, &'static str)],
    /// Directory governed by the complement-canonicity rule: raw `Ref`
    /// construction (`Ref::new(` / `Ref::from_raw(`) is banned outside the
    /// registered constructor functions, because hand-built refs can put a
    /// complement bit on a 1-edge and break the canonical form (PR 8).
    /// Empty disables the rule (fixture roots for other rules).
    pub ref_ctor_dir: &'static str,
    /// The edge-encoding module itself — the one file that owns the bit
    /// layout and is exempt from the raw-construction ban.
    pub ref_encoding_file: &'static str,
    /// Functions (inside `ref_ctor_dir`) allowed to construct a `Ref`
    /// from raw parts: the hash-consing constructor, the computed-cache
    /// decoder, and the node→function view. Grow this list deliberately.
    pub ref_ctor_fns: &'static [&'static str],
}

impl Default for Config {
    fn default() -> Self {
        Config {
            kernel_dir: "crates/bdd/src",
            kernel_fns: &[
                "ite_rec",
                "and_rec",
                "xor_rec",
                "cofactor_rec",
                "restrict_rec",
                "replace_rec",
            ],
            panic_free_files: &[
                "crates/bdd/src/ops.rs",
                "crates/bdd/src/cofactor.rs",
                "crates/logic/src/blif.rs",
            ],
            telemetry_structs: &[
                ("CacheStats", "crates/bdd/src/manager.rs"),
                ("FlowReport", "crates/decomp/src/engine.rs"),
            ],
            ref_ctor_dir: "crates/bdd/src",
            ref_encoding_file: "crates/bdd/src/reference.rs",
            ref_ctor_fns: &["mk", "node", "lookup", "function_of"],
        }
    }
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Columns of `.name(` method-call tokens in a cleaned line.
fn method_calls(line: &str, name: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    let pat = format!(".{name}(");
    while let Some(pos) = line[from..].find(&pat) {
        out.push(from + pos);
        from += pos + pat.len();
    }
    out
}

/// True for bytes that can sit inside an identifier (multi-byte UTF-8
/// is treated as identifier-like, which errs toward fewer findings).
fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Byte columns where `word` appears with identifier boundaries.
fn word_occurrences(line: &str, word: &str) -> Vec<usize> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = line[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let pre_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let post_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if pre_ok && post_ok {
            out.push(start);
        }
        from = end;
    }
    out
}

/// Runs every rule over the modeled files. `lintable` files get the full
/// rule set; the rest of `corpus` (tests, examples) only count as readers
/// for telemetry liveness and are checked for unsafe hygiene.
pub fn run(cfg: &Config, lintable: &[FileModel], corpus: &[FileModel]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in lintable {
        kernel_tick_file(cfg, file, &mut findings);
        panic_surface(cfg, file, &mut findings);
        unsafe_safety(file, &mut findings);
        complement_canonical(cfg, file, &mut findings);
        annotation_hygiene(file, &mut findings);
    }
    for file in corpus {
        unsafe_safety(file, &mut findings);
        annotation_hygiene(file, &mut findings);
    }
    kernel_registry_coverage(cfg, lintable, &mut findings);
    telemetry_liveness(cfg, lintable, corpus, &mut findings);
    findings.sort();
    findings.dedup();
    findings
}

/// Rule 1 (`kernel-tick`): every registered recursive kernel calls
/// `self.tick()?` before its first `mk` or self-recursion, so the
/// resource budget governs the whole recursion.
fn kernel_tick_file(cfg: &Config, file: &FileModel, findings: &mut Vec<Finding>) {
    if !file.path.starts_with(cfg.kernel_dir) {
        return;
    }
    for span in &file.fns {
        if !cfg.kernel_fns.contains(&span.name.as_str()) {
            continue;
        }
        // First `.tick(` and first governed action (`.mk(` or a
        // self-recursive call) inside the body, in (line, col) order.
        let mut first_tick: Option<(usize, usize)> = None;
        let mut first_action: Option<(usize, usize, &'static str)> = None;
        for lineno in span.body_open_line..=span.body_end_line {
            let line = &file.code[lineno];
            for col in method_calls(line, "tick") {
                if span.contains(lineno, col) && first_tick.is_none() {
                    first_tick = Some((lineno, col));
                }
            }
            for col in method_calls(line, "mk") {
                if span.contains(lineno, col) && first_action.is_none() {
                    first_action = Some((lineno, col, "mk"));
                }
            }
            for col in method_calls(line, &span.name) {
                if span.contains(lineno, col) && first_action.is_none() {
                    first_action = Some((lineno, col, "recursion"));
                }
            }
        }
        match (first_tick, first_action) {
            (None, _) if !file.allowed(KERNEL_TICK, span.decl_line) => {
                findings.push(Finding {
                    file: file.path.clone(),
                    line: span.decl_line + 1,
                    rule: KERNEL_TICK,
                    message: format!(
                        "recursive kernel `{}` never calls `self.tick()?` — \
                             the resource budget (PR 6) cannot govern it",
                        span.name
                    ),
                });
            }
            (Some(tick), Some((al, ac, what)))
                if (al, ac) < (tick.0, tick.1) && !file.allowed(KERNEL_TICK, al) =>
            {
                findings.push(Finding {
                    file: file.path.clone(),
                    line: al + 1,
                    rule: KERNEL_TICK,
                    message: format!(
                        "kernel `{}` reaches {} before its `self.tick()?` — \
                             budget checks must precede the first mk/recursion",
                        span.name, what
                    ),
                });
            }
            _ => {}
        }
    }
}

/// Registry drift: a registered kernel that no longer exists under the
/// kernel dir means a rename dodged the governance rule — break loudly.
fn kernel_registry_coverage(cfg: &Config, lintable: &[FileModel], findings: &mut Vec<Finding>) {
    let kernel_files: Vec<&FileModel> = lintable
        .iter()
        .filter(|f| f.path.starts_with(cfg.kernel_dir))
        .collect();
    if kernel_files.is_empty() {
        return; // nothing under the kernel dir (fixture roots)
    }
    for name in cfg.kernel_fns {
        let found = kernel_files
            .iter()
            .any(|f| f.fns.iter().any(|s| s.name == *name));
        if !found {
            findings.push(Finding {
                file: cfg.kernel_dir.to_string(),
                line: 0,
                rule: KERNEL_TICK,
                message: format!(
                    "registered kernel `{name}` not found under {} — \
                     update the bdslint kernel registry alongside the rename",
                    cfg.kernel_dir
                ),
            });
        }
    }
}

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "unimplemented", "todo"];
const PANIC_METHODS: [&str; 4] = ["unwrap", "expect", "unwrap_err", "expect_err"];

/// Rule 2 (`panic-surface`): governed kernel paths and the BLIF reader
/// must not panic — no unwrap/expect, no panicking macros, no `[...]`
/// indexing. Errors flow through `Result`; provably-safe spots carry an
/// annotation with the proof sketch.
fn panic_surface(cfg: &Config, file: &FileModel, findings: &mut Vec<Finding>) {
    if !cfg.panic_free_files.contains(&file.path.as_str()) {
        return;
    }
    let push = |lineno: usize, message: String, findings: &mut Vec<Finding>| {
        if !file.allowed(PANIC_SURFACE, lineno) {
            findings.push(Finding {
                file: file.path.clone(),
                line: lineno + 1,
                rule: PANIC_SURFACE,
                message,
            });
        }
    };
    for (lineno, line) in file.code.iter().enumerate() {
        if file.is_test[lineno] {
            continue;
        }
        for m in PANIC_METHODS {
            if !method_calls(line, m).is_empty() {
                push(
                    lineno,
                    format!("`.{m}()` on a governed path — return a proper error instead"),
                    findings,
                );
            }
        }
        for m in PANIC_MACROS {
            for col in word_occurrences(line, m) {
                // Macro invocation: the word followed by `!`.
                if line[col + m.len()..].starts_with('!') {
                    push(
                        lineno,
                        format!("`{m}!` on a governed path — return a proper error instead"),
                        findings,
                    );
                }
            }
        }
        // `expr[...]` indexing: `[` immediately preceded by an identifier
        // character or a closing bracket. Slice patterns, array types and
        // literals (`[T; N]`, `&[...]`, `= [`) are not preceded that way.
        let bytes = line.as_bytes();
        for (col, &c) in bytes.iter().enumerate() {
            if c == b'[' && col > 0 {
                let prev = bytes[col - 1];
                if is_ident_byte(prev) || prev == b')' || prev == b']' {
                    push(
                        lineno,
                        "`[...]` indexing on a governed path — it panics out of \
                         bounds; use `.get(...)` or restructure"
                            .to_string(),
                        findings,
                    );
                }
            }
        }
    }
}

/// Rule 3 (`unsafe-safety`): every `unsafe` occurrence carries a
/// `// SAFETY:` justification. The workspace is currently unsafe-free;
/// this locks that state in ahead of the lock-free unique table.
fn unsafe_safety(file: &FileModel, findings: &mut Vec<Finding>) {
    for (lineno, line) in file.code.iter().enumerate() {
        if !word_occurrences(line, "unsafe").is_empty()
            && !file.has_safety_comment(lineno)
            && !file.allowed(UNSAFE_SAFETY, lineno)
        {
            findings.push(Finding {
                file: file.path.clone(),
                line: lineno + 1,
                rule: UNSAFE_SAFETY,
                message: "`unsafe` without a `// SAFETY:` comment on or above the line".to_string(),
            });
        }
    }
}

/// Rule 5 (`complement-canonical`): inside the kernel crate, `Ref`s are
/// minted only by the registered constructors. A raw `Ref::new(` /
/// `Ref::from_raw(` anywhere else can set the complement bit on a
/// 1-edge and silently break the canonical form (`f` and `¬f` stop
/// sharing a node; hash-consing canonicity is gone). The encoding module
/// itself owns the bit layout and is exempt.
fn complement_canonical(cfg: &Config, file: &FileModel, findings: &mut Vec<Finding>) {
    if cfg.ref_ctor_dir.is_empty()
        || !file.path.starts_with(cfg.ref_ctor_dir)
        || file.path == cfg.ref_encoding_file
    {
        return;
    }
    for (lineno, line) in file.code.iter().enumerate() {
        if file.is_test[lineno] {
            continue;
        }
        for ctor in ["Ref::new(", "Ref::from_raw("] {
            let bytes = line.as_bytes();
            let mut from = 0;
            while let Some(pos) = line[from..].find(ctor) {
                let col = from + pos;
                from = col + ctor.len();
                // `SomeRef::new(` is a different type, not a signed edge.
                if col > 0 && is_ident_byte(bytes[col - 1]) {
                    continue;
                }
                let minted_by_ctor = file
                    .enclosing_fn(lineno, col)
                    .is_some_and(|f| cfg.ref_ctor_fns.contains(&f.name.as_str()));
                if !minted_by_ctor && !file.allowed(COMPLEMENT_CANONICAL, lineno) {
                    findings.push(Finding {
                        file: file.path.clone(),
                        line: lineno + 1,
                        rule: COMPLEMENT_CANONICAL,
                        message: format!(
                            "raw `{}...)` outside the registered constructors \
                             ({}) — hand-built refs can complement a 1-edge and \
                             break canonical form; go through `mk`",
                            ctor,
                            cfg.ref_ctor_fns.join(", ")
                        ),
                    });
                }
            }
        }
    }
}

/// Rule 4 (`telemetry-liveness`): every public field of the registered
/// telemetry structs is read (`.field` access) in at least one file other
/// than the defining one — a counter nobody reads is drift waiting to
/// happen (the PR 4 aggregate-statistics bug class).
fn telemetry_liveness(
    cfg: &Config,
    lintable: &[FileModel],
    corpus: &[FileModel],
    findings: &mut Vec<Finding>,
) {
    for (struct_name, def_file) in cfg.telemetry_structs {
        let declared = lintable
            .iter()
            .find(|f| f.path == *def_file)
            .and_then(|def| Some((def, struct_fields(def, struct_name)?)));
        let Some((def, fields)) = declared else {
            // A struct that moved without its registry entry would
            // otherwise drop out of the liveness check in silence.
            findings.push(Finding {
                file: def_file.to_string(),
                line: 0,
                rule: TELEMETRY_LIVENESS,
                message: format!(
                    "registered telemetry struct `{struct_name}` is not declared in {def_file} — \
                     update the bdslint telemetry registry alongside the move"
                ),
            });
            continue;
        };
        for (field, field_line) in fields {
            let read_somewhere = lintable
                .iter()
                .chain(corpus.iter())
                .filter(|f| f.path != *def_file)
                .any(|f| f.code.iter().any(|line| method_field_access(line, &field)));
            if !read_somewhere && !def.allowed(TELEMETRY_LIVENESS, field_line) {
                findings.push(Finding {
                    file: def.path.clone(),
                    line: field_line + 1,
                    rule: TELEMETRY_LIVENESS,
                    message: format!(
                        "`{struct_name}.{field}` is never read outside {def_file} — \
                         dead telemetry; surface it (bench/report) or drop it"
                    ),
                });
            }
        }
    }
}

/// `.field` access with an identifier boundary after it (also matches a
/// same-named method call, which is close enough for liveness).
fn method_field_access(line: &str, field: &str) -> bool {
    let pat = format!(".{field}");
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(&pat) {
        let end = from + pos + pat.len();
        if end >= bytes.len() || !is_ident_byte(bytes[end]) {
            return true;
        }
        from = end;
    }
    false
}

/// Public fields of `struct name { ... }` in a stripped file, with their
/// 0-based definition lines; `None` when the file declares no such struct.
fn struct_fields(file: &FileModel, name: &str) -> Option<Vec<(String, usize)>> {
    let mut fields = Vec::new();
    let mut in_struct = false;
    let mut depth = 0i32;
    for (lineno, line) in file.code.iter().enumerate() {
        if !in_struct {
            let has_decl = !word_occurrences(line, "struct").is_empty()
                && !word_occurrences(line, name).is_empty();
            if has_decl {
                in_struct = true;
                depth = 0;
                if !line.contains('{') {
                    continue; // brace arrives on a later line
                }
            } else {
                continue;
            }
        }
        for c in line.chars() {
            if c == '{' {
                depth += 1;
            } else if c == '}' {
                depth -= 1;
            }
        }
        // Field lines look like `pub name: Type,` at depth 1.
        let trimmed = line.trim();
        if let Some(rest) = trimmed.strip_prefix("pub ") {
            if let Some(colon) = rest.find(':') {
                let field: String = rest[..colon].trim().to_string();
                if !field.is_empty() && field.chars().all(is_ident) && !trimmed.contains("fn ") {
                    fields.push((field, lineno));
                }
            }
        }
        if depth <= 0 && in_struct && line.contains('}') {
            break;
        }
    }
    in_struct.then_some(fields)
}

/// Annotation hygiene: `bdslint:` markers must parse, name real rules,
/// and carry a justification.
fn annotation_hygiene(file: &FileModel, findings: &mut Vec<Finding>) {
    for allow in &file.allows {
        if allow.malformed {
            findings.push(Finding {
                file: file.path.clone(),
                line: allow.line + 1,
                rule: ANNOTATION,
                message: "malformed `bdslint:` annotation — expected \
                          `bdslint: allow(<rule>) -- <justification>`"
                    .to_string(),
            });
            continue;
        }
        for rule in &allow.rules {
            if !RULES.contains(&rule.as_str()) {
                findings.push(Finding {
                    file: file.path.clone(),
                    line: allow.line + 1,
                    rule: ANNOTATION,
                    message: format!(
                        "annotation names unknown rule `{rule}` (known: {})",
                        RULES.join(", ")
                    ),
                });
            }
        }
        if !allow.reason {
            findings.push(Finding {
                file: file.path.clone(),
                line: allow.line + 1,
                rule: ANNOTATION,
                message: "allow annotation without a justification — append \
                          ` -- <why this is sound>`"
                    .to_string(),
            });
        }
    }
}
