//! The lint rules. Each rule is a pure function over a [`ScannedFile`]
//! plus its [`FileContext`]; `check_file` runs the enabled set, reports
//! unreasoned suppressions (S001), and then applies the reasoned ones.
//!
//! | id   | invariant                                                        |
//! |------|------------------------------------------------------------------|
//! | D001 | no order-dependent `HashMap`/`HashSet` iteration in deterministic crates |
//! | D002 | no wall-clock reads (`Instant::now`, `SystemTime::now`) in deterministic crates |
//! | D003 | no unseeded randomness (`thread_rng`, `from_entropy`, `rand::random`) anywhere |
//! | D004 | no float types/literals in scheduler decision paths (scaled-integer convention) |
//! | D005 | no filesystem writes/fsyncs outside the sanctioned journal module in deterministic crates |
//! | C001 | no raw `std::thread::spawn` / `thread::Builder` — use scoped threads |
//! | A001 | public `plan_*`/`simulate*` entry points carry the `audit` debug hooks |
//! | S001 | every suppression names known rules and carries a written reason |
//!
//! All matching is token-sequence based (see [`crate::lexer`]); test code
//! (`#[cfg(test)]` / `#[test]` items) is exempt from every rule except
//! S001, and each rule documents the lexical heuristic it uses so a
//! reader can predict both its catches and its blind spots.

use crate::lexer::TokenKind;
use crate::source::ScannedFile;
use std::collections::BTreeSet;
use std::fmt;

/// Stable identifier of a lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Order-dependent `HashMap`/`HashSet` iteration in a deterministic
    /// crate.
    D001,
    /// Wall-clock read in a deterministic crate.
    D002,
    /// Unseeded randomness.
    D003,
    /// Float arithmetic in a scheduler decision path.
    D004,
    /// Filesystem access outside the sanctioned persistence module in a
    /// deterministic crate.
    D005,
    /// Raw thread spawn outside the approved scoped-thread helpers.
    C001,
    /// Audit-feature debug hook missing from a public entry point.
    A001,
    /// Suppression without a reason (or malformed / unknown rule).
    S001,
}

impl RuleId {
    /// Every rule, in report order.
    pub const ALL: [RuleId; 8] = [
        RuleId::D001,
        RuleId::D002,
        RuleId::D003,
        RuleId::D004,
        RuleId::D005,
        RuleId::C001,
        RuleId::A001,
        RuleId::S001,
    ];

    /// The rule's id string (`"D001"`).
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::D001 => "D001",
            RuleId::D002 => "D002",
            RuleId::D003 => "D003",
            RuleId::D004 => "D004",
            RuleId::D005 => "D005",
            RuleId::C001 => "C001",
            RuleId::A001 => "A001",
            RuleId::S001 => "S001",
        }
    }

    /// Parse an id string; `None` for unknown ids.
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.as_str() == s)
    }

    /// One-line description used in reports and docs.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::D001 => "order-dependent HashMap/HashSet iteration in a deterministic crate",
            RuleId::D002 => "wall-clock read in a deterministic crate",
            RuleId::D003 => "unseeded randomness",
            RuleId::D004 => "float arithmetic in a scheduler decision path",
            RuleId::D005 => "filesystem access outside the sanctioned persistence module",
            RuleId::C001 => "raw thread spawn outside the scoped-thread helpers",
            RuleId::A001 => "public entry point without the audit-feature debug hook",
            RuleId::S001 => "suppression without a written reason",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How a crate is classified for rule scoping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrateClass {
    /// Output must be bit-identical across runs, worker counts, and
    /// replays: D001/D002/A001 apply.
    Deterministic,
    /// Observability / measurement code (muri-telemetry, muri-bench):
    /// owns the wall clock, exempt from D002.
    Observability,
    /// Harnesses and frontends (CLI, experiments, verify, facade):
    /// only the workspace-wide rules (D003, C001, S001) apply.
    Harness,
}

/// Everything the rules need to know about the file being scanned.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Cargo package name (`muri-core`, …).
    pub crate_name: String,
    /// Scoping class of that crate.
    pub class: CrateClass,
    /// Whether this file is on the scheduler decision path (D004 scope —
    /// the scaled-integer fixed-point convention is mandatory there).
    pub decision_path: bool,
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The rule that fired.
    pub rule: RuleId,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of this occurrence.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {} {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// Result of scanning one file.
#[derive(Debug, Default)]
pub struct FileResult {
    /// Violations that survived suppression, in source order.
    pub violations: Vec<Violation>,
    /// Count of violations silenced by reasoned suppressions.
    pub suppressed: usize,
}

/// Run every rule in `enabled` over `file`, then apply suppressions.
///
/// S001 findings are never suppressible: a suppression that needs a
/// suppression is a contradiction, and letting one comment both violate
/// and excuse would make the audit trail circular.
pub fn check_file(file: &ScannedFile, ctx: &FileContext, enabled: &[RuleId]) -> FileResult {
    let mut raw: Vec<Violation> = Vec::new();
    for &rule in enabled {
        match rule {
            RuleId::D001 => check_d001(file, ctx, &mut raw),
            RuleId::D002 => check_d002(file, ctx, &mut raw),
            RuleId::D003 => check_d003(file, ctx, &mut raw),
            RuleId::D004 => check_d004(file, ctx, &mut raw),
            RuleId::D005 => check_d005(file, ctx, &mut raw),
            RuleId::C001 => check_c001(file, ctx, &mut raw),
            RuleId::A001 => check_a001(file, ctx, &mut raw),
            RuleId::S001 => check_s001(file, &mut raw),
        }
    }
    let mut out = FileResult::default();
    for v in raw {
        let suppressible = v.rule != RuleId::S001;
        if suppressible
            && file
                .suppressions
                .iter()
                .any(|s| s.allows(v.rule.as_str(), v.line))
        {
            out.suppressed += 1;
        } else {
            out.violations.push(v);
        }
    }
    out.violations.sort_by_key(|a| (a.line, a.col, a.rule));
    out
}

fn push(out: &mut Vec<Violation>, file: &ScannedFile, ci: usize, rule: RuleId, message: String) {
    let t = file.code_token(ci);
    out.push(Violation {
        rule,
        path: file.rel_path.clone(),
        line: t.line,
        col: t.col,
        message,
    });
}

/// Method names whose call on a `HashMap`/`HashSet` observes (or mutates
/// through) the hasher-dependent bucket order.
const ORDER_DEPENDENT_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// D001 — order-dependent `HashMap`/`HashSet` iteration.
///
/// Pass 1 collects the names bound to hash collections in this file:
/// type ascriptions (`jobs: HashMap<…>` in fields, params, and `let`s)
/// and constructor bindings (`x = HashMap::new()` and friends). Pass 2
/// flags iteration over those names — `name.iter()`-style calls of any
/// method in [`ORDER_DEPENDENT_METHODS`], and `for … in [&][mut]
/// [self.]name {` loops (the `IntoIterator` form). Lookups (`get`,
/// `insert`, `contains_key`, `remove`, `len`) are order-independent and
/// stay legal, which is exactly why the rule targets iteration rather
/// than declaration: a hash map you never iterate is the right tool.
/// True when the receiver at `ci` is a bare binding or a `self.` field.
/// A field of some *other* value (`trace.jobs`) may share a name with a
/// hash-typed declaration while having a different type the name-based
/// pass cannot see, so those are left alone.
fn plain_receiver(file: &ScannedFile, ci: usize) -> bool {
    if ci == 0 || !file.code_is(ci - 1, TokenKind::Punct, ".") {
        return true;
    }
    ci >= 2
        && file.code_text(ci - 2) == "self"
        && !file.code_is(ci.wrapping_sub(3), TokenKind::Punct, ".")
}

fn check_d001(file: &ScannedFile, ctx: &FileContext, out: &mut Vec<Violation>) {
    if ctx.class != CrateClass::Deterministic {
        return;
    }
    let names = hash_bound_names(file);
    if names.is_empty() {
        return;
    }
    let n = file.code_len();
    for ci in 0..n {
        if file.is_test_line(file.code_token(ci).line) {
            continue;
        }
        let text = file.code_text(ci);
        // `name . method (` where method is order-dependent.
        if names.contains(text)
            && plain_receiver(file, ci)
            && file.code_is(ci + 1, TokenKind::Punct, ".")
            && file.code_is(ci + 3, TokenKind::Punct, "(")
        {
            if let Some(&mi) = file.code.get(ci + 2) {
                let method = file.tokens[mi].text(&file.src);
                if ORDER_DEPENDENT_METHODS.contains(&method) {
                    push(
                        out,
                        file,
                        ci,
                        RuleId::D001,
                        format!(
                            "order-dependent iteration `{text}.{method}()` over a \
                             HashMap/HashSet in deterministic crate {}: use BTreeMap/\
                             BTreeSet, sort before iterating, or suppress with a reason",
                            ctx.crate_name
                        ),
                    );
                }
            }
        }
        // `for pat in [&][mut] [self.]name {`
        if text == "for" {
            if let Some(target) = for_loop_target(file, ci) {
                if names.contains(file.code_text(target))
                    && file.code_is(target + 1, TokenKind::Punct, "{")
                {
                    let name = file.code_text(target);
                    push(
                        out,
                        file,
                        target,
                        RuleId::D001,
                        format!(
                            "order-dependent `for` iteration over HashMap/HashSet \
                             `{name}` in deterministic crate {}: use BTreeMap/BTreeSet, \
                             sort before iterating, or suppress with a reason",
                            ctx.crate_name
                        ),
                    );
                }
            }
        }
    }
}

/// Names bound to `HashMap`/`HashSet` in this file, from type ascriptions
/// and constructor calls.
fn hash_bound_names(file: &ScannedFile) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let n = file.code_len();
    for ci in 0..n {
        let t = file.code_token(ci);
        if t.kind != TokenKind::Ident {
            continue;
        }
        let text = t.text(&file.src);
        if text != "HashMap" && text != "HashSet" {
            continue;
        }
        // Walk back over an optional `std :: collections ::` style path
        // prefix to the token before the path.
        let mut back = ci;
        while back >= 2
            && file.code_is(back - 1, TokenKind::Punct, "::")
            && file.code_token(back - 2).kind == TokenKind::Ident
        {
            back -= 2;
        }
        // Skip reference/mutability sigils and lifetimes between the
        // ascription colon and the type (`x: &'a mut HashMap<…>`).
        while back >= 1 {
            let prev = file.code_token(back - 1);
            let prev_text = prev.text(&file.src);
            if prev_text == "&" || prev_text == "mut" || prev.kind == TokenKind::Lifetime {
                back -= 1;
            } else {
                break;
            }
        }
        if back == 0 {
            continue;
        }
        let before = file.code_text(back - 1);
        // `name : [path::]HashMap` — field, param, or typed let.
        if before == ":" && back >= 2 {
            let name_tok = file.code_token(back - 2);
            if name_tok.kind == TokenKind::Ident {
                names.insert(name_tok.text(&file.src).to_string());
            }
        }
        // `name = [path::]HashMap :: ctor` — untyped let / assignment.
        if before == "=" && back >= 2 && file.code_is(ci + 1, TokenKind::Punct, "::") {
            let name_tok = file.code_token(back - 2);
            if name_tok.kind == TokenKind::Ident {
                names.insert(name_tok.text(&file.src).to_string());
            }
        }
    }
    names
}

/// For a `for` keyword at code index `ci`, return the code index of the
/// loop-target identifier when the loop has the shape
/// `for … in [&][mut] [self.]ident {`, i.e. iterates a named binding
/// directly. Method-call targets (`x.iter()`) are handled separately.
fn for_loop_target(file: &ScannedFile, ci: usize) -> Option<usize> {
    // Find the `in` keyword, skipping the (possibly destructuring)
    // pattern. Patterns can contain parens/tuples but never braces, and
    // `in` cannot appear inside them.
    let mut j = ci + 1;
    let limit = (ci + 24).min(file.code_len());
    while j < limit && file.code_text(j) != "in" {
        if matches!(file.code_text(j), "{" | ";") {
            return None;
        }
        j += 1;
    }
    if j >= limit {
        return None;
    }
    let mut k = j + 1;
    if file.code_is(k, TokenKind::Punct, "&") {
        k += 1;
    }
    if file.code.get(k).is_some() && file.code_text(k) == "mut" {
        k += 1;
    }
    if file.code.get(k).is_some()
        && file.code_text(k) == "self"
        && file.code_is(k + 1, TokenKind::Punct, ".")
    {
        k += 2;
    }
    let t = file.code.get(k).map(|&ti| &file.tokens[ti])?;
    if t.kind == TokenKind::Ident {
        Some(k)
    } else {
        None
    }
}

/// D002 — wall-clock reads in deterministic crates.
///
/// Flags the token sequences `Instant :: now` and `SystemTime :: now`.
/// Virtual time (`SimTime`/`SimDuration`) is the only clock deterministic
/// code may consult; real timing belongs in `muri-telemetry` (see its
/// `clock` module) or the bench harness, both of which are classified
/// [`CrateClass::Observability`]. The only other escape is the explicit
/// per-file sanction list [`crate::D002_SANCTIONED_CLOCK_FILES`], which
/// today names exactly the daemon's wall→scheduler time boundary.
fn check_d002(file: &ScannedFile, ctx: &FileContext, out: &mut Vec<Violation>) {
    if ctx.class != CrateClass::Deterministic {
        return;
    }
    if crate::D002_SANCTIONED_CLOCK_FILES
        .iter()
        .any(|&(path, _reason)| path == file.rel_path)
    {
        return;
    }
    for ci in 0..file.code_len() {
        let text = file.code_text(ci);
        if (text == "Instant" || text == "SystemTime")
            && file.code_is(ci + 1, TokenKind::Punct, "::")
            && file.code_is(ci + 2, TokenKind::Ident, "now")
            && !file.is_test_line(file.code_token(ci).line)
        {
            push(
                out,
                file,
                ci,
                RuleId::D002,
                format!(
                    "wall-clock read `{text}::now()` in deterministic crate {}: \
                     use virtual SimTime, or route timing through \
                     muri_telemetry::clock",
                    ctx.crate_name
                ),
            );
        }
    }
}

/// D003 — unseeded randomness, anywhere in the workspace.
///
/// Flags the identifiers `thread_rng` and `from_entropy`, and the path
/// `rand :: random`. Every stochastic input in this reproduction flows
/// from an explicit u64 seed so that runs replay; OS entropy would break
/// replays silently.
fn check_d003(file: &ScannedFile, _ctx: &FileContext, out: &mut Vec<Violation>) {
    for ci in 0..file.code_len() {
        let t = file.code_token(ci);
        if t.kind != TokenKind::Ident || file.is_test_line(t.line) {
            continue;
        }
        let text = file.code_text(ci);
        let hit = match text {
            "thread_rng" | "from_entropy" => true,
            "rand" => {
                file.code_is(ci + 1, TokenKind::Punct, "::")
                    && file.code_is(ci + 2, TokenKind::Ident, "random")
            }
            _ => false,
        };
        if hit {
            let what = if text == "rand" { "rand::random" } else { text };
            push(
                out,
                file,
                ci,
                RuleId::D003,
                format!(
                    "unseeded randomness `{what}`: derive an rng from an explicit \
                     u64 seed (SmallRng::seed_from_u64) so runs replay"
                ),
            );
        }
    }
}

/// D004 — float arithmetic on the scheduler decision path.
///
/// In the files marked `decision_path`, any `f32`/`f64` type token or
/// float literal outside test code is flagged. Those paths compare and
/// rank in the scaled-integer fixed-point convention
/// (`muri_matching::WEIGHT_SCALE`): floats may exist at the boundary
/// (`weight_from_f64`) but not inside the comparisons, where rounding
/// drift would make plan output depend on code generation.
fn check_d004(file: &ScannedFile, ctx: &FileContext, out: &mut Vec<Violation>) {
    if !ctx.decision_path {
        return;
    }
    for ci in 0..file.code_len() {
        let t = file.code_token(ci);
        if file.is_test_line(t.line) {
            continue;
        }
        let text = file.code_text(ci);
        let hit = match t.kind {
            TokenKind::Ident => text == "f32" || text == "f64",
            TokenKind::FloatLit => true,
            _ => false,
        };
        if hit {
            push(
                out,
                file,
                ci,
                RuleId::D004,
                format!(
                    "float `{text}` on the scheduler decision path: decisions must \
                     use the scaled-integer fixed-point convention \
                     (weight_from_f64 / WEIGHT_SCALE), or carry a reasoned allow"
                ),
            );
        }
    }
}

/// D005 — filesystem writes/fsyncs in deterministic crates.
///
/// Flags `fs :: <fn>` paths, unqualified `File :: …` / `OpenOptions ::
/// …` constructor calls, and `.sync_all()` / `.sync_data()` method
/// calls. Deterministic code must not touch the filesystem on its own:
/// durable state flows through the daemon's single write-ahead journal
/// module, the one entry on the per-file sanction list
/// [`crate::D005_SANCTIONED_PERSISTENCE_FILES`]. Keeping every write
/// and fsync in one audited module is what makes the durability
/// discipline — group-committed fsync, atomic rename compaction,
/// fail-stop on sync error — checkable at all. A `File`/`OpenOptions`
/// segment already preceded by `::` is skipped so a fully qualified
/// `std::fs::File::create` reports once (at the `fs::` segment), not
/// twice.
fn check_d005(file: &ScannedFile, ctx: &FileContext, out: &mut Vec<Violation>) {
    if ctx.class != CrateClass::Deterministic {
        return;
    }
    if crate::D005_SANCTIONED_PERSISTENCE_FILES
        .iter()
        .any(|&(path, _reason)| path == file.rel_path)
    {
        return;
    }
    for ci in 0..file.code_len() {
        let t = file.code_token(ci);
        if t.kind != TokenKind::Ident || file.is_test_line(t.line) {
            continue;
        }
        let text = file.code_text(ci);
        let path_seg = |name: &str| {
            file.code_is(ci + 1, TokenKind::Punct, "::")
                .then(|| file.code.get(ci + 2))
                .flatten()
                .map(|&ni| format!("{name}::{}", file.tokens[ni].text(&file.src)))
        };
        let what = match text {
            "fs" => path_seg("fs"),
            "File" | "OpenOptions" if ci == 0 || !file.code_is(ci - 1, TokenKind::Punct, "::") => {
                path_seg(text)
            }
            "sync_all" | "sync_data"
                if ci > 0
                    && file.code_is(ci - 1, TokenKind::Punct, ".")
                    && file.code_is(ci + 1, TokenKind::Punct, "(") =>
            {
                Some(format!(".{text}()"))
            }
            _ => None,
        };
        if let Some(what) = what {
            push(
                out,
                file,
                ci,
                RuleId::D005,
                format!(
                    "filesystem access `{what}` in deterministic crate {}: durable \
                     state goes through the sanctioned journal module \
                     (crates/serve/src/journal.rs), or carry a reasoned allow",
                    ctx.crate_name
                ),
            );
        }
    }
}

/// C001 — raw thread spawns.
///
/// Flags `thread :: spawn` and `thread :: Builder`. Free-running threads
/// outlive the data they borrow only via `'static` bounds and make
/// shutdown order nondeterministic; the workspace convention is
/// `std::thread::scope` with joined scoped spawns (see
/// `muri_sim::replicate`), which C001
/// deliberately does not match (`s.spawn(…)` has no `thread ::` prefix).
fn check_c001(file: &ScannedFile, _ctx: &FileContext, out: &mut Vec<Violation>) {
    for ci in 0..file.code_len() {
        let t = file.code_token(ci);
        if t.kind != TokenKind::Ident || file.code_text(ci) != "thread" || file.is_test_line(t.line)
        {
            continue;
        }
        if !file.code_is(ci + 1, TokenKind::Punct, "::") {
            continue;
        }
        if let Some(&ni) = file.code.get(ci + 2) {
            let next = file.tokens[ni].text(&file.src);
            if next == "spawn" || next == "Builder" {
                push(
                    out,
                    file,
                    ci,
                    RuleId::C001,
                    format!(
                        "raw `thread::{next}`: use std::thread::scope with joined \
                         scoped spawns (the muri_sim::replicate pattern) so \
                         threads cannot outlive their inputs"
                    ),
                );
            }
        }
    }
}

/// A001 — audit hooks on public entry points.
///
/// In deterministic crates, every `pub fn` whose name starts with
/// `plan_` or `simulate` must make its audit story visible in its body:
/// either the `feature = "audit"` hook itself, or a delegation the
/// auditor can follow — a call to another covered function, or to the
/// engine loop (`.run()` / `.drive()`), which carries the hooks. A
/// function that is itself `#[cfg(feature = "audit")]`-gated is exempt
/// (it exists only inside the audit build).
fn check_a001(file: &ScannedFile, ctx: &FileContext, out: &mut Vec<Violation>) {
    if ctx.class != CrateClass::Deterministic {
        return;
    }
    let n = file.code_len();
    for ci in 0..n {
        if file.code_text(ci) != "pub" || !file.code_is(ci + 1, TokenKind::Ident, "fn") {
            continue;
        }
        let Some(&name_ti) = file.code.get(ci + 2) else {
            continue;
        };
        let name = file.tokens[name_ti].text(&file.src).to_string();
        if !(name.starts_with("plan_") || name.starts_with("simulate")) {
            continue;
        }
        if file.is_test_line(file.code_token(ci).line) {
            continue;
        }
        if preceded_by_audit_cfg(file, ci) {
            continue;
        }
        let Some((body_start, body_end)) = fn_body_span(file, ci + 2) else {
            continue;
        };
        if body_has_audit_evidence(file, body_start, body_end, &name) {
            continue;
        }
        push(
            out,
            file,
            ci + 2,
            RuleId::A001,
            format!(
                "public entry point `{name}` has no audit-feature debug hook: add a \
                 `#[cfg(feature = \"audit\")]` muri-verify hook (or delegate to an \
                 audited entry point) so `muri verify` can check its output"
            ),
        );
    }
}

/// Whether the tokens shortly before `pub` at `ci` contain an attribute
/// with `feature = "audit"`.
fn preceded_by_audit_cfg(file: &ScannedFile, ci: usize) -> bool {
    let lo = ci.saturating_sub(24);
    (lo..ci).any(|j| {
        file.code_is(j, TokenKind::Ident, "feature")
            && file.code_is(j + 1, TokenKind::Punct, "=")
            && file
                .code
                .get(j + 2)
                .is_some_and(|&ti| file.tokens[ti].text(&file.src).contains("audit"))
    })
}

/// Given the code index of a fn name, return the code-index span
/// `(open, close)` of its body braces.
fn fn_body_span(file: &ScannedFile, name_ci: usize) -> Option<(usize, usize)> {
    let n = file.code_len();
    let mut i = name_ci;
    // Scan to the first `{` at angle/paren depth 0; a `;` first means a
    // body-less declaration (trait method) — not our concern.
    let mut paren = 0i32;
    while i < n {
        match file.code_text(i) {
            "(" | "[" => paren += 1,
            ")" | "]" => paren -= 1,
            "{" if paren == 0 => break,
            ";" if paren == 0 => return None,
            _ => {}
        }
        i += 1;
    }
    if i >= n {
        return None;
    }
    let open = i;
    let mut depth = 0i32;
    while i < n {
        match file.code_text(i) {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, i));
                }
            }
            _ => {}
        }
        i += 1;
    }
    Some((open, n - 1))
}

/// Audit evidence inside a body span: the feature hook, a call to a
/// covered sibling, or a call into the engine loop.
fn body_has_audit_evidence(
    file: &ScannedFile,
    body_start: usize,
    body_end: usize,
    own_name: &str,
) -> bool {
    for j in body_start..body_end {
        let t = file.code_token(j);
        if t.kind != TokenKind::Ident {
            continue;
        }
        let text = file.code_text(j);
        if text == "feature"
            && file.code_is(j + 1, TokenKind::Punct, "=")
            && file
                .code
                .get(j + 2)
                .is_some_and(|&ti| file.tokens[ti].text(&file.src).contains("audit"))
        {
            return true;
        }
        let is_call = file.code_is(j + 1, TokenKind::Punct, "(");
        if !is_call {
            continue;
        }
        if (text.starts_with("plan_") || text.starts_with("simulate")) && text != own_name {
            return true;
        }
        if (text == "run" || text == "drive") && j > 0 && file.code_is(j - 1, TokenKind::Punct, ".")
        {
            return true;
        }
    }
    false
}

/// S001 — suppression hygiene.
///
/// Every `muri-lint:` comment must parse as `allow(RULES, reason = "…")`,
/// name only known rule ids, and carry a non-empty reason. An allow
/// without a reason is an audit hole: six months later nobody can tell a
/// considered exemption from a silenced bug.
fn check_s001(file: &ScannedFile, out: &mut Vec<Violation>) {
    for s in &file.suppressions {
        let mut problems: Vec<String> = Vec::new();
        if s.malformed {
            problems.push(
                "malformed suppression: expected `muri-lint: allow(RULE, reason = \"…\")`"
                    .to_string(),
            );
        } else {
            for r in &s.rules {
                if RuleId::parse(r).is_none() {
                    problems.push(format!("unknown rule id `{r}` in suppression"));
                }
            }
            if s.reason.as_deref().is_none_or(|r| r.trim().is_empty()) {
                problems.push(format!(
                    "suppression of {} has no reason: write \
                     `reason = \"…\"` explaining why the exemption is sound",
                    s.rules.join(", ")
                ));
            }
        }
        for message in problems {
            out.push(Violation {
                rule: RuleId::S001,
                path: file.rel_path.clone(),
                line: s.line,
                col: 1,
                message,
            });
        }
    }
}
