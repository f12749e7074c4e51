//! The rule set: what `peas-lint` enforces and where.
//!
//! Rules are scoped by crate (directory name under `crates/`) and by file
//! kind: library sources (`src/**`), binary frontends (`src/bin/**` and
//! `src/main.rs`). Integration tests, benches and examples are not
//! scanned at all, and `#[cfg(test)] mod` blocks inside library files are
//! exempt from every rule — tests may freely use `HashMap`, `unwrap()` and
//! wall clocks without endangering simulation determinism.
//!
//! Every diagnostic can be waived in place:
//!
//! ```text
//! // peas-lint: allow(r1-unchecked-panic) -- queue slot is always occupied here
//! ```
//!
//! on the offending line or the line directly above it. The reason after
//! `--` is mandatory; a waiver without one is itself a diagnostic.

use crate::sanitize::{is_ident, sanitize};

/// Crates that hold simulation logic: anything here feeds the event loop
/// and therefore the golden fingerprints. `scenario` belongs here because
/// its compiler produces the configs those fingerprints are pinned to;
/// `core` is the PEAS state machine every sensor runs.
pub const SIM_LOGIC_CRATES: &[&str] = &[
    "des",
    "sim",
    "radio",
    "grab",
    "geom",
    "baselines",
    "scenario",
    "model",
    "core",
];

/// Crates whose public API surface must document panics (R2).
pub const PANIC_DOC_CRATES: &[&str] = &["des", "sim"];

/// Rule: forbid `std` hash collections in sim-logic crates.
pub const D1: &str = "d1-std-hash";
/// Rule: forbid wall-clock reads outside bench code and bin frontends.
pub const D2: &str = "d2-wall-clock";
/// Rule: forbid ambient (OS) entropy everywhere.
pub const D3: &str = "d3-ambient-entropy";
/// Rule: every committed scenario file must be referenced by a test,
/// bench binary, example or another scenario (no dead experiments).
pub const D4: &str = "d4-scenario-drift";
/// Rule: forbid `BinaryHeap` in sim-logic crates — event scheduling must
/// go through `peas_des::EventQueue` (the ladder backend), not ad-hoc
/// heaps; the retained heap reference implementation carries waivers.
pub const D5: &str = "d5-heap-event-queue";
/// Rule: forbid environment-variable reads in sim-logic library code — a
/// run's behaviour must follow from its config and seed alone, not from
/// whatever the calling shell exported.
pub const D6: &str = "d6-ambient-env";
/// Rule: forbid `unwrap`/`expect` in sim-logic library code.
pub const R1: &str = "r1-unchecked-panic";
/// Rule: public functions in `des`/`sim` that can panic must say so.
pub const R2: &str = "r2-undocumented-panic";
/// Rule: forbid bare narrowing `as` casts to fixed-width integers in
/// sim-logic crates — a silently-wrapping cast turns an overflow into a
/// wrong-but-plausible fingerprint. Use `try_from` (handle or waive the
/// impossible case) instead. `as usize` is deliberately out of scope:
/// on every supported target it widens from the u32-and-smaller indices
/// the simulator uses, and flagging it would be pure noise.
pub const R3: &str = "r3-unchecked-cast";
/// Meta-rule: a waiver comment must carry a `-- <reason>`.
pub const W0: &str = "w0-waiver-without-reason";

/// All enforceable rule ids (what `allow(...)` may name).
pub const ALL_RULES: &[&str] = &[D1, D2, D3, D4, D5, D6, R1, R2, R3];

/// Where a source file sits in its crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// Library code under `src/` (excluding `src/bin/` and `src/main.rs`).
    Lib,
    /// A binary frontend: `src/main.rs` or anything under `src/bin/`.
    Bin,
}

/// Identity of the file being scanned, used for rule scoping.
#[derive(Clone, Debug)]
pub struct FileCtx {
    /// Crate directory name (`des`, `sim`, ... or `peas-repro` for the
    /// workspace-root facade crate).
    pub crate_name: String,
    /// Path relative to the workspace root, for diagnostics.
    pub rel_path: String,
    /// Library or binary-frontend source.
    pub kind: FileKind,
}

/// One finding, pointing at original source coordinates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (e.g. `d1-std-hash`).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column of the match.
    pub column: usize,
    /// Human-readable explanation.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// Outcome of scanning one file.
#[derive(Clone, Debug, Default)]
pub struct ScanResult {
    /// Violations found (not waived).
    pub diagnostics: Vec<Diagnostic>,
    /// Matches suppressed by a well-formed waiver.
    pub waived: usize,
}

struct TokenRule {
    id: &'static str,
    patterns: &'static [&'static str],
    message: &'static str,
}

const TOKEN_RULES: &[TokenRule] = &[
    TokenRule {
        id: D1,
        patterns: &["HashMap", "HashSet"],
        message: "std hash collections iterate in randomized order; use BTreeMap/BTreeSet, \
                  a slot-indexed Vec, or peas_des::DetMap/DetSet in sim-logic crates",
    },
    TokenRule {
        id: D2,
        patterns: &[
            "Instant::now",
            "SystemTime",
            "UNIX_EPOCH",
            "std::time::Instant",
        ],
        message: "wall-clock reads make runs irreproducible; simulation code must use \
                  peas_des::SimTime (wall clocks are allowed only in `bench` and bin frontends)",
    },
    TokenRule {
        id: D3,
        patterns: &[
            "thread_rng",
            "from_entropy",
            "OsRng",
            "getrandom",
            "RandomState",
            "DefaultHasher",
            "rand::random",
        ],
        message: "ambient OS entropy breaks seed-reproducibility; draw randomness from a \
                  peas_des::SimRng per-entity stream instead",
    },
    TokenRule {
        id: D5,
        patterns: &["BinaryHeap"],
        message: "ad-hoc heaps bypass the deterministic event queue; schedule through \
                  peas_des::EventQueue (ladder backend) — only the retained heap reference \
                  implementation may use BinaryHeap, under a waiver",
    },
    TokenRule {
        id: D6,
        patterns: &["env::var", "env::var_os"],
        message: "environment reads are ambient input the config and seed do not pin; pass \
                  the value in through the scenario config (or read it in a bin frontend)",
    },
    TokenRule {
        id: R1,
        patterns: &[".unwrap()", ".expect("],
        message: "unchecked panic in sim-logic library code; handle the None/Err case, or \
                  waive with the invariant that makes this unreachable",
    },
    TokenRule {
        id: R3,
        patterns: &["as u8", "as u16", "as u32", "as i32"],
        message: "bare `as` cast to a fixed-width integer silently wraps on overflow; use \
                  `T::try_from(...)` and handle the error, or waive with the bound that \
                  makes truncation impossible",
    },
];

fn rule_applies(id: &str, ctx: &FileCtx) -> bool {
    match id {
        // Hash collections: sim-logic crates, library and bin targets alike.
        _ if id == D1 => SIM_LOGIC_CRATES.contains(&ctx.crate_name.as_str()),
        // Wall clocks: everywhere except the bench crate and bin frontends
        // (frontends legitimately measure elapsed real time).
        _ if id == D2 => ctx.crate_name != "bench" && ctx.kind == FileKind::Lib,
        // Ambient entropy: everywhere, including frontends — a seeded run
        // must be reproducible end to end.
        _ if id == D3 => true,
        // Ad-hoc heaps: sim-logic crates, library and bin targets alike —
        // any heap feeding the event loop endangers the delivery order.
        _ if id == D5 => SIM_LOGIC_CRATES.contains(&ctx.crate_name.as_str()),
        // Environment reads and unchecked panics: sim-logic library code
        // only (frontends legitimately read their environment).
        _ if id == D6 || id == R1 => {
            SIM_LOGIC_CRATES.contains(&ctx.crate_name.as_str()) && ctx.kind == FileKind::Lib
        }
        _ if id == R2 => {
            PANIC_DOC_CRATES.contains(&ctx.crate_name.as_str()) && ctx.kind == FileKind::Lib
        }
        // Narrowing casts: sim-logic crates, library and bin targets alike —
        // a wrapped count in a report is as wrong as one in the event loop.
        _ if id == R3 => SIM_LOGIC_CRATES.contains(&ctx.crate_name.as_str()),
        _ => false,
    }
}

/// A waiver parsed from a `// peas-lint: allow(...) -- reason` comment
/// (or `# peas-lint: ...` in scenario files).
#[derive(Clone, Debug)]
pub(crate) enum Waiver {
    /// Well-formed: the named rules are waived.
    Allow(Vec<String>),
    /// `allow(...)` present but the `-- reason` is missing or empty.
    MissingReason,
}

fn parse_waiver(line: &str) -> Option<Waiver> {
    parse_comment_waiver(line, "//")
}

/// Waiver parsing parameterized over the comment leader, shared with the
/// scenario-drift scan (`.peas` files comment with `#`).
pub(crate) fn parse_comment_waiver(line: &str, comment: &str) -> Option<Waiver> {
    let marker = "peas-lint:";
    let at = line.find(marker)?;
    // Must live in a comment, not in code (string literals never reach
    // here because waiver parsing only consults comment syntax).
    if !line[..at].contains(comment) {
        return None;
    }
    let rest = line[at + marker.len()..].trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    let after = rest[close + 1..].trim_start();
    match after.strip_prefix("--") {
        Some(reason) if !reason.trim().is_empty() => Some(Waiver::Allow(rules)),
        _ => Some(Waiver::MissingReason),
    }
}

/// Finds `pattern` in `line` with identifier boundaries on both ends (a
/// pattern starting/ending with a non-identifier char anchors itself).
fn find_token(line: &str, pattern: &str) -> Option<usize> {
    let mut start = 0;
    while let Some(pos) = line[start..].find(pattern) {
        let at = start + pos;
        let before_ok = at == 0
            || !is_ident(line[..at].chars().next_back().unwrap_or(' '))
            || !pattern.starts_with(is_ident);
        let end = at + pattern.len();
        let after_ok = end >= line.len()
            || !is_ident(line[end..].chars().next().unwrap_or(' '))
            || !pattern.ends_with(is_ident);
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + pattern.len();
    }
    None
}

/// Marks every line inside a `#[cfg(test)] mod ... { ... }` region.
fn test_region_mask(slines: &[&str]) -> Vec<bool> {
    let mut mask = vec![false; slines.len()];
    let mut depth: i64 = 0;
    let mut pending_cfg_test = false;
    let mut skip_from_depth: Option<i64> = None;
    for (i, line) in slines.iter().enumerate() {
        if skip_from_depth.is_none() {
            if line.contains("#[cfg(test)]") {
                pending_cfg_test = true;
            } else if pending_cfg_test && find_token(line, "mod").is_some() && line.contains('{') {
                skip_from_depth = Some(depth);
                pending_cfg_test = false;
            } else {
                let t = line.trim();
                // Attributes/blank lines between `#[cfg(test)]` and `mod`
                // keep the pending flag alive; real code clears it.
                if !(t.is_empty() || t.starts_with("#[")) {
                    pending_cfg_test = false;
                }
            }
        }
        if skip_from_depth.is_some() {
            mask[i] = true;
        }
        for c in line.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        if let Some(d) = skip_from_depth {
            if depth <= d {
                skip_from_depth = None;
            }
        }
    }
    mask
}

/// Tokens whose presence in a function body means the function can panic.
const PANIC_TOKENS: &[&str] = &[
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
    "assert!",
    "assert_eq!",
    "assert_ne!",
    ".unwrap()",
    ".expect(",
];

fn body_can_panic(body: &str) -> bool {
    PANIC_TOKENS.iter().any(|t| find_token(body, t).is_some())
}

/// Detects a `pub fn` item start (plain `pub` only — `pub(crate)` is not
/// public API). Allows `const`/`async`/`unsafe` qualifiers between.
fn is_pub_fn_line(sline: &str) -> bool {
    let Some(at) = find_token(sline, "pub") else {
        return false;
    };
    let mut rest = sline[at + 3..].trim_start();
    loop {
        if let Some(r) = rest.strip_prefix("fn") {
            return r.starts_with(|c: char| c.is_whitespace() || !is_ident(c));
        }
        let mut advanced = false;
        for q in ["const", "async", "unsafe"] {
            if let Some(r) = rest.strip_prefix(q) {
                rest = r.trim_start();
                advanced = true;
                break;
            }
        }
        if !advanced {
            return false;
        }
    }
}

/// Scans one file and returns its diagnostics plus the waived count.
pub fn scan_source(ctx: &FileCtx, original: &str) -> ScanResult {
    let sanitized = sanitize(original);
    let olines: Vec<&str> = original.lines().collect();
    let slines: Vec<&str> = sanitized.lines().collect();
    let mask = test_region_mask(&slines);
    let mut out = ScanResult::default();

    // Waivers come from the original text (the sanitizer blanks comments).
    let waivers: Vec<Option<Waiver>> = olines.iter().map(|l| parse_waiver(l)).collect();
    for (i, w) in waivers.iter().enumerate() {
        if mask[i] {
            continue; // test modules are exempt from every rule, W0 included
        }
        if let Some(Waiver::MissingReason) = w {
            out.diagnostics.push(Diagnostic {
                rule: W0,
                file: ctx.rel_path.clone(),
                line: i + 1,
                column: 1,
                message: "waiver has no justification: write \
                          `// peas-lint: allow(<rule>) -- <reason>`"
                    .to_string(),
                snippet: olines[i].trim().to_string(),
            });
        }
    }
    let waived_here = |line_idx: usize, rule: &str| -> bool {
        let hit = |w: &Option<Waiver>| matches!(w, Some(Waiver::Allow(rules)) if rules.iter().any(|r| r == rule));
        hit(&waivers[line_idx]) || (line_idx > 0 && hit(&waivers[line_idx - 1]))
    };

    for rule in TOKEN_RULES {
        if !rule_applies(rule.id, ctx) {
            continue;
        }
        for (i, sline) in slines.iter().enumerate() {
            if mask[i] {
                continue;
            }
            let Some(col) = rule.patterns.iter().find_map(|p| find_token(sline, p)) else {
                continue;
            };
            if waived_here(i, rule.id) {
                out.waived += 1;
            } else {
                out.diagnostics.push(Diagnostic {
                    rule: rule.id,
                    file: ctx.rel_path.clone(),
                    line: i + 1,
                    column: col + 1,
                    message: rule.message.to_string(),
                    snippet: olines.get(i).unwrap_or(&"").trim().to_string(),
                });
            }
        }
    }

    if rule_applies(R2, ctx) {
        scan_undocumented_panics(ctx, &olines, &slines, &mask, &waived_here, &mut out);
    }

    out.diagnostics.sort_by_key(|d| (d.line, d.column));
    out
}

/// R2: every `pub fn` in the panic-doc crates whose body contains a panic
/// token must carry a `# Panics` section in its doc comment.
fn scan_undocumented_panics(
    ctx: &FileCtx,
    olines: &[&str],
    slines: &[&str],
    mask: &[bool],
    waived_here: &dyn Fn(usize, &str) -> bool,
    out: &mut ScanResult,
) {
    for i in 0..slines.len() {
        if mask[i] || !is_pub_fn_line(slines[i]) {
            continue;
        }
        let Some(body) = extract_body(slines, i) else {
            continue;
        };
        if !body_can_panic(&body) {
            continue;
        }
        if doc_block_mentions_panics(olines, i) {
            continue;
        }
        if waived_here(i, R2) {
            out.waived += 1;
        } else {
            out.diagnostics.push(Diagnostic {
                rule: R2,
                file: ctx.rel_path.clone(),
                line: i + 1,
                column: 1,
                message: "public function can panic but its doc comment has no `# Panics` \
                          section"
                    .to_string(),
                snippet: olines.get(i).unwrap_or(&"").trim().to_string(),
            });
        }
    }
}

/// Joins the sanitized body of the fn whose signature starts on `start`:
/// from its opening `{` to the matching `}`. Returns `None` for bodyless
/// declarations (a `;` before any `{`).
fn extract_body(slines: &[&str], start: usize) -> Option<String> {
    let mut body = String::new();
    let mut depth: i64 = 0;
    let mut opened = false;
    for sline in slines.iter().skip(start) {
        for c in sline.chars() {
            if !opened {
                match c {
                    '{' => {
                        opened = true;
                        depth = 1;
                    }
                    ';' => return None,
                    _ => {}
                }
            } else {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(body);
                        }
                    }
                    _ => body.push(c),
                }
            }
        }
        if opened {
            body.push('\n');
        }
    }
    // Unbalanced braces (should not happen on real code): treat what we
    // collected as the body.
    opened.then_some(body)
}

/// Walks upward from the `pub fn` line across attributes and plain
/// comments; `true` if the attached `///` doc block has a `# Panics`
/// heading.
fn doc_block_mentions_panics(olines: &[&str], fn_line: usize) -> bool {
    for j in (0..fn_line).rev() {
        let t = olines[j].trim();
        if t.starts_with("///") {
            if t.trim_start_matches('/').trim().starts_with("# Panics") {
                return true;
            }
        } else if t.starts_with("#[") || t.starts_with("//") || t.is_empty() {
            // Attributes, ordinary comments and blank lines do not detach
            // the doc block.
            continue;
        } else {
            break;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_lib(path: &str) -> FileCtx {
        FileCtx {
            crate_name: "sim".to_string(),
            rel_path: path.to_string(),
            kind: FileKind::Lib,
        }
    }

    fn rules_of(r: &ScanResult) -> Vec<&'static str> {
        r.diagnostics.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn d1_fires_on_hash_collections() {
        let r = scan_source(&sim_lib("x.rs"), "use std::collections::HashMap;\n");
        assert_eq!(rules_of(&r), vec![D1]);
    }

    #[test]
    fn d1_ignores_non_sim_crates() {
        let ctx = FileCtx {
            crate_name: "analysis".to_string(),
            rel_path: "x.rs".to_string(),
            kind: FileKind::Lib,
        };
        let r = scan_source(&ctx, "use std::collections::HashMap;\n");
        assert!(r.diagnostics.is_empty());
    }

    #[test]
    fn d2_allows_bin_frontends() {
        let src = "let t = std::time::Instant::now();\n";
        let lib = scan_source(&sim_lib("x.rs"), src);
        assert_eq!(rules_of(&lib), vec![D2]);
        let bin = FileCtx {
            crate_name: "sim".to_string(),
            rel_path: "src/bin/x.rs".to_string(),
            kind: FileKind::Bin,
        };
        assert!(scan_source(&bin, src).diagnostics.is_empty());
    }

    #[test]
    fn d3_fires_everywhere_even_bins() {
        let bin = FileCtx {
            crate_name: "bench".to_string(),
            rel_path: "src/bin/x.rs".to_string(),
            kind: FileKind::Bin,
        };
        let r = scan_source(&bin, "let mut rng = rand::thread_rng();\n");
        assert_eq!(rules_of(&r), vec![D3]);
    }

    #[test]
    fn d5_fires_on_binary_heap_and_waiver_suppresses() {
        let src = "use std::collections::BinaryHeap;\n";
        let r = scan_source(&sim_lib("x.rs"), src);
        assert_eq!(rules_of(&r), vec![D5]);
        let waived =
            format!("// peas-lint: allow(d5-heap-event-queue) -- heap reference impl\n{src}");
        let r = scan_source(&sim_lib("x.rs"), &waived);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.waived, 1);
        // Outside sim-logic crates the rule is silent.
        let ctx = FileCtx {
            crate_name: "analysis".to_string(),
            rel_path: "x.rs".to_string(),
            kind: FileKind::Lib,
        };
        assert!(scan_source(&ctx, src).diagnostics.is_empty());
    }

    #[test]
    fn r1_fires_and_waiver_suppresses() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let r = scan_source(&sim_lib("x.rs"), src);
        assert_eq!(rules_of(&r), vec![R1]);
        let waived = format!("// peas-lint: allow(r1-unchecked-panic) -- test invariant\n{src}");
        let r = scan_source(&sim_lib("x.rs"), &waived);
        assert!(r.diagnostics.is_empty());
        assert_eq!(r.waived, 1);
    }

    #[test]
    fn d6_fires_on_env_reads_in_sim_logic_libraries_only() {
        let src = "fn f() -> bool {\n    let x = std::env::var(\"X\").is_ok();\n    x || env::var_os(\"Y\").is_some()\n}\n";
        let core_lib = FileCtx {
            crate_name: "core".to_string(),
            rel_path: "crates/core/src/node.rs".to_string(),
            kind: FileKind::Lib,
        };
        let r = scan_source(&core_lib, src);
        assert_eq!(rules_of(&r), vec![D6, D6]);
        assert_eq!(r.diagnostics[0].line, 2);
        assert_eq!(r.diagnostics[1].line, 3, "env::var_os is its own match");
        // Frontends and non-sim crates may read their environment.
        let bin = FileCtx {
            kind: FileKind::Bin,
            ..core_lib.clone()
        };
        assert!(scan_source(&bin, src).diagnostics.is_empty());
        let bench = FileCtx {
            crate_name: "bench".to_string(),
            ..core_lib.clone()
        };
        assert!(scan_source(&bench, src).diagnostics.is_empty());
        // Identifier boundaries: `env::vars` and `myenv::var` are other names.
        let r = scan_source(&core_lib, "fn f() { env::vars(); myenv::var(); }\n");
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        let waived = "fn f() -> bool {\n    // peas-lint: allow(d6-ambient-env) -- test invariant\n    std::env::var(\"X\").is_ok()\n}\n";
        let r = scan_source(&core_lib, waived);
        assert!(r.diagnostics.is_empty());
        assert_eq!(r.waived, 1);
    }

    #[test]
    fn r3_fires_on_narrowing_casts_and_waiver_suppresses() {
        let src = "fn f(x: usize) -> u32 { x as u32 }\n";
        let r = scan_source(&sim_lib("x.rs"), src);
        assert_eq!(rules_of(&r), vec![R3]);
        let waived =
            format!("// peas-lint: allow(r3-unchecked-cast) -- x < 2^32 by construction\n{src}");
        let r = scan_source(&sim_lib("x.rs"), &waived);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.waived, 1);
    }

    #[test]
    fn r3_ignores_usize_casts_and_non_sim_crates() {
        // `as usize` widens on every supported target; not in scope.
        let src = "fn f(x: u32) -> usize { x as usize }\n";
        assert!(scan_source(&sim_lib("x.rs"), src).diagnostics.is_empty());
        // Outside sim-logic crates the rule is silent.
        let ctx = FileCtx {
            crate_name: "analysis".to_string(),
            rel_path: "x.rs".to_string(),
            kind: FileKind::Lib,
        };
        let narrowing = "fn f(x: usize) -> u32 { x as u32 }\n";
        assert!(scan_source(&ctx, narrowing).diagnostics.is_empty());
    }

    #[test]
    fn r3_identifier_boundaries_hold() {
        // An identifier ending in `as` (here `atlas`) must not anchor a
        // match, and `as u32` buried in a wider ident (`u32x4`) must not
        // match either. The scan is textual, so validity is irrelevant.
        let src = "fn f(atlas: Atlas) { atlas u32; x as u32x4 }\n";
        let r = scan_source(&sim_lib("x.rs"), src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn waiver_without_reason_is_flagged() {
        let src =
            "// peas-lint: allow(r1-unchecked-panic)\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let r = scan_source(&sim_lib("x.rs"), src);
        assert_eq!(rules_of(&r), vec![W0, R1]);
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = "pub fn ok() {}\n\n#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n    #[test]\n    fn t() { let x: Option<u32> = None; x.unwrap(); }\n}\n";
        let r = scan_source(&sim_lib("x.rs"), src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn code_after_test_module_is_scanned_again() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n\nuse std::collections::HashSet;\n";
        let r = scan_source(&sim_lib("x.rs"), src);
        assert_eq!(rules_of(&r), vec![D1]);
        assert_eq!(r.diagnostics[0].line, 6);
    }

    #[test]
    fn doc_mentions_do_not_fire() {
        let src = "/// Unlike a `HashMap`, iteration is sorted; `x.unwrap()` in docs is fine.\npub fn f() {}\n";
        let r = scan_source(&sim_lib("x.rs"), src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn identifier_boundaries_respected() {
        let r = scan_source(
            &sim_lib("x.rs"),
            "struct MyHashMapLike; fn f(t: SimInstant) {}\n",
        );
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    fn des_lib() -> FileCtx {
        FileCtx {
            crate_name: "des".to_string(),
            rel_path: "src/x.rs".to_string(),
            kind: FileKind::Lib,
        }
    }

    #[test]
    fn r2_fires_on_undocumented_panicky_pub_fn() {
        let src = "/// Frobnicates.\npub fn frob(x: u32) -> u32 {\n    assert!(x > 0);\n    x\n}\n";
        let r = scan_source(&des_lib(), src);
        assert_eq!(rules_of(&r), vec![R2]);
        assert_eq!(r.diagnostics[0].line, 2);
    }

    #[test]
    fn r2_satisfied_by_panics_section() {
        let src = "/// Frobnicates.\n///\n/// # Panics\n///\n/// Panics if `x` is zero.\npub fn frob(x: u32) -> u32 {\n    assert!(x > 0);\n    x\n}\n";
        let r = scan_source(&des_lib(), src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn r2_ignores_private_and_panic_free_fns() {
        let src = "fn private(x: u32) { assert!(x > 0); }\npub fn calm(x: u32) -> u32 { x + 1 }\n";
        let r = scan_source(&des_lib(), src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn r2_debug_assert_is_not_a_panic_token() {
        let src = "/// Checked.\npub fn f(x: u32) -> u32 {\n    debug_assert!(x > 0);\n    x\n}\n";
        let r = scan_source(&des_lib(), src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn r2_body_braces_in_strings_do_not_confuse() {
        let src = "/// Fmt.\npub fn f(x: u32) -> String {\n    format!(\"{{x}} is {x}\")\n}\npub fn g(y: u32) -> u32 {\n    if y == 0 { panic!(\"zero\") }\n    y\n}\n";
        let r = scan_source(&des_lib(), src);
        // Only `g` fires: the braces inside `f`'s format string must not
        // swallow the rest of the file into `f`'s body.
        assert_eq!(rules_of(&r), vec![R2]);
        assert_eq!(r.diagnostics[0].line, 5);
    }
}
