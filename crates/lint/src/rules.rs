//! The determinism & durability rule engine.
//!
//! Each rule is a token-level check scoped by file path (see
//! [`FileScope`]). A finding is suppressed only by an inline
//! annotation on the same line or on a standalone comment line
//! directly above:
//!
//! ```text
//! // qma-lint: allow(wall-clock) — lease staleness is real time
//! ```
//!
//! The reason after the separator (`—`, `--`, `-` or `:`) is
//! mandatory: a reason-less or malformed annotation is itself a
//! finding (`bad-allow`), and `bad-allow` cannot be allowed away.

use crate::scan::{scan, Scanned, Token};

/// The rule identifiers, exactly as they appear in findings, in
/// `allow(...)` annotations and in `--format json` output.
pub const RULE_NAMES: [&str; 7] = [
    "hash-iter",
    "wall-clock",
    "entropy",
    "raw-durability",
    "bare-thread",
    "unsafe-code",
    "bad-allow",
];

/// Sim crates: everything that executes inside a replication and
/// therefore must be bit-deterministic across scheduler engines,
/// replication threads and processes.
const SIM_CRATES: [&str; 11] = [
    "core",
    "des",
    "dsme",
    "mac",
    "markov",
    "net",
    "netsim",
    "phy",
    "scenarios",
    "stats",
    "topo",
];

/// HashMap/HashSet methods whose visit order is hash order.
/// Lookup-style methods (`get`, `insert`, `contains`, `remove`,
/// `entry`, `len`, `is_empty`) stay legal: storage may be unordered,
/// *observation* of its order may not.
const ITER_METHODS: [&str; 6] = ["iter", "iter_mut", "keys", "values", "values_mut", "drain"];

/// The inventoried unsafe blocks of the workspace. `unsafe` anywhere
/// else is a finding; an inventoried file that no longer contains
/// `unsafe` is *also* a finding, so the inventory cannot rot.
pub const UNSAFE_INVENTORY: [(&str, &str); 1] = [(
    "crates/bench/src/bin/qmad.rs",
    "libc sigaction registration for SIGTERM lame-duck; async-signal-safe flag store only",
)];

/// One unsuppressed rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule identifier (one of [`RULE_NAMES`]).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

/// Which rules apply to a file, derived from its path.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileScope {
    /// Skip the file entirely (vendor shims, lint fixtures).
    pub skip: bool,
    /// Rule 1: unordered-collection iteration.
    pub hash_iter: bool,
    /// Rule 2: wall-clock reads.
    pub wall_clock: bool,
    /// Rule 3: OS-entropy seeding.
    pub entropy: bool,
    /// Rule 4 (full): raw write/create/rename primitives — campaign
    /// and service layers, production regions.
    pub durability_writes: bool,
    /// Rule 4 (rename only): `fs::rename` bypassing
    /// `campaign::durable::rename_durable` — applies in tests too.
    pub durability_rename: bool,
    /// Rule 5: bare `thread::spawn`/`thread::Builder`.
    pub bare_thread: bool,
    /// Rule 6: `unsafe` outside the inventory.
    pub unsafe_code: bool,
    /// File is in [`UNSAFE_INVENTORY`].
    pub unsafe_inventoried: bool,
}

impl FileScope {
    /// Resolves the scope for a workspace-relative path.
    pub fn for_path(path: &str) -> FileScope {
        let p = path.replace('\\', "/");
        let mut s = FileScope::default();
        if p.starts_with("vendor/") || p.starts_with("target/") || p.contains("tests/fixtures/") {
            s.skip = true;
            return s;
        }
        let is_test = p.starts_with("tests/")
            || p.contains("/tests/")
            || p.contains("/benches/")
            || p.starts_with("examples/");
        s.unsafe_inventoried = UNSAFE_INVENTORY.iter().any(|(f, _)| *f == p);
        if is_test {
            // Test code may plant fixtures with raw writes and time
            // out on wall clocks, but it must not seed from entropy
            // (replications would become unreproducible) nor publish
            // fabric/service state with a bare rename.
            s.entropy = true;
            s.durability_rename = true;
            return s;
        }
        let sim_crate = SIM_CRATES
            .iter()
            .any(|c| p.starts_with(&format!("crates/{c}/src/")))
            || p.starts_with("src/");
        let campaign_service = p.starts_with("crates/bench/src/campaign/")
            || p.starts_with("crates/bench/src/service/");
        let clock_allowlisted = p.starts_with("crates/bench/src/bin/");
        let durable_impl = p == "crates/bench/src/campaign/durable.rs";

        s.entropy = true;
        s.unsafe_code = true;
        s.wall_clock = !clock_allowlisted;
        s.hash_iter = sim_crate || p.starts_with("crates/bench/src/campaign/");
        s.bare_thread = p.starts_with("crates/des/src/") || p.starts_with("crates/netsim/src/");
        if campaign_service && !durable_impl {
            s.durability_writes = true;
            s.durability_rename = true;
        }
        s
    }
}

/// A parsed `qma-lint: allow(rule)` annotation with the lines it
/// covers (its own line, or the next code line when it stands alone).
#[derive(Debug, Clone)]
struct Allow {
    rule: String,
    lines: Vec<u32>,
}

/// Extracts allow annotations; malformed/reason-less/unknown ones
/// become `bad-allow` findings instead of annotations.
fn parse_allows(scanned: &Scanned, file: &str) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut findings = Vec::new();
    for c in &scanned.comments {
        // Annotations are plain `//` comments next to the code they
        // justify; doc comments merely *talk about* the syntax.
        if c.text.starts_with("///")
            || c.text.starts_with("//!")
            || c.text.starts_with("/**")
            || c.text.starts_with("/*!")
        {
            continue;
        }
        let Some(at) = c.text.find("qma-lint:") else {
            continue;
        };
        let rest = &c.text[at + "qma-lint:".len()..];
        let bad = |message: String| Finding {
            file: file.to_string(),
            line: c.line,
            rule: "bad-allow",
            message,
        };
        let Some(open) = rest.find("allow(") else {
            findings.push(bad(
                "malformed qma-lint annotation: expected `allow(<rule>) — <reason>`".to_string(),
            ));
            continue;
        };
        let after = &rest[open + "allow(".len()..];
        let Some(close) = after.find(')') else {
            findings.push(bad("unclosed allow(...) annotation".to_string()));
            continue;
        };
        let rule = after[..close].trim().to_string();
        if rule == "bad-allow" || !RULE_NAMES.contains(&rule.as_str()) {
            findings.push(bad(format!(
                "allow({rule}) names no suppressible rule (known: {})",
                RULE_NAMES[..6].join(", ")
            )));
            continue;
        }
        let reason = after[close + 1..]
            .trim_start_matches([' ', '\t', '—', '–', '-', ':', '*'])
            .trim();
        if reason.is_empty() {
            findings.push(bad(format!(
                "allow({rule}) carries no reason; a justification is mandatory"
            )));
            continue;
        }
        let mut lines = vec![c.line];
        if !scanned.has_code_on(c.line) {
            if let Some(next) = scanned.next_code_line_after(c.line) {
                lines.push(next);
            }
        }
        allows.push(Allow { rule, lines });
    }
    (allows, findings)
}

/// Matches `pat` (idents and punctuation, `"::"` pre-merged) at
/// token position `i`.
fn seq_at(toks: &[Token], i: usize, pat: &[&str]) -> bool {
    pat.len() <= toks.len() - i && pat.iter().zip(&toks[i..]).all(|(p, t)| *p == t.text)
}

/// Every start line at which `pat` occurs in the token stream.
fn find_seq(toks: &[Token], pat: &[&str]) -> Vec<u32> {
    let mut hits = Vec::new();
    if toks.len() < pat.len() {
        return hits;
    }
    for i in 0..=toks.len() - pat.len() {
        if seq_at(toks, i, pat) {
            hits.push(toks[i].line);
        }
    }
    hits
}

/// First line of a `#[cfg(test)]` attribute, if any. By workspace
/// convention the in-file test module is the tail of the file, so
/// production-only rules stop firing from this line on.
fn cfg_test_start(toks: &[Token]) -> Option<u32> {
    (0..toks.len())
        .find(|&i| seq_at(toks, i, &["#", "[", "cfg", "(", "test", ")", "]"]))
        .map(|i| toks[i].line)
}

/// Identifiers bound to `HashMap`/`HashSet` in this file: struct
/// fields and `let`/assignment initialisers. A token-level
/// approximation of type inference — deliberately greedy, because a
/// missed binding silently exempts an unordered fold.
fn hash_bound_names(toks: &[Token]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    let is_hash = |t: &Token| t.text == "HashMap" || t.text == "HashSet";
    for i in 0..toks.len() {
        if !is_hash(&toks[i]) {
            continue;
        }
        // `name: [&|&mut|wrapper<]* HashMap<...>` — walk back over
        // reference/wrapper noise to the annotated identifier.
        let mut j = i;
        let mut budget = 6;
        while j > 0 && budget > 0 {
            j -= 1;
            budget -= 1;
            match toks[j].text.as_str() {
                "&" | "mut" | "<" | "Option" | "Arc" | "Mutex" | "RwLock" | "Box" | "Vec" => {
                    continue
                }
                ":" => {
                    if j > 0 && is_ident(&toks[j - 1].text) {
                        push_unique(&mut names, &toks[j - 1].text);
                    }
                    break;
                }
                "=" => {
                    // `name = HashMap::new()` / `= HashMap::from(...)`
                    if j > 0 && is_ident(&toks[j - 1].text) {
                        push_unique(&mut names, &toks[j - 1].text);
                    }
                    break;
                }
                _ => break,
            }
        }
    }
    names
}

fn is_ident(t: &str) -> bool {
    t.chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
}

fn push_unique(names: &mut Vec<String>, n: &str) {
    if !names.iter().any(|x| x == n) {
        names.push(n.to_string());
    }
}

/// Rule 1: iteration over hash-ordered collections.
fn check_hash_iter(toks: &[Token], out: &mut Vec<(u32, String)>) {
    let bound = hash_bound_names(toks);
    if bound.is_empty() {
        return;
    }
    for name in &bound {
        // `name.iter()` / `name.keys()` / ... — also catches
        // `self.name\n    .iter()` since tokens ignore line breaks.
        for m in ITER_METHODS {
            for line in find_seq(toks, &[name, ".", m, "("]) {
                out.push((
                    line,
                    format!(
                        "`{name}.{m}()` iterates a Hash{{Map,Set}} in hash order; \
                         use BTreeMap/BTreeSet or collect-and-sort before folding"
                    ),
                ));
            }
        }
        for line in find_seq(toks, &[name, ".", "into_iter", "("]) {
            out.push((
                line,
                format!(
                    "`{name}.into_iter()` consumes a Hash{{Map,Set}} in hash order; \
                     use BTreeMap/BTreeSet or collect-and-sort before folding"
                ),
            ));
        }
    }
    // `for x in [&[mut]] [self.]name { ... }`
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text != "for" {
            i += 1;
            continue;
        }
        // `impl Trait for Type` and `for<'a>` are not loops.
        if (i > 0 && (is_ident(&toks[i - 1].text) || toks[i - 1].text == ">"))
            || toks.get(i + 1).is_some_and(|t| t.text == "<")
        {
            i += 1;
            continue;
        }
        let Some(in_pos) = (i + 1..toks.len().min(i + 24)).find(|&j| toks[j].text == "in") else {
            i += 1;
            continue;
        };
        for j in in_pos + 1..toks.len().min(in_pos + 12) {
            if toks[j].text == "{" {
                break;
            }
            if bound.iter().any(|n| *n == toks[j].text) {
                out.push((
                    toks[i].line,
                    format!(
                        "`for … in {}` visits a Hash{{Map,Set}} in hash order; \
                         use BTreeMap/BTreeSet or collect-and-sort first",
                        toks[j].text
                    ),
                ));
                break;
            }
        }
        i = in_pos + 1;
    }
}

/// Runs every scoped rule over one file. `path` must be
/// workspace-relative with `/` separators.
pub fn check_file(path: &str, source: &str) -> Vec<Finding> {
    let scope = FileScope::for_path(path);
    if scope.skip {
        return Vec::new();
    }
    let scanned = scan(source);
    let toks = &scanned.tokens;
    let (allows, mut findings) = parse_allows(&scanned, path);
    let test_start = cfg_test_start(toks);
    let in_test = |line: u32| test_start.is_some_and(|t| line >= t);

    // (line, rule, message) candidates, suppressed below.
    let mut raw: Vec<(u32, &'static str, String)> = Vec::new();

    if scope.hash_iter {
        let mut hits = Vec::new();
        check_hash_iter(toks, &mut hits);
        for (line, msg) in hits {
            if !in_test(line) {
                raw.push((line, "hash-iter", msg));
            }
        }
    }
    if scope.wall_clock {
        for pat in [["Instant", "::", "now"], ["SystemTime", "::", "now"]] {
            for line in find_seq(toks, &pat) {
                if !in_test(line) {
                    raw.push((
                        line,
                        "wall-clock",
                        format!(
                            "`{}::now()` reads the wall clock in a deterministic layer; \
                             simulated time must come from the DES clock",
                            pat[0]
                        ),
                    ));
                }
            }
        }
    }
    if scope.entropy {
        for ident in ["thread_rng", "from_entropy", "OsRng", "getrandom"] {
            for line in find_seq(toks, &[ident]) {
                raw.push((
                    line,
                    "entropy",
                    format!(
                        "`{ident}` seeds from OS entropy; every stream must derive from \
                         the campaign master seed (qma_des::seed)"
                    ),
                ));
            }
        }
    }
    if scope.durability_writes {
        for (pat, what) in [
            (&["fs", "::", "write"][..], "fs::write"),
            (&["File", "::", "create"][..], "File::create"),
            (&["OpenOptions", "::", "new"][..], "OpenOptions::new"),
        ] {
            for line in find_seq(toks, pat) {
                if !in_test(line) {
                    raw.push((
                        line,
                        "raw-durability",
                        format!(
                            "raw `{what}` in a publish path; artifacts must go through \
                             campaign::durable (write_atomic/append_durable)"
                        ),
                    ));
                }
            }
        }
    }
    if scope.durability_rename || scope.durability_writes {
        for line in find_seq(toks, &["fs", "::", "rename"]) {
            if !in_test(line) {
                raw.push((
                    line,
                    "raw-durability",
                    "bare `fs::rename` is not crash-durable; use \
                     campaign::durable::rename_durable (rename + parent-dir fsync)"
                        .to_string(),
                ));
            }
        }
    }
    if scope.bare_thread {
        for (pat, what) in [
            (&["thread", "::", "spawn"][..], "thread::spawn"),
            (&["thread", "::", "Builder"][..], "thread::Builder"),
        ] {
            for line in find_seq(toks, pat) {
                if !in_test(line) {
                    raw.push((
                        line,
                        "bare-thread",
                        format!(
                            "bare `{what}` in the kernel; a replication runs on \
                             one thread, and any helper thread must be scoped \
                             (std::thread::scope)"
                        ),
                    ));
                }
            }
        }
    }
    if scope.unsafe_code || scope.unsafe_inventoried {
        let unsafe_lines = find_seq(toks, &["unsafe"]);
        if scope.unsafe_inventoried {
            if unsafe_lines.is_empty() {
                raw.push((
                    1,
                    "unsafe-code",
                    "file is in the unsafe inventory but no longer contains `unsafe`; \
                     prune UNSAFE_INVENTORY"
                        .to_string(),
                ));
            }
        } else {
            for line in unsafe_lines {
                raw.push((
                    line,
                    "unsafe-code",
                    "`unsafe` outside the inventoried allowlist; register the block in \
                     qma-lint's UNSAFE_INVENTORY with a justification"
                        .to_string(),
                ));
            }
        }
    }

    for (line, rule, message) in raw {
        let suppressed = allows
            .iter()
            .any(|a| a.rule == rule && a.lines.contains(&line));
        if !suppressed {
            findings.push(Finding {
                file: path.to_string(),
                line,
                rule,
                message,
            });
        }
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, src: &str) -> Vec<Finding> {
        check_file(path, src)
    }

    #[test]
    fn sim_crate_hash_iteration_fires_and_btree_does_not() {
        let bad = "use std::collections::HashMap;\n\
                   struct S { m: HashMap<u32, u64> }\n\
                   impl S { fn f(&self) -> usize { self.m.keys().count() } }\n";
        let hits = lint("crates/netsim/src/x.rs", bad);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "hash-iter");
        assert_eq!(hits[0].line, 3);

        let good = bad.replace("HashMap", "BTreeMap");
        assert!(lint("crates/netsim/src/x.rs", &good).is_empty());
    }

    #[test]
    fn multiline_chain_is_caught() {
        let src = "use std::collections::HashMap;\n\
                   struct S { neighbors: HashMap<u32, u32> }\n\
                   impl S { fn f(&self) -> usize {\n\
                       self.neighbors\n\
                           .values()\n\
                           .count()\n\
                   } }\n";
        let hits = lint("crates/net/src/x.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 4, "finding anchors at the receiver");
    }

    #[test]
    fn lookup_methods_stay_legal() {
        let src = "use std::collections::HashMap;\n\
                   struct S { m: HashMap<u32, u64> }\n\
                   impl S { fn f(&mut self) { self.m.insert(1, 2); self.m.get(&1); } }\n";
        assert!(lint("crates/mac/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_with_reason_suppresses_and_reasonless_does_not() {
        let ok = "struct S;\n\
                  impl S { fn f(&self) {\n\
                      // qma-lint: allow(wall-clock) — service heartbeat pacing is real time\n\
                      let _ = std::time::Instant::now();\n\
                  } }\n";
        assert!(lint("crates/bench/src/service/x.rs", ok).is_empty());

        let bad = ok.replace(" — service heartbeat pacing is real time", "");
        let hits = lint("crates/bench/src/service/x.rs", &bad);
        let rules: Vec<&str> = hits.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"bad-allow"), "{hits:?}");
        assert!(
            rules.contains(&"wall-clock"),
            "an invalid allow must not suppress: {hits:?}"
        );
    }

    #[test]
    fn allow_on_same_line_works() {
        let src = "fn f() { let _ = std::time::Instant::now(); } \
                   // qma-lint: allow(wall-clock) — measured, not simulated\n";
        assert!(lint("crates/des/src/x.rs", src).is_empty());
    }

    #[test]
    fn unknown_rule_allow_is_flagged() {
        let src = "// qma-lint: allow(no-such-rule) — confidently wrong\nfn f() {}\n";
        let hits = lint("crates/core/src/x.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "bad-allow");
    }

    #[test]
    fn entropy_fires_everywhere_even_in_tests() {
        let src = "fn f() { let r = rand::thread_rng(); }\n";
        assert_eq!(lint("tests/foo.rs", src).len(), 1);
        assert_eq!(lint("crates/stats/src/x.rs", src).len(), 1);
        assert!(lint("vendor/rand/src/lib.rs", src).is_empty());
    }

    #[test]
    fn durability_scoped_to_campaign_and_service() {
        let src = "fn f() { std::fs::rename(\"a\", \"b\").unwrap(); }\n";
        assert_eq!(lint("crates/bench/src/campaign/x.rs", src).len(), 1);
        assert!(lint("crates/bench/src/campaign/durable.rs", src).is_empty());
        assert_eq!(
            lint("crates/bench/tests/x.rs", src).len(),
            1,
            "rename bypass is flagged in tests too"
        );
    }

    #[test]
    fn cfg_test_tail_is_exempt_from_prod_rules() {
        let src = "fn f() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn g() { std::fs::write(\"x\", \"y\").unwrap(); }\n\
                   }\n";
        assert!(lint("crates/bench/src/service/x.rs", src).is_empty());
    }

    #[test]
    fn unsafe_outside_inventory_fires() {
        let src = "fn f() { unsafe { core::hint::unreachable_unchecked() } }\n";
        assert_eq!(lint("crates/phy/src/x.rs", src).len(), 1);
        // Attribute mentions are not the keyword.
        let attr = "#[allow(unsafe_code)]\nfn g() {}\n";
        assert!(lint("crates/phy/src/y.rs", attr).is_empty());
    }

    #[test]
    fn stale_inventory_entry_is_flagged() {
        let hits = lint("crates/bench/src/bin/qmad.rs", "fn totally_safe_now() {}\n");
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("prune"), "{hits:?}");
    }

    #[test]
    fn bare_thread_spawn_in_kernel_fires() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(lint("crates/des/src/x.rs", src).len(), 1);
        assert!(lint("crates/bench/src/service/x.rs", src).is_empty());
        let scoped = "fn f() { std::thread::scope(|s| {}); }\n";
        assert!(lint("crates/des/src/y.rs", scoped).is_empty());
    }
}
