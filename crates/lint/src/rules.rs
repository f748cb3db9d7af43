//! The invariant rules, as token-pattern matchers.
//!
//! Each rule guards one contract from DESIGN.md's invariant catalog:
//!
//! | Rule | Contract |
//! |------|----------|
//! | D1   | No wall-clock or ambient randomness in determinism-scoped code (`Instant::now`, `SystemTime`, `thread_rng`) |
//! | D2   | No `HashMap`/`HashSet` in determinism-scoped code (iteration order is seeded per process) |
//! | P1   | No `unwrap`/`expect`/`panic!`-family in control-plane code outside tests |
//! | T1   | Only *scoped* thread spawns in determinism-scoped code (`thread::spawn` detaches past the window barrier) |
//! | T2   | No nested lock acquisitions (`.lock()`/`.read()`/`.write()` while another guard is live) — inconsistent ordering deadlocks |
//! | W0   | Waivers must parse and carry a non-empty reason |

use std::fmt;

use crate::lexer::Token;

/// Rule identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Wall clock / ambient RNG in determinism scope.
    D1,
    /// Hash-ordered collections in determinism scope.
    D2,
    /// Panicking operators in control-plane scope.
    P1,
    /// Unscoped thread spawn in determinism scope.
    T1,
    /// Nested lock-guard acquisition (lock-ordering hazard).
    T2,
    /// Mixed-unit arithmetic or unit-dropping assignment.
    U1,
    /// Bare truncating integer division on a unit-tagged quantity.
    U2,
    /// Control-plane call into a function that can reach a panic.
    P2,
    /// Malformed waiver comment.
    W0,
}

/// Every rule, in catalog order (for `--explain` listings and per-rule
/// JSON summaries).
pub const ALL_RULES: &[Rule] = &[
    Rule::D1,
    Rule::D2,
    Rule::P1,
    Rule::P2,
    Rule::T1,
    Rule::T2,
    Rule::U1,
    Rule::U2,
    Rule::W0,
];

impl Rule {
    /// The catalog name, as used in `allow(...)` waivers.
    pub fn name(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::P1 => "P1",
            Rule::T1 => "T1",
            Rule::T2 => "T2",
            Rule::U1 => "U1",
            Rule::U2 => "U2",
            Rule::P2 => "P2",
            Rule::W0 => "W0",
        }
    }

    /// Parses a catalog name back to a rule (for `--explain <RULE>`).
    pub fn parse(name: &str) -> Option<Rule> {
        ALL_RULES
            .iter()
            .copied()
            .find(|r| r.name().eq_ignore_ascii_case(name))
    }

    /// The rule's rationale, a firing example, and the waiver syntax —
    /// printed by `sdfm-lint --explain <RULE>`.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::D1 => "\
D1 — no wall clock or ambient randomness in determinism scope

Why: `FleetSim::step_window` must be bit-identical per seed at any thread
count. `Instant::now()`, `SystemTime`, and `thread_rng()` inject state the
seed does not control, so one run can never be reproduced or diffed.

Fires on:
    let t = Instant::now();          // in crates/core, model, kernel, ...

Fix: derive all time from `SimTime` and thread a seeded `StdRng` from the
caller. Timing-measurement modules (codec cost tables) carry a policy
allowance and need no per-line waiver.

Waiver:
    let t = Instant::now(); // sdfm-lint: allow(D1) reason=\"measures real codec cost\"",
            Rule::D2 => "\
D2 — no HashMap/HashSet in determinism scope

Why: std hash iteration order is seeded per process; any hash-ordered walk
that reaches simulator output breaks bit-identical replay.

Fires on:
    let mut seen = HashSet::new();   // in determinism-scoped crates

Fix: use `BTreeMap`/`BTreeSet`, or drain through an explicit sort before
order reaches output.

Waiver:
    let m = HashMap::new(); // sdfm-lint: allow(D2) reason=\"drained through a sort below\"",
            Rule::P1 => "\
P1 — no panicking operators in control-plane or kernel scope

Why: the paper's contract is graceful degradation — a far-memory control
plane that crashes the machine is worse than no far memory. `unwrap`,
`expect`, and the `panic!` macro family turn a recoverable condition into
a machine-wide outage.

Fires on:
    let cfg = load().unwrap();       // in crates/agent, cluster, kernel

Fix: return a typed error (`SdfmError`/`KernelError`), skip the job, or
fall back to a safe default. Test code (`#[cfg(test)]`, tests/) is exempt.

Waiver:
    let v = xs.first().unwrap(); // sdfm-lint: allow(P1) reason=\"len checked above\"",
            Rule::T1 => "\
T1 — only scoped thread spawns in determinism scope

Why: `thread::spawn` detaches past the simulation window barrier; a
straggler writing after the barrier races the next window and breaks
reproducibility. Crossbeam scoped threads cannot outlive the state they
borrow.

Fires on:
    std::thread::spawn(move || work());

Fix: `thread::scope(|s| { s.spawn(...); })` or the shared worker pool.

Waiver:
    thread::spawn(f); // sdfm-lint: allow(T1) reason=\"joined before window end\"",
            Rule::T2 => "\
T2 — no nested lock acquisitions

Why: two code paths nesting the same pair of locks in opposite orders
deadlock; a deadlocked agent is as dead as a crashed one. The workspace
contract is that no function ever holds two guards at once.

Fires on:
    let a = m1.lock().unwrap_or_else(p);
    let b = m2.lock().unwrap_or_else(p);   // second acquisition, a live

Fix: release the first guard (scope it, `drop(a)`, or end the statement)
before taking the second.

Waiver:
    let b = m2.lock(); // sdfm-lint: allow(T2) reason=\"global ordering documented in pool.rs\"",
            Rule::U1 => "\
U1 — no mixed-unit arithmetic or unit-dropping assignment

Why: every control-plane quantity is integer arithmetic in a fixed unit,
tagged by an identifier suffix: `_ns`, `_permille`/`_per_mille`, `_pages`,
`_frames`, `_bytes` (and `PAGE_SIZE` is bytes). Adding pages to bytes or
assigning a pages value to an `_ns` binding is meaningless arithmetic the
type system cannot see. Tags propagate through `let` bindings whose
right-hand side has one unambiguous unit.

Fires on:
    let budget = cold_pages + spare_bytes;   // pages + bytes
    total_ns = elapsed_pages;                // assignment drops the unit

Silent when any operand's unit is unknown or a conversion is visible
(`pages * PAGE_SIZE`, any non-transparent call).

Fix: convert explicitly (multiply by PAGE_SIZE, call a `*_ns`-named
conversion) so both sides carry the same unit.

Waiver:
    let x = a_pages + b_bytes; // sdfm-lint: allow(U1) reason=\"intentional packed encoding\"",
            Rule::U2 => "\
U2 — no bare integer division on unit-tagged quantities

Why: integer `/` silently floors. PR 6's headline bug was exactly this:
`CostModel::calibrate` computed `total_elapsed_ns / pages` and truncated a
fast codec's per-page cost to 0 ns, making far memory look free. In
`core`/`kernel`/`model`/`compress`, a division whose dividend, divisor, or
binding target carries a unit must state its rounding direction.

Fires on:
    let per_page_ns = total_elapsed_ns / pages;   // the PR 6 shape

Exempt: float division (`as f64`), and divisions inside an explicit
rounding helper (`div_ceil_u64`, `div_floor_u64`, `permille_of`,
`permille_ratio` from sdfm_types::arith, or `.div_ceil(...)`).

Fix: use the sdfm_types::arith helpers — they name the rounding and widen
through u128 so `a * 1000 / b` cannot wrap.

Waiver:
    let x = a_ns / b; // sdfm-lint: allow(U2) reason=\"exact: b divides a by construction\"",
            Rule::P2 => "\
P2 — no control-plane calls into panic-reachable functions

Why: P1 keeps panicking operators out of `crates/agent` and
`crates/cluster` textually, but a helper in sdfm-types that calls
`.unwrap()` crashes the agent just the same. P2 walks the workspace call
graph: any function containing an unwaived panicking operation outside
tests is panic-reachable, and so is anything that calls it, transitively.
Control-plane call sites of such functions are flagged.

Fires on:
    fn tick(&mut self) { let v = risky_helper(); }   // risky_helper unwraps

A definition-site `allow(P1)` waiver declares the panic justified and is
honored transitively — waived helpers are not hazards.

Fix: handle the error at the boundary, add a non-panicking variant, or
waive the call site.

Waiver:
    let v = risky_helper(); // sdfm-lint: allow(P2) reason=\"input validated two lines up\"",
            Rule::W0 => "\
W0 — waivers must parse and carry a non-empty reason

Why: the waiver trail is the audit log for every intentional contract
exception; a typo'd rule list or empty reason silently disables a rule
with no accountability. W0 itself can never be waived.

Fires on:
    // sdfm-lint: allow(D2)                    (missing reason)
    // sdfm-lint: allow() reason=\"x\"           (no rule listed)

Fix: write `// sdfm-lint: allow(RULE[, RULE]) reason=\"non-empty justification\"`
on the violating line or the line above.",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One raw rule hit (before waiver/test-span filtering): rule, source
/// line, token index, and a human-readable description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hit {
    /// Which rule fired.
    pub rule: Rule,
    /// 1-based source line.
    pub line: u32,
    /// Index of the first token of the match (for test-span filtering).
    pub token: usize,
    /// What was matched and why it matters.
    pub message: String,
}

/// Idents that panic when invoked as `ident(…)` method/function calls.
const PANICKING_CALLS: &[&str] = &["unwrap", "expect"];
/// Macros that panic when invoked as `ident!(…)`.
const PANICKING_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Runs every matcher over the token stream. Scope filtering happens in
/// the caller; this reports everything it sees.
pub fn scan(tokens: &[Token]) -> Vec<Hit> {
    let mut hits = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let Some(ident) = t.ident() else { continue };
        match ident {
            "Instant" if path_seg(tokens, i, "now") => hits.push(Hit {
                rule: Rule::D1,
                line: t.line,
                token: i,
                message: "`Instant::now()` reads the wall clock; determinism-scoped code must \
                          derive all time from `SimTime`"
                    .to_string(),
            }),
            "SystemTime" => hits.push(Hit {
                rule: Rule::D1,
                line: t.line,
                token: i,
                message: "`SystemTime` reads the wall clock; determinism-scoped code must \
                          derive all time from `SimTime`"
                    .to_string(),
            }),
            "thread_rng" => hits.push(Hit {
                rule: Rule::D1,
                line: t.line,
                token: i,
                message: "`thread_rng()` is OS-seeded; determinism-scoped code must use a \
                          seeded `StdRng` threaded from the caller"
                    .to_string(),
            }),
            "HashMap" | "HashSet" => hits.push(Hit {
                rule: Rule::D2,
                line: t.line,
                token: i,
                message: format!(
                    "`{ident}` iteration order is randomized per process; use `BTreeMap`/\
                     `BTreeSet` or drain through a sort before order reaches sim output"
                ),
            }),
            "thread" if path_seg(tokens, i, "spawn") => hits.push(Hit {
                rule: Rule::T1,
                line: t.line,
                token: i,
                message: "`thread::spawn` detaches past the window barrier; use \
                          `sdfm_pool::WorkerPool` or `std::thread::scope` so workers cannot \
                          outlive the state they borrow"
                    .to_string(),
            }),
            _ if PANICKING_CALLS.contains(&ident)
                && tokens.get(i + 1).and_then(Token::punct) == Some('(') =>
            {
                hits.push(Hit {
                    rule: Rule::P1,
                    line: t.line,
                    token: i,
                    message: format!(
                        "`.{ident}()` panics on failure; control-plane code must degrade \
                         gracefully (typed error, skip, or drop the job) — never crash the \
                         machine"
                    ),
                });
            }
            _ if PANICKING_MACROS.contains(&ident)
                && tokens.get(i + 1).and_then(Token::punct) == Some('!') =>
            {
                hits.push(Hit {
                    rule: Rule::P1,
                    line: t.line,
                    token: i,
                    message: format!(
                        "`{ident}!` crashes the process; control-plane code must degrade \
                         gracefully — never crash the machine"
                    ),
                });
            }
            _ => {}
        }
    }
    scan_locks(tokens, &mut hits);
    hits
}

/// Guard-returning methods that acquire a lock when called with **no**
/// arguments (`.read(&mut buf)`-style IO calls take arguments and never
/// match).
const LOCK_METHODS: &[&str] = &["lock", "read", "write"];

/// The T2 matcher: a brace-depth tracker over live lock guards.
///
/// A guard is born at a no-argument `.lock()`/`.read()`/`.write()` call
/// and dies when
///
/// * its enclosing brace scope closes,
/// * the statement ends (`;`) and the guard was a temporary (no `let`
///   binding in the statement), or
/// * an explicit `drop(name)` releases the binding.
///
/// Acquiring while any guard is live is the hazard: two code paths that
/// nest the same pair of locks in opposite orders deadlock, and the
/// workspace contract (DESIGN.md, "Worker pool & scheduling determinism")
/// is that no function ever holds two guards at once. Condvar waits
/// (`.wait(guard)`) take an argument and are therefore invisible here,
/// which is exactly right: they *release* the lock while blocked.
fn scan_locks(tokens: &[Token], hits: &mut Vec<Hit>) {
    struct Guard {
        /// `let` binding name, when the statement bound one.
        name: Option<String>,
        /// Brace depth at acquisition; scope close at or above kills it.
        depth: usize,
        /// Acquisition line, for the diagnostic.
        line: u32,
    }
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    // Name bound by `let [mut]` in the current statement, if any.
    let mut stmt_binding: Option<String> = None;
    for (i, t) in tokens.iter().enumerate() {
        match t.punct() {
            Some('{') => {
                depth += 1;
                continue;
            }
            Some('}') => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
                stmt_binding = None;
                continue;
            }
            Some(';') => {
                // Temporaries die with their statement.
                guards.retain(|g| g.name.is_some());
                stmt_binding = None;
                continue;
            }
            _ => {}
        }
        let Some(ident) = t.ident() else { continue };
        match ident {
            "let" => {
                // `let [mut] name = …` / `let name: Ty = …`. Destructuring
                // patterns (`let Some(g)`, `let (a, b)`) bind no single
                // name; their guards are treated as temporaries.
                let mut j = i + 1;
                if tokens.get(j).and_then(Token::ident) == Some("mut") {
                    j += 1;
                }
                stmt_binding = match (
                    tokens.get(j).and_then(Token::ident),
                    tokens.get(j + 1).and_then(Token::punct),
                ) {
                    (Some(name), Some(':' | '=')) => Some(name.to_string()),
                    _ => None,
                };
            }
            "drop"
                if tokens.get(i + 1).and_then(Token::punct) == Some('(')
                    && tokens.get(i + 3).and_then(Token::punct) == Some(')') =>
            {
                if let Some(name) = tokens.get(i + 2).and_then(Token::ident) {
                    guards.retain(|g| g.name.as_deref() != Some(name));
                }
            }
            m if LOCK_METHODS.contains(&m)
                && i > 0
                && tokens[i - 1].punct() == Some('.')
                && tokens.get(i + 1).and_then(Token::punct) == Some('(')
                && tokens.get(i + 2).and_then(Token::punct) == Some(')') =>
            {
                if let Some(held) = guards.last() {
                    hits.push(Hit {
                        rule: Rule::T2,
                        line: t.line,
                        token: i,
                        message: format!(
                            "`.{m}()` acquires a lock while the guard taken on line {} is \
                             still live; nested acquisitions deadlock under inconsistent \
                             ordering — release the first guard (scope, `drop`, or end of \
                             statement) before taking the second",
                            held.line
                        ),
                    });
                }
                guards.push(Guard {
                    name: stmt_binding.clone(),
                    depth,
                    line: t.line,
                });
            }
            _ => {}
        }
    }
}

/// Whether `tokens[i]` is followed by `:: seg` (e.g. `Instant` `::` `now`).
fn path_seg(tokens: &[Token], i: usize, seg: &str) -> bool {
    tokens.get(i + 1).and_then(Token::punct) == Some(':')
        && tokens.get(i + 2).and_then(Token::punct) == Some(':')
        && tokens.get(i + 3).and_then(Token::ident) == Some(seg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn rules_fired(src: &str) -> Vec<Rule> {
        scan(&lex(src).tokens).into_iter().map(|h| h.rule).collect()
    }

    #[test]
    fn d1_matches_each_wall_clock_source() {
        assert_eq!(rules_fired("let t = Instant::now();"), vec![Rule::D1]);
        assert_eq!(
            rules_fired("use std::time::SystemTime;"),
            vec![Rule::D1]
        );
        assert_eq!(rules_fired("let mut r = rand::thread_rng();"), vec![Rule::D1]);
        // `Instant` alone (e.g. stored as a field type) is not a read.
        assert!(rules_fired("fn f(t: Instant) {}").is_empty());
    }

    #[test]
    fn d2_matches_hash_collections_only() {
        assert_eq!(
            rules_fired("let m: HashMap<u32, u32> = HashMap::new();").len(),
            2
        );
        assert_eq!(rules_fired("let s = HashSet::with_capacity(8);"), vec![Rule::D2]);
        assert!(rules_fired("let m: BTreeMap<u32, u32> = BTreeMap::new();").is_empty());
    }

    #[test]
    fn p1_matches_panicking_operators_not_lookalikes() {
        assert_eq!(rules_fired("x.unwrap()"), vec![Rule::P1]);
        assert_eq!(rules_fired("x.expect(\"msg\")"), vec![Rule::P1]);
        assert_eq!(rules_fired("panic!(\"boom\")"), vec![Rule::P1]);
        assert_eq!(rules_fired("unreachable!()"), vec![Rule::P1]);
        assert!(rules_fired("x.unwrap_or(1)").is_empty());
        assert!(rules_fired("x.unwrap_or_else(|| 1)").is_empty());
        assert!(rules_fired("x.unwrap_or_default()").is_empty());
        assert!(rules_fired("x.expect_err(\"e\")").is_empty());
        assert!(rules_fired("#[should_panic(expected = \"boom\")]").is_empty());
        assert!(rules_fired("std::panic::catch_unwind(f)").is_empty());
    }

    #[test]
    fn t1_matches_detached_spawn_not_scoped() {
        assert_eq!(rules_fired("std::thread::spawn(move || {})"), vec![Rule::T1]);
        assert_eq!(rules_fired("thread::spawn(f)"), vec![Rule::T1]);
        assert!(rules_fired("thread::scope(|s| { s.spawn(move |_| {}); })").is_empty());
    }

    #[test]
    fn t2_fires_on_nested_guards() {
        // Second acquisition while the first binding is still live.
        let src = "fn f() { let a = m1.lock().unwrap(); let b = m2.lock().unwrap(); }";
        // P1 hits come from the main scan, T2 from the guard tracker.
        assert_eq!(rules_fired(src), vec![Rule::P1, Rule::P1, Rule::T2]);
        // RwLock read nested under a mutex guard.
        let src = "fn f() { let g = state.lock().unwrap_or_else(p); let r = map.read().unwrap_or_else(p); }";
        assert_eq!(rules_fired(src), vec![Rule::T2]);
        // Two temporaries held inside one statement.
        let src = "fn f() -> u32 { a.lock().unwrap_or_default().x + b.lock().unwrap_or_default().y }";
        assert_eq!(rules_fired(src), vec![Rule::T2]);
    }

    #[test]
    fn t2_silent_when_guards_never_overlap() {
        // Sequential statements with temporaries: each dies at its `;`.
        let src = "fn f() { m1.lock().unwrap_or_default(); m2.lock().unwrap_or_default(); }";
        assert!(rules_fired(src).is_empty());
        // Scoped guard released by its block before the next acquisition.
        let src = "fn f() { { let a = m1.lock().unwrap_or_else(p); use_it(a); } let b = m2.lock().unwrap_or_else(p); }";
        assert!(rules_fired(src).is_empty());
        // Explicit drop releases the binding.
        let src = "fn f() { let a = m1.lock().unwrap_or_else(p); drop(a); let b = m2.lock().unwrap_or_else(p); }";
        assert!(rules_fired(src).is_empty());
        // Separate functions never share guard state.
        let src = "fn f() { let a = m1.lock().unwrap_or_else(p); }\nfn g() { let b = m2.lock().unwrap_or_else(p); }";
        assert!(rules_fired(src).is_empty());
    }

    #[test]
    fn t2_ignores_argumented_read_write_and_condvar_wait() {
        // IO-style calls take arguments; only no-arg guard ctors match.
        let src = "fn f(r: &mut R) { r.read(&mut buf).ok(); w.write(&buf).ok(); }";
        assert!(rules_fired(src).is_empty());
        // Condvar wait consumes and re-yields the guard — not a second
        // acquisition (and it releases while blocked).
        let src = "fn f() { let mut s = m.lock().unwrap_or_else(p); while s.n > 0 { s = cv.wait(s).unwrap_or_else(p); } }";
        assert!(rules_fired(src).is_empty());
    }

    #[test]
    fn matches_inside_strings_or_comments_never_fire() {
        assert!(rules_fired("let s = \"Instant::now() HashMap unwrap()\";").is_empty());
        assert!(rules_fired("// thread_rng() would be bad here\nlet x = 1;").is_empty());
        assert!(rules_fired("/* panic!(\"no\") */ let x = 1;").is_empty());
    }
}
