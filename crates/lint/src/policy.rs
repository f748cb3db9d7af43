//! The per-crate scope policy: which invariants apply to which files.
//!
//! Scopes are path-prefix based and mirror the architecture in DESIGN.md
//! ("Invariant catalog"):
//!
//! * **Determinism scope** (rules D1/D2/T1/T2) — everything whose
//!   execution reaches simulator output that must be bit-identical per
//!   seed and thread count: the fleet simulator and the rest of
//!   `sdfm-core`, the offline replay model, the simulated kernel, the
//!   statistical workload models, and the worker pool that schedules all
//!   of them.
//! * **Control-plane scope** (rules P1/T2) — code standing in for the
//!   production node agent and cluster manager (`sdfm-agent`,
//!   `sdfm-cluster`): the paper's contract is graceful degradation, never
//!   crashing the machine, so panicking operators are banned outside
//!   tests, and lock nesting (T2) is banned because a deadlocked agent is
//!   as dead as a crashed one.
//! * **Timing-measurement allowances** — modules whose whole purpose is
//!   to measure wall-clock cost of real work (codec timing, experiment
//!   overhead tables) keep `Instant::now` without per-line waivers.
//!
//! Vendored stubs (`vendor/`), build output, and the checker itself are
//! out of scope entirely.

use crate::rules::Rule;

/// The rule scope computed for one file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileScope {
    /// Whole file is test/bench/example code: every rule is exempt.
    pub test_file: bool,
    /// D1/D2/T1 apply.
    pub determinism: bool,
    /// P1 applies because the file stands in for the production node
    /// agent or cluster manager.
    pub control_plane: bool,
    /// P1 applies because the file is machine-state code whose errors
    /// must surface as typed `KernelError`s, not panics (the simulated
    /// kernel after the store-lifecycle refactor).
    pub panic_safety: bool,
    /// U1 applies: the file participates in the unit-suffix convention
    /// (`_ns`/`_permille`/`_pages`/`_frames`/`_bytes`).
    pub units: bool,
    /// U2 applies: truncating integer division on unit-tagged values must
    /// state its rounding direction (simulator/kernel/model/compress).
    pub division: bool,
    /// Rules granted a policy-level allowance for this file.
    pub allowed: Vec<Rule>,
}

impl FileScope {
    /// Whether `rule` is enforced for this file at all.
    pub fn enforces(&self, rule: Rule) -> bool {
        if self.test_file || self.allowed.contains(&rule) {
            return false;
        }
        match rule {
            Rule::D1 | Rule::D2 | Rule::T1 => self.determinism,
            Rule::P1 => self.control_plane || self.panic_safety,
            // Lock-ordering hazards deadlock either kind of code: the
            // pool's run() barrier in determinism scope, the agent's
            // event loop in control-plane scope.
            Rule::T2 => self.determinism || self.control_plane,
            Rule::U1 => self.units,
            Rule::U2 => self.division,
            // Panic reachability matters where P1 does for daemons: the
            // control plane must not crash through its helpers either.
            Rule::P2 => self.control_plane,
            // Waiver hygiene is checked everywhere in scope of anything.
            Rule::W0 => {
                self.determinism || self.control_plane || self.panic_safety || self.units
                    || self.division
            }
        }
    }
}

/// Path prefixes (workspace-relative, `/`-separated) that carry the
/// determinism contract.
const DETERMINISM_SCOPE: &[&str] = &[
    "crates/core/src/",
    "crates/model/src/",
    "crates/kernel/src/",
    "crates/workloads/src/",
    "crates/pool/src/",
];

/// Path prefixes that carry the panic-safety contract because they stand
/// in for production control-plane daemons.
const CONTROL_PLANE_SCOPE: &[&str] = &["crates/agent/src/", "crates/cluster/src/"];

/// Path prefixes that carry the panic-safety contract because they model
/// machine state: the simulated kernel reports failures as typed
/// [`KernelError`]s (stale handles, store corruption, missing tier-1
/// devices), so `unwrap`/`expect` outside tests is a policy violation —
/// genuine invariants take an inline `sdfm-lint: allow(P1)` waiver.
const PANIC_SAFETY_SCOPE: &[&str] = &["crates/kernel/src/"];

/// Path prefixes that follow the unit-suffix convention (U1): every crate
/// whose arithmetic is unit-tagged integer math. Bench binaries and the
/// autotuner (float-heavy GP code) are out.
const UNITS_SCOPE: &[&str] = &[
    "crates/types/src/",
    "crates/compress/src/",
    "crates/kernel/src/",
    "crates/core/src/",
    "crates/model/src/",
    "crates/workloads/src/",
    "crates/agent/src/",
    "crates/cluster/src/",
];

/// Path prefixes where bare integer division on unit-tagged values must
/// state its rounding direction (U2): the crates whose quotients feed
/// simulator decisions, where a silent floor is a correctness bug (the
/// PR 6 calibrate truncation lived in `kernel/src/cost.rs`).
const DIVISION_SCOPE: &[&str] = &[
    "crates/core/src/",
    "crates/kernel/src/",
    "crates/model/src/",
    "crates/compress/src/",
];

/// Files allowed to read the wall clock: they *measure* real CPU work
/// (codec timing feeding the cost model, experiment overhead reporting)
/// and never feed timing back into simulated state.
const TIMING_ALLOWANCES: &[&str] = &[
    "crates/kernel/src/cost.rs",
    "crates/core/src/experiments/overhead.rs",
    "crates/core/src/experiments/tables.rs",
];

/// Whether a path should be skipped entirely (not a workspace source).
pub fn skip_entirely(rel_path: &str) -> bool {
    let p = rel_path.trim_start_matches("./");
    p.starts_with("vendor/")
        || p.starts_with("target/")
        || p.contains("/target/")
        || p.starts_with(".git/")
        || p.starts_with("crates/lint/")
        // Its own `[workspace]`: never part of this workspace's call graph.
        || p.starts_with("benchmark/")
}

/// Computes the scope for a workspace-relative path.
pub fn classify(rel_path: &str) -> FileScope {
    let p = rel_path.trim_start_matches("./").replace('\\', "/");
    let test_file = p.starts_with("tests/")
        || p.starts_with("examples/")
        || p.starts_with("benches/")
        || p.contains("/tests/")
        || p.contains("/benches/")
        || p.contains("/examples/")
        || p.ends_with("build.rs");
    let determinism = DETERMINISM_SCOPE.iter().any(|s| p.starts_with(s));
    let control_plane = CONTROL_PLANE_SCOPE.iter().any(|s| p.starts_with(s));
    let panic_safety = PANIC_SAFETY_SCOPE.iter().any(|s| p.starts_with(s));
    let units = UNITS_SCOPE.iter().any(|s| p.starts_with(s));
    let division = DIVISION_SCOPE.iter().any(|s| p.starts_with(s));
    let mut allowed = Vec::new();
    if TIMING_ALLOWANCES.contains(&p.as_str()) {
        allowed.push(Rule::D1);
    }
    FileScope {
        test_file,
        determinism,
        control_plane,
        panic_safety,
        units,
        division,
        allowed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_paths_are_determinism_scoped() {
        assert!(classify("crates/core/src/fleet_sim.rs").determinism);
        assert!(classify("crates/model/src/fleet.rs").determinism);
        assert!(classify("crates/kernel/src/thermostat.rs").determinism);
        assert!(classify("crates/workloads/src/stat.rs").determinism);
        assert!(classify("crates/pool/src/lib.rs").determinism);
        assert!(!classify("crates/bench/src/bin/fig1.rs").determinism);
    }

    #[test]
    fn t2_enforced_in_both_scopes() {
        assert!(classify("crates/pool/src/lib.rs").enforces(Rule::T2));
        assert!(classify("crates/agent/src/node_agent.rs").enforces(Rule::T2));
        assert!(classify("crates/core/src/fleet_sim.rs").enforces(Rule::T2));
        assert!(!classify("crates/autotuner/src/gp.rs").enforces(Rule::T2));
    }

    #[test]
    fn control_plane_paths_get_p1() {
        assert!(classify("crates/agent/src/node_agent.rs").enforces(Rule::P1));
        assert!(classify("crates/cluster/src/machine.rs").enforces(Rule::P1));
    }

    #[test]
    fn kernel_paths_get_p1_via_panic_safety() {
        // The simulated kernel returns typed KernelErrors for machine
        // faults; panicking operators are banned there just like in the
        // control plane, while crates outside both scopes stay exempt.
        let kernel = classify("crates/kernel/src/kernel.rs");
        assert!(kernel.panic_safety && !kernel.control_plane);
        assert!(kernel.enforces(Rule::P1));
        assert!(classify("crates/kernel/src/zswap.rs").enforces(Rule::P1));
        assert!(classify("crates/kernel/src/writeback.rs").enforces(Rule::P1));
        assert!(!classify("crates/kernel/tests/properties.rs").enforces(Rule::P1));
        assert!(!classify("crates/autotuner/src/gp.rs").enforces(Rule::P1));
    }

    #[test]
    fn timing_modules_keep_instant_now() {
        let cost = classify("crates/kernel/src/cost.rs");
        assert!(!cost.enforces(Rule::D1));
        assert!(cost.enforces(Rule::D2), "only D1 is waived for cost.rs");
        assert!(!classify("crates/core/src/experiments/overhead.rs").enforces(Rule::D1));
    }

    #[test]
    fn unit_discipline_scopes() {
        // U1 covers every unit-tagged crate, including types and the
        // control plane; U2 only where quotients feed simulator decisions.
        assert!(classify("crates/types/src/size.rs").enforces(Rule::U1));
        assert!(classify("crates/agent/src/node_agent.rs").enforces(Rule::U1));
        assert!(classify("crates/compress/src/measure.rs").enforces(Rule::U2));
        assert!(classify("crates/kernel/src/cost.rs").enforces(Rule::U2));
        assert!(classify("crates/core/src/fleet_sim.rs").enforces(Rule::U2));
        assert!(!classify("crates/types/src/size.rs").enforces(Rule::U2));
        assert!(!classify("crates/agent/src/node_agent.rs").enforces(Rule::U2));
        assert!(!classify("crates/autotuner/src/gp.rs").enforces(Rule::U1));
        assert!(!classify("crates/kernel/tests/properties.rs").enforces(Rule::U2));
        // The SoA/AoS equivalence suite is test code, outside
        // simulator-state enforcement.
        assert!(classify("crates/kernel/tests/soa_equivalence.rs").test_file);
    }

    #[test]
    fn kernel_modules_are_rule_scoped() {
        // Every module of the simulated kernel — the demotion chain, the
        // SoA page table, the prefetcher, the page-movement layer — feeds
        // bit-identical fleet output and machine-state accounting, so the
        // full kernel rule set must cover each: determinism (D1/D2/T1),
        // panic safety (P1), unit suffixes and rounding discipline
        // (U1/U2), and waiver hygiene (W0). The modules are listed from
        // disk, so a new or renamed one is covered without another copy
        // of this test, and a scope refactor cannot silently drop one.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../kernel/src");
        let modules: Vec<String> = std::fs::read_dir(&dir)
            .expect("kernel sources sit beside the lint crate")
            .map(|entry| entry.expect("readable directory entry").file_name())
            .map(|name| name.into_string().expect("utf-8 file name"))
            .filter(|name| name.ends_with(".rs"))
            .collect();
        assert!(
            modules.iter().any(|m| m == "kernel.rs"),
            "listing {dir:?} found no kernel modules: {modules:?}"
        );
        for module in &modules {
            let scope = classify(&format!("crates/kernel/src/{module}"));
            assert!(!scope.test_file, "{module} classified as test code");
            for rule in [
                Rule::D1,
                Rule::D2,
                Rule::T1,
                Rule::P1,
                Rule::U1,
                Rule::U2,
                Rule::W0,
            ] {
                // The one stated exemption: cost.rs times the real codecs
                // to parameterize the cost model (TIMING_ALLOWANCES).
                let exempt = rule == Rule::D1 && module == "cost.rs";
                assert_eq!(
                    scope.enforces(rule),
                    !exempt,
                    "{module} must enforce {rule:?} (exempt: {exempt})"
                );
            }
        }
    }

    #[test]
    fn p2_follows_control_plane_and_w0_follows_any_scope() {
        assert!(classify("crates/agent/src/node_agent.rs").enforces(Rule::P2));
        assert!(classify("crates/cluster/src/machine.rs").enforces(Rule::P2));
        assert!(!classify("crates/kernel/src/cost.rs").enforces(Rule::P2));
        // The sharded steppers that consume the kernel's sweeps and chain
        // stay scoped too.
        assert!(classify("crates/cluster/src/cluster.rs").enforces(Rule::P1));
        assert!(classify("crates/core/src/fleet_sim.rs").enforces(Rule::D1));
        // types is only units-scoped, but waiver hygiene still applies.
        assert!(classify("crates/types/src/size.rs").enforces(Rule::W0));
        assert!(!classify("crates/autotuner/src/gp.rs").enforces(Rule::W0));
    }

    #[test]
    fn test_dirs_and_vendor_are_exempt() {
        assert!(classify("crates/kernel/tests/properties.rs").test_file);
        assert!(classify("tests/end_to_end.rs").test_file);
        assert!(classify("examples/quickstart.rs").test_file);
        assert!(skip_entirely("vendor/rand/src/lib.rs"));
        assert!(skip_entirely("target/debug/build/foo.rs"));
        assert!(skip_entirely("crates/lint/src/main.rs"));
        assert!(skip_entirely("benchmark/src/trace.rs"));
    }
}
