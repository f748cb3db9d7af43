//! Golden pins: hashes of the default-seed output of the fleet simulator,
//! the trace replay, and the figure generators, so a refactor of the
//! window recurrence they share is provably behaviour-preserving.
//!
//! Every constant was recorded at the commit that introduced it, on the
//! tree that commit's parent left untouched.
//! A mismatch means simulation output changed: that is either a bug or a
//! deliberate model change that must re-record the pin in its own commit.

use sdfm_agent::AgentParams;
use sdfm_core::experiments::bigtable::{figure10, Fig10Config};
use sdfm_core::experiments::coldness::{figure1, figure2, figure3};
use sdfm_core::experiments::rollout::{figure5, figure6, figure7};
use sdfm_core::experiments::tables::{table1, table2};
use sdfm_core::experiments::two_tier::experiment_two_tier;
use sdfm_core::experiments::{collect_fleet_traces, Scale};
use sdfm_core::{FleetSim, FleetSimConfig};
use sdfm_kernel::{ChainPolicy, PrefetchMode, PrefetchPolicy};
use sdfm_model::{replay_job, FarMemoryModel, ModelConfig};
use sdfm_types::time::SimDuration;

/// FNV-1a, 64-bit.
fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn debug_hash<T: std::fmt::Debug>(value: &T) -> u64 {
    fnv1a64(FNV_OFFSET, format!("{value:?}").as_bytes())
}

#[track_caller]
fn pin(what: &str, actual: u64, expected: u64) {
    assert_eq!(
        actual, expected,
        "{what}: golden hash is {actual:#018x}, pinned {expected:#018x}"
    );
}

/// The four policy cells every pinned engine runs under.
fn policy_cells() -> [(&'static str, Option<ChainPolicy>, Option<PrefetchPolicy>); 4] {
    let chain = Some(ChainPolicy::paper_default(128));
    let prefetch = Some(PrefetchPolicy::paper_default(PrefetchMode::StrideMarkov));
    [
        ("none", None, None),
        ("chain", chain, None),
        ("prefetch", None, prefetch),
        ("both", chain, prefetch),
    ]
}

/// Hash of every serialized window of a seed-42 two-machine fleet, then
/// of the cumulative CPU ledger.
fn fleet_hash(
    chain: Option<ChainPolicy>,
    prefetch: Option<PrefetchPolicy>,
    fidelity_cutoff: usize,
    windows: usize,
) -> u64 {
    let mut cfg = FleetSimConfig::new(2);
    cfg.threads = 1;
    cfg.chain = chain;
    cfg.prefetch = prefetch;
    cfg.fidelity_cutoff = fidelity_cutoff;
    let mut sim = FleetSim::new(cfg, 42);
    let mut hash = FNV_OFFSET;
    for _ in 0..windows {
        let stats = sim.step_window().expect("fleet window step");
        let json = serde_json::to_string(&stats).expect("fleet stats serialize");
        hash = fnv1a64(hash, json.as_bytes());
    }
    fnv1a64(hash, format!("{:?}", sim.cpu_accounting()).as_bytes())
}

#[test]
fn fleet_sim_policy_cells_are_pinned() {
    let expected = [
        0x9a7c_17dd_2814_afd7u64,
        0xddeb_4438_d9fc_47a1,
        0x4eaf_cb13_8a8c_84f1,
        0xc90a_b7e5_de2c_1c0c,
    ];
    for ((name, chain, prefetch), want) in policy_cells().into_iter().zip(expected) {
        pin(
            &format!("FleetSim cell `{name}`"),
            fleet_hash(chain, prefetch, 0, 30),
            want,
        );
    }
}

#[test]
fn fleet_sim_under_the_fidelity_cutoff_is_pinned() {
    let (_, chain, prefetch) = policy_cells()[3];
    pin(
        "FleetSim cell `both`, fidelity_cutoff 1",
        fleet_hash(chain, prefetch, 1, 6),
        0x3981_509a_ea9c_c8b2,
    );
}

#[test]
fn replay_policy_cells_are_pinned() {
    let scale = Scale {
        machines_per_cluster: 1,
        ..Scale::small()
    };
    let traces = collect_fleet_traces(&scale, 24);
    let base = ModelConfig::new(AgentParams::default());
    let expected = [
        0x7af2_2a57_c6cc_3f97u64,
        0xb850_5d86_193b_8d11,
        0x55eb_d2be_cd58_6ef4,
        0x1ed4_b1cb_0bdb_ff9e,
    ];
    for ((name, chain, prefetch), want) in policy_cells().into_iter().zip(expected) {
        let config = ModelConfig {
            chain,
            prefetch,
            ..base
        };
        let outcomes: Vec<_> = traces.iter().map(|t| replay_job(t, &config)).collect();
        pin(
            &format!("replay cell `{name}`"),
            debug_hash(&outcomes),
            want,
        );
    }
    let model = FarMemoryModel::new(traces);
    pin(
        "FarMemoryModel::evaluate",
        debug_hash(&model.evaluate(&base)),
        0x935b_a9a5_cfa0_aa96,
    );
}

/// Traces longer than `JobController::POOL_CAP` (36 windows), so the
/// threshold pool slides: the oldest best-thresholds leave it while the
/// K-th percentile sits mid-pool (K = 90 → rank 33 of 36), not at its max.
#[test]
fn replay_past_the_pool_cap_is_pinned() {
    let scale = Scale {
        machines_per_cluster: 1,
        ..Scale::small()
    };
    let traces = collect_fleet_traces(&scale, 48);
    let params = AgentParams::new(90.0, SimDuration::from_mins(20)).expect("valid params");
    let base = ModelConfig::new(params);
    let expected = [
        0xe362_ca18_78ce_406au64,
        0x203e_6a46_9594_5b08,
        0x8251_9b1c_da57_c9e4,
        0x84d2_92e1_8f66_7152,
    ];
    for ((name, chain, prefetch), want) in policy_cells().into_iter().zip(expected) {
        let config = ModelConfig {
            chain,
            prefetch,
            ..base
        };
        let outcomes: Vec<_> = traces.iter().map(|t| replay_job(t, &config)).collect();
        pin(
            &format!("48-window replay cell `{name}`"),
            debug_hash(&outcomes),
            want,
        );
    }
    for threads in [1, 3] {
        let model = FarMemoryModel::new(traces.clone()).with_threads(threads);
        pin(
            &format!("48-window FarMemoryModel::evaluate, {threads} thread(s)"),
            debug_hash(&model.evaluate(&base)),
            0x74f3_f84e_b2bf_04f0,
        );
    }
}

#[test]
fn coldness_figures_are_pinned() {
    let scale = Scale::small();
    pin(
        "figure1",
        debug_hash(&figure1(&scale)),
        0x1166_1f70_1aab_76f4,
    );
    pin(
        "figure2",
        debug_hash(&figure2(&scale)),
        0x7ec6_80be_c694_62f6,
    );
    pin(
        "figure3",
        debug_hash(&figure3(&scale)),
        0x766b_a8f4_0141_9435,
    );
}

#[test]
fn rollout_figures_are_pinned() {
    let scale = Scale::small();
    let fig5 = figure5(&scale);
    pin("figure5", debug_hash(&fig5), 0xef7f_a700_5c76_81fb);
    pin(
        "figure6",
        debug_hash(&figure6(&scale)),
        0xcf12_6ccd_76be_7a0f,
    );
    pin(
        "figure7",
        debug_hash(&figure7(&scale, fig5.1)),
        0x52bc_1b1f_774a_3edb,
    );
}

#[test]
fn page_level_figures_and_tables_are_pinned() {
    pin(
        "figure10",
        debug_hash(&figure10(&Fig10Config::small())),
        0x448f_7a66_bd3a_16c9,
    );
    pin(
        "experiment_two_tier",
        debug_hash(&experiment_two_tier(240, 4_000, 42)),
        0x1f92_586f_1436_8e20,
    );
    pin(
        "table1",
        debug_hash(&table1(0.20, 0.32, 3.0)),
        0x9b6f_1549_3e66_6cc9,
    );
    pin("table2", debug_hash(&table2()), 0xd6ad_e9ea_4440_0f16);
}
