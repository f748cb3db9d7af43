//! Golden pins: hashes of the default-seed output of the fleet simulator,
//! the trace replay, and the figure generators, so a refactor of the
//! window recurrence they share is provably behaviour-preserving.
//!
//! Every constant was recorded at the commit that introduced it, on the
//! tree that commit's parent left untouched.
//! A mismatch means simulation output changed: that is either a bug or a
//! deliberate model change that must re-record the pin in its own commit.

use sdfm_agent::{AgentParams, SloConfig};
use sdfm_core::experiments::bigtable::{figure10, Fig10Config};
use sdfm_core::experiments::coldness::{figure1, figure2, figure3};
use sdfm_core::experiments::rollout::{figure5, figure6, figure7};
use sdfm_core::experiments::tables::{table1, table2};
use sdfm_core::experiments::two_tier::experiment_two_tier;
use sdfm_core::experiments::{collect_fleet_traces, Scale};
use sdfm_core::{AutotunePipeline, FleetSim, FleetSimConfig};
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

/// A 48-step `AutotunePipeline` run over 48-window traces, hashed trial by
/// trial: `evaluate` at every `(K, S)` the bandit chooses, not only at the
/// two fixed configurations above.
#[test]
fn autotune_trial_sequence_is_pinned() {
    let scale = Scale {
        machines_per_cluster: 1,
        ..Scale::small()
    };
    let model = FarMemoryModel::new(collect_fleet_traces(&scale, 48));
    let mut pipeline = AutotunePipeline::new(model, SloConfig::default(), 42);
    let expected = [
        0x4e20_3035_cd72_78a8u64,
        0x7c40_2959_2237_70ba,
        0x7617_074c_7103_ca57,
        0xecb7_215d_9e7b_c612,
        0xd1b6_276b_a2a2_64a0,
        0x88cb_3058_8af6_0023,
        0x2680_47ed_a7c7_6806,
        0x136a_96c6_5427_0b51,
        0x6fc9_6150_3fe6_9545,
        0xe88b_eb9f_ae32_f513,
        0x39bd_9bb0_452e_c0d3,
        0xbc13_8acc_f156_95eb,
        0xcd86_e2a0_5372_2bbb,
        0x9867_9a92_ed57_b7bf,
        0x0d19_1747_bb1e_be1b,
        0xeb75_5edc_c834_5795,
        0x48a2_7b61_4128_8bf0,
        0x613a_c2d4_20fe_0182,
        0x91ba_6991_006d_135c,
        0x059f_7ae2_cb95_293f,
        0x6253_0d78_d52c_28b6,
        0x5ecd_019f_38ed_e8fa,
        0xeb79_4972_247a_12c4,
        0xc36d_30e8_16c2_fff3,
        0x5687_b245_284c_4ae2,
        0xd846_eb9e_de54_4f99,
        0x8542_3661_effe_a5bb,
        0x9411_e4b9_d680_db8b,
        0xc406_d55a_16a1_1d55,
        0x8a6e_fa95_0089_4b35,
        0xf638_765c_ff62_f644,
        0xabed_7bf1_ee71_c32b,
        0x4c10_31c6_50b3_3883,
        0xcf24_a2f9_ba3e_ae4b,
        0xa89b_75b6_6a80_9812,
        0x4f5a_bd6b_be11_aa58,
        0x8905_42fa_1727_ca47,
        0xd12e_e088_aea4_0ccd,
        0xb97b_21ca_d540_5c5d,
        0x6f3a_f77d_64ae_a1cd,
        0x2e57_9040_0ab5_773a,
        0x8311_0c89_0f53_09d1,
        0xcc6f_ee26_2837_6274,
        0x3fbf_6d49_a138_50ae,
        0xa0c7_07e6_7629_c68d,
        0xa5bc_f1aa_d605_b78e,
        0xa3e7_779d_e63e_dd54,
        0x5cc5_9b1b_b056_fc01,
    ];
    for (step, want) in expected.into_iter().enumerate() {
        let trial = pipeline.step();
        let bits = [
            trial.k_percentile,
            trial.s_warmup_secs,
            trial.cold_pages,
            trial.p98_rate,
        ]
        .map(f64::to_bits);
        let hash = bits
            .iter()
            .fold(FNV_OFFSET, |h, b| fnv1a64(h, &b.to_le_bytes()));
        let hash = fnv1a64(hash, &[u8::from(trial.feasible)]);
        pin(&format!("autotune trial {step}: {trial:?}"), hash, want);
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
