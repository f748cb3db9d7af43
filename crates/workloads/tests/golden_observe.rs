//! Golden pins: hashes of `StatJobModel::observe` output, window by
//! window, so a rewrite of its inner loop is provably draw-for-draw
//! identical — same RNG draws, in the same order, with the same outcome.
//!
//! Every constant was recorded at the commit that introduced this file,
//! on the tree that commit's parent left untouched. A mismatch means the
//! model's output or its RNG position changed: that is either a bug or a
//! deliberate model change that must re-record the pin in its own commit.
//!
//! Observations are hashed field by field (working set, then every cold
//! and promotion count), not through `{:?}`, so the pins survive fields
//! being added to or removed from `WindowObservation`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sdfm_compress::gen::CompressibilityMix;
use sdfm_types::histogram::PageAge;
use sdfm_types::time::{SimDuration, SimTime, KSTALED_SCAN_PERIOD, MINUTE};
use sdfm_workloads::{
    DiurnalPattern, JobPriority, JobProfile, JobTemplate, RateBucket, StatJobModel,
    WindowObservation,
};

/// FNV-1a, 64-bit.
fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[track_caller]
fn pin(what: &str, actual: u64, expected: u64) {
    assert_eq!(
        actual, expected,
        "{what}: golden hash is {actual:#018x}, pinned {expected:#018x}"
    );
}

fn hash_observation(hash: u64, obs: &WindowObservation) -> u64 {
    let counts = obs
        .cold_hist
        .iter()
        .chain(obs.promo_delta.iter())
        .map(|(_, count)| count);
    std::iter::once(obs.working_set.get())
        .chain(counts)
        .fold(hash, |h, x| fnv1a64(h, &x.to_le_bytes()))
}

/// Windows every pinned run observes before its trailing one.
const WINDOWS: u64 = 64;

/// Where the steady-state runs start: deep enough that ages saturate.
const STEADY: SimTime = SimTime::from_secs(36 * 3600);

/// What one pinned run produced.
struct Run {
    /// Hash of `WINDOWS` consecutive observations plus one trailing
    /// observation, which pins where the run left the RNG.
    hash: u64,
    /// Windows that carried a full-memory burst (every page back at age
    /// 0, the whole job in the working set).
    bursts: usize,
}

/// Observes `WINDOWS + 1` consecutive windows of length `window`, the
/// first ending at `first_end`.
fn run(model: &mut StatJobModel, first_end: SimTime, window: SimDuration) -> Run {
    let total = model.profile().total_pages();
    let mut hash = FNV_OFFSET;
    let mut bursts = 0;
    let mut at = first_end;
    for _ in 0..=WINDOWS {
        let obs = model.observe(at, window);
        hash = hash_observation(hash, &obs);
        let all_hot = obs.cold_hist.pages_colder_than(PageAge::from_scans(1)) == 0;
        bursts += usize::from(all_hot && obs.working_set == total);
        at += window;
    }
    Run { hash, bursts }
}

fn hand_built(buckets: Vec<RateBucket>, burst_interval: Option<SimDuration>) -> JobProfile {
    JobProfile {
        template: "golden".into(),
        rate_buckets: buckets,
        diurnal: DiurnalPattern {
            amplitude: 0.4,
            phase_secs: 61_200,
        },
        mix: CompressibilityMix::fleet_default(),
        cpu_cores: 1.0,
        write_fraction: 0.2,
        burst_interval,
        priority: JobPriority::Batch,
        lifetime: SimDuration::from_hours(100),
    }
}

/// A small job with a hot, a warm, a cool and a frozen band.
fn four_bands() -> Vec<RateBucket> {
    [(2_000, 0.05), (6_000, 2e-3), (30_000, 1e-4), (12_000, 4e-7)]
        .into_iter()
        .map(|(pages, rate_per_sec)| RateBucket {
            pages,
            rate_per_sec,
        })
        .collect()
}

#[test]
fn every_template_is_pinned_in_steady_state() {
    let expected = [
        [
            0x1892_3a49_0ed7_1810u64,
            0xd8ba_1398_c914_3474,
            0xcb71_805b_793c_d6ac,
        ],
        [
            0x2f95_b9b6_159b_a5d5,
            0xd4b7_eabd_1f65_ec54,
            0x0aa5_3e37_31ed_e0d1,
        ],
        [
            0x4393_55de_3a6c_d1da,
            0x8acd_b215_a2a2_f572,
            0x06ca_f742_c7cf_9130,
        ],
        [
            0xedd5_4bd6_dac7_8077,
            0xd4bb_71db_724b_7b10,
            0xdbbe_f611_c1a1_22d3,
        ],
        [
            0x4369_8d5a_0c89_b8b2,
            0x0805_3c7c_31e0_7ce4,
            0xcc8a_52d9_dc5f_d406,
        ],
        [
            0x5a48_91e0_81f9_b3f0,
            0x45be_23c6_9187_77a1,
            0x6bf7_b08f_48db_35e2,
        ],
        [
            0xedd5_681a_43fc_7811,
            0x94e3_a505_1adc_c507,
            0x92c8_7a5a_c13a_d2a3,
        ],
    ];
    for (template, row) in JobTemplate::ALL.into_iter().zip(expected) {
        for (seed, want) in [7u64, 42, 1_000_003].into_iter().zip(row) {
            let profile = template.sample_profile(&mut StdRng::seed_from_u64(seed));
            let mut model = StatJobModel::new(profile, seed);
            pin(
                &format!("{template}, seed {seed}"),
                run(&mut model, STEADY, MINUTE * 5).hash,
                want,
            );
        }
    }
}

#[test]
fn a_young_job_is_pinned_while_its_age_cap_grows() {
    // The job started 1, 3 and 60 scans before its first window ends, so
    // the truncated age distribution's cap starts there and grows by 2.5
    // scans a window without reaching 255.
    let expected = [
        (1u64, 0x2ab4_3173_0518_57a4u64),
        (3, 0xf71a_a1ed_c819_16db),
        (60, 0xaf50_3306_58ae_a484),
    ];
    for (scans, want) in expected {
        let mut model = StatJobModel::new(hand_built(four_bands(), None), 11);
        let age = SimDuration::from_secs(scans * KSTALED_SCAN_PERIOD.as_secs());
        model.set_start(SimTime::from_secs(STEADY.as_secs() - age.as_secs()));
        pin(
            &format!("started {scans} scans before the first window"),
            run(&mut model, STEADY, MINUTE * 5).hash,
            want,
        );
    }
}

#[test]
fn sub_scan_windows_from_job_start_are_pinned() {
    // One-minute windows from the moment the job starts: the first ends
    // before a single scan period has passed, so its cap is 0 and every
    // page sits at age 0.
    let mut model = StatJobModel::new(hand_built(four_bands(), None), 12);
    model.set_start(STEADY);
    pin(
        "one-minute windows from job start",
        run(&mut model, STEADY + MINUTE, MINUTE).hash,
        0xed7f_d120_0efb_450a,
    );
}

#[test]
fn the_noise_free_model_is_pinned() {
    // sigma = 0: no noise and no noise draws, so the rounding draws start
    // at the RNG's first word.
    let mut model = StatJobModel::with_noise(hand_built(four_bands(), None), 13, 0.0);
    pin(
        "sigma = 0",
        run(&mut model, STEADY, MINUTE * 5).hash,
        0x98b8_69a1_54fe_9bc4,
    );
}

#[test]
fn burst_windows_are_pinned() {
    // A burst every 25 minutes on average: one five-minute window in
    // five carries one, and the windows after it see a young job again.
    let profile = hand_built(four_bands(), Some(SimDuration::from_mins(25)));
    let mut model = StatJobModel::new(profile, 14);
    let got = run(&mut model, STEADY, MINUTE * 5);
    assert!(
        got.bursts >= 5,
        "only {} of the pinned windows burst",
        got.bursts
    );
    pin("burst every 25 min", got.hash, 0xde0c_6bd4_aaa8_4d7f);
}

#[test]
fn a_zero_rate_bucket_is_pinned() {
    // rate 0 makes every age below the cap carry exactly zero mass: those
    // cells must be skipped without a draw, not rounded.
    let mut buckets = four_bands();
    buckets.insert(
        1,
        RateBucket {
            pages: 5_000,
            rate_per_sec: 0.0,
        },
    );
    let mut model = StatJobModel::new(hand_built(buckets, None), 15);
    pin(
        "a bucket with rate 0",
        run(&mut model, STEADY, MINUTE * 5).hash,
        0x84d1_05fa_ac58_d1f7,
    );
}

#[test]
fn cells_past_two_to_the_52_are_pinned() {
    // 2^54 pages in a hot and in a frozen bucket: the hot bucket's age-0
    // cell and the frozen bucket's cap cell are both above 2^52, where an
    // f64 has no fractional part left to round.
    let mut buckets = four_bands();
    for rate_per_sec in [0.05, 4e-7] {
        buckets.push(RateBucket {
            pages: 1 << 54,
            rate_per_sec,
        });
    }
    let mut model = StatJobModel::new(hand_built(buckets, None), 16);
    pin(
        "buckets of 2^54 pages",
        run(&mut model, STEADY, MINUTE * 5).hash,
        0x0ad5_3015_5337_6bbf,
    );
}
