//! The five workloads and what they share: the round protocol, the
//! operation checks and the exact-repeat checksum.
//!
//! An untraced run repeats identical *rounds* — fresh set-up, then a fixed
//! amount of work generated from the seed — until it has measured for the
//! requested number of seconds. Every round does the same work, so a
//! faster library runs more rounds rather than different work, each round
//! yields one set-up sample, and the rounds' simulated statistics must
//! agree exactly (a determinism check that costs nothing extra).

pub mod autotune;
pub mod cluster_page;
pub mod fleet_stat;
pub mod machine_tiered;
pub mod machine_twin;
pub mod zswap_dataplane;

use std::collections::BTreeMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sdfm_workloads::{JobProfile, JobTemplate};

use crate::trace::Tracer;

/// How much work one round does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured configuration.
    Full,
    /// Same shapes, far fewer steps: every workload, untraced and traced,
    /// in under ten seconds altogether.
    Smoke,
}

impl Scale {
    /// Picks a size or step count for this scale.
    pub fn pick(self, full: usize, smoke: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// Operation accounting in the contract's form: an operation is one
/// window, machine-minute, store, load or evaluation, and it fails on an
/// `Err` or a violated output check.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions, for the log.
    pub messages: Vec<String>,
}

impl Checks {
    /// Counts one operation; `what` describes it if it failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// A whole-run condition (not an operation of its own).
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.messages.extend(other.messages);
        self.messages.truncate(8);
    }
}

/// FNV-1a over 64-bit words, reported in 48 bits so that a JSON reader
/// holding numbers as doubles still sees it exactly.
#[derive(Debug, Clone, Copy)]
pub struct Checksum(u64);

impl Checksum {
    pub fn new() -> Self {
        Checksum(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn get(self) -> u64 {
        (self.0 ^ (self.0 >> 48)) & 0xffff_ffff_ffff
    }
}

/// Simulated statistics and other exact-repeat counts, by metric name.
pub type SimStats = Vec<(&'static str, u64)>;

/// One untraced round.
#[derive(Debug)]
pub struct Round {
    pub setup_s: f64,
    /// Units of work done in the timed intervals (the workload's
    /// `work_unit`).
    pub work: u64,
    /// Host time of each timed step, microseconds, in execution order.
    pub step_us: Vec<f64>,
    /// Timed intervals that are not steps (`zswap_dataplane`'s store
    /// blocks), microseconds, in execution order.
    pub other_us: Vec<f64>,
    pub checks: Checks,
    pub sim: SimStats,
}

/// What a traced run hands back besides its per-layer metrics.
#[derive(Debug)]
pub struct Traced {
    pub checks: Checks,
    /// The engine round's simulated statistics: equal to an untraced
    /// round's at the same seed.
    pub sim: SimStats,
    /// The engine round's step times, for the tails.
    pub step_us: Vec<f64>,
}

/// Per-layer metric values gathered by a traced run.
pub type Layers = BTreeMap<&'static str, f64>;

/// One of the five workloads.
pub struct Workload {
    pub name: &'static str,
    /// What `ops_per_s` counts.
    pub work_unit: &'static str,
    /// What `step_p50_us` times.
    pub step: &'static str,
    pub round: fn(u64, Scale) -> Round,
    /// The traced run: one round of the engine, the decomposed twin that
    /// mirrors it (spans into the tracer), and the layer probes. Fills in
    /// per-layer metrics.
    pub traced: fn(u64, Scale, &mut Tracer, &mut Layers) -> Traced,
}

pub const ALL: [Workload; 5] = [
    Workload {
        name: "fleet_stat",
        work_unit: "job-windows",
        step: "FleetSim::step_window",
        round: fleet_stat::round,
        traced: fleet_stat::traced,
    },
    Workload {
        name: "cluster_page",
        work_unit: "machine-minutes",
        step: "BorgCluster::step_minute",
        round: cluster_page::round,
        traced: cluster_page::traced,
    },
    Workload {
        name: "machine_tiered",
        work_unit: "machine-minutes",
        step: "Machine::step_minute",
        round: machine_tiered::round,
        traced: machine_tiered::traced,
    },
    Workload {
        name: "zswap_dataplane",
        work_unit: "pages stored or loaded",
        step: "ZswapStore::load",
        round: zswap_dataplane::round,
        traced: zswap_dataplane::traced,
    },
    Workload {
        name: "autotune",
        work_unit: "configurations evaluated",
        step: "AutotunePipeline::step",
        round: autotune::round,
        traced: autotune::traced,
    },
];

/// The job population of the page-level workloads: `count` jobs cycling
/// through every template, each at `1/shrink` of its sampled size. The
/// population is part of a workload's definition, so it is drawn from a
/// fixed stream; a run's `--seed` drives the access streams over it. (Job
/// sizes span 2 000–120 000 pages: drawn per seed, ten jobs differ twofold
/// in total work from one seed to the next.)
pub fn population(count: usize, shrink: u64) -> (Vec<JobProfile>, StdRng) {
    let mut rng = StdRng::seed_from_u64(0x5d_fa25);
    let jobs = (0..count)
        .map(|i| {
            let mut profile = JobTemplate::ALL[i % JobTemplate::ALL.len()].sample_profile(&mut rng);
            for bucket in &mut profile.rate_buckets {
                bucket.pages = (bucket.pages / shrink).max(1);
            }
            profile
        })
        .collect();
    (jobs, rng)
}

/// Times `f`, returning its result and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// `num / den`, or 0 when nothing was counted.
pub fn per(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// `part * 1000 / whole` as a per-mille value, or 0 for an empty whole.
pub fn permille(part: u64, whole: u64) -> u64 {
    (part * 1000).checked_div(whole).unwrap_or(0)
}
