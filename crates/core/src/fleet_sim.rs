//! The fleet-scale longitudinal simulator.
//!
//! Drives thousands of statistically-modeled jobs (`sdfm-workloads`'
//! analytic model, validated against the page-level kernel) through the
//! *real* §4.3 controller (`sdfm-agent`'s [`JobController`]), window by
//! window, across the ten-cluster synthetic fleet. Far-memory occupancy,
//! coverage, promotion rates, and compression CPU are derived per job per
//! window; churn replaces expired jobs with fresh samples from their
//! cluster's mix.
//!
//! Every fleet-level figure (1, 2, 3, 5, 6, 7, 8) is computed from this
//! simulator's output.

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use sdfm_agent::{AgentParams, JobController, SloConfig};
use sdfm_compress::codec::CodecKind;
use sdfm_compress::measure::ClassPayloadTable;
use sdfm_kernel::far_state::store_frames;
use sdfm_kernel::{
    ChainPolicy, CostModel, CpuAccounting, FarPolicy, FarState, Kernel, KernelConfig,
    PrefetchPolicy, StorePressure,
};
use sdfm_pool::WorkerPool;
use sdfm_types::arith::permille_of;
use sdfm_types::histogram::{PageAge, PromotionHistogram};
use sdfm_types::ids::{ClusterId, JobId};
use sdfm_types::rate::PromotionRate;
use sdfm_types::size::PageCount;
use sdfm_types::time::{SimDuration, SimTime, DAY, KSTALED_SCAN_PERIOD};
use sdfm_workloads::fleet::FleetSpec;
use sdfm_workloads::profile::JobProfile;
use sdfm_workloads::{PageLevelDriver, StatJobModel, WindowObservation};

/// Errors from the fleet window step: a simulator invariant broke
/// mid-window. Surfaced as typed values so callers decide whether to
/// abort or retry instead of the simulator panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetSimError {
    /// A parallel window worker panicked; the payload is the panic
    /// message surfaced by the engine.
    WorkerPanicked(String),
}

impl std::fmt::Display for FleetSimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetSimError::WorkerPanicked(msg) => {
                write!(f, "fleet window worker panicked: {msg}")
            }
        }
    }
}

impl std::error::Error for FleetSimError {}

/// Fleet simulation parameters.
#[derive(Debug, Clone)]
pub struct FleetSimConfig {
    /// The fleet blueprint.
    pub spec: FleetSpec,
    /// Initial agent parameters.
    pub params: AgentParams,
    /// The SLO.
    pub slo: SloConfig,
    /// Control/observation window (the paper's trace granularity is 5
    /// minutes).
    pub window: SimDuration,
    /// Per-bucket rate noise (0 = deterministic expectations).
    pub noise_sigma: f64,
    /// Replace expired jobs with fresh samples.
    pub churn: bool,
    /// Per-page compression costs for CPU accounting.
    pub cost: CostModel,
    /// The *measured* per-class payload table that per-job compression
    /// outcomes derive from: the real codec compressed generated pages of
    /// every class, and each job's
    /// [`CompressibilityMix`](sdfm_compress::gen::CompressibilityMix)
    /// weights those measurements into its acceptance fraction and
    /// stored-page ratio — the paper's ~3× ratio and ~31% rejection emerge
    /// from the codec, not from constants.
    pub ratio_source: ClassPayloadTable,
    /// Store-lifecycle policy: how fast a disabled job's zswap store
    /// decays back to DRAM (mirrors the kernel's writeback machinery).
    pub pressure: StorePressure,
    /// Optional three-tier demotion chain (zswap → SSD → remote): each
    /// window one decay step of a job's coldest stored pages sinks down
    /// the ladder, and a disabled job's store demotes instead of writing
    /// back. `None` (the default) keeps the two-tier behavior unchanged.
    pub chain: Option<ChainPolicy>,
    /// Optional correlation prefetcher (stride + Markov next-page
    /// prediction) sitting between the demotion chain and the promotion
    /// path. Stat-tier jobs apply the policy's statistical window
    /// recurrence ([`PrefetchPolicy::window_counts`]); page-level jobs
    /// below the fidelity cutoff run the real per-memcg predictor. `None`
    /// (the default) keeps the demand-fault-only behavior, bit for bit.
    pub prefetch: Option<PrefetchPolicy>,
    /// Worker threads for the per-job window step (1 = sequential). The
    /// output is identical at any thread count: each job's state is
    /// self-contained, and results are aggregated in job order.
    pub threads: usize,
    /// Hierarchical fidelity cutoff: machines whose **global index** —
    /// cluster-major order straight from the spec (cluster 0's machines
    /// first, then cluster 1's, …) — is *below* this count run their jobs
    /// on real page-level kernels ([`Kernel`] + [`PageLevelDriver`]:
    /// per-page ages, kstaled sweeps, actual histograms), while the rest
    /// keep the validated [`StatJobModel`] recurrence. The selection is a
    /// pure function of the spec, so it is deterministic and identical at
    /// any thread count. `0` (the default) runs the whole fleet on the
    /// stat recurrence — the previous behavior, bit for bit.
    pub fidelity_cutoff: usize,
}

impl FleetSimConfig {
    /// A small default fleet (10 clusters × `machines_per_cluster`).
    pub fn new(machines_per_cluster: usize) -> Self {
        FleetSimConfig {
            spec: FleetSpec::paper_default(machines_per_cluster),
            params: AgentParams::default(),
            slo: SloConfig::default(),
            window: SimDuration::from_secs(300),
            noise_sigma: StatJobModel::DEFAULT_SIGMA,
            churn: true,
            cost: CostModel::PAPER_DEFAULT,
            // lzo is the paper's production codec (§5.1); the table is
            // deterministic and cached process-wide.
            ratio_source: *ClassPayloadTable::measured_default(CodecKind::Lzo),
            pressure: StorePressure::PAPER_DEFAULT,
            chain: None,
            prefetch: None,
            // 0 = unrequested: honors `SDFM_THREADS`, then host parallelism,
            // so CI runs on different hosts resolve reproducibly.
            threads: sdfm_pool::resolve_threads(0),
            fidelity_cutoff: 0,
        }
    }
}

/// One job's outcome in one window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobWindowStat {
    /// The job.
    pub job: JobId,
    /// Hosting cluster.
    pub cluster: ClusterId,
    /// Machine index within the cluster.
    pub machine: usize,
    /// Total pages.
    pub total_pages: u64,
    /// Working set.
    pub working_set: u64,
    /// Cold pages at the minimum threshold.
    pub cold_pages: u64,
    /// Pages held in far memory this window.
    pub far_pages: u64,
    /// Promotions this window.
    pub promotions: u64,
    /// The threshold in force (scans).
    pub threshold_scans: u8,
    /// Whether zswap was active (past warmup).
    pub enabled: bool,
    /// Normalized promotion rate (fraction of WSS per minute).
    pub normalized_rate: f64,
    /// Compression events charged this window (stored pages only; rejected
    /// attempts are counted in `rejected_events`).
    pub compress_events: u64,
    /// Compression attempts the cutoff rejected this window — wasted
    /// cycles the paper still pays for (§5.1). Each cold page is attempted
    /// once and then marked incompressible, so a steady cold mass stops
    /// generating new rejections.
    pub rejected_events: u64,
    /// Decompression events charged this window (promotions plus store
    /// writebacks).
    pub decompress_events: u64,
    /// Pages sitting in the zswap store at the end of this window (equals
    /// `far_pages` while enabled; decays toward zero while disabled).
    pub store_pages: u64,
    /// Page frames of real memory the job's store occupies at its realized
    /// compression ratio (`store_pages / ratio`, rounded up).
    pub store_frames: u64,
    /// The job's realized compression ratio over stored pages, per-mille.
    pub ratio_permille: u32,
    /// Store pages written back to DRAM this window by the lifecycle
    /// policy (each one a charged decompression).
    pub writeback_events: u64,
    /// Pages parked on the SSD tier at window end (chain runs only).
    pub ssd_pages: u64,
    /// Pages parked on the remote tier at window end (chain runs only).
    pub remote_pages: u64,
    /// Store pages demoted into the SSD tier this window (each a charged
    /// decompression plus a device store).
    pub ssd_demotions: u64,
    /// Store pages that overflowed the SSD quota onto the remote tier
    /// this window.
    pub remote_demotions: u64,
    /// Device pages faulted back from the SSD tier this window.
    pub ssd_faults: u64,
    /// Device pages faulted back from the remote tier this window.
    pub remote_faults: u64,
    /// Predicted pages the prefetcher promoted ahead of demand this
    /// window (each a charged decompression, like any promotion).
    pub prefetch_issued: u64,
    /// Issued prefetches whose demand fault was fully hidden (these are
    /// *excluded* from `promotions`, which counts demand stalls).
    pub prefetch_used: u64,
    /// Issued prefetches reclaimed again untouched (mispredictions the
    /// store recompresses — wasted promote/compress cycles).
    pub prefetch_wasted: u64,
    /// Demand faults that beat the scan-cadence drain to a correctly
    /// predicted page (timeliness loss; these stay in `promotions`).
    pub prefetch_late: u64,
    /// The job's CPU footprint (cores).
    pub cpu_cores: f64,
}

/// Fleet-wide aggregates for one window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetWindowStats {
    /// Window end.
    pub at: SimTime,
    /// Sum of job memory (pages).
    pub total_pages: u64,
    /// Sum of cold pages at the minimum threshold.
    pub cold_pages: u64,
    /// Sum of far-memory pages.
    pub far_pages: u64,
    /// Sum of pages still in the zswap store (includes disabled jobs'
    /// decaying stores, which `far_pages` excludes).
    pub store_pages: u64,
    /// Sum of page frames those stores actually occupy at each job's
    /// realized ratio — the DRAM the compressed pool costs.
    pub store_frames: u64,
    /// Sum of pages parked on the SSD tier (chain runs only).
    pub ssd_pages: u64,
    /// Sum of pages parked on the remote tier (chain runs only).
    pub remote_pages: u64,
    /// Sum of prefetched promotions issued this window.
    pub prefetch_issued: u64,
    /// Sum of issued prefetches whose demand fault was hidden.
    pub prefetch_used: u64,
    /// Sum of issued prefetches reclaimed again untouched.
    pub prefetch_wasted: u64,
    /// Sum of demand faults that beat the prefetch drain.
    pub prefetch_late: u64,
    /// Per-job detail.
    pub per_job: Vec<JobWindowStat>,
}

impl FleetWindowStats {
    /// Fleet cold-memory coverage this window.
    ///
    /// Far memory is always a subset of the cold memory at the minimum
    /// threshold, so coverage lies in `[0, 1]`. A window with no cold
    /// memory at all (e.g. an empty fleet) has nothing to cover and
    /// explicitly reports zero coverage rather than dividing by zero.
    pub fn coverage(&self) -> f64 {
        debug_assert!(
            self.far_pages <= self.cold_pages,
            "far pages {} exceed cold pages {}: thresholds below the SLO minimum?",
            self.far_pages,
            self.cold_pages
        );
        if self.cold_pages == 0 {
            0.0
        } else {
            self.far_pages as f64 / self.cold_pages as f64
        }
    }

    /// Fleet cold fraction (cold / total).
    pub fn cold_fraction(&self) -> f64 {
        if self.total_pages == 0 {
            0.0
        } else {
            self.cold_pages as f64 / self.total_pages as f64
        }
    }
}

/// A high-fidelity job below the cutoff: a real page-level [`Kernel`]
/// driven window by window, observed through the same histogram surface
/// the stat model synthesizes — so everything downstream of the
/// observation (controller, per-mille store arithmetic, CPU ledger) is
/// shared between the two fidelity tiers.
struct PageLevelJob {
    kernel: Kernel,
    driver: PageLevelDriver,
    /// Simulated seconds elapsed since the last kstaled scan (the 300 s
    /// window is not a multiple of the 120 s scan period; the remainder
    /// carries over so long runs scan at exactly the kernel cadence).
    scan_debt_secs: u64,
    /// Snapshot of the kernel's cumulative promotion histogram at the
    /// previous window; the observation needs the per-window delta.
    prev_promo: PromotionHistogram,
}

impl PageLevelJob {
    fn observe(&mut self, at: SimTime, window: SimDuration) -> WindowObservation {
        let job = self.driver.job();
        // Interleave drive slices with kstaled scans at the real cadence.
        // Running the window's touches first and its scans back-to-back
        // afterwards would let the second scan see zero accessed bits and
        // age *every* page — the kernel would report its entire footprint
        // cold. Slicing the window at scan boundaries (carrying the
        // remainder across windows) reproduces the page-level ordering
        // the cross-validation suite validates against.
        let start = at.as_secs().saturating_sub(window.as_secs());
        let mut cursor = 0u64;
        let mut remaining = window.as_secs();
        while remaining > 0 {
            let until_scan = KSTALED_SCAN_PERIOD.as_secs() - self.scan_debt_secs;
            let slice = remaining.min(until_scan);
            cursor += slice;
            self.driver
                .run_window(
                    &mut self.kernel,
                    SimTime::from_secs(start + cursor),
                    SimDuration::from_secs(slice),
                )
                // sdfm-lint: allow(P1) reason="the memcg is created at spawn and never torn down while the job lives"
                .expect("page-level drive failed");
            self.scan_debt_secs += slice;
            remaining -= slice;
            if self.scan_debt_secs >= KSTALED_SCAN_PERIOD.as_secs() {
                self.kernel.run_scan();
                self.scan_debt_secs = 0;
            }
        }
        // sdfm-lint: allow(P1) reason="the memcg is created at spawn and never torn down while the job lives"
        let cg = self.kernel.memcg(job).expect("page-level memcg vanished");
        let cold_hist = cg.cold_age_histogram().clone();
        let promo = cg.promotion_histogram().clone();
        let mut promo_delta = PromotionHistogram::new();
        for ((age, cur), (_, prev)) in promo.iter().zip(self.prev_promo.iter()) {
            if cur > prev {
                promo_delta.record_promotion(age, cur - prev);
            }
        }
        self.prev_promo = promo;
        let working_set = PageCount::new(cold_hist.pages_younger_than(PageAge::from_scans(1)));
        WindowObservation {
            at,
            window,
            working_set,
            cold_hist,
            promo_delta,
        }
    }
}

/// Which engine produces a job's per-window observations.
// The stat variant stays inline by design: virtually every job in a
// fleet-scale run is stat-tier, and boxing it would put a pointer chase
// on the hot observe path to shrink an enum only the rare page-level
// jobs (already boxed) care about.
#[allow(clippy::large_enum_variant)]
enum JobEngine {
    /// The validated analytic recurrence (machines at or above the
    /// fidelity cutoff — the fleet-scale default).
    Stat(StatJobModel),
    /// A real page-level kernel (machines below the cutoff). Boxed: the
    /// kernel holds per-page state and would bloat every stat job's
    /// `SimJob` by its full size otherwise.
    PageLevel(Box<PageLevelJob>),
}

struct SimJob {
    id: JobId,
    cluster: ClusterId,
    cluster_idx: usize,
    machine: usize,
    engine: JobEngine,
    controller: JobController,
    cumulative_promo: PromotionHistogram,
    expires: SimTime,
    /// Fraction of the job's pages the cutoff accepts, per-mille — from the
    /// measured table over the job's mix.
    stored_permille: u32,
    /// Realized compression ratio of the job's stored pages, per-mille.
    ratio_permille: u32,
    /// High-water mark of cold pages already attempted and rejected: the
    /// kernel marks incompressible pages so their wasted compression is
    /// charged once, not every window (§5.1).
    rejected_marked: u64,
    cpu_cores: f64,
    total_pages: u64,
    /// Store / SSD / remote residency, advanced by the recurrence shared
    /// with the offline model. The store tracks `far_pages` while zswap is
    /// enabled and decays window by window after a disable, so a
    /// re-enable is charged only the growth beyond what is still stored.
    far: FarState,
}

// The parallel window step hands chunks of jobs to pool worker threads;
// everything a job owns (the stat model with its RNG, the real controller)
// must therefore cross thread boundaries.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<StatJobModel>();
    assert_send::<PageLevelJob>();
    assert_send::<JobController>();
    assert_send::<SimJob>();
};

/// The simulator.
pub struct FleetSim {
    config: FleetSimConfig,
    jobs: Vec<SimJob>,
    now: SimTime,
    next_id: u64,
    rng: StdRng,
    /// The persistent worker pool, created lazily on the first parallel
    /// window and shut down — workers joined — when the simulator drops.
    pool: OnceLock<WorkerPool>,
    /// Cumulative CPU charged at the configured [`CostModel`] for every
    /// compression (stored and rejected) and decompression the fleet
    /// performed — same ledger the page-level kernel keeps.
    cpu: CpuAccounting,
}

impl std::fmt::Debug for FleetSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetSim")
            .field("jobs", &self.jobs.len())
            .field("now", &self.now)
            .finish()
    }
}

impl FleetSim {
    /// Builds the initial job population.
    pub fn new(config: FleetSimConfig, seed: u64) -> Self {
        let mut sim = FleetSim {
            config,
            jobs: Vec::new(),
            // Start the clock one day in so that a stationary population
            // of job ages fits strictly in the past.
            now: SimTime::ZERO + DAY,
            next_id: 1,
            rng: StdRng::seed_from_u64(seed),
            pool: OnceLock::new(),
            cpu: CpuAccounting::default(),
        };
        let clusters = sim.config.spec.clusters.clone();
        for (ci, cluster) in clusters.iter().enumerate() {
            for machine in 0..cluster.machines {
                let (lo, hi) = cluster.jobs_per_machine;
                let count = sim.rng.gen_range(lo..=hi);
                for _ in 0..count {
                    let template = cluster.sample_template(&mut sim.rng);
                    let profile = template.sample_profile(&mut sim.rng);
                    sim.spawn_job(ci, machine, profile, true);
                }
            }
        }
        sim
    }

    fn spawn_job(
        &mut self,
        cluster_idx: usize,
        machine: usize,
        profile: JobProfile,
        stagger: bool,
    ) {
        let id = JobId::new(self.next_id);
        self.next_id += 1;
        let seed = self.rng.gen();
        // The initial population must look stationary: job ages are spread
        // over their lifetimes (capped at a day). Churn replacements start
        // fresh.
        let age_head_start = if stagger {
            let span = profile.lifetime.as_secs().min(DAY.as_secs()).max(1);
            self.rng.gen_range(0..span)
        } else {
            0
        };
        let started = SimTime::from_secs(self.now.as_secs().saturating_sub(age_head_start));
        let expires = started + profile.lifetime;
        let table = &self.config.ratio_source;
        let stored_permille = table.stored_permille(&profile.mix);
        let ratio_permille = table.ratio_permille(&profile.mix);
        let cpu_cores = profile.cpu_cores;
        let total_pages = profile.total_pages().get();
        let cluster = self.config.spec.clusters[cluster_idx].id;
        // Both arms consume exactly the one `seed` drawn above, so the
        // sim-level RNG stream — and therefore every *other* job's seed and
        // the churn sequence — is untouched by where the cutoff falls.
        let engine = if self.page_level_machine(cluster_idx, machine) {
            let capacity = profile.total_pages() + profile.total_pages();
            let mut kernel = Kernel::new(KernelConfig {
                capacity,
                codec: CodecKind::Lzo,
                cost: self.config.cost,
                // Below the cutoff the policy runs for real: the kernel's
                // per-memcg predictor, drained at kstaled cadence.
                prefetch: self
                    .config
                    .prefetch
                    .map(|p| p.kernel_config())
                    .unwrap_or_default(),
            });
            let mut driver = PageLevelDriver::new(id, profile, seed);
            driver
                .populate(&mut kernel)
                // sdfm-lint: allow(P1) reason="the kernel is freshly booted with twice the job's pages of DRAM, so populate cannot hit a limit"
                .expect("page-level populate failed");
            JobEngine::PageLevel(Box::new(PageLevelJob {
                kernel,
                driver,
                scan_debt_secs: 0,
                prev_promo: PromotionHistogram::new(),
            }))
        } else {
            let mut model = StatJobModel::with_noise(profile, seed, self.config.noise_sigma);
            model.set_start(started);
            JobEngine::Stat(model)
        };
        self.jobs.push(SimJob {
            id,
            cluster,
            cluster_idx,
            machine,
            engine,
            controller: JobController::new(self.config.params, self.config.slo, started),
            cumulative_promo: PromotionHistogram::new(),
            expires,
            stored_permille,
            ratio_permille,
            rejected_marked: 0,
            cpu_cores,
            total_pages,
            far: FarState::default(),
        });
    }

    /// Whether the machine at `(cluster_idx, machine)` sits below the
    /// fidelity cutoff. The global index is cluster-major straight from
    /// the spec, so the answer is a pure function of config — stable
    /// across churn, threads, and window count.
    fn page_level_machine(&self, cluster_idx: usize, machine: usize) -> bool {
        if self.config.fidelity_cutoff == 0 {
            return false;
        }
        let global: usize = self.config.spec.clusters[..cluster_idx]
            .iter()
            .map(|c| c.machines)
            .sum::<usize>()
            + machine;
        global < self.config.fidelity_cutoff
    }

    /// Current time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Jobs alive.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Rolls out new agent parameters fleet-wide (takes effect at the next
    /// window).
    pub fn set_params(&mut self, params: AgentParams) {
        self.config.params = params;
        for j in &mut self.jobs {
            j.controller.set_params(params);
        }
    }

    /// Advances one job by one window: observe, decide, and charge the
    /// window's far memory, promotions, and compression CPU.
    ///
    /// Deliberately a free-standing function of the job and copied window
    /// scalars — it never touches the sim-level RNG or any shared state, so
    /// disjoint job chunks can step concurrently with results identical to
    /// the sequential order.
    fn step_job(
        j: &mut SimJob,
        now: SimTime,
        window: SimDuration,
        min_threshold: PageAge,
        policy: &FarPolicy,
    ) -> JobWindowStat {
        let obs = match &mut j.engine {
            JobEngine::Stat(model) => model.observe(now, window),
            JobEngine::PageLevel(pl) => pl.observe(now, window),
        };
        j.cumulative_promo.merge(&obs.promo_delta);
        let decision = j
            .controller
            .on_minute(now, &obs.cold_hist, &j.cumulative_promo);
        let cold_min = obs.cold_hist.pages_colder_than(min_threshold);
        let enabled = decision.zswap_enabled;
        let threshold = decision.threshold;
        // Integer per-mille scaling: the realized acceptance fraction of
        // the job's mix decides how much of the cold mass actually lands
        // in far memory. Exact integer arithmetic keeps the step
        // scheduling-independent bit for bit.
        let stored = j.stored_permille as u64;
        let (far, promos, reject_candidates) = if enabled {
            let cold_at_thr = obs.cold_hist.pages_colder_than(threshold);
            let promos_at_thr = obs.promo_delta.promotions_colder_than(threshold);
            let far = permille_of(cold_at_thr, stored);
            (far, permille_of(promos_at_thr, stored), cold_at_thr - far)
        } else {
            (0, 0, 0)
        };
        // Store, demotion chain, and prefetch: the recurrence shared with
        // the offline model.
        let w = j.far.step(enabled, far, promos, policy);
        // CPU events: only pages *entering* the store compress — the
        // growth beyond what is still stored, plus the re-compression of
        // every page that left it and went cold again: demand promotions
        // and issued prefetches, i.e. `promos + wasted` (used prefetches
        // replace demand faults one for one). All three are zero while
        // disabled. Incompressible candidates are attempted once — wasted
        // cycles the paper still pays (§5.1) — then marked, so only cold
        // mass beyond the high-water mark generates new rejections.
        let compress_events = w.store_growth + promos + w.prefetch.wasted;
        let rejected_events = reject_candidates.saturating_sub(j.rejected_marked);
        j.rejected_marked = j.rejected_marked.max(reject_candidates);
        let rate = PromotionRate::from_count(w.demand_promotions, window)
            .normalized(decision.working_set)
            .fraction_per_min();
        JobWindowStat {
            job: j.id,
            cluster: j.cluster,
            machine: j.machine,
            total_pages: j.total_pages,
            working_set: decision.working_set.get(),
            cold_pages: cold_min,
            far_pages: far,
            promotions: w.demand_promotions,
            threshold_scans: threshold.as_scans(),
            enabled,
            normalized_rate: rate,
            compress_events,
            rejected_events,
            // Every store departure decompresses exactly once: demand
            // promotions, prefetched promotions, writebacks, demotions
            // (each demotion loads the page out of the store before the
            // device store, like the kernel's `demote_coldest`).
            decompress_events: w.demand_promotions
                + w.prefetch.issued
                + w.writebacks
                + w.ssd_demotions
                + w.remote_demotions,
            store_pages: j.far.store_pages,
            // The frames the store occupies at the job's realized ratio —
            // this, not the raw page count, is what the compressed pool
            // costs.
            store_frames: store_frames(j.far.store_pages, j.ratio_permille),
            ratio_permille: j.ratio_permille,
            writeback_events: w.writebacks,
            ssd_pages: j.far.ssd_pages,
            remote_pages: j.far.remote_pages,
            ssd_demotions: w.ssd_demotions,
            remote_demotions: w.remote_demotions,
            ssd_faults: w.ssd_faults,
            remote_faults: w.remote_faults,
            prefetch_issued: w.prefetch.issued,
            prefetch_used: w.prefetch.used,
            prefetch_wasted: w.prefetch.wasted,
            prefetch_late: w.prefetch.late,
            cpu_cores: j.cpu_cores,
        }
    }

    /// Advances one window and returns the fleet stats.
    ///
    /// The per-job work fans out across [`FleetSimConfig::threads`]
    /// workers on the simulator's persistent [`WorkerPool`] in contiguous
    /// chunks of the job list (each job's state is self-contained and
    /// results are appended in chunk order, so scheduling never reaches
    /// the output); job churn then runs sequentially on the sim-level
    /// RNG. The result — including the order of `per_job` and the RNG
    /// stream — is bit-for-bit identical at any thread count.
    ///
    /// # Errors
    ///
    /// [`FleetSimError`] when a window worker panics — a simulator bug
    /// surfaced as a typed value rather than a panic, so harnesses decide
    /// how to fail. The window's side effects (job state, CPU ledger) are
    /// undefined after an error; callers should not step further.
    pub fn step_window(&mut self) -> Result<FleetWindowStats, FleetSimError> {
        self.now += self.config.window;
        let now = self.now;
        let window = self.config.window;
        let min_threshold = self.config.slo.min_threshold;
        let chain = self.config.chain;
        let policy = FarPolicy {
            pressure: self.config.pressure,
            chain,
            prefetch: self.config.prefetch,
        };
        let mut stats = FleetWindowStats {
            at: now,
            total_pages: 0,
            cold_pages: 0,
            far_pages: 0,
            store_pages: 0,
            store_frames: 0,
            ssd_pages: 0,
            remote_pages: 0,
            prefetch_issued: 0,
            prefetch_used: 0,
            prefetch_wasted: 0,
            prefetch_late: 0,
            per_job: Vec::new(),
        };

        // `step_job` reads and writes only its own `SimJob` (a page-level
        // job owns its kernel), so contiguous chunks of the job list are
        // independent tasks, and the pool returns their results in
        // submission order: appending them reproduces the sequential
        // `per_job` order at any thread count.
        let threads = self.config.threads.max(1);
        let chunk = self.jobs.len().div_ceil(threads).max(1);
        let pool = self.pool.get_or_init(|| WorkerPool::new(threads));
        let policy = &policy;
        let tasks: Vec<_> = self
            .jobs
            .chunks_mut(chunk)
            .map(|jobs| {
                move || {
                    jobs.iter_mut()
                        .map(|j| Self::step_job(j, now, window, min_threshold, policy))
                        .collect::<Vec<_>>()
                }
            })
            .collect();
        // A job-step panic is a simulator bug; surface it as a typed
        // error instead of tearing the caller down with a re-raised
        // panic.
        let mut parts = pool
            .run(tasks)
            .map_err(|e| FleetSimError::WorkerPanicked(e.to_string()))?
            .into_iter();
        // The first chunk's buffer becomes `per_job`, so a one-chunk
        // window copies nothing.
        stats.per_job = parts.next().unwrap_or_default();
        for part in parts {
            stats.per_job.extend(part);
        }
        let cost = self.config.cost;
        for s in &stats.per_job {
            stats.total_pages += s.total_pages;
            stats.cold_pages += s.cold_pages;
            stats.far_pages += s.far_pages;
            stats.store_pages += s.store_pages;
            stats.store_frames += s.store_frames;
            stats.ssd_pages += s.ssd_pages;
            stats.remote_pages += s.remote_pages;
            stats.prefetch_issued += s.prefetch_issued;
            stats.prefetch_used += s.prefetch_used;
            stats.prefetch_wasted += s.prefetch_wasted;
            stats.prefetch_late += s.prefetch_late;
            // Device traffic is priced by the chain's backend configs:
            // demotions pay the tier's store cost, fault-backs its fault
            // cost — the same per-op arithmetic the page-level chain
            // charges through `charge_tier_io`.
            let (tier_io_ns, tier_io_events) = match chain {
                Some(cp) => (
                    s.ssd_demotions * cp.ssd.store_op_ns()
                        + s.remote_demotions * cp.remote.store_op_ns()
                        + s.ssd_faults * cp.ssd.fault_ns()
                        + s.remote_faults * cp.remote.fault_ns(),
                    s.ssd_demotions + s.remote_demotions + s.ssd_faults + s.remote_faults,
                ),
                None => (0, 0),
            };
            // Charge the window's events into the fleet CPU ledger exactly
            // like the page-level kernel would: rejected attempts burn the
            // same compression cycles, counted both in the total and apart.
            self.cpu.merge(&CpuAccounting {
                compress_ns: (s.compress_events + s.rejected_events) * cost.compress_ns,
                decompress_ns: s.decompress_events * cost.decompress_ns,
                compress_events: s.compress_events + s.rejected_events,
                decompress_events: s.decompress_events,
                rejected_compress_events: s.rejected_events,
                tier_io_ns,
                tier_io_events,
            });
        }

        // Churn: replace expired jobs.
        if self.config.churn {
            let expired: Vec<usize> = self
                .jobs
                .iter()
                .enumerate()
                .filter(|(_, j)| self.now >= j.expires)
                .map(|(i, _)| i)
                .collect();
            for i in expired.into_iter().rev() {
                let old = self.jobs.swap_remove(i);
                let cluster = self.config.spec.clusters[old.cluster_idx].clone();
                let template = cluster.sample_template(&mut self.rng);
                let profile = template.sample_profile(&mut self.rng);
                self.spawn_job(old.cluster_idx, old.machine, profile, false);
            }
        }
        Ok(stats)
    }

    /// Runs `windows` windows, returning all stats (callers doing long
    /// runs should prefer folding over [`step_window`](Self::step_window)).
    ///
    /// # Errors
    ///
    /// The first [`FleetSimError`] any window surfaces; windows already
    /// stepped are discarded.
    pub fn run_windows(&mut self, windows: usize) -> Result<Vec<FleetWindowStats>, FleetSimError> {
        (0..windows).map(|_| self.step_window()).collect()
    }

    /// The minimum threshold in force (for reporting).
    pub fn min_threshold(&self) -> PageAge {
        self.config.slo.min_threshold
    }

    /// The cost model in force.
    pub fn cost(&self) -> CostModel {
        self.config.cost
    }

    /// Cumulative fleet CPU charged at the cost model since construction —
    /// compressions (stored and rejected, counted apart) and
    /// decompressions, same ledger as the page-level kernel.
    pub fn cpu_accounting(&self) -> CpuAccounting {
        self.cpu
    }

    /// The window length.
    pub fn window(&self) -> SimDuration {
        self.config.window
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfm_types::rate::NormalizedPromotionRate;
    use sdfm_types::stats::{percentile, Percentile};

    fn small_sim(seed: u64) -> FleetSim {
        let mut cfg = FleetSimConfig::new(2);
        cfg.noise_sigma = 0.1;
        FleetSim::new(cfg, seed)
    }

    #[test]
    fn population_spans_all_clusters() {
        let sim = small_sim(1);
        // 10 clusters × 2 machines × 6..=14 jobs.
        assert!(sim.job_count() >= 120 && sim.job_count() <= 280);
    }

    #[test]
    fn coverage_builds_up_after_warmup() {
        let mut sim = small_sim(2);
        let mut last = None;
        for _ in 0..24 {
            last = Some(sim.step_window().unwrap());
        }
        let s = last.unwrap();
        assert!(
            s.cold_fraction() > 0.15 && s.cold_fraction() < 0.55,
            "fleet cold fraction {} off paper scale",
            s.cold_fraction()
        );
        assert!(
            s.coverage() > 0.05,
            "coverage {} never materialized",
            s.coverage()
        );
        assert!(s.coverage() < 0.75, "coverage {} too high", s.coverage());
    }

    #[test]
    fn p98_promotion_rate_respects_slo_scale() {
        let mut sim = small_sim(3);
        // Warm up two hours, then observe one hour.
        for _ in 0..24 {
            sim.step_window().unwrap();
        }
        let mut rates = Vec::new();
        for _ in 0..12 {
            let s = sim.step_window().unwrap();
            rates.extend(
                s.per_job
                    .iter()
                    .filter(|j| j.enabled)
                    .map(|j| j.normalized_rate),
            );
        }
        let p98 = percentile(&rates, Percentile::P98).unwrap();
        let target = NormalizedPromotionRate::PAPER_SLO_TARGET.fraction_per_min();
        assert!(
            p98 <= target * 3.0,
            "p98 rate {p98} far above the SLO target {target}"
        );
    }

    #[test]
    fn churn_replaces_expired_jobs() {
        let mut cfg = FleetSimConfig::new(1);
        cfg.churn = true;
        let mut sim = FleetSim::new(cfg, 4);
        let initial: Vec<JobId> = sim.jobs.iter().map(|j| j.id).collect();
        // Batch jobs live as little as an hour; run a simulated day.
        for _ in 0..288 {
            sim.step_window().unwrap();
        }
        let now: Vec<JobId> = sim.jobs.iter().map(|j| j.id).collect();
        let survivors = now.iter().filter(|id| initial.contains(id)).count();
        assert!(survivors < initial.len(), "no churn over a simulated day");
        assert_eq!(now.len(), initial.len(), "population size preserved");
    }

    #[test]
    fn param_rollout_changes_behavior() {
        let mut a = small_sim(5);
        let mut b = small_sim(5);
        // b gets an extreme warmup: zswap effectively always off.
        b.set_params(AgentParams::new(98.0, SimDuration::from_hours(10_000)).unwrap());
        let mut far_a = 0u64;
        let mut far_b = 0u64;
        for _ in 0..12 {
            far_a += a.step_window().unwrap().far_pages;
            far_b += b.step_window().unwrap().far_pages;
        }
        assert!(far_a > 0);
        assert_eq!(far_b, 0, "infinite warmup must disable far memory");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = small_sim(7);
        let mut b = small_sim(7);
        for _ in 0..3 {
            assert_eq!(a.step_window().unwrap(), b.step_window().unwrap());
        }
    }

    /// Two independent runs at the same seed must agree *byte for byte*
    /// once serialized — stronger than `PartialEq` (which NaN payloads or
    /// `-0.0` could slip through) and exactly what the DESIGN.md
    /// determinism contract promises. The parallel step runs at an
    /// asymmetric thread count to exercise the chunked path.
    #[test]
    fn two_runs_serialize_bit_identically() {
        let run = || {
            let mut cfg = FleetSimConfig::new(2);
            cfg.noise_sigma = 0.1;
            cfg.threads = 3;
            let mut sim = FleetSim::new(cfg, 13);
            let windows = sim.run_windows(8).unwrap();
            serde_json::to_string(&windows).expect("fleet stats serialize")
        };
        let (a, b) = (run(), run());
        assert_eq!(a.len(), b.len());
        assert!(a == b, "two same-seed runs serialized differently");
    }

    #[test]
    fn step_window_identical_across_thread_counts() {
        let sim_with_threads = |threads: usize| {
            let mut cfg = FleetSimConfig::new(2);
            cfg.noise_sigma = 0.1;
            cfg.threads = threads;
            FleetSim::new(cfg, 11)
        };
        let mut seq = sim_with_threads(1);
        let mut two = sim_with_threads(2);
        let mut eight = sim_with_threads(8);
        // Long enough to cross warmup boundaries and churn at least once.
        for w in 0..16 {
            let a = seq.step_window().unwrap();
            let b = two.step_window().unwrap();
            let c = eight.step_window().unwrap();
            assert_eq!(a, b, "1 vs 2 threads diverged at window {w}");
            assert_eq!(a, c, "1 vs 8 threads diverged at window {w}");
        }
    }

    #[test]
    fn reenable_charges_only_the_far_memory_delta() {
        // Deterministic expectations so far memory is stable across the
        // disable gap.
        let mut cfg = FleetSimConfig::new(2);
        cfg.noise_sigma = 0.0;
        cfg.churn = false;
        let mut sim = FleetSim::new(cfg, 9);
        let always_on = AgentParams::new(98.0, SimDuration::ZERO).unwrap();
        let never_on = AgentParams::new(98.0, SimDuration::from_hours(10_000)).unwrap();

        sim.set_params(always_on);
        let mut steady = None;
        for _ in 0..12 {
            steady = Some(sim.step_window().unwrap());
        }
        let steady = steady.unwrap();
        assert!(steady.far_pages > 0, "no far memory built up");

        // Disable fleet-wide: the store keeps most of its contents (the
        // lifecycle policy decays it by one window's step, no more).
        sim.set_params(never_on);
        let off = sim.step_window().unwrap();
        assert_eq!(off.far_pages, 0);
        assert_eq!(
            off.per_job.iter().map(|j| j.compress_events).sum::<u64>(),
            0
        );
        assert!(
            off.store_pages > 0,
            "one disabled window must not flush the store"
        );
        assert!(off.store_pages < steady.far_pages, "no decay happened");

        // Re-enable: only growth beyond the still-stored pages (plus the
        // steady promotion trickle) may be charged — not the full reservoir.
        sim.set_params(always_on);
        let back = sim.step_window().unwrap();
        assert!(back.far_pages > 0, "re-enable produced no far memory");
        let compress: u64 = back.per_job.iter().map(|j| j.compress_events).sum();
        assert!(
            compress < back.far_pages / 2,
            "re-enable recompressed the whole store: {} events for {} far pages",
            compress,
            back.far_pages
        );
    }

    /// The immortal-store regression: a disabled job's store must decay to
    /// zero under the lifecycle policy — window by window, each writeback
    /// a charged decompression — instead of surviving forever.
    #[test]
    fn disabled_store_decays_to_zero_under_lifecycle_policy() {
        let mut cfg = FleetSimConfig::new(2);
        cfg.noise_sigma = 0.0;
        cfg.churn = false;
        let pressure = cfg.pressure;
        let mut sim = FleetSim::new(cfg, 9);
        let always_on = AgentParams::new(98.0, SimDuration::ZERO).unwrap();
        let never_on = AgentParams::new(98.0, SimDuration::from_hours(10_000)).unwrap();

        sim.set_params(always_on);
        let mut steady = None;
        for _ in 0..12 {
            steady = Some(sim.step_window().unwrap());
        }
        let steady = steady.unwrap();
        assert!(steady.far_pages > 0, "no far memory built up");
        assert_eq!(steady.store_pages, steady.far_pages);

        sim.set_params(never_on);
        let mut prev = steady.store_pages;
        let mut drained_at = None;
        // The fleet store is a few hundred thousand pages; the geometric
        // phase plus per-job linear tails drain it well inside 200 windows.
        for w in 0..200 {
            let s = sim.step_window().unwrap();
            let writebacks: u64 = s.per_job.iter().map(|j| j.writeback_events).sum();
            let decompressions: u64 = s.per_job.iter().map(|j| j.decompress_events).sum();
            assert_eq!(s.far_pages, 0, "disabled fleet reported far memory");
            assert_eq!(
                s.store_pages,
                prev - writebacks,
                "store decay disagrees with the writeback count at window {w}"
            );
            assert!(
                decompressions >= writebacks,
                "writebacks were not charged as decompressions"
            );
            // Each job decays by exactly its policy step.
            for j in &s.per_job {
                let before = j.store_pages + j.writeback_events;
                assert_eq!(j.writeback_events, pressure.decay_step(before));
            }
            if s.store_pages < prev {
                // Monotone decrease while nonempty.
            } else {
                assert_eq!(s.store_pages, 0, "store stopped decaying at window {w}");
            }
            prev = s.store_pages;
            if prev == 0 {
                drained_at = Some(w);
                break;
            }
        }
        assert!(
            drained_at.is_some(),
            "store never drained: {prev} pages left"
        );

        // After a full drain, a re-enable pays for the whole cold mass
        // again — the delta-charging shortcut no longer applies.
        sim.set_params(AgentParams::new(98.0, SimDuration::ZERO).unwrap());
        let back = sim.step_window().unwrap();
        let compress: u64 = back.per_job.iter().map(|j| j.compress_events).sum();
        let promos: u64 = back.per_job.iter().map(|j| j.promotions).sum();
        assert_eq!(
            compress,
            back.far_pages + promos,
            "re-enable after a full drain must recompress everything"
        );
    }

    /// The tentpole: store sizing and CPU accounting run off *measured*
    /// per-job ratios. Over the fleet the implied aggregate ratio of the
    /// compressed pool must land in the paper's ~3× regime, emerging from
    /// the codec measurements, not from a constant.
    #[test]
    fn measured_ratios_size_the_store_in_paper_regime() {
        let mut sim = small_sim(19);
        let mut last = None;
        for _ in 0..16 {
            last = Some(sim.step_window().unwrap());
        }
        let s = last.unwrap();
        assert!(s.store_pages > 0, "no store built up");
        assert!(
            s.store_frames > 0 && s.store_frames < s.store_pages,
            "store frames {} not compressed below {} pages",
            s.store_frames,
            s.store_pages
        );
        let fleet_ratio = s.store_pages as f64 / s.store_frames as f64;
        assert!(
            (2.2..=4.6).contains(&fleet_ratio),
            "fleet-implied ratio {fleet_ratio} outside the ~3× regime"
        );
        // Per-job ratios span a real distribution (Figure 9a), not one value.
        let ratios: Vec<u32> = s
            .per_job
            .iter()
            .filter(|j| j.store_pages > 0)
            .map(|j| j.ratio_permille)
            .collect();
        assert!(ratios.len() > 10, "too few stored jobs to check spread");
        let (lo, hi) = (
            *ratios.iter().min().unwrap(),
            *ratios.iter().max().unwrap(),
        );
        assert!(hi > lo, "every job got the same ratio — not measured");
        assert!(lo >= 1000 && hi <= 20_000, "ratio bounds implausible");
    }

    /// Rejected compression attempts are charged once per cold page (the
    /// kernel marks incompressible pages), flow into the fleet CPU ledger,
    /// and stop once the cold mass is fully attempted.
    #[test]
    fn rejections_are_charged_once_and_ledgered() {
        let mut cfg = FleetSimConfig::new(2);
        cfg.noise_sigma = 0.0;
        cfg.churn = false;
        let mut sim = FleetSim::new(cfg, 9);
        sim.set_params(AgentParams::new(98.0, SimDuration::ZERO).unwrap());
        let first_windows = sim.run_windows(12).unwrap();
        let rejected_total: u64 = first_windows
            .iter()
            .flat_map(|w| w.per_job.iter())
            .map(|j| j.rejected_events)
            .sum();
        assert!(rejected_total > 0, "no rejections ever charged");
        // Steady state: the cold mass is marked; new rejections dry up.
        let late = sim.step_window().unwrap();
        let late_rejects: u64 = late.per_job.iter().map(|j| j.rejected_events).sum();
        let late_compress: u64 = late.per_job.iter().map(|j| j.compress_events).sum();
        assert!(
            late_rejects <= late_compress / 2 + 1,
            "steady-state rejections {late_rejects} still dominate {late_compress} compressions"
        );
        // The ledger saw every event, with rejects costed like stores.
        let cpu = sim.cpu_accounting();
        assert!(cpu.rejected_compress_events >= rejected_total);
        assert!(cpu.compress_events > cpu.rejected_compress_events);
        assert_eq!(
            cpu.compress_ns,
            cpu.compress_events * sim.cost().compress_ns,
            "ledger ns disagrees with events × cost"
        );
        assert!(cpu.decompress_events > 0);
    }

    /// Two-run determinism for the realized-ratio path specifically: the
    /// measured table is computed independently per run (process-wide
    /// cache aside) and the integer per-mille arithmetic is exact, so
    /// same-seed runs serialize identically even across thread counts.
    #[test]
    fn realized_ratio_path_two_runs_bit_identical() {
        let run = |threads: usize| {
            let mut cfg = FleetSimConfig::new(2);
            cfg.noise_sigma = 0.1;
            cfg.threads = threads;
            // Independent of the cached default: measured per run.
            cfg.ratio_source = ClassPayloadTable::measure(CodecKind::Lzo, 16, 42);
            let mut sim = FleetSim::new(cfg, 23);
            let windows = sim.run_windows(8).unwrap();
            serde_json::to_string(&windows).expect("fleet stats serialize")
        };
        let (a, b, c) = (run(1), run(1), run(4));
        assert!(a == b, "two same-seed measured runs diverged");
        assert!(a == c, "measured path diverged across thread counts");
    }

    /// Bit-identity across thread counts with store pressure active: the
    /// decay arithmetic runs inside the parallel job step, so it must not
    /// perturb the scheduling-independence contract.
    #[test]
    fn store_decay_is_bit_identical_across_thread_counts() {
        let run = |threads: usize| {
            let mut cfg = FleetSimConfig::new(2);
            cfg.noise_sigma = 0.1;
            cfg.threads = threads;
            let mut sim = FleetSim::new(cfg, 17);
            let always_on = AgentParams::new(98.0, SimDuration::ZERO).unwrap();
            let never_on = AgentParams::new(98.0, SimDuration::from_hours(10_000)).unwrap();
            sim.set_params(always_on);
            let mut out = sim.run_windows(6).unwrap();
            // Disable mid-run: every job's store decays in parallel.
            sim.set_params(never_on);
            out.extend(sim.run_windows(6).unwrap());
            serde_json::to_string(&out).expect("fleet stats serialize")
        };
        let (one, two, four) = (run(1), run(2), run(4));
        assert!(one == two, "1 vs 2 threads diverged under store pressure");
        assert!(one == four, "1 vs 4 threads diverged under store pressure");
        // The disabled half must actually exercise decay.
        let parsed: Vec<FleetWindowStats> = serde_json::from_str(&one).unwrap();
        let decayed: u64 = parsed[6..]
            .iter()
            .flat_map(|w| w.per_job.iter())
            .map(|j| j.writeback_events)
            .sum();
        assert!(decayed > 0, "no writebacks in the disabled phase");
    }

    /// The three-tier chain trajectory is bit-identical at any thread
    /// count (the ISSUE's acceptance gate at threads 1/2/4), and two
    /// same-seed runs serialize to the same bytes.
    #[test]
    fn three_tier_chain_is_bit_identical_across_thread_counts() {
        let run = |threads: usize| {
            let mut cfg = FleetSimConfig::new(2);
            cfg.noise_sigma = 0.1;
            cfg.threads = threads;
            // A tight per-job SSD quota so overflow reaches the remote tier.
            cfg.chain = Some(ChainPolicy::paper_default(64));
            let mut sim = FleetSim::new(cfg, 31);
            let windows = sim.run_windows(16).unwrap();
            serde_json::to_string(&windows).expect("fleet stats serialize")
        };
        let (one, again, two, four) = (run(1), run(1), run(2), run(4));
        assert!(one == again, "two same-seed chain runs diverged");
        assert!(one == two, "1 vs 2 threads diverged under the chain");
        assert!(one == four, "1 vs 4 threads diverged under the chain");
        let parsed: Vec<FleetWindowStats> = serde_json::from_str(&one).unwrap();
        let last = parsed.last().unwrap();
        // The decay trickle populated the SSD tier and its quota overflow
        // reached the remote tier.
        assert!(last.ssd_pages > 0, "nothing demoted to SSD");
        assert!(last.remote_pages > 0, "SSD quota never overflowed");
        // Demotions and fault-backs were charged as device traffic.
        for w in &parsed {
            for j in &w.per_job {
                if j.enabled {
                    // The far footprint is conserved across the ladder.
                    assert_eq!(
                        j.far_pages,
                        j.store_pages + j.ssd_pages + j.remote_pages,
                        "far-memory pages leaked between tiers"
                    );
                }
                assert_eq!(
                    j.decompress_events,
                    j.promotions + j.writeback_events + j.ssd_demotions + j.remote_demotions,
                    "demotions not charged as store loads"
                );
            }
        }
    }

    /// The hierarchical fidelity cutoff keeps the bit-identity contract:
    /// with page-level kernels running on the machines below the cutoff,
    /// the fleet trajectory still serializes to the same bytes at threads
    /// 1, 2, and 4 (each page-level job owns its kernel, so no state
    /// straddles workers).
    #[test]
    fn fidelity_cutoff_is_bit_identical_across_thread_counts() {
        let run = |threads: usize| {
            let mut cfg = FleetSimConfig::new(1);
            cfg.noise_sigma = 0.1;
            cfg.threads = threads;
            cfg.fidelity_cutoff = 3;
            let mut sim = FleetSim::new(cfg, 37);
            let windows = sim.run_windows(6).unwrap();
            serde_json::to_string(&windows).expect("fleet stats serialize")
        };
        let (one, again, two, four) = (run(1), run(1), run(2), run(4));
        assert!(one == again, "two same-seed cutoff runs diverged");
        assert!(one == two, "1 vs 2 threads diverged with the cutoff active");
        assert!(one == four, "1 vs 4 threads diverged with the cutoff active");
    }

    /// Turning the cutoff on must not perturb any job *outside* it:
    /// `spawn_job` draws exactly one seed per job regardless of engine, so
    /// the sim-level RNG stream — template sampling, churn, every stat
    /// job's noise seed — is identical between cutoff 0 and cutoff K. The
    /// stat-tier jobs therefore reproduce their cutoff-free trajectories
    /// bit for bit, and the page-level jobs report physically coherent
    /// stats (cold ⊆ total, far ⊆ cold, cold mass actually observed).
    #[test]
    fn cutoff_perturbs_only_the_machines_below_it() {
        let cfg = FleetSimConfig::new(1);
        let page_clusters: Vec<ClusterId> =
            cfg.spec.clusters[..2].iter().map(|c| c.id).collect();
        let run = |cutoff: usize| {
            let mut cfg = FleetSimConfig::new(1);
            cfg.noise_sigma = 0.1;
            cfg.threads = 2;
            cfg.fidelity_cutoff = cutoff;
            let mut sim = FleetSim::new(cfg, 41);
            sim.run_windows(6).unwrap()
        };
        let base = run(0);
        let cut = run(2);
        for (w, (wa, wb)) in base.iter().zip(cut.iter()).enumerate() {
            assert_eq!(wa.at, wb.at);
            assert_eq!(wa.per_job.len(), wb.per_job.len(), "population diverged");
            for (ja, jb) in wa.per_job.iter().zip(wb.per_job.iter()) {
                assert_eq!(ja.job, jb.job, "job order diverged at window {w}");
                if page_clusters.contains(&ja.cluster) {
                    continue; // below the cutoff: fidelity legitimately differs
                }
                assert_eq!(ja, jb, "stat-tier job perturbed by the cutoff at window {w}");
            }
        }
        let last = cut.last().unwrap();
        let page_jobs: Vec<&JobWindowStat> = last
            .per_job
            .iter()
            .filter(|j| page_clusters.contains(&j.cluster))
            .collect();
        assert!(!page_jobs.is_empty(), "no page-level jobs materialized");
        for j in &page_jobs {
            assert!(j.cold_pages <= j.total_pages, "cold exceeds total");
            assert!(j.far_pages <= j.cold_pages, "far exceeds cold");
        }
        assert!(
            page_jobs.iter().any(|j| j.cold_pages > 0),
            "page-level kernels observed no cold memory after 15 scans"
        );
    }

    /// The page-level tier below the cutoff must track the stat
    /// recurrence it stands in for: two same-seed runs, cutoff 0 vs 2,
    /// totals over the cutoff clusters' jobs after a 6-window warm-up
    /// (both tiers start with empty histograms, and tiny absolute numbers
    /// make relative drift noisy). Observed at seed 42: `total_pages`
    /// drift 0 (same profile stream in both runs), `cold_pages` 0.0027,
    /// `far_pages` 0.0193; the bounds are those × ~5–7.
    #[test]
    fn cutoff_tier_tracks_the_stat_recurrence() {
        let page_clusters: Vec<ClusterId> = FleetSimConfig::new(1).spec.clusters[..2]
            .iter()
            .map(|c| c.id)
            .collect();
        let run = |cutoff: usize| {
            let mut cfg = FleetSimConfig::new(1);
            cfg.fidelity_cutoff = cutoff;
            FleetSim::new(cfg, 42).run_windows(24).unwrap()
        };
        let (stat, page) = (run(0), run(2));
        let drift = |metric: fn(&JobWindowStat) -> u64| {
            let total = |windows: &[FleetWindowStats]| -> u64 {
                windows[6..]
                    .iter()
                    .flat_map(|w| &w.per_job)
                    .filter(|j| page_clusters.contains(&j.cluster))
                    .map(metric)
                    .sum()
            };
            let (a, b) = (total(&stat), total(&page));
            a.abs_diff(b) as f64 / a.max(b).max(1) as f64
        };
        assert_eq!(drift(|j| j.total_pages), 0.0, "total_pages drifted");
        let cold = drift(|j| j.cold_pages);
        assert!(cold <= 0.02, "cold_pages drift {cold}");
        let far = drift(|j| j.far_pages);
        assert!(far <= 0.10, "far_pages drift {far}");
    }

    /// A zero-machine fleet still steps: nothing to fan out, all-zero
    /// stats, and the zero coverage `FleetWindowStats::coverage` promises.
    #[test]
    fn empty_fleet_steps_to_all_zero_stats() {
        let mut cfg = FleetSimConfig::new(0);
        cfg.threads = 4;
        let mut sim = FleetSim::new(cfg, 42);
        assert_eq!(sim.job_count(), 0);
        let s = sim.step_window().unwrap();
        assert!(s.per_job.is_empty());
        let totals = [
            s.total_pages,
            s.cold_pages,
            s.far_pages,
            s.store_pages,
            s.store_frames,
            s.ssd_pages,
            s.remote_pages,
            s.prefetch_issued,
            s.prefetch_used,
            s.prefetch_wasted,
            s.prefetch_late,
        ];
        assert_eq!(totals, [0; 11]);
        assert_eq!(s.coverage(), 0.0);
    }

    /// With a chain attached, a disabled job's store demotes down the
    /// ladder instead of writing back to DRAM — the fast-model mirror of
    /// the kernel's `store_lifecycle_tick` demote path.
    #[test]
    fn disabled_store_demotes_instead_of_writing_back_under_chain() {
        let mut cfg = FleetSimConfig::new(2);
        cfg.noise_sigma = 0.0;
        cfg.churn = false;
        cfg.chain = Some(ChainPolicy::paper_default(128));
        let mut sim = FleetSim::new(cfg, 9);
        sim.set_params(AgentParams::new(98.0, SimDuration::ZERO).unwrap());
        let mut steady = None;
        for _ in 0..12 {
            steady = Some(sim.step_window().unwrap());
        }
        let steady = steady.unwrap();
        assert!(steady.store_pages > 0, "no store built up");

        sim.set_params(AgentParams::new(98.0, SimDuration::from_hours(10_000)).unwrap());
        let mut prev = steady.store_pages + steady.ssd_pages + steady.remote_pages;
        for w in 0..40 {
            let s = sim.step_window().unwrap();
            let writebacks: u64 = s.per_job.iter().map(|j| j.writeback_events).sum();
            let demoted: u64 = s
                .per_job
                .iter()
                .map(|j| j.ssd_demotions + j.remote_demotions)
                .sum();
            assert_eq!(writebacks, 0, "chain run wrote back at window {w}");
            // Every page leaving the store lands on a device tier: the
            // total far-memory mass is conserved while disabled.
            let held = s.store_pages + s.ssd_pages + s.remote_pages;
            assert_eq!(held, prev, "pages vanished during demotion at window {w}");
            prev = held;
            if s.store_pages == 0 {
                assert!(demoted == 0 || w > 0);
                break;
            }
            assert!(demoted > 0, "store stopped demoting at window {w}");
        }
        // Device traffic reached the fleet CPU ledger.
        let cpu = sim.cpu_accounting();
        assert!(cpu.tier_io_events > 0, "no tier I/O charged");
        assert!(cpu.tier_io_ns > 0);
    }

    /// The ISSUE acceptance gate: with the prefetcher enabled, two
    /// same-seed runs serialize to the same bytes and the trajectory is
    /// bit-identical at threads 1, 2, and 4.
    #[test]
    fn prefetch_enabled_is_bit_identical_across_thread_counts() {
        let run = |threads: usize| {
            let mut cfg = FleetSimConfig::new(2);
            cfg.noise_sigma = 0.1;
            cfg.threads = threads;
            cfg.prefetch = Some(PrefetchPolicy::paper_default(
                sdfm_kernel::PrefetchMode::StrideMarkov,
            ));
            let mut sim = FleetSim::new(cfg, 43);
            let windows = sim.run_windows(12).unwrap();
            serde_json::to_string(&windows).expect("fleet stats serialize")
        };
        let (one, again, two, four) = (run(1), run(1), run(2), run(4));
        assert!(one == again, "two same-seed prefetch runs diverged");
        assert!(one == two, "1 vs 2 threads diverged with prefetch on");
        assert!(one == four, "1 vs 4 threads diverged with prefetch on");
        // The stage actually fired somewhere in the run.
        let parsed: Vec<FleetWindowStats> = serde_json::from_str(&one).unwrap();
        let issued: u64 = parsed.iter().map(|w| w.prefetch_issued).sum();
        assert!(issued > 0, "prefetcher never issued anything");
    }

    /// Prefetch under the fidelity cutoff: page-level kernels run the
    /// real per-memcg predictor while stat jobs use the recurrence, and
    /// the combined trajectory still serializes identically at threads
    /// 1, 2, and 4.
    #[test]
    fn prefetch_under_fidelity_cutoff_is_bit_identical() {
        let run = |threads: usize| {
            let mut cfg = FleetSimConfig::new(1);
            cfg.noise_sigma = 0.1;
            cfg.threads = threads;
            cfg.fidelity_cutoff = 2;
            cfg.prefetch = Some(PrefetchPolicy::paper_default(
                sdfm_kernel::PrefetchMode::Stride,
            ));
            let mut sim = FleetSim::new(cfg, 47);
            let windows = sim.run_windows(6).unwrap();
            serde_json::to_string(&windows).expect("fleet stats serialize")
        };
        let (one, again, two, four) = (run(1), run(1), run(2), run(4));
        assert!(one == again, "two same-seed cutoff+prefetch runs diverged");
        assert!(one == two, "1 vs 2 threads diverged (cutoff + prefetch)");
        assert!(one == four, "1 vs 4 threads diverged (cutoff + prefetch)");
    }

    /// Accuracy-counter conservation and ledger balance: per job per
    /// window `used + wasted == issued`, every decompression source adds
    /// up, and hidden faults actually reduce reported demand promotions
    /// relative to the same seed without prefetching.
    #[test]
    fn prefetch_counters_conserve_and_hide_demand_faults() {
        let run = |prefetch: Option<PrefetchPolicy>| {
            let mut cfg = FleetSimConfig::new(2);
            cfg.noise_sigma = 0.0;
            cfg.churn = false;
            cfg.prefetch = prefetch;
            let mut sim = FleetSim::new(cfg, 51);
            sim.set_params(AgentParams::new(98.0, SimDuration::ZERO).unwrap());
            sim.run_windows(12).unwrap()
        };
        let base = run(None);
        let with = run(Some(PrefetchPolicy::paper_default(
            sdfm_kernel::PrefetchMode::StrideMarkov,
        )));
        let mut issued_total = 0u64;
        for w in &with {
            assert_eq!(
                w.prefetch_used + w.prefetch_wasted,
                w.prefetch_issued,
                "window-level conservation broke"
            );
            for j in &w.per_job {
                assert_eq!(
                    j.prefetch_used + j.prefetch_wasted,
                    j.prefetch_issued,
                    "per-job conservation broke"
                );
                assert_eq!(
                    j.decompress_events,
                    j.promotions
                        + j.prefetch_issued
                        + j.writeback_events
                        + j.ssd_demotions
                        + j.remote_demotions,
                    "decompression sources do not add up"
                );
            }
            issued_total += w.prefetch_issued;
        }
        assert!(issued_total > 0, "prefetcher never issued anything");
        let demand =
            |ws: &[FleetWindowStats]| -> u64 { ws.iter().flat_map(|w| &w.per_job).map(|j| j.promotions).sum() };
        let (base_promos, with_promos) = (demand(&base), demand(&with));
        assert!(
            with_promos < base_promos,
            "prefetching hid no demand faults: {with_promos} vs {base_promos}"
        );
        // No-prefetch windows report all-zero counters.
        for w in &base {
            assert_eq!(w.prefetch_issued + w.prefetch_used + w.prefetch_wasted + w.prefetch_late, 0);
        }
    }

    /// A policy with zero aggressiveness issues nothing and must be
    /// byte-identical to running with no policy at all — the `None`
    /// default therefore reproduces the pre-prefetch trajectory bit for
    /// bit (the same arithmetic with every count pinned to zero).
    #[test]
    fn zero_aggressiveness_prefetch_is_inert() {
        let run = |prefetch: Option<PrefetchPolicy>| {
            let mut cfg = FleetSimConfig::new(2);
            cfg.noise_sigma = 0.1;
            cfg.threads = 3;
            cfg.prefetch = prefetch;
            let mut sim = FleetSim::new(cfg, 53);
            let windows = sim.run_windows(8).unwrap();
            serde_json::to_string(&windows).expect("fleet stats serialize")
        };
        let none = run(None);
        let zero = run(Some(PrefetchPolicy::new(
            sdfm_kernel::PrefetchMode::StrideMarkov,
            0,
        )));
        assert!(none == zero, "zero-aggressiveness policy perturbed the run");
    }
}
