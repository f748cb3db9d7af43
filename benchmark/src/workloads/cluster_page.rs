//! `cluster_page` — the page path as the paper deployed it: a `BorgCluster`
//! of eight machines on compressed RAM only (lzo, no chain, prefetch off)
//! under job churn. `workloads::PageLevelDriver` touches pages, the
//! `kernel` sweeps (kstaled), reclaims (kreclaimd) and stores synthetic
//! payloads (zswap), `agent::NodeAgent` ticks every machine, and `cluster`
//! places, snapshots and evicts. The stat recurrence and the real codecs
//! do nothing here.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdfm_agent::{AgentParams, SloConfig};
use sdfm_cluster::{BorgCluster, ClusterConfig};
use sdfm_kernel::{KernelConfig, PrefetchConfig};
use sdfm_types::ids::{ClusterId, JobId};
use sdfm_types::time::SimDuration;
use sdfm_workloads::JobProfile;

use super::machine_twin::{
    page_path_layers, require_identical, run_machine, run_twin, MachineSpec,
};
use super::{population, timed, Checks, Checksum, Layers, Round, Scale, SimStats, Traced};
use crate::trace::Tracer;

const MACHINES: usize = 8;
/// Initial jobs plus one arrival for every minute of the longest run.
const POPULATION: usize = 60 + 45 + 72;

struct Params {
    initial_jobs: usize,
    warmup_minutes: u64,
    minutes: u64,
}

fn params(scale: Scale) -> Params {
    Params {
        initial_jobs: scale.pick(60, 12),
        warmup_minutes: scale.pick(45, 42) as u64,
        minutes: scale.pick(72, 12) as u64,
    }
}

/// The load generator: the fixed population (half-size template jobs
/// living 90–600 minutes, the shape of `examples/cluster_day.rs`) arriving
/// on a fixed Bernoulli(0.1)-per-minute schedule, and the size of every
/// job submitted, for the conservation check.
struct Load {
    waiting: std::vec::IntoIter<JobProfile>,
    schedule: StdRng,
    pages: BTreeMap<JobId, u64>,
}

impl Load {
    fn new() -> Self {
        let (mut jobs, mut schedule) = population(POPULATION, 2);
        for job in &mut jobs {
            job.lifetime = SimDuration::from_mins(schedule.gen_range(90..600));
        }
        Load {
            waiting: jobs.into_iter(),
            schedule,
            pages: BTreeMap::new(),
        }
    }

    fn submit(&mut self, cluster: &mut BorgCluster) {
        let profile = self.waiting.next().expect("population outlasts the run");
        let pages = profile.total_pages().get();
        self.pages.insert(cluster.submit(profile), pages);
    }

    fn arrivals(&mut self, cluster: &mut BorgCluster) {
        if self.schedule.gen_bool(0.1) {
            self.submit(cluster);
        }
    }

    /// Per machine: `resident + zswapped + demoted == allocated`.
    fn conserved(&self, cluster: &BorgCluster) -> bool {
        cluster.machines().iter().all(|m| {
            let allocated: u64 = m.kernel().jobs().map(|job| self.pages[&job]).sum();
            let s = m.kernel().machine_stats();
            s.resident.get() + s.zswapped_pages + s.demoted_total() == allocated
        })
    }
}

struct ClusterRun {
    setup_s: f64,
    step_us: Vec<f64>,
    checks: Checks,
    placed: u64,
    exited: u64,
    sim: SimStats,
    evictions: u64,
    oom_kills: u64,
}

fn run_cluster(seed: u64, p: &Params) -> ClusterRun {
    let mut load = Load::new();
    let ((mut cluster, mut placed, mut exited), setup_s) = timed(|| {
        let mut cluster = BorgCluster::new(
            ClusterConfig {
                id: ClusterId::new(0),
                machines: MACHINES,
                kernel: KernelConfig::default(),
                agent: AgentParams::default(),
                slo: SloConfig::default(),
                export_period: SimDuration::from_secs(300),
                threads: 1,
            },
            seed,
        );
        for _ in 0..p.initial_jobs {
            load.submit(&mut cluster);
        }
        let (mut placed, mut exited) = (0u64, 0u64);
        for _ in 0..p.warmup_minutes {
            load.arrivals(&mut cluster);
            let report = cluster.step_minute();
            placed += report.placed.len() as u64;
            exited += report.exited.len() as u64;
        }
        (cluster, placed, exited)
    });
    let mut checks = Checks::default();
    let mut step_us = Vec::with_capacity(p.minutes as usize);
    let mut promotions = 0u64;
    let mut sum = Checksum::new();
    for minute in 0..p.minutes {
        load.arrivals(&mut cluster);
        let start = Instant::now();
        let report = cluster.step_minute();
        let us = start.elapsed().as_secs_f64() * 1e6;
        step_us.push(us);
        checks.op(
            load.conserved(&cluster) && cluster.evictions().oom_kills() == 0,
            || format!("minute {minute}: {report:?}"),
        );
        placed += report.placed.len() as u64;
        exited += report.exited.len() as u64;
        promotions += report.promotions;
        for v in [
            report.placed.len() as u64,
            report.exited.len() as u64,
            report.evicted.len() as u64,
            report.pending as u64,
            report.promotions,
        ] {
            sum.add(v);
        }
    }
    let mut zswapped = 0u64;
    for m in cluster.machines() {
        let s = m.kernel().machine_stats();
        zswapped += s.zswapped_pages;
        sum.add(s.resident.get());
        sum.add(s.zswapped_pages);
        sum.add(s.zswap_footprint.get());
    }
    ClusterRun {
        setup_s,
        step_us,
        checks,
        placed,
        exited,
        evictions: cluster.evictions().evictions(),
        oom_kills: cluster.evictions().oom_kills(),
        sim: vec![
            ("cluster.sim_zswapped_pages_final", zswapped),
            ("cluster.sim_promotions", promotions),
            ("cluster.sim_checksum", sum.get()),
        ],
    }
}

pub fn round(seed: u64, scale: Scale) -> Round {
    let p = params(scale);
    let run = run_cluster(seed, &p);
    Round {
        setup_s: run.setup_s,
        work: p.minutes * MACHINES as u64,
        step_us: run.step_us,
        other_us: Vec::new(),
        checks: run.checks,
        sim: run.sim,
    }
}

pub fn traced(seed: u64, scale: Scale, tracer: &mut Tracer, layers: &mut Layers) -> Traced {
    let p = params(scale);
    let mut cluster = run_cluster(seed, &p);
    layers.insert("cluster.jobs_placed", cluster.placed as f64);
    layers.insert("cluster.jobs_exited", cluster.exited as f64);
    layers.insert("cluster.evictions", cluster.evictions as f64);
    layers.insert("cluster.oom_kills", cluster.oom_kills as f64);

    // `BorgCluster` cannot be taken apart from outside, so the layers are
    // priced on one machine's share of the same load: an eighth of the
    // initial jobs on one default machine, mirrored by the twin.
    let mut rng = StdRng::seed_from_u64(seed);
    let (profiles, _) = population(p.initial_jobs.div_ceil(MACHINES), 2);
    let spec = MachineSpec {
        capacity: KernelConfig::default().capacity.get(),
        chain: Vec::new(),
        prefetch: PrefetchConfig::default(),
        jobs: profiles
            .into_iter()
            .map(|mut profile| {
                profile.lifetime = SimDuration::from_hours(24 * 365);
                (profile, rng.gen())
            })
            .collect(),
        warmup_minutes: p.warmup_minutes,
        minutes: p.minutes,
    };
    let machine = run_machine(&spec);
    let twin = run_twin(&spec, tracer);
    page_path_layers(&spec, &machine, &twin, tracer, layers);

    let mut checks = std::mem::take(&mut cluster.checks);
    require_identical(&mut checks, &machine, &twin);
    checks.absorb(machine.checks);
    checks.absorb(twin.checks);
    Traced {
        checks,
        sim: cluster.sim,
        step_us: cluster.step_us,
    }
}
