//! The machine-level agent loop (the paper's Borglet extension, §5.2).

use std::collections::BTreeMap;

use crate::controller::{ControlDecision, JobController};
use crate::params::{AgentParams, SloConfig};
use sdfm_kernel::{Kernel, StorePressure};
use sdfm_types::ids::JobId;
use sdfm_types::time::SimTime;

/// Ticks between arena compactions.
const COMPACT_EVERY_TICKS: u64 = 10;

/// Store-lifecycle policy applied every tick (disabled-store decay,
/// soft-limit restoration, demotion budget).
const STORE_PRESSURE: StorePressure = StorePressure::PAPER_DEFAULT;

/// Drives one machine: owns a [`JobController`] per registered job, reads
/// kernel statistics every minute, and pushes decisions back into the
/// kernel (zswap enablement, soft limit, reclaim threshold). Also triggers
/// zsmalloc compaction periodically (§5.1's explicit compaction interface).
#[derive(Debug)]
pub struct NodeAgent {
    params: AgentParams,
    slo: SloConfig,
    controllers: BTreeMap<JobId, JobController>,
    ticks: u64,
}

impl NodeAgent {
    /// Creates an agent with the given control parameters and SLO.
    pub fn new(params: AgentParams, slo: SloConfig) -> Self {
        NodeAgent {
            params,
            slo,
            controllers: BTreeMap::new(),
            ticks: 0,
        }
    }

    /// The parameters currently in force.
    pub fn params(&self) -> AgentParams {
        self.params
    }

    /// Rolls out new parameters to every job on the machine.
    pub fn set_params(&mut self, params: AgentParams) {
        self.params = params;
        for ctl in self.controllers.values_mut() {
            ctl.set_params(params);
        }
    }

    /// The SLO in force.
    pub fn slo(&self) -> SloConfig {
        self.slo
    }

    /// Starts controlling a job that began execution at `started_at`.
    /// Re-registering a job resets its history (job restart).
    pub fn register_job(&mut self, job: JobId, started_at: SimTime) {
        self.controllers
            .insert(job, JobController::new(self.params, self.slo, started_at));
    }

    /// Stops controlling a job (exit or eviction).
    pub fn unregister_job(&mut self, job: JobId) {
        self.controllers.remove(&job);
    }

    /// Registered jobs.
    pub fn jobs(&self) -> impl Iterator<Item = JobId> + '_ {
        self.controllers.keys().copied()
    }

    /// Read access to a job's controller.
    pub fn controller(&self, job: JobId) -> Option<&JobController> {
        self.controllers.get(&job)
    }

    /// Runs one agent period: per-job control decisions pushed into the
    /// kernel, plus periodic arena compaction. Returns the decisions for
    /// telemetry. Jobs whose memcg has disappeared are dropped.
    pub fn tick(&mut self, now: SimTime, kernel: &mut Kernel) -> Vec<(JobId, ControlDecision)> {
        self.ticks += 1;
        let mut out = Vec::with_capacity(self.controllers.len());
        let mut dead = Vec::new();
        for (&job, ctl) in self.controllers.iter_mut() {
            let Ok(cg) = kernel.memcg(job) else {
                dead.push(job);
                continue;
            };
            let cold = cg.cold_age_histogram().clone();
            let promo = cg.promotion_histogram().clone();
            let decision = ctl.on_minute(now, &cold, &promo);
            // The memcg can vanish between the read above and the pushes
            // below (job exit racing the tick). The agent must degrade
            // gracefully — drop the job from control, never crash the
            // machine (rule P1).
            let pushed = kernel
                .set_zswap_enabled(job, decision.zswap_enabled)
                .and_then(|()| kernel.set_soft_limit(job, decision.working_set))
                .and_then(|()| {
                    if decision.zswap_enabled {
                        kernel.reclaim_job(job, decision.threshold).map(|_| ())
                    } else {
                        Ok(())
                    }
                })
                // Demotion tick: with a chain attached, one decay step of
                // the job's coldest compressed pages sinks down the
                // ladder (no-op without a tier below the store). Disabled
                // jobs demote through the lifecycle tick instead, so the
                // store never decays twice per minute.
                .and_then(|()| {
                    if decision.zswap_enabled {
                        let zswapped = kernel.memcg(job)?.stats().zswapped_pages;
                        let budget = STORE_PRESSURE.decay_step(zswapped);
                        kernel.demote_job(job, budget).map(|_| ())
                    } else {
                        Ok(())
                    }
                })
                // Store lifecycle: decay a disabled job's store one step,
                // or restore working-set pages a raised soft limit now
                // protects.
                .and_then(|()| {
                    kernel
                        .store_lifecycle_tick(job, &STORE_PRESSURE)
                        .map(|_| ())
                });
            if pushed.is_err() {
                dead.push(job);
                continue;
            }
            out.push((job, decision));
        }
        for job in dead {
            self.controllers.remove(&job);
        }
        if self.ticks.is_multiple_of(COMPACT_EVERY_TICKS) {
            kernel.compact_zswap();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfm_kernel::{KernelConfig, PageContent};
    use sdfm_types::size::PageCount;
    use sdfm_types::time::{SimDuration, MINUTE};

    fn setup(warmup_mins: u64) -> (NodeAgent, Kernel, JobId) {
        let params = AgentParams::new(90.0, SimDuration::from_mins(warmup_mins)).unwrap();
        let agent = NodeAgent::new(params, SloConfig::default());
        let mut kernel = Kernel::new(KernelConfig {
            capacity: PageCount::new(100_000),
            ..KernelConfig::default()
        });
        let job = JobId::new(7);
        kernel.create_memcg(job, PageCount::new(50_000)).unwrap();
        (agent, kernel, job)
    }

    /// Advances one simulated minute: scans happen every 2 minutes
    /// (120 s), agent ticks every minute.
    fn run_minutes(
        agent: &mut NodeAgent,
        kernel: &mut Kernel,
        start_min: u64,
        minutes: u64,
    ) -> Vec<(JobId, ControlDecision)> {
        let mut last = Vec::new();
        for m in start_min..start_min + minutes {
            let now = SimTime::ZERO + MINUTE * (m + 1);
            if (m + 1) % 2 == 0 {
                kernel.run_scan();
            }
            last = agent.tick(now, kernel);
        }
        last
    }

    #[test]
    fn agent_reclaims_idle_memory_after_warmup() {
        let (mut agent, mut kernel, job) = setup(4);
        agent.register_job(job, SimTime::ZERO);
        kernel
            .alloc_pages(job, 1000, |_| PageContent::synthetic_of_len(600))
            .unwrap();
        // Never touched after allocation: everything goes cold.
        let decisions = run_minutes(&mut agent, &mut kernel, 0, 30);
        assert_eq!(decisions.len(), 1);
        let (_, d) = decisions[0];
        assert!(d.zswap_enabled);
        let stats = kernel.memcg(job).unwrap().stats();
        assert!(
            stats.zswapped_pages > 900,
            "idle pages not reclaimed: {} in zswap",
            stats.zswapped_pages
        );
    }

    #[test]
    fn warmup_holds_zswap_off() {
        let (mut agent, mut kernel, job) = setup(60);
        agent.register_job(job, SimTime::ZERO);
        kernel
            .alloc_pages(job, 100, |_| PageContent::synthetic_of_len(600))
            .unwrap();
        run_minutes(&mut agent, &mut kernel, 0, 30);
        assert_eq!(kernel.memcg(job).unwrap().stats().zswapped_pages, 0);
        assert!(!kernel.memcg(job).unwrap().zswap_enabled());
    }

    #[test]
    fn soft_limit_tracks_working_set() {
        let (mut agent, mut kernel, job) = setup(0);
        agent.register_job(job, SimTime::ZERO);
        kernel
            .alloc_pages(job, 500, |_| PageContent::synthetic_of_len(600))
            .unwrap();
        // Touch the first 200 pages every minute: they are the working set.
        for m in 0..20u64 {
            for i in 0..200 {
                kernel
                    .touch(job, sdfm_types::ids::PageId::new(i), false)
                    .unwrap();
            }
            let now = SimTime::ZERO + MINUTE * (m + 1);
            if (m + 1) % 2 == 0 {
                kernel.run_scan();
            }
            agent.tick(now, &mut kernel);
        }
        let soft = kernel.memcg(job).unwrap().soft_limit();
        assert!(
            (190..=260).contains(&soft.get()),
            "soft limit {} should approximate the 200-page working set",
            soft.get()
        );
    }

    #[test]
    fn disabling_zswap_decays_the_store_through_ticks() {
        let (mut agent, mut kernel, job) = setup(4);
        agent.register_job(job, SimTime::ZERO);
        kernel
            .alloc_pages(job, 1000, |_| PageContent::synthetic_of_len(600))
            .unwrap();
        run_minutes(&mut agent, &mut kernel, 0, 30);
        let stored = kernel.memcg(job).unwrap().stats().zswapped_pages;
        assert!(stored > 900, "store never built up: {stored}");
        // Roll out an effectively-infinite warmup: the controller turns
        // zswap off, and the lifecycle tick must drain the dead store.
        agent.set_params(
            AgentParams::new(90.0, SimDuration::from_mins(1_000_000)).unwrap(),
        );
        let budget = STORE_PRESSURE.windows_to_drain(stored) + 5;
        run_minutes(&mut agent, &mut kernel, 30, budget);
        let s = kernel.memcg(job).unwrap().stats();
        assert_eq!(s.zswapped_pages, 0, "dead store survived the decay");
        assert_eq!(s.writebacks, stored);
        assert_eq!(s.resident_pages, 1000);
    }

    #[test]
    fn agent_demotes_down_an_attached_chain() {
        use sdfm_kernel::BackendConfig;
        let (mut agent, mut kernel, job) = setup(4);
        kernel.enable_chain(&[
            BackendConfig::compressed_ram(),
            BackendConfig::ssd(PageCount::new(200)),
            BackendConfig::remote(),
        ]);
        agent.register_job(job, SimTime::ZERO);
        kernel
            .alloc_pages(job, 1000, |_| PageContent::synthetic_of_len(600))
            .unwrap();
        // Idle pages compress, then the per-minute demotion tick sinks
        // the coldest of them down the chain — past the 200-page SSD and
        // onto the remote tier.
        run_minutes(&mut agent, &mut kernel, 0, 120);
        let s = kernel.memcg(job).unwrap().stats();
        assert!(
            s.demoted_total() > 200,
            "demotion tick never overflowed the SSD: {} demoted",
            s.demoted_total()
        );
        let stats = kernel.chain_stats().unwrap();
        assert!(stats[1].resident_pages > 0, "SSD tier empty");
        assert!(stats[2].resident_pages > 0, "remote tier empty");
        // Conservation: everything lives in exactly one place.
        assert_eq!(
            s.resident_pages + s.zswapped_pages + s.demoted_total(),
            1000
        );
    }

    #[test]
    fn dead_jobs_are_dropped_from_control() {
        let (mut agent, mut kernel, job) = setup(0);
        agent.register_job(job, SimTime::ZERO);
        kernel.remove_memcg(job).unwrap();
        let decisions = agent.tick(SimTime::ZERO + MINUTE, &mut kernel);
        assert!(decisions.is_empty());
        assert_eq!(agent.jobs().count(), 0);
    }

    #[test]
    fn reregistering_resets_history() {
        let (mut agent, mut kernel, job) = setup(0);
        agent.register_job(job, SimTime::ZERO);
        kernel
            .alloc_pages(job, 10, |_| PageContent::synthetic_of_len(600))
            .unwrap();
        run_minutes(&mut agent, &mut kernel, 0, 5);
        assert!(agent.controller(job).unwrap().pool_len() >= 5);
        agent.register_job(job, SimTime::ZERO + MINUTE * 5);
        assert_eq!(agent.controller(job).unwrap().pool_len(), 0);
    }

    #[test]
    fn param_rollout_reaches_existing_controllers() {
        let (mut agent, _kernel, job) = setup(0);
        agent.register_job(job, SimTime::ZERO);
        let newp = AgentParams::new(55.0, SimDuration::ZERO).unwrap();
        agent.set_params(newp);
        assert_eq!(agent.controller(job).unwrap().params(), newp);
        assert_eq!(agent.params(), newp);
    }
}
