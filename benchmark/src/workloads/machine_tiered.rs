//! `machine_tiered` — the same kernel layer used differently: one big
//! machine with the three-tier demotion chain attached and the
//! stride + Markov prefetcher recording every access. `kernel::backend`
//! demotion and `kernel::prefetch` record/drain are on the hot path here
//! and absent from `cluster_page`, so a kernel change that helps one and
//! costs the other shows. `BorgCluster` has no public way to attach a
//! chain, hence a bare `Machine`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdfm_kernel::{BackendConfig, PrefetchConfig, PrefetchMode, PrefetchPolicy};
use sdfm_types::size::PageCount;
use sdfm_types::time::SimDuration;

use super::machine_twin::{
    page_path_layers, require_identical, run_machine, run_twin, MachineSpec,
};
use super::{per, population, Layers, Round, Scale, Traced};
use crate::trace::Tracer;

fn spec(seed: u64, scale: Scale, prefetch: PrefetchConfig) -> MachineSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let (profiles, _) = population(scale.pick(10, 3), 1);
    let jobs = profiles
        .into_iter()
        .map(|mut profile| {
            // No job leaves mid-run: the twin mirrors a fixed population.
            profile.lifetime = SimDuration::from_hours(24 * 365);
            (profile, rng.gen())
        })
        .collect();
    MachineSpec {
        capacity: 2_000_000,
        chain: vec![
            BackendConfig::compressed_ram(),
            // Small enough to fill within a round, so demotions overflow
            // to the remote tier.
            BackendConfig::ssd(PageCount::new(scale.pick(4_000, 500) as u64)),
            BackendConfig::remote(),
        ],
        prefetch,
        jobs,
        warmup_minutes: scale.pick(45, 42) as u64,
        minutes: scale.pick(100, 12) as u64,
    }
}

fn stride_markov() -> PrefetchConfig {
    PrefetchPolicy::paper_default(PrefetchMode::StrideMarkov).kernel_config()
}

pub fn round(seed: u64, scale: Scale) -> Round {
    let tiered = spec(seed, scale, stride_markov());
    let run = run_machine(&tiered);
    Round {
        setup_s: run.setup_s,
        work: tiered.minutes,
        step_us: run.step_us,
        other_us: Vec::new(),
        checks: run.checks,
        sim: run.sim,
    }
}

pub fn traced(seed: u64, scale: Scale, tracer: &mut Tracer, layers: &mut Layers) -> Traced {
    let tiered = spec(seed, scale, stride_markov());
    let mut machine = run_machine(&tiered);
    let twin = run_twin(&tiered, tracer);
    page_path_layers(&tiered, &machine, &twin, tracer, layers);

    // What recording every access costs: the same twin with the
    // prefetcher off, compared on the driver's time per touch.
    let mut quiet_tracer = Tracer::new("machine_tiered-prefetch-off");
    let quiet = run_twin(
        &spec(seed, scale, PrefetchConfig::default()),
        &mut quiet_tracer,
    );
    let drive_ns = |t: &Tracer| t.layers()["workloads.run_window"].total_ns as f64;
    let with = per(drive_ns(tracer), twin.counts.pages_touched);
    let without = per(drive_ns(&quiet_tracer), quiet.counts.pages_touched);
    layers.insert(
        "kernel.prefetch_record_ns_per_access",
        (with - without).max(0.0),
    );

    let mut checks = std::mem::take(&mut machine.checks);
    require_identical(&mut checks, &machine, &twin);
    checks.absorb(twin.checks);
    Traced {
        checks,
        sim: machine.sim,
        step_us: machine.step_us,
    }
}
