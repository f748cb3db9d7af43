//! Software-defined far memory: the end-to-end system.
//!
//! This crate is the paper's primary contribution assembled from the
//! substrate crates: proactively compressing cold pages into a
//! software-defined far memory tier under a strict promotion-rate SLO,
//! with ML-based autotuning of the control plane.
//!
//! * [`FarMemorySystem`] — the single-machine product: kernel + node
//!   agent + telemetry behind one API. Embed this to run software-defined
//!   far memory over simulated jobs.
//! * [`FleetSim`] — the fleet-scale longitudinal simulator: thousands of
//!   statistically-modeled jobs across the ten-cluster synthetic fleet,
//!   with the real §4.3 controller making per-job decisions each window.
//!   All fleet-level figures derive from it.
//! * [`TcoModel`] — the §6.1 total-cost-of-ownership arithmetic (coverage
//!   × cold ceiling × compression savings → DRAM cost reduction).
//! * [`AutotunePipeline`] — the §5.3 loop: GP-Bandit suggestions evaluated
//!   against the fast far memory model, yielding tuned `(K, S)`.
//! * [`experiments`] — reproductions of every figure and headline table in
//!   the paper's evaluation, consumed by the `sdfm-bench` binaries.
//!
//! # Examples
//!
//! ```
//! use sdfm_core::{FarMemorySystem, SystemConfig};
//! use sdfm_workloads::templates::JobTemplate;
//! use rand::SeedableRng;
//!
//! let mut system = FarMemorySystem::new(SystemConfig::default());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut profile = JobTemplate::WebFrontend.sample_profile(&mut rng);
//! # for b in &mut profile.rate_buckets { b.pages = (b.pages / 100).max(1); }
//! let job = system.add_job(profile).expect("capacity available");
//! system.run_minutes(5);
//! assert!(system.machine_stats().resident.get() > 0);
//! # let _ = job;
//! ```

#![warn(missing_docs)]

pub mod autotune;
pub mod experiments;
pub mod fleet_sim;
pub mod system;
pub mod tco;

pub use autotune::{AutotunePipeline, TuneTrial};
pub use fleet_sim::{FleetSim, FleetSimConfig, FleetSimError, FleetWindowStats, JobWindowStat};
pub use system::{FarMemorySystem, SystemConfig};
pub use tco::TcoModel;
