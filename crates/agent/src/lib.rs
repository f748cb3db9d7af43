//! The node agent: per-job cold-age-threshold control under the promotion
//! SLO (§4.3, §5.2).
//!
//! Every minute, for every job on the machine, the agent:
//!
//! 1. reads the kernel-exported cold-age and promotion histograms;
//! 2. computes the *best* threshold for the past minute — the smallest
//!    cold-age threshold whose would-be promotion rate stays within the
//!    target `P%` of the job's working set size per minute;
//! 3. appends it to the job's history pool and picks
//!    `max(K-th percentile of pool, best of last minute)` as the threshold
//!    for the next minute (the max term is the spike reaction);
//! 4. keeps zswap disabled for the first `S` seconds of the job
//!    (insufficient history);
//! 5. pushes the decision into the kernel: enables/disables zswap, sets the
//!    soft limit to the working set, and triggers kreclaimd.
//!
//! `K` and `S` are the two parameters the ML autotuner optimizes (§5.3).
//!
//! # Examples
//!
//! ```
//! use sdfm_agent::{AgentParams, JobController, SloConfig};
//! use sdfm_types::prelude::*;
//!
//! let params = AgentParams::default();
//! let slo = SloConfig::default();
//! let mut ctl = JobController::new(params, slo, SimTime::ZERO);
//!
//! let cold = ColdAgeHistogram::new();
//! let promo = PromotionHistogram::new();
//! let d = ctl.on_minute(SimTime::ZERO + MINUTE, &cold, &promo);
//! assert!(!d.zswap_enabled); // still inside the S-second warmup
//! ```

#![warn(missing_docs)]

mod controller;
mod exporter;
mod node_agent;
mod params;
mod pool;

pub use controller::{
    best_threshold_for_delta, best_threshold_for_window, ControlDecision, JobController,
};
pub use exporter::{TraceExporter, TraceRecord, EXPORT_PERIOD};
pub use node_agent::NodeAgent;
pub use params::{AgentParams, SloConfig};
pub use pool::ThresholdPool;
