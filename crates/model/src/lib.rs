//! The fast far memory model (§5.3).
//!
//! The paper's autotuner never experiments on production: it replays
//! exported far-memory traces — per-job 5-minute aggregates of working set
//! size, cold-age histogram, and promotion histogram — through the §4.3
//! control algorithm under *candidate* parameter configurations, entirely
//! offline. Because every candidate threshold's behavior is recoverable
//! from the histograms, one trace supports what-if analysis of any `(K, S)`
//! configuration.
//!
//! That only pays if a what-if is cheap, so [`FarMemoryModel::new`]
//! *prepares* each trace once, for the production SLO. What only the SLO
//! decides — each window's best threshold, its potential cold pages, and
//! the pool of bests the controller holds before it — is derived up front.
//! The threshold in force is always one of the bests the pool holds (or
//! the maximum age while it is empty), so each window keeps its cold
//! pages and promotions only at those few thresholds ("one histogram
//! answers the question for every threshold at once", §4.3, asked only
//! where it can be asked), and the histograms are not kept.
//! [`FarMemoryModel::evaluate`] replays the prepared traces — a rank, two
//! bytes and one column per window — and folds the outcomes into the
//! fleet result without keeping them;
//! [`replay_job`] prepares one borrowed trace for its configuration's SLO,
//! runs the same loop and returns every [`WindowOutcome`].
//!
//! The pipeline is embarrassingly parallel (jobs replay independently);
//! the paper models a week of the whole WSC in under an hour on
//! MapReduce. [`FarMemoryModel`] parallelizes over jobs on a persistent
//! worker pool, with results bit-identical at any thread count.
//!
//! # Examples
//!
//! ```
//! use sdfm_model::{FarMemoryModel, ModelConfig};
//! use sdfm_agent::AgentParams;
//!
//! let model = FarMemoryModel::new(vec![]); // no traces: empty result
//! let result = model.evaluate(&ModelConfig::new(AgentParams::default()));
//! assert_eq!(result.jobs, 0);
//! ```

#![warn(missing_docs)]

mod fleet;
#[cfg(test)]
mod reference;
mod replay;
mod trace;

pub use fleet::{FarMemoryModel, FleetModelResult, ModelConfig};
pub use replay::{replay_job, replay_job_with_model, JobReplayOutcome, WindowOutcome};
pub use trace::{group_traces, JobTrace};
