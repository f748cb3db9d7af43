//! The simulated kernel memory-management layer.
//!
//! This crate reproduces, as a discrete-event simulation, the kernel half of
//! the paper's control plane (§5.1): per-page age tracking in `struct page`
//! metadata, the `kstaled` scanner that walks accessed bits on a 120 s
//! period and maintains per-job cold-age and promotion histograms, the
//! `kreclaimd` daemon that moves pages past the cold-age threshold into the
//! zswap store, and the zswap/zsmalloc store itself with the 2990-byte
//! incompressible cutoff and fail-fast memcg-limit semantics.
//!
//! The control plane above (the node agent, `sdfm-agent`) only ever observes
//! the kernel through the exported histograms and counters, exactly as in
//! the paper — so the algorithmic surface between the two layers is
//! faithful even though the machine is simulated.
//!
//! # Architecture
//!
//! [`Kernel`] is one machine's kernel. It owns:
//!
//! * a set of [`MemCgroup`]s (one per job) holding the job's pages;
//! * one **global** [`ZswapStore`] (per-machine arena, §5.1);
//! * the scan/reclaim machinery ([`kstaled`], [`kreclaimd`]), which only
//!   picks victims — every Resident ↔ Zswapped ↔ Demoted move itself is
//!   written once, in the private `moves` module;
//! * CPU-cost accounting for compression work ([`cost::CpuAccounting`]).
//!
//! Workloads drive it with [`Kernel::touch`] (page accesses) and the
//! cluster layer drives [`Kernel::run_scan`] / [`Kernel::reclaim_job`].
//!
//! # Examples
//!
//! ```
//! use sdfm_kernel::{Kernel, KernelConfig, PageContent};
//! use sdfm_types::prelude::*;
//!
//! let mut kernel = Kernel::new(KernelConfig::default());
//! let job = JobId::new(1);
//! kernel.create_memcg(job, PageCount::new(1024))?;
//! kernel.alloc_pages(job, 16, |_| PageContent::synthetic_of_len(100))?;
//! kernel.touch(job, PageId::new(0), false)?;
//! # Ok::<(), sdfm_kernel::KernelError>(())
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod cost;
mod error;
pub mod far_state;
#[allow(clippy::module_inception)]
mod kernel;
pub mod kreclaimd;
pub mod kstaled;
pub mod memcg;
mod moves;
pub mod page;
pub mod page_table;
pub mod prefetch;
pub mod thermostat;
pub mod writeback;
pub mod zswap;

pub use backend::{
    BackendConfig, BackendKind, BackendStats, ChainPolicy, DemotionChain, MAX_TIERS,
};
pub use cost::{CostModel, CostSource, CpuAccounting};
pub use error::KernelError;
pub use far_state::{FarPolicy, FarState, FarWindow};
pub use kernel::{Kernel, KernelConfig, MachineStats};
pub use memcg::{MemCgroup, MemcgStats};
pub use page::{Page, PageContent, PageState};
pub use page_table::PageTable;
pub use prefetch::{
    PrefetchConfig, PrefetchMode, PrefetchPolicy, PrefetchWindowCounts, Prefetcher,
};
pub use thermostat::{ThermostatEstimate, ThermostatSampler};
pub use writeback::{
    DemotionOutcome, HostPressureOutcome, LifecycleOutcome, StorePressure, WritebackOutcome,
};
pub use zswap::{StoreOutcome, ZswapStats, ZswapStore};
