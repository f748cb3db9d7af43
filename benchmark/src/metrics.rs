//! The metric registry: `BENCHMARK.json` at the repository root, compiled
//! in and parsed at start-up. Names, units, directions and regression
//! bounds are written there and nowhere else.

use serde::Deserialize;

use crate::workloads;

/// One end-to-end metric: what a user of the library sees. Every workload
/// reports all of them; `ops_per_s` and `step_p50_us` count and time the
/// workload's own unit (see `workloads::ALL`).
#[derive(Debug, Deserialize)]
pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// One per-layer metric, named `<crate>.<metric>`; a workload on which
/// the layer does nothing reports 0.
#[derive(Debug, Deserialize)]
pub struct PerLayer {
    pub name: String,
    pub unit: String,
}

/// A workload's registry row; its `why` is for readers of the file.
#[derive(Debug, Deserialize)]
pub struct WorkloadRow {
    pub name: String,
}

/// The part of `BENCHMARK.json` the benchmark itself reads.
#[derive(Debug, Deserialize)]
pub struct Registry {
    /// Seconds each untraced run measures for.
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadRow>,
    pub end_to_end: Vec<EndToEnd>,
    pub per_layer: Vec<PerLayer>,
}

impl Registry {
    pub fn load() -> Result<Registry, String> {
        let registry: Registry = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let registered = registry.workloads.iter().map(|w| w.name.as_str());
        if !registered.eq(workloads::ALL.iter().map(|w| w.name)) {
            return Err("BENCHMARK.json and workloads::ALL name different workloads".into());
        }
        Ok(registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn registry_loads_and_its_names_are_within_the_contract() {
        let r = Registry::load().unwrap();
        let mut seen = BTreeSet::new();
        let names = (r.workloads.iter().map(|w| w.name.as_str()))
            .chain(r.end_to_end.iter().map(|m| m.name.as_str()))
            .chain(r.per_layer.iter().map(|m| m.name.as_str()));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(r.per_layer.len() <= 128 && (1..=60).contains(&r.run_seconds));
        assert!(r.end_to_end.iter().all(|m| m.bound <= 0.25));
        assert!(r.end_to_end.iter().any(|m| m.name == "setup_s"));
    }
}
