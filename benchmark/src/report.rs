//! The result line a run ends with — one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics` — written here and read
//! back here (by `all` and `calibrate`, which run workloads as child
//! processes), plus the `VmHWM` reader behind `peak_rss_mib`.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// One metric as measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measured {
    pub value: f64,
    pub unit: String,
}

/// One run's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Measured>,
}

impl RunResult {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.value)
    }
}

/// `VmHWM` (peak resident set) out of a `/proc/<pid>/status` text, in
/// MiB.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let kib: f64 = words.next()?.parse().ok()?;
    (words.next() == Some("kB")).then_some(kib / 1024.0)
}

/// This process's peak resident set so far, MiB.
pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let measured = |value, unit: &str| Measured {
            value,
            unit: unit.into(),
        };
        let r = RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: BTreeMap::from([
                ("ops_per_s".into(), measured(24_512.75, "1/s")),
                (
                    "kernel.sim_checksum".into(),
                    measured(281_474_976_710_655.0, "count"),
                ),
                ("setup_s".into(), measured(0.8127, "s")),
            ]),
        };
        let line = serde_json::to_string(&r).unwrap();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1000,\"failed\":0,"));
        assert!(line.contains("\"setup_s\":{\"value\":0.8127,\"unit\":\"s\"}"));
        assert!(!line.contains('\n'));
        assert_eq!(serde_json::from_str::<RunResult>(&line).unwrap(), r);
        assert_eq!(r.metric("setup_s"), Some(0.8127));
        assert_eq!(r.metric("absent"), None);
        assert!(serde_json::from_str::<RunResult>("not a result").is_err());
    }

    #[test]
    fn vm_hwm_is_read_in_mib() {
        let status = "Name:\tsdfm\nVmPeak:\t  999999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  1024 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t12 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\n"), None);
        assert!(peak_rss_mib().is_some_and(|mib| mib > 0.0));
    }
}
