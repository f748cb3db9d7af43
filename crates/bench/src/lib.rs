//! Shared scaffolding for the experiment binaries.
//!
//! Every `fig*`/`table*`/`ablation_*` binary regenerates one figure or
//! table from the paper. Each accepts:
//!
//! * `--paper` — run at paper-shaped scale (hundreds of machines, a
//!   simulated day per phase); the default is a medium scale that finishes
//!   in seconds;
//! * `--small` — the unit-test scale;
//! * `--json` — emit the raw data structure as JSON instead of a table;
//! * `--threads N` — fleet-sim worker count. Precedence: the flag beats
//!   the `SDFM_THREADS` environment variable, which beats auto-detection.
//!   Every binary logs the resolved count (and where it came from) on
//!   stderr so recorded runs are attributable.

#![warn(missing_docs)]

use sdfm_core::experiments::Scale;

/// Parsed command-line options shared by the experiment binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Options {
    /// Experiment scale.
    pub scale: Scale,
    /// Emit JSON instead of human-readable rows.
    pub json: bool,
}

/// The default (medium) scale: big enough for stable distributions, small
/// enough to finish in seconds.
pub fn medium_scale() -> Scale {
    Scale {
        machines_per_cluster: 6,
        warmup_windows: 36,
        measure_windows: 48,
        seed: 42,
        threads: 0,
    }
}

/// Parses the common flags from `std::env::args`.
pub fn parse_options() -> Options {
    let mut scale = medium_scale();
    let mut json = false;
    let mut threads = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--paper" => scale = Scale::paper(),
            "--small" => scale = Scale::small(),
            "--json" => json = true,
            "--threads" => {
                threads = parse_threads(args.next()).unwrap_or_else(|| {
                    eprintln!("--threads needs a positive integer");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                eprintln!(
                    "flags: --small | --paper (scale), --json (raw output), \
                     --threads N (fleet-sim workers; default = all cores)"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    // Scale presets reset `threads`, so apply the override last.
    scale.threads = threads;
    // One header line per run: which worker count won, and why. The
    // simulator resolves 0 the same way, so this is what actually runs.
    let (resolved, source) = sdfm_pool::resolve_threads_detailed(threads);
    eprintln!("workers: {resolved} ({source})");
    Options { scale, json }
}

/// The value of `--threads`: a positive integer. `0` is rejected — it
/// would silently mean auto-detect and lose to `SDFM_THREADS`.
fn parse_threads(value: Option<String>) -> Option<usize> {
    value.and_then(|v| v.parse().ok()).filter(|&n| n > 0)
}

/// Prints a JSON value or runs the human-readable printer.
pub fn emit<T: serde::Serialize>(options: &Options, value: &T, table: impl FnOnce()) {
    if options.json {
        println!(
            "{}",
            serde_json::to_string_pretty(value).expect("experiment outputs serialize")
        );
    } else {
        table();
    }
}

/// Formats a fraction as a percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medium_scale_is_between_small_and_paper() {
        let m = medium_scale();
        assert!(m.machines_per_cluster > Scale::small().machines_per_cluster);
        assert!(m.machines_per_cluster < Scale::paper().machines_per_cluster);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.2), "20.00%");
        assert_eq!(pct(0.0426), "4.26%");
    }

    #[test]
    fn threads_flag_takes_a_positive_integer() {
        assert_eq!(parse_threads(Some("4".into())), Some(4));
        assert_eq!(parse_threads(Some("0".into())), None);
        assert_eq!(parse_threads(Some("four".into())), None);
        assert_eq!(parse_threads(None), None);
    }
}
