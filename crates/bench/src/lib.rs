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
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
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

/// Validates a bench trajectory report (`BENCH_*.json`) against the
/// schema its consumers assume: the expected top-level keys are present,
/// `results` is a non-empty array whose rows carry their identifying keys,
/// and every throughput number is finite and positive. CI's bench-smoke
/// job runs this so a refactor that silently drops a field or starts
/// emitting `null`/`inf` throughput fails the build instead of producing
/// an unusable artifact.
///
/// # Errors
///
/// Every problem found, one message per violation.
pub fn validate_bench_report(report: &serde_json::Value) -> Result<(), Vec<String>> {
    let Ok(bench) = report.field("bench").and_then(|v| v.str()) else {
        return Err(vec!["missing string field `bench`".into()]);
    };
    let (top_keys, row_keys, throughput): (&[&str], &[&str], &str) = match bench {
        "fleet_sim_step_window" => (
            &[
                "machines_per_cluster",
                "seed",
                "warmup_windows",
                "timed_windows",
                "available_parallelism",
                "host_cpus",
                "caveat",
                "results",
            ],
            &["threads"],
            "windows_per_sec",
        ),
        "model_evaluate_many" => (
            &[
                "traces",
                "total_windows",
                "reps",
                "available_parallelism",
                "host_cpus",
                "caveat",
                "results",
            ],
            &["threads", "configs", "splitter_active"],
            "config_evals_per_sec",
        ),
        "codecs" => (
            &[
                "pages",
                "seed",
                "reps",
                "available_parallelism",
                "host_cpus",
                "caveat",
                "ratio",
                "results",
            ],
            &[
                "codec",
                "threads",
                "decompress_pages_per_sec",
                "compress_ns_per_page",
                "decompress_ns_per_page",
            ],
            "compress_pages_per_sec",
        ),
        "backends" => (
            &["pages", "available_parallelism", "host_cpus", "caveat", "results"],
            &[
                "backend",
                "threads",
                "fault_pages_per_sec",
                "fault_p50_ns",
                "fault_p95_ns",
                "fault_p99_ns",
                "ns_charged_checksum",
            ],
            "demote_pages_per_sec",
        ),
        "fleet_scale" => (
            &[
                "seed",
                "available_parallelism",
                "host_cpus",
                "caveat",
                "sweep",
                "fleet",
                "fidelity",
                "results",
            ],
            &["threads"],
            "windows_per_sec",
        ),
        "prefetch" => (
            &[
                "seed",
                "machines",
                "warmup_windows",
                "timed_windows",
                "decompress_ns_per_page",
                "available_parallelism",
                "host_cpus",
                "caveat",
                "results",
            ],
            &[
                "template",
                "mode",
                "threads",
                "demand_promotions",
                "prefetch_issued",
                "prefetch_used",
                "prefetch_wasted",
                "prefetch_late",
                "coverage_permille",
                "accuracy_permille",
                "timeliness_permille",
                "stall_ns_saved",
            ],
            "windows_per_sec",
        ),
        other => return Err(vec![format!("unknown bench `{other}`")]),
    };
    let mut problems = Vec::new();
    for k in top_keys {
        if report.field(k).is_err() {
            problems.push(format!("missing key `{k}`"));
        }
    }
    match report.field("results").and_then(|v| v.elements()) {
        Err(_) => problems.push("`results` is not an array".into()),
        Ok([]) => problems.push("`results` is empty".into()),
        Ok(rows) => {
            for (i, row) in rows.iter().enumerate() {
                for k in row_keys {
                    if row.field(k).is_err() {
                        problems.push(format!("results[{i}] missing `{k}`"));
                    }
                }
                // The JSON writer renders non-finite floats as `null`, so
                // an inf/NaN throughput lands here as a missing number.
                match row
                    .field(throughput)
                    .and_then(|v| v.number())
                    .map(|n| n.as_f64())
                {
                    Ok(x) if x.is_finite() && x > 0.0 => {}
                    Ok(x) => problems.push(format!(
                        "results[{i}].{throughput} = {x} must be finite and positive"
                    )),
                    Err(_) => problems.push(format!("results[{i}] missing numeric `{throughput}`")),
                }
            }
        }
    }
    // The codecs report carries the realized-ratio section the cost model
    // is calibrated against; a report whose histogram vanished or whose
    // ratios went non-finite is as unusable as one with no throughput.
    if bench == "codecs" {
        if let Ok(ratio) = report.field("ratio") {
            for k in [
                "median_ratio_permille",
                "aggregate_ratio_permille",
                "rejected_permille",
            ] {
                match ratio.field(k).and_then(|v| v.number()).map(|n| n.as_f64()) {
                    Ok(x) if x.is_finite() && x >= 0.0 => {}
                    Ok(x) => {
                        problems.push(format!("ratio.{k} = {x} must be finite and non-negative"))
                    }
                    Err(_) => problems.push(format!("ratio missing numeric `{k}`")),
                }
            }
            match ratio.field("histogram").and_then(|v| v.elements()) {
                Ok([]) => problems.push("ratio.histogram is empty".into()),
                Ok(_) => {}
                Err(_) => problems.push("ratio.histogram is not an array".into()),
            }
        }
    }
    // The backends report must carry every tier of the demotion chain: a
    // refactor that drops a backend from the sweep would otherwise ship a
    // trajectory that silently stopped tracking a tier. Fault-back
    // throughput is a first-class number too, held to the same
    // finite-and-positive bar as the primary (demotion) throughput.
    if bench == "backends" {
        if let Ok(rows) = report.field("results").and_then(|v| v.elements()) {
            for tier in ["compressed_ram", "simulated_ssd", "simulated_remote"] {
                let present = rows.iter().any(|row| {
                    row.field("backend").and_then(|v| v.str()) == Ok(tier)
                });
                if !present {
                    problems.push(format!("no results for backend `{tier}`"));
                }
            }
            for (i, row) in rows.iter().enumerate() {
                match row
                    .field("fault_pages_per_sec")
                    .and_then(|v| v.number())
                    .map(|n| n.as_f64())
                {
                    Ok(x) if x.is_finite() && x > 0.0 => {}
                    Ok(x) => problems.push(format!(
                        "results[{i}].fault_pages_per_sec = {x} must be finite and positive"
                    )),
                    Err(_) => problems
                        .push(format!("results[{i}] missing numeric `fault_pages_per_sec`")),
                }
            }
        }
    }
    // The prefetch report is the promotion-prediction deliverable. Beyond
    // the shared key/throughput checks: every predictor mode must be
    // present (a sweep that silently dropped the no-prefetch baseline or
    // one of the predictors can't support a comparison), every row must
    // conserve its accuracy counters (`used + wasted == issued` — the
    // same identity the kernel tests pin), and at least one prefetching
    // row must show a positive promotion-stall reduction against the
    // baseline, the headline the trajectory exists to track.
    if bench == "prefetch" {
        if let Ok(rows) = report.field("results").and_then(|v| v.elements()) {
            for mode in ["none", "stride", "stride_markov"] {
                let present = rows
                    .iter()
                    .any(|row| row.field("mode").and_then(|v| v.str()) == Ok(mode));
                if !present {
                    problems.push(format!("no results for mode `{mode}`"));
                }
            }
            let mut any_saved = false;
            for (i, row) in rows.iter().enumerate() {
                let count = |key: &str| {
                    row.field(key)
                        .and_then(|v| v.number())
                        .map(|n| n.as_f64())
                };
                if let (Ok(issued), Ok(used), Ok(wasted)) = (
                    count("prefetch_issued"),
                    count("prefetch_used"),
                    count("prefetch_wasted"),
                ) {
                    if used + wasted != issued {
                        problems.push(format!(
                            "results[{i}]: prefetch_used {used} + prefetch_wasted \
                             {wasted} != prefetch_issued {issued}"
                        ));
                    }
                }
                if let Ok(saved) = count("stall_ns_saved") {
                    any_saved |= saved > 0.0;
                }
            }
            if !any_saved {
                problems.push(
                    "no row shows a positive stall_ns_saved: prefetching \
                     reduced promotion stalls on no template"
                        .into(),
                );
            }
        }
    }
    // The fleet_scale report is the scale-out deliverable: its thread
    // section must be monotone in thread count (a shuffled or duplicated
    // sweep would make trend diffs across reports meaningless), the SoA
    // sweep and the 10k-machine run must carry finite positive
    // throughput, and every fidelity metric must state its drift bound
    // and sit inside it — a cutoff whose page-level tier wandered away
    // from the stat recurrence must fail the build, not ship a report.
    if bench == "fleet_scale" {
        // On a 1-CPU host every thread count measures the same serial
        // schedule, so harnesses may legitimately collapse or repeat
        // entries; the strictly-increasing gate only holds reports from
        // multi-CPU hosts to the monotone-sweep contract. A report that
        // omits `host_cpus` entirely is still flagged by the key check
        // above and conservatively held to the strict gate here.
        let multi_cpu = report
            .field("host_cpus")
            .and_then(|v| v.number())
            .map(|n| n.as_f64() > 1.0)
            .unwrap_or(true);
        if multi_cpu {
            if let Ok(rows) = report.field("results").and_then(|v| v.elements()) {
                let threads: Vec<f64> = rows
                    .iter()
                    .filter_map(|r| r.field("threads").and_then(|v| v.number()).ok())
                    .map(|n| n.as_f64())
                    .collect();
                if threads.len() != rows.len() || threads.windows(2).any(|w| w[0] >= w[1]) {
                    problems.push("results thread counts must be strictly increasing".into());
                }
            }
        }
        for (section, key) in [
            ("sweep", "sweep_ns_per_page"),
            ("fleet", "windows_per_sec"),
        ] {
            match report
                .field(section)
                .and_then(|s| s.field(key))
                .and_then(|v| v.number())
                .map(|n| n.as_f64())
            {
                Ok(x) if x.is_finite() && x > 0.0 => {}
                Ok(x) => {
                    problems.push(format!("{section}.{key} = {x} must be finite and positive"))
                }
                Err(_) => problems.push(format!("{section} missing numeric `{key}`")),
            }
        }
        match report
            .field("fidelity")
            .and_then(|f| f.field("metrics"))
            .and_then(|v| v.elements())
        {
            Ok([]) => problems.push("fidelity.metrics is empty".into()),
            Ok(metrics) => {
                for (i, m) in metrics.iter().enumerate() {
                    let drift = m.field("drift").and_then(|v| v.number()).map(|n| n.as_f64());
                    let bound = m.field("bound").and_then(|v| v.number()).map(|n| n.as_f64());
                    match (drift, bound) {
                        (Ok(d), Ok(b))
                            if d.is_finite() && b.is_finite() && d >= 0.0 && d <= b => {}
                        (Ok(d), Ok(b)) => problems
                            .push(format!("fidelity.metrics[{i}] drift {d} outside bound {b}")),
                        _ => problems.push(format!(
                            "fidelity.metrics[{i}] missing numeric `drift`/`bound`"
                        )),
                    }
                }
            }
            Err(_) => problems.push("fidelity.metrics is not an array".into()),
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
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

    use serde_json::Value;

    fn fleet_sim_report() -> Value {
        let rows = vec![
            serde_json::json!({
                "threads": 1u64, "windows_per_sec": 10.5f64,
            }),
            serde_json::json!({
                "threads": 2u64, "windows_per_sec": 7.2f64,
            }),
        ];
        serde_json::json!({
            "bench": "fleet_sim_step_window",
            "machines_per_cluster": 2u64,
            "seed": 42u64,
            "warmup_windows": 2u64,
            "timed_windows": 3u64,
            "available_parallelism": 4u64,
            "host_cpus": 4u64,
            "caveat": "noisy",
            "results": rows,
        })
    }

    fn evaluate_many_report() -> Value {
        let rows = vec![serde_json::json!({
            "threads": 4u64, "configs": 2u64, "splitter_active": true,
            "config_evals_per_sec": 3.0f64,
        })];
        serde_json::json!({
            "bench": "model_evaluate_many",
            "traces": 12u64,
            "total_windows": 480u64,
            "reps": 1u64,
            "available_parallelism": 4u64,
            "host_cpus": 4u64,
            "caveat": "noisy",
            "results": rows,
        })
    }

    /// Entries of an object `Value`, mutably (the vendored stub keeps
    /// objects as ordered pairs).
    fn entries(v: &mut Value) -> &mut Vec<(String, Value)> {
        match v {
            Value::Object(e) => e,
            other => panic!("expected object, got {}", other.kind()),
        }
    }

    fn remove_key(v: &mut Value, key: &str) {
        entries(v).retain(|(k, _)| k != key);
    }

    fn set_key(v: &mut Value, key: &str, val: Value) {
        for (k, slot) in entries(v).iter_mut() {
            if k == key {
                *slot = val;
                return;
            }
        }
        panic!("no key `{key}` to replace");
    }

    fn first_row(report: &mut Value) -> &mut Value {
        for (k, slot) in entries(report).iter_mut() {
            if k == "results" {
                match slot {
                    Value::Array(rows) => return &mut rows[0],
                    other => panic!("results is {}", other.kind()),
                }
            }
        }
        panic!("no results array");
    }

    fn codecs_report() -> Value {
        let rows = vec![serde_json::json!({
            "codec": "lzo", "threads": 1u64,
            "compress_pages_per_sec": 50_000.0f64,
            "decompress_pages_per_sec": 90_000.0f64,
            "compress_ns_per_page": 20_000.0f64,
            "decompress_ns_per_page": 11_000.0f64,
        })];
        let histogram = vec![serde_json::json!({
            "lo_permille": 1_000u64, "hi_permille": 1_500u64, "pages": 12u64,
        })];
        let ratio = serde_json::json!({
            "codec": "lzo",
            "measured_pages": 256u64,
            "stored": 180u64,
            "rejected": 76u64,
            "median_ratio_permille": 3_100u64,
            "aggregate_ratio_permille": 3_000u64,
            "rejected_permille": 297u64,
            "histogram": histogram,
        });
        serde_json::json!({
            "bench": "codecs",
            "pages": 256u64,
            "seed": 0xC0DECu64,
            "reps": 3u64,
            "available_parallelism": 4u64,
            "host_cpus": 4u64,
            "caveat": "noisy",
            "ratio": ratio,
            "results": rows,
        })
    }

    fn backends_report() -> Value {
        let rows: Vec<Value> = ["compressed_ram", "simulated_ssd", "simulated_remote"]
            .iter()
            .map(|tier| {
                serde_json::json!({
                    "backend": *tier, "threads": 1u64,
                    "demote_pages_per_sec": 1e6f64,
                    "fault_pages_per_sec": 2e6f64,
                    "fault_p50_ns": 20_000u64,
                    "fault_p95_ns": 35_000u64,
                    "fault_p99_ns": 38_000u64,
                    "ns_charged_checksum": 123u64,
                })
            })
            .collect();
        serde_json::json!({
            "bench": "backends",
            "pages": 1_000u64,
            "available_parallelism": 4u64,
            "host_cpus": 4u64,
            "caveat": "noisy",
            "results": rows,
        })
    }

    fn fleet_scale_report() -> Value {
        let rows: Vec<Value> = [1u64, 2, 4]
            .iter()
            .map(|threads| {
                serde_json::json!({
                    "threads": *threads, "windows_per_sec": 8.0f64 * *threads as f64,
                })
            })
            .collect();
        let sweep = serde_json::json!({
            "pages": 200_000u64,
            "reps": 5u64,
            "accessed_fraction": 0.2f64,
            "sweep_ns_per_page": 6.5f64,
            "sweep_pages_per_sec": 1.5e8f64,
        });
        let fleet = serde_json::json!({
            "machines": 10_000u64,
            "jobs": 100_000u64,
            "threads": 4u64,
            "windows": 576u64,
            "simulated_days": 2.0f64,
            "build_secs": 3.0f64,
            "elapsed_secs": 240.0f64,
            "windows_per_sec": 2.4f64,
            "final_far_pages": 1_000_000u64,
        });
        let metrics = vec![
            serde_json::json!({
                "metric": "cold_pages", "stat_total": 100u64, "page_total": 104u64,
                "drift": 0.04f64, "bound": 0.5f64,
            }),
            serde_json::json!({
                "metric": "far_pages", "stat_total": 50u64, "page_total": 60u64,
                "drift": 0.17f64, "bound": 1.0f64,
            }),
        ];
        let fidelity = serde_json::json!({
            "cutoff_machines": 2u64,
            "windows": 24u64,
            "warmup_skipped": 6u64,
            "metrics": metrics,
        });
        serde_json::json!({
            "bench": "fleet_scale",
            "seed": 42u64,
            "available_parallelism": 4u64,
            "host_cpus": 4u64,
            "caveat": "noisy",
            "sweep": sweep,
            "fleet": fleet,
            "fidelity": fidelity,
            "results": rows,
        })
    }

    fn prefetch_report() -> Value {
        let mut rows = Vec::new();
        for template in ["web-frontend", "bigtable"] {
            for (mode, issued, used, wasted, saved) in [
                ("none", 0u64, 0u64, 0u64, 0u64),
                ("stride", 500u64, 400u64, 100u64, 2_560_000u64),
                ("stride_markov", 800u64, 650u64, 150u64, 4_160_000u64),
            ] {
                rows.push(serde_json::json!({
                    "template": template,
                    "mode": mode,
                    "threads": 4u64,
                    "windows_per_sec": 12.5f64,
                    "demand_promotions": 1_000u64 - used,
                    "prefetch_issued": issued,
                    "prefetch_used": used,
                    "prefetch_wasted": wasted,
                    "prefetch_late": used / 10,
                    "coverage_permille": used,
                    "accuracy_permille": (used * 1000).checked_div(issued).unwrap_or(0),
                    "timeliness_permille": 900u64,
                    "stall_ns_saved": saved,
                }));
            }
        }
        serde_json::json!({
            "bench": "prefetch",
            "seed": 42u64,
            "machines": 6u64,
            "warmup_windows": 6u64,
            "timed_windows": 24u64,
            "decompress_ns_per_page": 6_400u64,
            "available_parallelism": 4u64,
            "host_cpus": 4u64,
            "caveat": "noisy",
            "results": rows,
        })
    }

    #[test]
    fn well_formed_reports_validate() {
        assert_eq!(validate_bench_report(&fleet_sim_report()), Ok(()));
        assert_eq!(validate_bench_report(&evaluate_many_report()), Ok(()));
        assert_eq!(validate_bench_report(&codecs_report()), Ok(()));
        assert_eq!(validate_bench_report(&backends_report()), Ok(()));
        assert_eq!(validate_bench_report(&fleet_scale_report()), Ok(()));
        assert_eq!(validate_bench_report(&prefetch_report()), Ok(()));
    }

    #[test]
    fn prefetch_report_requires_every_mode() {
        // Dropping the baseline rows kills the comparison the report is
        // for, even though each surviving row validates on its own.
        let mut r = prefetch_report();
        for (k, slot) in entries(&mut r).iter_mut() {
            if k == "results" {
                match slot {
                    Value::Array(rows) => rows.retain(|row| {
                        row.field("mode").and_then(|v| v.str()) != Ok("none")
                    }),
                    other => panic!("results is {}", other.kind()),
                }
            }
        }
        let problems = validate_bench_report(&r).unwrap_err();
        assert!(
            problems.iter().any(|p| p.contains("mode `none`")),
            "{problems:?}"
        );
    }

    #[test]
    fn prefetch_counters_must_conserve() {
        // used + wasted == issued is the same identity the kernel pins;
        // a report that breaks it lost pages somewhere in the plumbing.
        let mut r = prefetch_report();
        set_key(first_row(&mut r), "prefetch_issued", serde_json::json!(7u64));
        let problems = validate_bench_report(&r).unwrap_err();
        assert!(
            problems.iter().any(|p| p.contains("prefetch_issued 7")),
            "{problems:?}"
        );
    }

    #[test]
    fn prefetch_report_must_show_a_stall_reduction() {
        // The acceptance headline: at least one prefetching row beats the
        // no-prefetch baseline. All-zero savings fail the gate.
        let mut r = prefetch_report();
        for (k, slot) in entries(&mut r).iter_mut() {
            if k == "results" {
                match slot {
                    Value::Array(rows) => {
                        for row in rows.iter_mut() {
                            set_key(row, "stall_ns_saved", serde_json::json!(0u64));
                        }
                    }
                    other => panic!("results is {}", other.kind()),
                }
            }
        }
        let problems = validate_bench_report(&r).unwrap_err();
        assert!(
            problems.iter().any(|p| p.contains("stall_ns_saved")),
            "{problems:?}"
        );
    }

    #[test]
    fn fleet_scale_thread_section_must_be_monotone() {
        // Swapping two thread counts out of order is caught.
        let mut r = fleet_scale_report();
        set_key(first_row(&mut r), "threads", serde_json::json!(8u64));
        let problems = validate_bench_report(&r).unwrap_err();
        assert!(
            problems.iter().any(|p| p.contains("strictly increasing")),
            "{problems:?}"
        );
        // A zero windows/sec fails the shared throughput check.
        let mut r = fleet_scale_report();
        set_key(first_row(&mut r), "windows_per_sec", serde_json::json!(0.0f64));
        assert!(validate_bench_report(&r).is_err(), "zero throughput passed");
    }

    #[test]
    fn single_cpu_hosts_are_exempt_from_thread_monotonicity() {
        // On a 1-vCPU runner every thread count measures the same serial
        // schedule, so an out-of-order or repeated sweep is not a schema
        // violation — only multi-CPU hosts are held to the strict gate.
        let mut r = fleet_scale_report();
        set_key(&mut r, "host_cpus", serde_json::json!(1u64));
        set_key(first_row(&mut r), "threads", serde_json::json!(8u64));
        assert_eq!(validate_bench_report(&r), Ok(()));
        // The same shuffled sweep on a multi-CPU host still fails.
        let mut r = fleet_scale_report();
        set_key(first_row(&mut r), "threads", serde_json::json!(8u64));
        assert!(validate_bench_report(&r).is_err(), "shuffled sweep passed");
    }

    #[test]
    fn fleet_scale_sections_are_schema_checked() {
        // The sweep and scale-run sections must carry their throughput.
        let mut r = fleet_scale_report();
        remove_key(&mut r, "sweep");
        let problems = validate_bench_report(&r).unwrap_err();
        assert!(
            problems.iter().any(|p| p.contains("sweep_ns_per_page")),
            "{problems:?}"
        );
        let mut r = fleet_scale_report();
        for (k, slot) in entries(&mut r).iter_mut() {
            if k == "fleet" {
                set_key(slot, "windows_per_sec", Value::Null);
            }
        }
        assert!(validate_bench_report(&r).is_err(), "null fleet throughput passed");
    }

    #[test]
    fn fleet_scale_drift_must_sit_inside_its_bound() {
        let mut r = fleet_scale_report();
        for (k, slot) in entries(&mut r).iter_mut() {
            if k == "fidelity" {
                for (fk, fslot) in entries(slot).iter_mut() {
                    if fk == "metrics" {
                        match fslot {
                            Value::Array(rows) => {
                                set_key(&mut rows[0], "drift", serde_json::json!(0.9f64))
                            }
                            other => panic!("metrics is {}", other.kind()),
                        }
                    }
                }
            }
        }
        let problems = validate_bench_report(&r).unwrap_err();
        assert!(
            problems.iter().any(|p| p.contains("outside bound")),
            "{problems:?}"
        );
        // A metrics-free fidelity section is as unusable as a missing one.
        let mut r = fleet_scale_report();
        for (k, slot) in entries(&mut r).iter_mut() {
            if k == "fidelity" {
                set_key(slot, "metrics", Value::Array(Vec::new()));
            }
        }
        assert!(validate_bench_report(&r).is_err(), "empty metrics passed");
    }

    #[test]
    fn backends_report_requires_every_tier() {
        // Dropping one tier's rows fails even though the rest validate.
        let mut r = backends_report();
        for (k, slot) in entries(&mut r).iter_mut() {
            if k == "results" {
                match slot {
                    Value::Array(rows) => rows.truncate(2),
                    other => panic!("results is {}", other.kind()),
                }
            }
        }
        let problems = validate_bench_report(&r).unwrap_err();
        assert!(
            problems.iter().any(|p| p.contains("simulated_remote")),
            "{problems:?}"
        );
        // Fault-back throughput is schema-checked like demotion throughput.
        let mut r = backends_report();
        set_key(first_row(&mut r), "fault_pages_per_sec", serde_json::json!(0.0f64));
        assert!(validate_bench_report(&r).is_err(), "zero fault throughput passed");
        let mut r = backends_report();
        remove_key(first_row(&mut r), "fault_p99_ns");
        assert!(validate_bench_report(&r).is_err(), "missing percentile passed");
    }

    #[test]
    fn codecs_ratio_section_is_schema_checked() {
        // A gutted ratio section fails even when the throughput rows pass.
        let mut r = codecs_report();
        let ratio = {
            let mut found = None;
            for (k, slot) in entries(&mut r).iter_mut() {
                if k == "ratio" {
                    found = Some(slot);
                }
            }
            found.expect("ratio key")
        };
        remove_key(ratio, "median_ratio_permille");
        set_key(ratio, "histogram", Value::Array(Vec::new()));
        let problems = validate_bench_report(&r).unwrap_err();
        assert!(
            problems.iter().any(|p| p.contains("median_ratio_permille")),
            "{problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("histogram is empty")),
            "{problems:?}"
        );
        // Missing per-row cost fields are reported too.
        let mut r = codecs_report();
        remove_key(first_row(&mut r), "compress_ns_per_page");
        assert!(validate_bench_report(&r).is_err());
    }

    #[test]
    fn schema_violations_are_each_reported() {
        let mut r = fleet_sim_report();
        remove_key(&mut r, "seed");
        remove_key(first_row(&mut r), "windows_per_sec");
        let problems = validate_bench_report(&r).unwrap_err();
        assert!(problems.iter().any(|p| p.contains("`seed`")), "{problems:?}");
        assert!(
            problems.iter().any(|p| p.contains("windows_per_sec")),
            "{problems:?}"
        );
    }

    #[test]
    fn degenerate_throughput_is_rejected() {
        let mut r = evaluate_many_report();
        set_key(first_row(&mut r), "config_evals_per_sec", serde_json::json!(0.0f64));
        assert!(validate_bench_report(&r).is_err(), "zero throughput passed");
        // The JSON writer emits non-finite floats as null; null gets the
        // same "missing numeric" treatment as an absent key.
        set_key(first_row(&mut r), "config_evals_per_sec", Value::Null);
        assert!(validate_bench_report(&r).is_err());
    }

    #[test]
    fn unknown_and_empty_benches_are_rejected() {
        assert!(validate_bench_report(&serde_json::json!({"bench": "mystery"})).is_err());
        assert!(validate_bench_report(&serde_json::json!({})).is_err());
        let mut r = fleet_sim_report();
        set_key(&mut r, "results", Value::Array(Vec::new()));
        assert!(validate_bench_report(&r).is_err(), "empty results passed");
    }
}
