//! `repro --timing-json PATH` emits a well-formed perf report.
//!
//! This is a schema smoke test, not a perf assertion: it runs a small
//! experiment end to end and checks that the report carries every key the
//! CI bench step and downstream tooling rely on. Timing *values* are
//! machine-dependent and deliberately not checked.

use std::process::Command;

#[test]
fn timing_json_emits_schema_v1() {
    let out_path = std::env::temp_dir().join(format!("bb_perf_{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig1", "--scale", "test", "--seed", "42", "--jobs", "1", "--timing-json"])
        .arg(&out_path)
        .status()
        .expect("spawn repro");
    assert!(status.success(), "repro exited with {status}");

    let j = std::fs::read_to_string(&out_path).expect("report written");
    std::fs::remove_file(&out_path).ok();

    for key in [
        "\"schema\": \"bb-perf-report/v1\"",
        "\"experiment\": \"fig1\"",
        "\"scale\": \"test\"",
        "\"seed\": 42",
        "\"jobs\": 1",
        "\"wall_s\":",
        "\"total_samples\":",
        "\"samples_per_sec\":",
        "\"plan_compile_s\":",
        "\"plan_query_s\":",
        "\"phases\": [",
        "\"label\": \"spray:windows\"",
        "\"counters\": [",
        "\"label\": \"samples:spray\"",
        "\"route_cache\": {",
        "\"hit_rate\":",
        "\"faults\": {",
        "\"samples_lost\":",
        "\"timeouts\":",
        "\"retries\":",
        "\"windows_dropped\":",
        "\"panics_isolated\":",
        "\"congestion_races_closed\":",
    ] {
        assert!(j.contains(key), "missing {key} in report:\n{j}");
    }

    // The jitter kernels report their own work: exact `cos` calls not made
    // can never exceed the samples drawn.
    let cos_skipped = counter(&j, "kernel:spray:cos_skipped");
    let samples = counter(&j, "samples:spray");
    counter(&j, "kernel:spray:bound_fallbacks");
    assert!(
        cos_skipped <= samples,
        "cos_skipped {cos_skipped} > samples {samples}"
    );

    // A fault-free run reports zero fault activity.
    assert!(
        j.contains("\"faults\": {\"samples_lost\": 0, \"timeouts\": 0, \"retries\": 0, \"windows_dropped\": 0, \"panics_isolated\": 0}"),
        "fault-free run should report zero fault activity:\n{j}"
    );

    // The orchestration section is emitted only by `repro orchestrate`
    // (zero-cost-when-unused, like the checkpoint phases above), and a
    // plain run writes no heartbeat records either.
    assert!(
        !j.contains("\"orchestration\""),
        "plain run must not carry an orchestration section:\n{j}"
    );
    assert!(!j.contains("checkpoint:heartbeat"), "{j}");

    // Balanced brackets and no trailing commas: cheap structural validity
    // checks for the hand-rolled writer.
    assert_eq!(j.matches('{').count(), j.matches('}').count());
    assert_eq!(j.matches('[').count(), j.matches(']').count());
    assert!(!j.contains(",\n}"));
    assert!(!j.contains(",\n  ]"));
}

/// The count of counter `label` in a perf report; panics when absent.
fn counter(report: &str, label: &str) -> u64 {
    let prefix = format!("{{\"label\": \"{label}\", \"count\": ");
    let line = report
        .lines()
        .find_map(|l| l.trim().strip_prefix(prefix.as_str()))
        .unwrap_or_else(|| panic!("no {label} counter in report:\n{report}"));
    line.trim_end_matches([',', '}'])
        .parse()
        .expect("integer count")
}

#[test]
fn full_campaign_sprays_each_distinct_world_once() {
    // fig1 and xablate's "correlated (default)" arm share one egress study,
    // so `all` sprays two worlds: the default one and the "independent"
    // arm's.
    let out_path = std::env::temp_dir().join(format!("bb_perf_all_{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["all", "--scale", "test", "--seed", "42", "--jobs", "1", "--timing-json"])
        .arg(&out_path)
        .status()
        .expect("spawn repro");
    assert!(status.success(), "repro exited with {status}");

    let j = std::fs::read_to_string(&out_path).expect("report written");
    std::fs::remove_file(&out_path).ok();
    let windows = j
        .lines()
        .find(|l| l.contains("\"label\": \"spray:windows\""))
        .unwrap_or_else(|| panic!("no spray:windows phase in report:\n{j}"));
    assert!(windows.contains("\"calls\": 2}"), "{windows}");
}

#[test]
fn timing_json_counts_fault_activity_under_light_faults() {
    let out_path =
        std::env::temp_dir().join(format!("bb_perf_faults_{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "fig1",
            "--scale",
            "test",
            "--seed",
            "42",
            "--jobs",
            "1",
            "--faults",
            "light",
            "--timing-json",
        ])
        .arg(&out_path)
        .status()
        .expect("spawn repro");
    assert!(status.success(), "repro exited with {status}");

    let j = std::fs::read_to_string(&out_path).expect("report written");
    std::fs::remove_file(&out_path).ok();

    // Light faults on a full spray campaign must lose *some* samples; the
    // exact counts are covered by the determinism test in
    // fault_injection.rs.
    assert!(
        !j.contains("\"samples_lost\": 0,"),
        "light faults lost no samples:\n{j}"
    );
}
