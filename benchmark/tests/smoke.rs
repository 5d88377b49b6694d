//! The smoke test: `--quick --trace` runs all four workloads and their
//! traced runs end to end (2 s phases, a 99-type generated catalog),
//! each in a child process, and leaves a complete result file.

use std::process::Command;
use std::time::Instant;

const WORKLOADS: [&str; 4] = ["single_rtt", "bulk_mixed", "bulk_distinct", "catalog1k"];

#[test]
fn quick_mode_runs_every_workload_and_its_trace_end_to_end() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let start = Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_sentinel-benchmark"))
        .args(["--quick", "--trace", "--seed", "3"])
        .current_dir(&dir)
        .output()
        .unwrap();
    let elapsed = start.elapsed();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "exit {:?}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    println!("quick suite took {elapsed:?}");
    // Eight child runs; the budget is 30 s on a quiet 2-core box.
    assert!(elapsed.as_secs() < 90, "quick suite took {elapsed:?}");

    let result = std::fs::read_to_string(dir.join("benchmark/out/result.json")).unwrap();
    for workload in WORKLOADS {
        assert!(
            result.contains(&format!("\"{workload}\": {{")),
            "{workload} missing"
        );
        let trace = dir.join(format!("benchmark/out/trace-{workload}.jsonl"));
        let first = std::fs::read_to_string(trace).unwrap();
        assert!(first.lines().next().unwrap().contains("\"name\": \""));
    }
    // Every run printed a final result line that says it was correct.
    let results: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\": "))
        .collect();
    assert_eq!(results.len(), 8);
    assert!(results
        .iter()
        .all(|l| l.starts_with("{\"correct\": true, ") && l.contains("\"failed\": 0, ")));
    // Every metric of the contract appears, for every workload.
    let spec = include_str!("../../BENCHMARK.json");
    for line in spec.lines().filter(|l| l.contains("\"unit\"")) {
        let name = line.split('"').nth(3).unwrap();
        assert_eq!(
            result
                .matches(&format!("\"{name}\": {{\"value\": "))
                .count(),
            4,
            "{name} not reported by every workload"
        );
    }
}

#[test]
fn an_unknown_workload_or_flag_is_refused() {
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_sentinel-benchmark"))
            .args(args)
            .output()
            .unwrap()
    };
    assert_eq!(run(&["--workload", "nope"]).status.code(), Some(2));
    assert_eq!(run(&["--frobnicate"]).status.code(), Some(2));
    assert_eq!(run(&["--seconds", "0"]).status.code(), Some(2));
}
