//! The whole benchmark in one command: every workload in a fresh child
//! process, the results gathered into `benchmark/out/result.json`, and
//! the `--agree` self-check that two sets of runs of the same code
//! agree within the benchmark's own bounds.
//!
//! `--agree` makes six passes over the workloads, alternating their
//! order; the even passes are one set and the odd passes the other, so
//! both sets meet the same drift of the host, and each set's figure is
//! the median of its three passes, so one pass on a slow host decides
//! nothing. That is the shape of the comparison the driver makes.

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};

use crate::spec::{Workload, END_TO_END, WORKLOADS};
use crate::stats::median;
use crate::{metric_json, Args, OUT_DIR};

/// What one child run printed.
struct ChildRun {
    workload: &'static str,
    traced: bool,
    /// `(name, value, unit)` of every `metric` line.
    metrics: Vec<(String, f64, String)>,
    /// `(name, value)` of every `env` line.
    env: Vec<(String, f64)>,
}

/// Runs one workload in a child process, echoing its output.
fn run_child(workload: &Workload, traced: bool, args: &Args) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.quick {
        command.arg("--quick");
    }
    let mut child = command.spawn().map_err(|e| format!("spawn: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut run = ChildRun {
        workload: workload.name,
        traced,
        metrics: Vec::new(),
        env: Vec::new(),
    };
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("read child output: {e}"))?;
        println!("{line}");
        let fields: Vec<&str> = line.split(' ').collect();
        match fields.as_slice() {
            ["metric", name, value, unit] => {
                let value = value.parse().map_err(|e| format!("{line}: {e}"))?;
                run.metrics
                    .push((name.to_string(), value, unit.to_string()));
            }
            ["env", name, value] => {
                let value = value.parse().map_err(|e| format!("{line}: {e}"))?;
                run.env.push((name.to_string(), value));
            }
            _ => {}
        }
    }
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    if !status.success() {
        return Err(format!(
            "workload {} (trace {}) exited with {status}",
            workload.name, traced as u8
        ));
    }
    Ok(run)
}

/// Renders one pass over the workloads as a JSON object keyed by workload.
fn set_json(runs: &[ChildRun]) -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            let section = |traced: bool| {
                let metrics: Vec<String> = runs
                    .iter()
                    .filter(|r| r.workload == w.name && r.traced == traced)
                    .flat_map(|r| &r.metrics)
                    .map(|(name, value, unit)| metric_json(name, *value, unit))
                    .collect();
                format!("{{{}}}", metrics.join(", "))
            };
            let env: Vec<String> = runs
                .iter()
                .find(|r| r.workload == w.name)
                .map(|r| r.env.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect())
                .unwrap_or_default();
            format!(
                "    \"{}\": {{\"env\": {{{}}}, \"end_to_end\": {}, \"per_layer\": {}}}",
                w.name,
                env.join(", "),
                section(false),
                section(true)
            )
        })
        .collect();
    format!("{{\n{}\n  }}", workloads.join(",\n"))
}

/// Largest relative disagreement between two readings of one metric.
fn disagreement(a: f64, b: f64) -> f64 {
    let (low, high) = if a <= b { (a, b) } else { (b, a) };
    if low == high {
        0.0
    } else {
        high / low - 1.0
    }
}

/// Checks the median of every end-to-end metric of every workload over
/// the untraced runs of two sets against the metric's own bound;
/// returns the lines describing disagreements.
fn disagreements(first: &[&ChildRun], second: &[&ChildRun]) -> Vec<String> {
    let value = |runs: &[&ChildRun], workload: &str, metric: &str| {
        let values: Vec<f64> = runs
            .iter()
            .filter(|r| r.workload == workload && !r.traced)
            .flat_map(|r| &r.metrics)
            .filter(|(name, _, _)| name == metric)
            .map(|(_, value, _)| *value)
            .collect();
        (!values.is_empty()).then(|| median(&values))
    };
    let mut lines = Vec::new();
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (Some(a), Some(b)) = (value(first, w.name, m.name), value(second, w.name, m.name))
            else {
                lines.push(format!("{} {}: missing from a set", w.name, m.name));
                continue;
            };
            let off = disagreement(a, b);
            println!(
                "agree {} {} {a} {b} {} off {off:.4} bound {}",
                w.name, m.name, m.unit, m.bound
            );
            if off > m.bound {
                lines.push(format!(
                    "{} {}: {a} vs {b} {} differ by {off:.4}, bound {}",
                    w.name, m.name, m.unit, m.bound
                ));
            }
        }
    }
    lines
}

/// Runs every workload (six times, in alternating order, under
/// `--agree`).
pub fn run(args: &Args) -> ExitCode {
    let mut passes: Vec<Vec<ChildRun>> = Vec::new();
    for pass in 0..if args.agree { 6 } else { 1 } {
        let mut order: Vec<&Workload> = WORKLOADS.iter().collect();
        if pass % 2 == 1 {
            order.reverse();
        }
        let mut runs = Vec::new();
        for workload in order {
            let modes: &[bool] = if args.trace { &[false, true] } else { &[false] };
            for traced in modes {
                match run_child(workload, *traced, args) {
                    Ok(run) => runs.push(run),
                    Err(error) => {
                        eprintln!("sentinel-benchmark: {error}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        passes.push(runs);
    }
    let body: Vec<String> = passes.iter().map(|runs| set_json(runs)).collect();
    let json = format!(
        "{{\n  \"seed\": {},\n  \"seconds\": {},\n  \"quick\": {},\n  \"passes\": [{}]\n}}\n",
        args.seed,
        args.seconds,
        args.quick,
        body.join(", ")
    );
    let path = format!("{OUT_DIR}/result.json");
    if let Err(error) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, json))
    {
        eprintln!("sentinel-benchmark: could not write {path}: {error}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path}");
    if args.agree {
        let set = |parity: usize| -> Vec<&ChildRun> {
            let of_set = passes.iter().skip(parity).step_by(2);
            of_set.flatten().collect()
        };
        let lines = disagreements(&set(0), &set(1));
        for line in &lines {
            println!("disagree {line}");
        }
        if !lines.is_empty() {
            return ExitCode::FAILURE;
        }
        println!("agree: every end-to-end metric of both sets within its bound");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disagreement_is_symmetric_and_relative_to_the_smaller_reading() {
        assert_eq!(disagreement(100.0, 100.0), 0.0);
        assert!((disagreement(100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((disagreement(110.0, 100.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn a_metric_off_by_more_than_its_bound_is_reported() {
        let set = |qps: f64| {
            WORKLOADS
                .iter()
                .map(|w| ChildRun {
                    workload: w.name,
                    traced: false,
                    metrics: END_TO_END
                        .iter()
                        .map(|m| {
                            let value = if m.name == "throughput_qps" { qps } else { 1.0 };
                            (m.name.to_string(), value, m.unit.to_string())
                        })
                        .collect(),
                    env: Vec::new(),
                })
                .collect::<Vec<_>>()
        };
        let (a, b, c) = (set(1000.0), set(1050.0), set(1400.0));
        fn refs(runs: &[ChildRun]) -> Vec<&ChildRun> {
            runs.iter().collect()
        }
        assert!(disagreements(&refs(&a), &refs(&b)).is_empty());
        // One slow pass out of three does not decide a set's figure.
        let noisy: Vec<&ChildRun> = a.iter().chain(&b).chain(&c).collect();
        assert!(disagreements(&refs(&a), &noisy).is_empty());
        let lines = disagreements(&refs(&a), &refs(&c));
        assert_eq!(lines.len(), WORKLOADS.len());
        assert!(lines[0].contains("throughput_qps"));
    }
}
