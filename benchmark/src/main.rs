//! The repo benchmark. One invocation with `--workload` runs one
//! workload in this process against an in-process `sentinel-serve`
//! server on loopback TCP and prints its metrics; without `--workload`
//! it runs all four, each in a fresh child process, and writes
//! `benchmark/out/result.json`. See `benchmark/README.md`.

mod catalog;
mod layers;
mod load;
mod setup;
mod span;
mod spec;
mod stats;
mod suite;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use crate::load::Lane;
use crate::spec::{Workload, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, samples_beyond};

/// Where result and trace files go, relative to the repo root (the
/// directory `run.sh` changes to).
pub const OUT_DIR: &str = "benchmark/out";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    agree: bool,
    print_spec: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: false,
        quick: false,
        agree: false,
        print_spec: false,
    };
    let mut seconds_given = false;
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            // `--trace 0|1` as the driver passes it, or bare `--trace`.
            "--trace" => {
                args.trace = argv.next_if(|v| v == "0" || v == "1").as_deref() != Some("0")
            }
            "--quick" => args.quick = true,
            "--agree" => args.agree = true,
            "--print-spec" => args.print_spec = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.quick && !seconds_given {
        args.seconds = 2;
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("sentinel-benchmark: {error}");
            return ExitCode::from(2);
        }
    };
    if args.print_spec {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let Some(name) = &args.workload else {
        return suite::run(&args);
    };
    let Some(workload) = spec::workload(name) else {
        eprintln!("sentinel-benchmark: unknown workload {name}");
        return ExitCode::from(2);
    };
    let workload = if args.quick {
        Workload {
            types: workload.types.min(99),
            probes_per_type: workload.probes_per_type.min(16),
            setup_reps: 1,
            ..workload
        }
    } else {
        workload
    };
    run_workload(&workload, &args)
}

/// Prints the environment figures that tell a noisy host from a
/// regression: how late a 500 µs sleep wakes, and how many cores and
/// pool threads the run had.
fn report_environment() {
    let mut overshoot_us: Vec<f64> = (0..200)
        .map(|_| {
            let start = Instant::now();
            std::thread::sleep(Duration::from_micros(500));
            start.elapsed().as_secs_f64() * 1e6 - 500.0
        })
        .collect();
    overshoot_us.sort_by(f64::total_cmp);
    println!(
        "env sleep_overshoot_p99_us {}",
        percentile(&overshoot_us, 99.0)
    );
    println!("env nproc {}", setup::pool_threads());
    println!("env pool_threads {}", setup::pool_threads());
}

/// One metric as a member of a JSON object.
pub fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// Prints the result line the driver reads: the last line of stdout.
fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| metric_json(name, *value, unit))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn run_workload(workload: &Workload, args: &Args) -> ExitCode {
    println!(
        "workload {} seed {} seconds {} trace {} quick {}",
        workload.name, args.seed, args.seconds, args.trace as u8, args.quick
    );
    report_environment();
    let profiles = setup::profiles(workload);

    // Set-up, repeated: the first repetition pays cold caches and page
    // faults nothing later pays, so `setup_s` is the median.
    let reps = if args.trace { 1 } else { workload.setup_reps };
    let mut setup_s = Vec::with_capacity(reps);
    let mut served = setup::set_up(workload, &profiles);
    setup_s.push(served.times.total_s);
    for _ in 1..reps {
        let setup::Served {
            server, clients, ..
        } = served;
        drop(clients);
        server.shutdown();
        served = setup::set_up(workload, &profiles);
        setup_s.push(served.times.total_s);
    }
    println!("info setup_reps {reps} setup_s_each {setup_s:?}");

    let traffic = setup::traffic(workload, &profiles, &served.oracle, args.seed);
    let bank = served.oracle.bank_stats();
    let oracle_accuracy = traffic.oracle_accuracy();
    println!(
        "info types {} probes {} dropped_k_ge2 {} right {} oracle_accuracy {} candidates_mean {} model_doc_bytes {}",
        bank.forests,
        traffic.probes.len(),
        traffic.dropped,
        traffic.right(),
        oracle_accuracy,
        traffic.candidates_mean(),
        served.doc.len()
    );
    let mut correct = true;
    if workload.types != spec::PAPER_TYPES {
        // The generated catalog must be one somebody would deploy.
        let mut check = |holds: bool, what: &str| {
            if !holds {
                println!("error generated catalog: {what}");
                correct = false;
            }
        };
        check(
            bank.cluster_groups == bank.forests,
            "duplicate forests (cluster_groups != forests)",
        );
        if !args.quick {
            check(oracle_accuracy >= 0.85, "hold-out accuracy below 0.85");
            check(
                (2.0..=6.0).contains(&traffic.candidates_mean()),
                "mean candidates outside 2..=6",
            );
        }
    }

    let (attempted, failed, mut metrics) = if args.trace {
        traced(workload, &profiles, &mut served, &traffic, args)
    } else {
        untraced(workload, served, &traffic, median(&setup_s), args)
    };
    // Neither the metric lines nor JSON have an infinity or a NaN; a
    // probe that failed every time (and made the run incorrect) reads 0.
    for (_, value, _) in &mut metrics {
        if !value.is_finite() {
            *value = 0.0;
        }
    }
    if failed > 0 {
        println!("error {failed} of {attempted} operations failed");
        correct = false;
    }
    for (name, value, unit) in &metrics {
        println!("metric {name} {value} {unit}");
    }
    print_result(correct, attempted, failed, &metrics);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The end-to-end run: steady phase, then the probes.
fn untraced(
    workload: &Workload,
    served: setup::Served,
    traffic: &setup::Traffic,
    setup_s: f64,
    args: &Args,
) -> (u64, u64, Metrics) {
    let setup::Served {
        server,
        clients,
        doc,
        ..
    } = served;
    let mut lanes: Vec<Lane> = clients
        .into_iter()
        .enumerate()
        .map(|(i, client)| Lane::new(client, traffic, catalog::mix(args.seed, 100 + i as u64)))
        .collect();
    let warmup = Duration::from_millis(if args.quick { 200 } else { 2000 });
    let steady = load::run_load(
        &mut lanes,
        workload.batch,
        warmup,
        Duration::from_secs(args.seconds),
    );
    let tally = &steady.tally;
    println!(
        "phase steady sent {} ok {} failed {} answers {}",
        tally.sent, tally.ok, tally.failed, tally.answers
    );
    let mut attempted = tally.sent;
    let mut failed = tally.failed;
    assert!(tally.ok > 0, "the steady phase completed no frame");

    println!("info window_answers {:?}", tally.windows.counts());
    let quiet = steady.quiet();
    let beyond_p99 = samples_beyond(&quiet.latencies_us, 99.0);
    println!(
        "info latency_samples {} beyond_p99 {beyond_p99}",
        quiet.latencies_us.len()
    );
    if beyond_p99 < 10 && !args.quick {
        println!("warning latency_p99_us has fewer than ten samples beyond it");
    }
    // Before the probes: reloads grow the heap by luck (see
    // `load::reload_probe`), set-up and serving do not.
    let peak_rss_mib = stats::process_peak_rss_mib();

    let reloads = if args.quick { 2 } else { 7 };
    let (reload_ms, reload_failed) = load::reload_probe(lanes[0].client(), &doc, reloads);
    let rechecked = load::recheck(&mut lanes[0], 64);
    println!(
        "phase reload sent {reloads} ok {} failed {reload_failed} recheck_ok {rechecked} each_ms {reload_ms:?}",
        reload_ms.len()
    );
    attempted += reloads as u64 + 1;
    failed += reload_failed + u64::from(!rechecked);

    let connects = if args.quick { 5 } else { 40 };
    let (connect_ms, connect_failed) =
        load::connect_probe(server.local_addr(), &traffic.probes, connects, args.seed);
    println!(
        "phase connect sent {connects} ok {} failed {connect_failed}",
        connect_ms.len()
    );
    attempted += connects as u64;
    failed += connect_failed;

    drop(lanes);
    let stats = server.shutdown();
    println!(
        "info server frames_served {} queries_answered {} protocol_errors {} reloads {}",
        stats.frames_served, stats.queries_answered, stats.protocol_errors, stats.reloads
    );

    let values = [
        setup_s,
        quiet.throughput_qps,
        percentile(&quiet.latencies_us, 50.0),
        percentile(&quiet.latencies_us, 99.0),
        quiet.cpu_us_per_answer,
        peak_rss_mib,
        reload_ms.iter().copied().fold(f64::INFINITY, f64::min),
        stats::mean(&connect_ms),
        // Exact per seed: every answer over the wire was checked
        // against the oracle answer this is counted from.
        traffic.oracle_accuracy(),
        (attempted - failed) as f64 / attempted as f64,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| (m.name, value, m.unit))
        .collect();
    (attempted, failed, metrics)
}

/// The traced run: per-layer metrics and the span file.
fn traced(
    workload: &Workload,
    profiles: &[sentinel_devices::DeviceProfile],
    served: &mut setup::Served,
    traffic: &setup::Traffic,
    args: &Args,
) -> (u64, u64, Metrics) {
    let report = layers::run(
        workload,
        profiles,
        served,
        traffic,
        args.seed,
        args.seconds as f64,
    );
    let coverage = report
        .metrics
        .iter()
        .find(|(name, _)| name == "core.budget_coverage")
        .map_or(0.0, |(_, v)| *v);
    if coverage < 0.9 {
        println!("warning core.budget_coverage {coverage} < 0.9: part of handle() is untimed");
    }
    // Per span name: how many, mean duration, and mean self time (the
    // span minus what its child spans cover).
    let spans = report.tracer.spans();
    let mut by_name: std::collections::BTreeMap<&str, (u64, u64, u64)> = Default::default();
    for (span, self_ns) in spans.iter().zip(span::self_times(spans)) {
        let entry = by_name.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.end_ns - span.start_ns;
        entry.2 += self_ns;
    }
    for (name, (count, total_ns, self_ns)) in by_name {
        println!(
            "span {name} count {count} mean_ns {:.1} self_mean_ns {:.1}",
            total_ns as f64 / count as f64,
            self_ns as f64 / count as f64
        );
    }
    let path = format!("{OUT_DIR}/trace-{}.jsonl", workload.name);
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|file| span::write_jsonl(std::io::BufWriter::new(file), report.tracer.spans()));
    match written {
        Ok(()) => println!("info wrote {path} ({} spans)", report.tracer.spans().len()),
        Err(error) => println!("warning could not write {path}: {error}"),
    }
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let value = report
                .metrics
                .iter()
                .find(|(name, _)| name == m.name)
                .unwrap_or_else(|| panic!("traced run did not measure {}", m.name))
                .1;
            (m.name, value, m.unit)
        })
        .collect();
    (report.attempted, report.failed, metrics)
}
