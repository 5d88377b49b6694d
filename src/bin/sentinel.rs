//! `sentinel` — the IoT Sentinel command line.
//!
//! End-to-end workflows over files, so the pipeline can be driven
//! without writing Rust: simulate device setups to pcap, build
//! fingerprint datasets, train a model, identify pcaps against it,
//! and assess device types against the vulnerability database.
//!
//! ```text
//! sentinel catalog
//! sentinel simulate  --type <NAME> --out <DIR> [--runs N] [--seed S] [--standby]
//! sentinel dataset   --out <FILE> [--runs N] [--seed S] [--standby]
//! sentinel extract   --pcap <FILE> [--label <NAME> --out <FILE>]
//! sentinel train     --dataset <FILE> --model <FILE> [--seed S]
//! sentinel identify  --model <FILE> --pcap <FILE> [--ignore-mac <MAC>]
//! sentinel assess    --type <NAME>
//! ```

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use iot_sentinel::core::{persist, TypeRegistry, VulnerabilityDatabase};
use iot_sentinel::devices::{
    catalog, generate_dataset, standby, NetworkEnvironment, SetupSimulator,
};
use iot_sentinel::fingerprint::{codec, Dataset, FingerprintExtractor, LabeledFingerprint};
use iot_sentinel::net::{CaptureMonitor, MacAddr, SetupDetectorConfig, TraceCapture};
use iot_sentinel::serve::{ClientConfig, SentinelClient, ServerConfig};
use iot_sentinel::SentinelBuilder;

const USAGE: &str = "\
sentinel — IoT Sentinel device-type identification CLI

USAGE:
  sentinel catalog
      List the 27 built-in device types (paper Table II).

  sentinel simulate --type <NAME> --out <DIR> [--runs N] [--seed S] [--standby]
      Simulate N setups (or standby windows) of one device type and
      write one classic-pcap file per run into DIR.

  sentinel dataset --out <FILE> [--runs N] [--seed S] [--standby]
      Build the full 27-type fingerprint dataset and write it in the
      text codec format.

  sentinel extract --pcap <FILE> [--label <NAME> --out <FILE>] [--ignore-mac <MAC>]
      Extract fingerprints from a pcap. With --label and --out, append
      them to (or create) a dataset file; otherwise print a summary.

  sentinel import --dir <DIR> --out <FILE> [--ignore-mac <MAC>]
      Build a dataset from a directory of captures laid out one
      subdirectory per device type (the layout of the paper's public
      dataset): DIR/<DeviceType>/*.pcap. The subdirectory name becomes
      the fingerprint label.

  sentinel train --dataset <FILE> --model <FILE> [--seed S] [--exclude <NAME>]...
      Train one classifier per device type and persist the model.
      --exclude drops a device type from the dataset before training
      (repeatable; useful for staging a later hot-reload).

  sentinel identify --model <FILE> --pcap <FILE> [--ignore-mac <MAC>]
      Identify every device in a pcap against a trained model.
      (Simulated captures include gateway frames; pass
      --ignore-mac 02:53:47:57:00:01 to skip the default gateway.)

  sentinel assess --type <NAME>
      Vulnerability assessment and isolation level for a device type
      (demo CVE database).

  sentinel serve --model <FILE> [--addr HOST:PORT] [--workers N]
                 [--port-file FILE] [--admin]
      Serve the trained model as an IoT Security Service over TCP
      (default 127.0.0.1:7787; port 0 picks an ephemeral port). Prints
      the bound address, optionally writes the port to --port-file,
      and runs until terminated. With --admin, `sentinel reload` can
      hot-swap the served model. --workers sets how many connections
      are served (and computed) at once.

  sentinel query --addr HOST:PORT --pcap <FILE> [--ignore-mac <MAC>]
      Identify every device in a pcap against a *running* server —
      the remote counterpart of `sentinel identify`.

  sentinel reload --addr HOST:PORT --model <FILE>
      Hot-swap the model a running `sentinel serve --admin` answers
      from, without dropping its connections. The new model's type
      registry must extend the served one (same types at the same ids,
      new types appended) — retrain on a superset dataset.

  sentinel stats --addr HOST:PORT [--text]
      Fetch a running server's live metrics over a Stats frame:
      lifecycle counters, per-stage query latency histograms, service
      epoch and reload count. Default output is `key value` lines
      (grep-friendly); --text switches to Prometheus-style text
      exposition for scraping.

  sentinel fleet [--devices N] [--seed S] [--duration-secs T] [--speedup X]
                 [--connections C] [--setups K]
                 [--addr HOST:PORT] [--no-reload] [--chaos SEED]
      Simulate a device fleet (enrollment ramp, setup bursts, steady
      re-fingerprinting, standby/wake, churn) and replay it against a
      live server, printing a summary. Without --addr it trains
      a model from the catalog and self-hosts on an ephemeral port,
      firing a hot reload mid-run to measure epoch-propagation lag
      (--no-reload skips it; against an external --addr the reload
      scenario is off). Default pacing is uncapped; --speedup X
      replays the schedule at X times real time instead.
      --chaos SEED runs the fleet as a fault-injection soak against
      the self-hosted server (incompatible with --addr): a seeded,
      bit-reproducible fault plan drives attacker connections
      (mid-frame stalls, truncated frames, hangups) plus scheduled
      query-batch panics concurrently with the real load, the server
      runs with a finite admission budget and a reload rate limit,
      and the run fails unless every robustness invariant holds
      (server alive, counters reconcile exactly, epoch advanced, zero
      regressions).
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "catalog" => cmd_catalog(),
        "simulate" => cmd_simulate(rest),
        "dataset" => cmd_dataset(rest),
        "extract" => cmd_extract(rest),
        "import" => cmd_import(rest),
        "train" => cmd_train(rest),
        "identify" => cmd_identify(rest),
        "assess" => cmd_assess(rest),
        "serve" => cmd_serve(rest),
        "query" => cmd_query(rest),
        "reload" => cmd_reload(rest),
        "stats" => cmd_stats(rest),
        "fleet" => cmd_fleet(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; run `sentinel help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("sentinel: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Minimal `--key value` / `--flag` argument map.
struct Options {
    values: BTreeMap<String, Vec<String>>,
    flags: Vec<String>,
}

impl Options {
    fn parse(args: &[String], flags: &[&str]) -> Result<Self, String> {
        let mut options = Options {
            values: BTreeMap::new(),
            flags: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            if flags.contains(&key) {
                options.flags.push(key.to_string());
            } else {
                let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                options
                    .values
                    .entry(key.to_string())
                    .or_default()
                    .push(value.clone());
            }
        }
        Ok(options)
    }

    fn required(&self, key: &str) -> Result<&str, String> {
        self.first(key)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    fn first(&self, key: &str) -> Option<&str> {
        self.values
            .get(key)
            .and_then(|v| v.first())
            .map(String::as_str)
    }

    fn all(&self, key: &str) -> impl Iterator<Item = &str> {
        self.values
            .get(key)
            .into_iter()
            .flatten()
            .map(String::as_str)
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.first(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--{key} got a non-numeric value {raw:?}")),
        }
    }
}

fn profiles_for(opts: &Options) -> Vec<iot_sentinel::devices::DeviceProfile> {
    if opts.flag("standby") {
        standby::standby_catalog()
    } else {
        catalog::standard_catalog()
    }
}

fn cmd_catalog() -> Result<(), String> {
    println!(
        "{:<20} {:<14} {:<14} model",
        "type", "vendor", "connectivity"
    );
    for p in catalog::standard_catalog() {
        println!(
            "{:<20} {:<14} {:<14} {}",
            p.type_name, p.vendor, p.connectivity, p.model
        );
    }
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let opts = Options::parse(args, &["standby"])?;
    let type_name = opts.required("type")?;
    let out_dir = PathBuf::from(opts.required("out")?);
    let runs: u32 = opts.number("runs", 1)?;
    let seed: u64 = opts.number("seed", 1)?;

    let profiles = profiles_for(&opts);
    let profile = profiles
        .iter()
        .find(|p| p.type_name == type_name)
        .ok_or_else(|| format!("unknown device type {type_name:?}; run `sentinel catalog`"))?;

    std::fs::create_dir_all(&out_dir).map_err(|e| format!("creating {out_dir:?}: {e}"))?;
    let env = NetworkEnvironment::default();
    let mut sim = SetupSimulator::new(env, seed);
    let mode = if opts.flag("standby") {
        "standby"
    } else {
        "setup"
    };
    for run in 0..runs {
        let trace = sim.simulate(profile, run);
        let path = out_dir.join(format!("{type_name}-{mode}-{run:03}.pcap"));
        let file = File::create(&path).map_err(|e| format!("creating {path:?}: {e}"))?;
        trace
            .to_pcap(BufWriter::new(file))
            .map_err(|e| format!("writing {path:?}: {e}"))?;
        println!("wrote {} ({} frames)", path.display(), trace.len());
    }
    Ok(())
}

fn cmd_dataset(args: &[String]) -> Result<(), String> {
    let opts = Options::parse(args, &["standby"])?;
    let out = PathBuf::from(opts.required("out")?);
    let runs: u32 = opts.number("runs", 20)?;
    let seed: u64 = opts.number("seed", 1)?;

    let profiles = profiles_for(&opts);
    let env = NetworkEnvironment::default();
    eprintln!(
        "building {} dataset: {} types x {runs} runs...",
        if opts.flag("standby") {
            "standby"
        } else {
            "setup"
        },
        profiles.len()
    );
    let dataset = generate_dataset(&profiles, &env, runs, seed);
    write_dataset(&out, &dataset)?;
    println!(
        "wrote {} fingerprints for {} types to {}",
        dataset.len(),
        dataset.labels().len(),
        out.display()
    );
    Ok(())
}

fn cmd_extract(args: &[String]) -> Result<(), String> {
    let opts = Options::parse(args, &[])?;
    let pcap_path = PathBuf::from(opts.required("pcap")?);
    let ignored = parse_ignored_macs(&opts)?;
    let fingerprints = fingerprints_from_pcap(&pcap_path, &ignored)?;

    match (opts.first("label"), opts.first("out")) {
        (Some(label), Some(out)) => {
            let out = PathBuf::from(out);
            let mut dataset = if out.exists() {
                read_dataset(&out)?
            } else {
                Dataset::new()
            };
            let added = fingerprints.len();
            for (_, fp) in fingerprints {
                dataset.push(LabeledFingerprint::new(label, fp));
            }
            write_dataset(&out, &dataset)?;
            println!(
                "appended {added} fingerprint(s) labelled {label:?}; {} now has {} samples",
                out.display(),
                dataset.len()
            );
        }
        (None, None) => {
            for (mac, fp) in &fingerprints {
                println!(
                    "{mac}: {} packet columns -> {}-dim F'",
                    fp.len(),
                    iot_sentinel::fingerprint::FIXED_DIMS
                );
            }
        }
        _ => return Err("--label and --out must be used together".into()),
    }
    Ok(())
}

fn cmd_import(args: &[String]) -> Result<(), String> {
    let opts = Options::parse(args, &[])?;
    let dir = PathBuf::from(opts.required("dir")?);
    let out = PathBuf::from(opts.required("out")?);
    let ignored = parse_ignored_macs(&opts)?;

    let mut dataset = Dataset::new();
    let mut type_dirs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("reading {dir:?}: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    type_dirs.sort();
    if type_dirs.is_empty() {
        return Err(format!(
            "{dir:?} has no per-device-type subdirectories (expected DIR/<DeviceType>/*.pcap)"
        ));
    }
    for type_dir in type_dirs {
        let label: String = type_dir
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| format!("unreadable directory name under {dir:?}"))?
            .chars()
            .map(|c| if c.is_whitespace() { '-' } else { c })
            .collect();
        let mut pcaps: Vec<PathBuf> = std::fs::read_dir(&type_dir)
            .map_err(|e| format!("reading {type_dir:?}: {e}"))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "pcap"))
            .collect();
        pcaps.sort();
        let mut count = 0usize;
        for pcap in pcaps {
            for (_, fingerprint) in fingerprints_from_pcap(&pcap, &ignored)? {
                dataset.push(LabeledFingerprint::new(label.clone(), fingerprint));
                count += 1;
            }
        }
        println!("{label}: {count} fingerprint(s)");
    }
    if dataset.is_empty() {
        return Err("no fingerprints found in any pcap".into());
    }
    write_dataset(&out, &dataset)?;
    println!(
        "wrote {} fingerprints for {} types to {}",
        dataset.len(),
        dataset.labels().len(),
        out.display()
    );
    Ok(())
}

fn cmd_train(args: &[String]) -> Result<(), String> {
    let opts = Options::parse(args, &[])?;
    let dataset_path = PathBuf::from(opts.required("dataset")?);
    let model_path = PathBuf::from(opts.required("model")?);
    let seed: u64 = opts.number("seed", 42)?;

    let mut dataset = read_dataset(&dataset_path)?;
    let excluded: Vec<&str> = opts.all("exclude").collect();
    if !excluded.is_empty() {
        for name in &excluded {
            if !dataset.labels().contains(name) {
                return Err(format!(
                    "--exclude {name:?} matches no label in the dataset"
                ));
            }
        }
        let mut filtered = Dataset::new();
        for sample in dataset.iter() {
            if !excluded.contains(&sample.label()) {
                filtered.push(sample.clone());
            }
        }
        eprintln!(
            "excluded {} type(s): {}",
            excluded.len(),
            excluded.join(", ")
        );
        dataset = filtered;
    }
    eprintln!(
        "training on {} fingerprints across {} types...",
        dataset.len(),
        dataset.labels().len()
    );
    let sentinel = SentinelBuilder::new()
        .dataset(dataset)
        .training_seed(seed)
        .build()
        .map_err(|e| format!("training failed: {e}"))?;
    let file = File::create(&model_path).map_err(|e| format!("creating {model_path:?}: {e}"))?;
    persist::write_identifier(BufWriter::new(file), sentinel.service().identifier())
        .map_err(|e| format!("writing model: {e}"))?;
    println!(
        "trained {} per-type classifiers -> {}",
        sentinel.service().identifier().type_count(),
        model_path.display()
    );
    Ok(())
}

fn cmd_identify(args: &[String]) -> Result<(), String> {
    let opts = Options::parse(args, &[])?;
    let model_path = PathBuf::from(opts.required("model")?);
    let pcap_path = PathBuf::from(opts.required("pcap")?);
    let ignored = parse_ignored_macs(&opts)?;

    let file = File::open(&model_path).map_err(|e| format!("opening {model_path:?}: {e}"))?;
    let identifier = persist::read_identifier(BufReader::new(file))
        .map_err(|e| format!("loading model: {e}"))?;
    let sentinel = SentinelBuilder::new()
        .trained(identifier)
        .demo_vulnerabilities()
        .build()
        .map_err(|e| format!("assembling service: {e}"))?;

    let fingerprints = fingerprints_from_pcap(&pcap_path, &ignored)?;
    if fingerprints.is_empty() {
        return Err("no device traffic found in the pcap".into());
    }
    for (mac, fingerprint) in fingerprints {
        let response = sentinel.handle(&fingerprint);
        println!(
            "{mac}: {} -> isolation {}",
            sentinel
                .service()
                .type_name(response.device_type)
                .unwrap_or("<unknown device type>"),
            response.isolation
        );
    }
    Ok(())
}

fn cmd_assess(args: &[String]) -> Result<(), String> {
    let opts = Options::parse(args, &[])?;
    let type_name = opts.required("type")?;
    let mut registry = TypeRegistry::new();
    let db = VulnerabilityDatabase::demo(&mut registry);
    let id = registry.intern(type_name);
    let level = db.assess(Some(id));
    println!("device type:     {type_name}");
    println!("vulnerable:      {}", db.is_vulnerable(id));
    println!("isolation level: {}", level.name());
    for record in db.records_for(id) {
        println!(
            "  {}: {} [{}]",
            record.id, record.description, record.severity
        );
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let opts = Options::parse(args, &["admin"])?;
    let model_path = PathBuf::from(opts.required("model")?);
    let addr = opts.first("addr").unwrap_or("127.0.0.1:7787");
    let workers: usize = opts.number("workers", 4)?;
    let admin = opts.flag("admin");

    let file = File::open(&model_path).map_err(|e| format!("opening {model_path:?}: {e}"))?;
    let identifier = persist::read_identifier(BufReader::new(file))
        .map_err(|e| format!("loading model: {e}"))?;
    let sentinel = SentinelBuilder::new()
        .trained(identifier)
        .demo_vulnerabilities()
        .build()
        .map_err(|e| format!("assembling service: {e}"))?;
    let config = ServerConfig {
        workers: workers.max(1),
        admin,
        ..ServerConfig::default()
    };
    let handle = sentinel
        .serve(addr, config)
        .map_err(|e| format!("binding {addr}: {e}"))?;
    let bound = handle.local_addr();
    println!(
        "serving {} device types on {bound} ({workers} workers{})",
        sentinel.service().identifier().type_count(),
        if admin { ", admin enabled" } else { "" }
    );
    if let Some(port_file) = opts.first("port-file") {
        std::fs::write(port_file, format!("{}\n", bound.port()))
            .map_err(|e| format!("writing {port_file:?}: {e}"))?;
    }
    // Serve until the process is terminated; the handle keeps the
    // connection workers alive.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let opts = Options::parse(args, &[])?;
    let addr = opts.required("addr")?;
    let pcap_path = PathBuf::from(opts.required("pcap")?);
    let ignored = parse_ignored_macs(&opts)?;

    let fingerprints = fingerprints_from_pcap(&pcap_path, &ignored)?;
    if fingerprints.is_empty() {
        return Err("no device traffic found in the pcap".into());
    }
    let config = ClientConfig {
        resolve_names: true,
        ..ClientConfig::default()
    };
    let mut client =
        SentinelClient::connect(addr, config).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let probes: Vec<iot_sentinel::fingerprint::Fingerprint> =
        fingerprints.iter().map(|(_, fp)| fp.clone()).collect();
    let results = client
        .query_batch(&probes)
        .map_err(|e| format!("query failed: {e}"))?;
    for ((mac, _), result) in fingerprints.iter().zip(results) {
        println!(
            "{mac}: {} -> isolation {}",
            result.name.as_deref().unwrap_or("<unknown device type>"),
            result.response.isolation
        );
    }
    Ok(())
}

fn cmd_reload(args: &[String]) -> Result<(), String> {
    let opts = Options::parse(args, &[])?;
    let addr = opts.required("addr")?;
    let model_path = PathBuf::from(opts.required("model")?);

    let model = std::fs::read(&model_path).map_err(|e| format!("reading {model_path:?}: {e}"))?;
    let mut client = SentinelClient::connect(addr, ClientConfig::default())
        .map_err(|e| format!("connecting to {addr}: {e}"))?;
    let ack = client
        .reload(model)
        .map_err(|e| format!("reload failed: {e}"))?;
    println!(
        "reloaded {}: epoch {} now serves {} device types",
        model_path.display(),
        ack.epoch,
        ack.types
    );
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    use iot_sentinel::obs::{Counter, Stage};

    let opts = Options::parse(args, &["text"])?;
    let addr = opts.required("addr")?;
    let mut client = SentinelClient::connect(addr, ClientConfig::default())
        .map_err(|e| format!("connecting to {addr}: {e}"))?;
    let snapshot = client
        .server_stats()
        .map_err(|e| format!("stats request failed: {e}"))?;
    if opts.flag("text") {
        print!("{}", snapshot.to_text());
        return Ok(());
    }
    // `key value` lines, one metric per line, in catalog order —
    // stable to grep/awk in CI smoke scripts.
    println!("epoch {}", snapshot.epoch);
    for counter in Counter::ALL {
        println!("{} {}", counter.name(), snapshot.counter(counter));
    }
    for stage in Stage::ALL {
        let Some(summary) = snapshot.stage(stage) else {
            continue;
        };
        let name = stage.name();
        println!("stage_{name}_count {}", summary.count);
        println!("stage_{name}_sum_ns {}", summary.sum_ns);
        println!("stage_{name}_p50_ns {}", summary.p50_ns);
        println!("stage_{name}_p90_ns {}", summary.p90_ns);
        println!("stage_{name}_p99_ns {}", summary.p99_ns);
        println!("stage_{name}_p999_ns {}", summary.p999_ns);
        println!("stage_{name}_max_ns {}", summary.max_ns);
    }
    Ok(())
}

fn cmd_fleet(args: &[String]) -> Result<(), String> {
    use iot_sentinel::chaos::{self, ChaosConfig, FaultPlan, RegistrySlot};
    use iot_sentinel::fleet::{DriveConfig, FingerprintPool, FleetConfig, Pacing, ReloadHook};
    use iot_sentinel::serve::ReloadRate;
    use std::sync::Arc;
    use std::time::Duration;

    let opts = Options::parse(args, &["no-reload"])?;
    let devices: u32 = opts.number("devices", 10_000)?;
    let seed: u64 = opts.number("seed", 42)?;
    let duration_secs: u64 = opts.number("duration-secs", 120)?;
    let connections: usize = opts.number("connections", 4)?;
    let setups: u32 = opts.number("setups", 3)?;
    let speedup: Option<f64> = match opts.first("speedup") {
        None => None,
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| format!("--speedup got a non-numeric value {raw:?}"))?,
        ),
    };
    if let Some(speed) = speedup {
        if !speed.is_finite() || speed <= 0.0 {
            return Err("--speedup must be positive".into());
        }
    }
    let chaos_seed: Option<u64> = match opts.first("chaos") {
        None => None,
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| format!("--chaos got a non-numeric seed {raw:?}"))?,
        ),
    };
    if chaos_seed.is_some() && opts.first("addr").is_some() {
        return Err(
            "--chaos needs the self-hosted server (it injects query-batch \
                    panics and audits the server's own counters); drop --addr"
                .into(),
        );
    }
    // The chaos plan (and the registry slot its panic hook will report
    // into) must exist before the server config, because the hook is
    // part of it.
    let chaos_run = chaos_seed.map(|chaos_seed| {
        let plan = FaultPlan::generate(&ChaosConfig {
            seed: chaos_seed,
            connections: 6,
            panic_every: 20,
            panics: 3,
            ..ChaosConfig::default()
        });
        (plan, RegistrySlot::new())
    });

    // Lifecycle timing scales with the virtual horizon so short CI
    // runs still exercise every phase (churn, standby, reload).
    let duration = Duration::from_secs(duration_secs.max(1));
    let mut config = FleetConfig {
        devices: devices.max(1),
        seed,
        duration,
        ramp: duration / 4,
        steady_min: duration / 6,
        steady_max: duration / 2,
        standby_duration: duration / 4,
        churn_lifetime: Some(duration * 3 / 4),
        reload_at: (!opts.flag("no-reload")).then_some(duration / 2),
        ..FleetConfig::default()
    };

    eprintln!("generating fingerprint pool (27 types x {setups} setups, seed {seed})...");
    let pool = FingerprintPool::from_catalog(setups, seed);

    // External server: drive it as-is (the reload scenario needs our
    // own model document, so it only runs self-hosted). Otherwise
    // train from the catalog and self-host on an ephemeral port.
    let mut server_handle = None;
    let mut model_bytes: Option<Vec<u8>> = None;
    let addr = match opts.first("addr") {
        Some(addr) => {
            config.reload_at = None;
            addr.to_string()
        }
        None => {
            eprintln!("training service from the catalog...");
            let sentinel = SentinelBuilder::new()
                .catalog(catalog::standard_catalog())
                .setups_per_type(setups)
                .training_seed(seed)
                .demo_vulnerabilities()
                .build()
                .map_err(|e| format!("training failed: {e}"))?;
            let mut bytes = Vec::new();
            persist::write_identifier(&mut bytes, sentinel.service().identifier())
                .map_err(|e| format!("persisting model: {e}"))?;
            model_bytes = Some(bytes);
            // One worker per fleet connection plus one spare: workers
            // each own a connection, and the mid-run reload arrives on
            // its own admin connection that must not starve.
            let mut server_config = ServerConfig {
                workers: connections.max(1) + 1,
                admin: true,
                ..ServerConfig::default()
            };
            if let Some((plan, slot)) = &chaos_run {
                // Chaos mode: spare workers for the attacker
                // connections, a finite admission budget with a short
                // queue deadline so overload sheds instead of queueing,
                // a reload rate limit the one mid-run reload fits
                // inside, and the plan's scheduled query-batch panics.
                server_config.workers = connections.max(1) + 3;
                server_config.max_inflight = connections.max(2) / 2;
                server_config.queue_deadline = Duration::from_millis(25);
                server_config.reload_rate = Some(ReloadRate {
                    burst: 2,
                    refill_per_sec: 1.0,
                });
                server_config.fault_injection = Some(chaos::query_panic_hook(plan, slot.clone()));
            }
            let handle = sentinel
                .serve("127.0.0.1:0", server_config)
                .map_err(|e| format!("binding loopback server: {e}"))?;
            let addr = handle.local_addr().to_string();
            if let Some((_, slot)) = &chaos_run {
                // Bind before any traffic so every scheduled panic is
                // booked into the served registry.
                slot.bind(Arc::clone(handle.metrics()));
            }
            eprintln!("self-hosting on {addr} (admin enabled)");
            server_handle = Some(handle);
            addr
        }
    };

    let reload_hook: Option<ReloadHook<'_>> = match (&model_bytes, config.reload_at) {
        (Some(bytes), Some(_)) => {
            // Re-pushing the same document is a registry-compatible
            // reload: the server installs it as a fresh epoch, which
            // is exactly the propagation signal the fleet measures.
            let admin_addr = addr.clone();
            let bytes = bytes.clone();
            Some(Box::new(move || {
                let mut admin =
                    SentinelClient::connect(admin_addr.as_str(), ClientConfig::default())
                        .map_err(|e| format!("admin connect: {e}"))?;
                admin
                    .reload(bytes.clone())
                    .map(|ack| ack.epoch)
                    .map_err(|e| format!("admin reload: {e}"))
            }))
        }
        _ => {
            config.reload_at = None;
            None
        }
    };

    let drive_config = DriveConfig {
        connections: connections.max(1),
        pacing: speedup.map_or(Pacing::Uncapped, Pacing::Scaled),
        client: ClientConfig {
            retry_jitter_seed: seed,
            ..ClientConfig::default()
        },
    };
    // The injector abuses the server *concurrently* with the replay:
    // stalls, truncated frames and hangups land while real load (and
    // the mid-run reload) is in flight — that interleaving is the
    // whole point of the soak.
    let injector = chaos_run.as_ref().map(|(plan, _)| {
        let plan = plan.clone();
        let addr = addr.clone();
        let registry = Arc::clone(
            server_handle
                .as_ref()
                .expect("chaos mode always self-hosts")
                .metrics(),
        );
        eprintln!(
            "chaos: plan digest {:016x}: {} attacker connections, {} frame faults, {} scheduled panics",
            plan.digest(),
            plan.connections.len(),
            plan.frame_faults(),
            plan.panic_queries.len(),
        );
        std::thread::spawn(move || chaos::inject(addr.as_str(), &plan, Some(&registry)))
    });

    eprintln!(
        "simulating {} devices over {} virtual s, driving via {} connections...",
        config.devices,
        duration.as_secs(),
        drive_config.connections
    );
    let (_trace, report) =
        iot_sentinel::fleet::run(&config, &pool, &addr, &drive_config, reload_hook)?;
    for line in report.lines() {
        println!("{line}");
    }

    if let Some((plan, _)) = &chaos_run {
        let injected = injector
            .expect("injector spawned whenever a plan exists")
            .join()
            .map_err(|_| "chaos injector thread panicked".to_string())?
            .map_err(|e| format!("chaos injector I/O: {e}"))?;
        let handle = server_handle
            .as_ref()
            .expect("chaos mode always self-hosts");
        audit_chaos(plan, &injected, &report, handle)?;
    }

    if let Some(handle) = server_handle {
        handle.shutdown();
    }
    Ok(())
}

/// Audits a chaos soak after both the replay and the injector drained:
/// every robustness invariant the harness promises is checked against
/// the server's quiesced books, and any violation fails the run.
fn audit_chaos(
    plan: &iot_sentinel::chaos::FaultPlan,
    injected: &iot_sentinel::chaos::InjectorReport,
    report: &iot_sentinel::fleet::FleetReport,
    handle: &iot_sentinel::serve::ServerHandle,
) -> Result<(), String> {
    use iot_sentinel::obs::Counter;
    use std::time::{Duration, Instant};

    // Client teardown races the server's bookkeeping by a few
    // milliseconds: wait for the active-connection gauge to drain
    // before reading the final snapshot.
    let registry = handle.metrics();
    let deadline = Instant::now() + Duration::from_secs(5);
    while registry.get(Counter::ConnectionsActive) != 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let snapshot = handle.metrics_snapshot();
    let worker_panics = snapshot.counter(Counter::WorkerPanics);
    let faults_injected = snapshot.counter(Counter::FaultsInjected);
    let shed = snapshot.counter(Counter::QueriesShed);

    println!(
        "chaos: seed {}, plan digest {:016x}",
        plan.seed,
        plan.digest()
    );
    println!(
        "chaos: injector ran {} connections / {} frames ({} stalls, {} truncates, {} hangups); \
         {} scheduled query-batch panics fired; faults_injected {}",
        injected.connections,
        injected.frames_sent,
        injected.stalls,
        injected.truncates,
        injected.hangups,
        worker_panics,
        faults_injected,
    );
    println!(
        "chaos: {} queries shed over {} overload rejections, {} client overload retries",
        shed,
        snapshot.counter(Counter::OverloadRejections),
        report.overload_retries,
    );

    let mut violations: Vec<String> = Vec::new();
    let mut check = |ok: bool, line: String| {
        if !ok {
            violations.push(line);
        }
    };
    // The server survived and its books balance: faults it absorbed
    // are exactly the faults the harness injected, abuse cost exactly
    // the errors the fault model promises, and every driver-side error
    // is accounted for as a shed answer or a killed connection.
    check(
        snapshot.counter(Counter::ConnectionsActive) == 0,
        format!(
            "connections leaked: {} still active after drain",
            snapshot.counter(Counter::ConnectionsActive)
        ),
    );
    check(
        worker_panics <= plan.panic_queries.len() as u64,
        format!(
            "unscheduled panics: {worker_panics} worker panics > {} scheduled",
            plan.panic_queries.len()
        ),
    );
    check(
        faults_injected == injected.faults() + worker_panics,
        format!(
            "faults_injected {} != injector faults {} + worker panics {worker_panics}",
            faults_injected,
            injected.faults()
        ),
    );
    check(
        snapshot.counter(Counter::ProtocolErrors) == injected.truncates,
        format!(
            "protocol_errors {} != injected truncates {} (hangups and stalls must cost zero)",
            snapshot.counter(Counter::ProtocolErrors),
            injected.truncates
        ),
    );
    check(
        snapshot.counter(Counter::QueriesAnswered) == report.responses_ok,
        format!(
            "queries_answered {} != driver responses_ok {}",
            snapshot.counter(Counter::QueriesAnswered),
            report.responses_ok
        ),
    );
    check(
        report.errors == report.shed + worker_panics,
        format!(
            "driver errors {} != shed {} + worker panics {worker_panics}: \
             some request was neither answered nor typed-shed",
            report.errors, report.shed
        ),
    );
    if let Some(epoch) = report.reload_epoch {
        check(
            epoch == 2 && snapshot.epoch == 2,
            format!(
                "reload under fire did not advance the epoch: driver saw {epoch}, server at {}",
                snapshot.epoch
            ),
        );
        check(
            report.stale_after_reload == Some(0),
            format!(
                "epoch regressions after reload: {:?}",
                report.stale_after_reload
            ),
        );
        check(
            snapshot.counter(Counter::Reloads) == 1
                && snapshot.counter(Counter::ReloadRollbacks) == 0,
            format!(
                "reload books off: {} reloads, {} rollbacks (expected 1 / 0)",
                snapshot.counter(Counter::Reloads),
                snapshot.counter(Counter::ReloadRollbacks)
            ),
        );
    }

    if violations.is_empty() {
        println!("invariants: ok");
        Ok(())
    } else {
        Err(format!(
            "chaos invariants violated:\n  {}",
            violations.join("\n  ")
        ))
    }
}

fn parse_ignored_macs(opts: &Options) -> Result<Vec<MacAddr>, String> {
    let mut ignored = Vec::new();
    for raw in opts.all("ignore-mac") {
        ignored.push(
            raw.parse::<MacAddr>()
                .map_err(|e| format!("bad --ignore-mac {raw:?}: {e}"))?,
        );
    }
    Ok(ignored)
}

fn fingerprints_from_pcap(
    path: &Path,
    ignored: &[MacAddr],
) -> Result<Vec<(MacAddr, iot_sentinel::fingerprint::Fingerprint)>, String> {
    let file = File::open(path).map_err(|e| format!("opening {path:?}: {e}"))?;
    let trace =
        TraceCapture::from_pcap(BufReader::new(file)).map_err(|e| format!("reading pcap: {e}"))?;
    let mut monitor = CaptureMonitor::new(SetupDetectorConfig::default());
    for mac in ignored {
        monitor.ignore_mac(*mac);
    }
    for frame in trace.iter() {
        monitor
            .observe_frame(frame)
            .map_err(|e| format!("decoding frame: {e}"))?;
    }
    Ok(monitor
        .finish_all()
        .into_iter()
        .map(|capture| {
            (
                capture.mac(),
                FingerprintExtractor::extract_from(capture.packets()),
            )
        })
        .collect())
}

fn read_dataset(path: &Path) -> Result<Dataset, String> {
    let file = File::open(path).map_err(|e| format!("opening {path:?}: {e}"))?;
    codec::read(BufReader::new(file)).map_err(|e| format!("reading dataset: {e}"))
}

fn write_dataset(path: &Path, dataset: &Dataset) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("creating {path:?}: {e}"))?;
    codec::write(BufWriter::new(file), dataset).map_err(|e| format!("writing dataset: {e}"))
}
