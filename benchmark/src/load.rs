//! The closed-loop load generator and the post-phase probes.
//!
//! One generator thread per connection; each sends its next frame only
//! after the previous answer arrived. Frames are cut from a per-lane
//! shuffle of the traffic built before the clock starts, so the timed
//! loop clones and allocates no fingerprints.

use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sentinel_core::ServiceResponse;
use sentinel_fingerprint::Fingerprint;
use sentinel_serve::{SentinelClient, StampedBatch};

use crate::catalog::mix;
use crate::setup::{client_config, Probe, Traffic};
use crate::stats::{median, process_cpu_us, sorted, Windows};

/// One connection and the traffic it will send, in sending order.
pub struct Lane {
    client: SentinelClient,
    fingerprints: Vec<Fingerprint>,
    expected: Vec<ServiceResponse>,
    /// Index of the next fingerprint to send; wraps around.
    cursor: usize,
}

impl Lane {
    /// A lane sending every probe in an order drawn from `seed`.
    pub fn new(client: SentinelClient, traffic: &Traffic, seed: u64) -> Self {
        let (fingerprints, expected) = traffic.shuffled(seed);
        Lane {
            client,
            fingerprints,
            expected,
            cursor: 0,
        }
    }

    /// The lane's connection, for the probes that follow the load.
    pub fn client(&mut self) -> &mut SentinelClient {
        &mut self.client
    }
}

/// What one phase sent and got back.
#[derive(Debug, Clone)]
pub struct Tally {
    /// Frames sent.
    pub sent: u64,
    /// Frames whose every answer equalled the oracle's.
    pub ok: u64,
    /// Frames that errored, were shed, or carried a differing answer.
    pub failed: u64,
    /// Answers received in `ok` frames.
    pub answers: u64,
    /// Round-trip time of every `ok` frame in nanoseconds, by the
    /// one-second window the frame completed in.
    pub latencies_ns: Vec<Vec<f64>>,
    /// `answers` per one-second window.
    pub windows: Windows,
}

impl Tally {
    fn new(seconds: usize) -> Self {
        Tally {
            sent: 0,
            ok: 0,
            failed: 0,
            answers: 0,
            latencies_ns: vec![Vec::new(); seconds],
            windows: Windows::new(seconds),
        }
    }

    fn merge(&mut self, other: Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.answers += other.answers;
        for (mine, theirs) in self.latencies_ns.iter_mut().zip(other.latencies_ns) {
            mine.extend(theirs);
        }
        self.windows.merge(&other.windows);
    }
}

/// Whether every answer of a frame equals the oracle's.
fn matches(answer: &StampedBatch, expected: &[ServiceResponse]) -> bool {
    answer
        .results
        .iter()
        .zip(expected)
        .all(|(got, want)| got.response == *want)
}

/// Sends frames of `batch` fingerprints back to back for `duration`.
fn run_phase(lane: &mut Lane, batch: usize, duration: Duration) -> Tally {
    let mut tally = Tally::new(duration.as_secs() as usize);
    let start = Instant::now();
    let mut now = start;
    while now.duration_since(start) < duration {
        let from = lane.cursor;
        let to = (from + batch).min(lane.fingerprints.len());
        lane.cursor = to % lane.fingerprints.len();
        tally.sent += 1;
        let outcome = lane
            .client
            .query_batch_stamped(&lane.fingerprints[from..to]);
        let done = Instant::now();
        let Ok(answer) = outcome else {
            // The connection is gone; every further frame would fail
            // the same way without measuring anything.
            tally.failed += 1;
            break;
        };
        if matches(&answer, &lane.expected[from..to]) {
            let n = (to - from) as u64;
            tally.ok += 1;
            tally.answers += n;
            // The frame in flight when the phase ended completes past
            // the last full window and is counted in none.
            let offset = done.duration_since(start);
            if let Some(window) = tally.latencies_ns.get_mut(offset.as_secs() as usize) {
                window.push(done.duration_since(now).as_nanos() as f64);
            }
            tally.windows.record(offset.as_nanos() as u64, n);
        } else {
            tally.failed += 1;
        }
        now = done;
    }
    tally
}

/// The steady phase's result.
pub struct Steady {
    /// All lanes' tallies merged.
    pub tally: Tally,
    /// Process CPU time (user + system) at the start of the phase and
    /// at the end of each of its one-second windows, µs.
    pub cpu_us_at: Vec<u64>,
}

/// The steady phase's figures, taken over its quiet windows.
pub struct Quiet {
    /// Median answers completed per quiet window.
    pub throughput_qps: f64,
    /// Round trips of the frames completed in quiet windows, ascending, µs.
    pub latencies_us: Vec<f64>,
    /// Median over the quiet windows of CPU time spent in the window ÷
    /// answers completed in it, µs. The generator's own CPU is
    /// included; it is the same on every commit.
    pub cpu_us_per_answer: f64,
}

impl Steady {
    /// Ranks the one-second windows by answers completed and keeps the
    /// best two thirds. The host's noise is one-sided and comes in
    /// bursts: for a second or three at a time everything runs up to
    /// 60 % slower, and over whole windows the median of a 12 s run then
    /// moves by 15 % between runs of the same code. What is left is what
    /// the program does when the box lets it.
    pub fn quiet(&self) -> Quiet {
        let answers = self.tally.windows.counts();
        let mut ranked: Vec<usize> = (0..answers.len()).collect();
        ranked.sort_by_key(|w| std::cmp::Reverse(answers[*w]));
        ranked.truncate((answers.len() * 2).div_ceil(3));
        let rates: Vec<f64> = ranked.iter().map(|w| answers[*w] as f64).collect();
        let cpu: Vec<f64> = ranked
            .iter()
            .filter(|w| answers[**w] > 0)
            .map(|w| (self.cpu_us_at[w + 1] - self.cpu_us_at[*w]) as f64 / answers[*w] as f64)
            .collect();
        let latencies_us = ranked
            .iter()
            .flat_map(|w| &self.tally.latencies_ns[*w])
            .map(|ns| ns / 1e3)
            .collect();
        Quiet {
            throughput_qps: median(&rates),
            latencies_us: sorted(latencies_us),
            cpu_us_per_answer: median(&cpu),
        }
    }
}

/// Warms every lane up for `warmup` on its already-open connection,
/// then measures all lanes together for `steady`.
pub fn run_load(lanes: &mut [Lane], batch: usize, warmup: Duration, steady: Duration) -> Steady {
    let gate = Barrier::new(lanes.len() + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .map(|lane| {
                let gate = &gate;
                scope.spawn(move || {
                    run_phase(lane, batch, warmup);
                    gate.wait();
                    run_phase(lane, batch, steady)
                })
            })
            .collect();
        gate.wait();
        let start = Instant::now();
        let mut cpu_us_at = vec![process_cpu_us()];
        for second in 1..=steady.as_secs() {
            std::thread::sleep(
                (start + Duration::from_secs(second)).saturating_duration_since(Instant::now()),
            );
            cpu_us_at.push(process_cpu_us());
        }
        let mut tally = Tally::new(steady.as_secs() as usize);
        for handle in handles {
            tally.merge(handle.join().expect("generator thread"));
        }
        Steady { tally, cpu_us_at }
    })
}

/// The reload probe: `count` back-to-back reloads of `doc`, each timed
/// from send to `ReloadAck`. Returns the times in milliseconds and how
/// many reloads failed.
///
/// The metric is the fastest of them. A process's first reloads grow
/// the heap (the old model is still pinned while the new one is built)
/// and on a 66 MB document read 0.6 s or 3 s by luck; from the fourth
/// on they repeat within a few percent, and that settled cost is what a
/// code change can move.
pub fn reload_probe(client: &mut SentinelClient, doc: &[u8], count: usize) -> (Vec<f64>, u64) {
    let mut times_ms = Vec::with_capacity(count);
    let mut failed = 0;
    for _ in 0..count {
        let model = doc.to_vec();
        let start = Instant::now();
        match client.reload(model) {
            Ok(_) => times_ms.push(start.elapsed().as_secs_f64() * 1e3),
            Err(_) => failed += 1,
        }
    }
    (times_ms, failed)
}

/// Re-asks the first `count` probes of `lane` one frame and checks the
/// answers against the oracle. Returns whether all matched.
pub fn recheck(lane: &mut Lane, count: usize) -> bool {
    let count = count.min(lane.fingerprints.len());
    match lane.client.query_batch_stamped(&lane.fingerprints[..count]) {
        Ok(answer) => answer
            .results
            .iter()
            .zip(&lane.expected[..count])
            .all(|(got, want)| got.response == *want),
        Err(_) => false,
    }
}

/// The accept loop polls every this long when no connection is waiting.
const ACCEPT_POLL_MS: f64 = 100.0;

/// The fresh-connection probe: `count` × {connect, one query, close}
/// with idle gaps between them. Returns each round's time in
/// milliseconds and how many rounds failed.
///
/// The gaps are the `count` strata of 0–100 ms, one draw from each, in
/// seeded order: what a fresh connection waits depends on where in the
/// server's accept poll it lands, and stratifying covers that cycle
/// evenly in every run instead of by luck.
pub fn connect_probe(
    addr: SocketAddr,
    probes: &[Probe],
    count: usize,
    seed: u64,
) -> (Vec<f64>, u64) {
    let mut rng = SmallRng::seed_from_u64(mix(seed, 5));
    let mut gaps_ms: Vec<f64> = (0..count)
        .map(|i| (i as f64 + rng.gen::<f64>()) * ACCEPT_POLL_MS / count as f64)
        .collect();
    gaps_ms.shuffle(&mut rng);
    let mut times_ms = Vec::with_capacity(count);
    let mut failed = 0;
    for (round, gap_ms) in gaps_ms.into_iter().enumerate() {
        std::thread::sleep(Duration::from_secs_f64(gap_ms / 1e3));
        let probe = &probes[round % probes.len()];
        let start = Instant::now();
        let answer = SentinelClient::connect(addr, client_config())
            .and_then(|mut client| client.query(&probe.fingerprint));
        let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        match answer {
            Ok(got) if got.response == probe.expected => times_ms.push(elapsed_ms),
            _ => failed += 1,
        }
    }
    (times_ms, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_figures_come_from_the_best_two_thirds_of_the_windows() {
        // Six windows; the host stalled in the third and the fifth.
        let answers = [100u64, 104, 40, 102, 60, 98];
        let mut tally = Tally::new(6);
        let mut cpu_us_at = vec![0u64];
        for (window, n) in answers.into_iter().enumerate() {
            tally.windows.record(window as u64 * 1_000_000_000, n);
            // Frames of a stalled window are slow; the others take 1 µs.
            let slow = if n < 90 { 50_000.0 } else { 1_000.0 };
            tally.latencies_ns[window] = vec![slow; n as usize];
            // Every window burns 1 000 µs of CPU per 100 answers, the
            // stalled ones twice that.
            let cpu = if n < 90 { 20 * n } else { 10 * n };
            cpu_us_at.push(cpu_us_at[window] + cpu);
        }
        let quiet = Steady { tally, cpu_us_at }.quiet();
        assert_eq!(quiet.throughput_qps, 101.0);
        assert_eq!(quiet.latencies_us.len(), 100 + 104 + 102 + 98);
        assert!(quiet.latencies_us.iter().all(|us| *us == 1.0));
        assert_eq!(quiet.cpu_us_per_answer, 10.0);
    }
}
