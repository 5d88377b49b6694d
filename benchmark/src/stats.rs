//! Order statistics, window medians and `/proc/self` readers.

/// Exact percentile `p` (0–100) of `sorted` by the nearest-rank rule:
/// the smallest sample with at least `p` % of the samples at or below
/// it. `sorted` must be ascending and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples of `sorted` lie strictly beyond percentile `p`. A
/// percentile is only reported when this is at least ten: with fewer,
/// it is one stall of the machine, not a property of the program.
pub fn samples_beyond(sorted: &[f64], p: f64) -> usize {
    let at = percentile(sorted, p);
    sorted.iter().rev().take_while(|v| **v > at).count()
}

/// Median of `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean of `values` (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Sorts `values` ascending in place and returns them.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Per-second completion counts of one steady phase, summed over
/// generator threads.
#[derive(Debug, Clone, PartialEq)]
pub struct Windows {
    counts: Vec<u64>,
}

impl Windows {
    /// `seconds` empty one-second windows.
    pub fn new(seconds: usize) -> Self {
        Windows {
            counts: vec![0; seconds],
        }
    }

    /// Credits `n` completions at `offset_ns` after the phase began.
    /// Completions past the last full window (the frame in flight when
    /// the phase ended) are not credited to any window.
    pub fn record(&mut self, offset_ns: u64, n: u64) {
        if let Some(slot) = self.counts.get_mut((offset_ns / 1_000_000_000) as usize) {
            *slot += n;
        }
    }

    /// Adds another thread's windows into this one.
    pub fn merge(&mut self, other: &Windows) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
    }

    /// Completions in each window.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

/// Process CPU time (user + system) in microseconds, from the text of
/// `/proc/self/stat`. Fields 14 and 15 are in clock ticks; the command
/// name (field 2) may itself contain spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn cpu_us_from_stat(stat: &str, ticks_per_second: u64) -> Option<u64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_ascii_whitespace();
    // `after` starts at field 3 (state); utime is field 14.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 1_000_000 / ticks_per_second)
}

/// Peak resident set (`VmHWM`) in MiB, from the text of
/// `/proc/self/status`.
pub fn peak_rss_mib_from_status(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Linux reports process times in `USER_HZ` ticks, which is 100 on
/// every architecture the kernel supports.
const USER_HZ: u64 = 100;

/// This process's CPU time so far, in microseconds.
pub fn process_cpu_us() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    cpu_us_from_stat(&stat, USER_HZ).expect("parse /proc/self/stat")
}

/// This process's peak resident set so far, in MiB.
pub fn process_peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    peak_rss_mib_from_status(&status).expect("parse VmHWM from /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        let v: Vec<f64> = (1..=1300).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 1287.0);
    }

    #[test]
    fn samples_beyond_counts_strictly_larger_values() {
        let v: Vec<f64> = (1..=1300).map(f64::from).collect();
        assert_eq!(samples_beyond(&v, 99.0), 13);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(samples_beyond(&v, 99.0), 10);
        // Ties at the percentile are not beyond it.
        assert_eq!(samples_beyond(&[1.0, 2.0, 2.0, 2.0], 50.0), 0);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn windows_credit_whole_seconds_and_drop_the_overhang() {
        let mut a = Windows::new(5);
        let mut b = Windows::new(5);
        for (second, n) in [100u64, 100, 3, 100, 100].into_iter().enumerate() {
            a.record(second as u64 * 1_000_000_000 + 5, n);
            b.record(second as u64 * 1_000_000_000 + 999_999_999, n);
        }
        // The frame that finished after the phase's last window.
        a.record(5_000_000_001, 1_000_000);
        a.merge(&b);
        assert_eq!(a.counts(), [200, 200, 6, 200, 200]);
    }

    #[test]
    fn cpu_time_is_parsed_past_a_hostile_command_name() {
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    1234 66 0 0 20 0 3 0 100 1000000 250 18446744073709551615";
        assert_eq!(cpu_us_from_stat(stat, 100), Some(13_000_000));
        assert_eq!(cpu_us_from_stat("garbage", 100), None);
    }

    #[test]
    fn peak_rss_is_read_from_vmhwm() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(peak_rss_mib_from_status(status), Some(20.0));
        assert_eq!(peak_rss_mib_from_status("Name:\tx\n"), None);
    }

    #[test]
    fn live_proc_readers_work_on_this_host() {
        assert!(process_peak_rss_mib() > 0.0);
        let before = process_cpu_us();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_us() >= before);
    }
}
