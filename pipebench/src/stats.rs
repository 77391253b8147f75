//! Measurement plumbing: the percentile rule, seeded Poisson schedules,
//! failure accounting, the RSS reader, the host fingerprint, and the
//! JSON the benchmark prints.

use biot_ingest::protocol::AckCode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Percentiles the tail report may pick from, highest first.
const TAIL_CANDIDATES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples a percentile needs beyond its rank before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Latency samples in milliseconds, each with the instant (ns) it was
/// due. A failed operation is recorded as `f64::INFINITY`: it misses
/// every latency limit.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<(u64, f64)>);

/// What one sample set reports: count, the two gated percentiles, and
/// the highest percentile the count supports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// The highest percentile in [`TAIL_CANDIDATES`] with at least
    /// [`MIN_BEYOND`] samples beyond it; 0 when none qualifies.
    pub tail_pct: f64,
    /// The value at `tail_pct`.
    pub tail: f64,
}

impl Samples {
    pub fn push(&mut self, at_ns: u64, v: f64) {
        self.0.push((at_ns, v));
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn summary(&self) -> Summary {
        let mut sorted: Vec<f64> = self.0.iter().map(|s| s.1).collect();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let (tail_pct, tail) = TAIL_CANDIDATES
            .iter()
            .find(|&&p| supports(n, p))
            .map_or((0.0, f64::NAN), |&p| (p, percentile(&sorted, p)));
        Summary {
            n,
            p50: percentile(&sorted, 50.0),
            p90: percentile(&sorted, 90.0),
            p99: percentile(&sorted, 99.0),
            tail_pct,
            tail,
        }
    }
}

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps exact ranks exact: 0.999 * 10_000 is 9990.000…02
    // in binary floating point.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= MIN_BEYOND
}

/// Nearest-rank percentile of ascending `sorted`; NaN when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Median of a small set (used for repeated set-ups); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arrival offsets (ns from the start of the window) of a Poisson
/// process of `rate_per_s` over `seconds`, conditioned on its expected
/// count: that many sorted uniform instants. Conditioning fixes the
/// offered load per run while keeping exponential-looking gaps, so the
/// arrivals cannot phase-lock with the mesh's periodic timers.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, seconds: f64) -> Vec<u64> {
    let count = (rate_per_s * seconds).round() as usize;
    let span_ns = seconds * 1e9;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at: Vec<u64> = (0..count)
        .map(|_| (rng.gen::<f64>() * span_ns) as u64)
        .collect();
    at.sort_unstable();
    at
}

/// Operation outcomes, counted the way `failed_frac` is defined: a
/// failure is a non-`Accepted` ack, a reading not visible by the drain
/// deadline, a non-200 answer, or a socket error.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Readings submitted plus queries sent.
    pub attempted: u64,
    /// Every failure below, summed.
    pub failed: u64,
    /// Acks with code `Busy`.
    pub busy: u64,
    /// Acks with code `RateLimited`.
    pub rate_limited: u64,
    /// Acks with any other refusal code.
    pub rejected: u64,
    /// Accepted readings absent from the archival tangle at the drain
    /// deadline.
    pub invisible: u64,
    /// HTTP answers other than 200.
    pub non_200: u64,
    /// Readings or queries lost to a socket error (never answered).
    pub socket_errors: u64,
}

impl Tally {
    /// One reading's ack. Returns whether it was accepted.
    pub fn ack(&mut self, code: AckCode) -> bool {
        self.attempted += 1;
        let slot = match code {
            AckCode::Accepted => return true,
            AckCode::Busy => &mut self.busy,
            AckCode::RateLimited => &mut self.rate_limited,
            _ => &mut self.rejected,
        };
        *slot += 1;
        self.failed += 1;
        false
    }

    /// One HTTP answer. Returns whether it was a 200.
    pub fn http(&mut self, status: u16) -> bool {
        self.attempted += 1;
        if status == 200 {
            return true;
        }
        self.non_200 += 1;
        self.failed += 1;
        false
    }

    /// `n` operations that were sent but never answered.
    pub fn lost(&mut self, n: u64) {
        self.attempted += n;
        self.socket_errors += n;
        self.failed += n;
    }

    /// An accepted reading that never became visible (already counted
    /// as attempted by its ack).
    pub fn invisible(&mut self) {
        self.invisible += 1;
        self.failed += 1;
    }

    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.busy += o.busy;
        self.rate_limited += o.rate_limited;
        self.rejected += o.rejected;
        self.invisible += o.invisible;
        self.non_200 += o.non_200;
        self.socket_errors += o.socket_errors;
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

/// `VmRSS` in kB from the text of `/proc/<pid>/status`.
pub fn parse_vmrss_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let mut words = line["VmRSS:".len()..].split_whitespace();
    let kb = words.next()?.parse().ok()?;
    (words.next() == Some("kB")).then_some(kb)
}

/// This process's resident set size in kB.
pub fn read_rss_kb() -> Option<u64> {
    parse_vmrss_kb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// On-CPU nanoseconds from `/proc/<pid>/task/<tid>/schedstat` text:
/// its first field.
pub fn parse_schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// On-CPU time of the calling thread in ns.
pub fn thread_cpu_ns() -> Option<u64> {
    parse_schedstat_ns(&std::fs::read_to_string("/proc/thread-self/schedstat").ok()?)
}

/// Where and on what a result was measured.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    pub nproc: usize,
    pub loadavg_1m: f64,
    pub git_rev: String,
    pub rustc: String,
}

impl Fingerprint {
    pub fn take() -> Self {
        let loadavg_1m = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next().and_then(|w| w.parse().ok()))
            .unwrap_or(f64::NAN);
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            loadavg_1m,
            // Only this directory's own repository counts: an exported
            // checkout has no revision, even inside another repository.
            git_rev: std::path::Path::new(".git")
                .exists()
                .then(|| command_line("git", &["rev-parse", "HEAD"]))
                .flatten()
                .unwrap_or_else(|| "none".into()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// First line of a command's stdout, when it runs and succeeds.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

/// A JSON number; non-finite values (a percentile over failed
/// operations) print as 1e12 so they read as far outside any bound.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e12".into()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Named metrics with units, in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    string(n),
                    num(*v),
                    string(u)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biot_ingest::protocol::{decode_server, encode_server, AckResult, ServerMsg};

    #[test]
    fn percentile_rule_reports_highest_supported_with_count() {
        // 100 samples: p90 leaves exactly 10 beyond it, p99 only 1.
        let mut s = Samples::default();
        for i in 1..=100 {
            s.push(i, i as f64);
        }
        let sum = s.summary();
        assert_eq!(sum.n, 100);
        assert_eq!(sum.p50, 50.0);
        assert_eq!(sum.p90, 90.0);
        assert_eq!(sum.tail_pct, 90.0);
        assert_eq!(sum.tail, 90.0);

        // 1000 samples support p99 (10 beyond) but not p99.9 (1 beyond).
        let mut s = Samples::default();
        for i in 1..=1000 {
            s.push(i, i as f64);
        }
        let sum = s.summary();
        assert_eq!((sum.tail_pct, sum.tail), (99.0, 990.0));
        assert_eq!(sum.n, 1000);

        // 10 000 samples reach p99.9.
        assert!(supports(10_000, 99.9));
        assert!(!supports(9_999, 99.9));
        // Too few for anything: no tail percentile at all.
        let mut s = Samples::default();
        s.push(0, 1.0);
        assert_eq!(s.summary().tail_pct, 0.0);
    }

    #[test]
    fn failed_operations_miss_every_latency_limit() {
        let mut s = Samples::default();
        for i in 0..95 {
            s.push(i, 1.0);
        }
        for i in 95..100 {
            s.push(i, f64::INFINITY);
        }
        let sum = s.summary();
        assert_eq!(sum.p90, 1.0);
        assert!(sum.p99.is_infinite());
        assert_eq!(num(sum.p99), "1e12");
    }

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        let a = poisson_schedule(7, 200.0, 5.0);
        let b = poisson_schedule(7, 200.0, 5.0);
        let c = poisson_schedule(8, 200.0, 5.0);
        assert_eq!(a, b, "same seed, same arrivals");
        assert_ne!(a, c, "another seed, other arrivals");
        assert_eq!(a.len(), 1000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "sorted");
        assert!(*a.last().unwrap() < 5_000_000_000);
        // Exponential gaps: mean 5 ms, and about e^-1 of the gaps exceed
        // the mean (uniform spacing would put none there).
        let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]) as f64 / 1e6).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 5.0).abs() < 0.5, "mean gap {mean}");
        let above = gaps.iter().filter(|&&g| g > mean).count() as f64 / gaps.len() as f64;
        assert!(
            (above - (-1f64).exp()).abs() < 0.05,
            "share above mean {above}"
        );
    }

    #[test]
    fn forced_busy_ack_and_non_200_land_in_failed_frac() {
        let mut t = Tally::default();
        // A Busy ack as it arrives off the wire.
        let frame = encode_server(&ServerMsg::Ack(vec![
            AckResult {
                code: AckCode::Accepted,
                id: Some(biot_tangle::tx::TxId([1; 32])),
            },
            AckResult {
                code: AckCode::Busy,
                id: None,
            },
        ]));
        let ServerMsg::Ack(results) = decode_server(&frame).unwrap();
        for r in &results {
            t.ack(r.code);
        }
        assert!(t.http(200));
        assert!(!t.http(503));
        assert_eq!(t.attempted, 4);
        assert_eq!(t.failed, 2);
        assert_eq!((t.busy, t.non_200), (1, 1));
        assert_eq!(t.failed_frac(), 0.5);
        t.lost(1);
        t.invisible();
        assert_eq!((t.attempted, t.failed), (5, 4));
    }

    #[test]
    fn rss_reader_parses_status_and_reads_self() {
        let status = "Name:\tpipebench\nVmPeak:\t  9000 kB\nVmRSS:\t   4321 kB\nThreads:\t1\n";
        assert_eq!(parse_vmrss_kb(status), Some(4321));
        assert_eq!(parse_vmrss_kb("VmRSS:\t12 MB\n"), None, "unit must be kB");
        assert_eq!(parse_vmrss_kb("Name:\tx\n"), None);
        let before = read_rss_kb().expect("linux exposes VmRSS");
        let block = vec![1u8; 32 << 20];
        let after = read_rss_kb().expect("linux exposes VmRSS");
        assert!(block.iter().all(|&b| b == 1));
        assert!(
            after >= before + (16 << 10),
            "touching 32 MiB grows RSS: {before} -> {after}"
        );
    }

    #[test]
    fn cpu_reader_parses_schedstat_and_counts_own_work() {
        assert_eq!(parse_schedstat_ns("657431 85753 1\n"), Some(657_431));
        assert_eq!(parse_schedstat_ns(""), None);
        let before = thread_cpu_ns().expect("linux exposes schedstat");
        let spin = std::time::Instant::now();
        let mut x = 0u64;
        while spin.elapsed() < std::time::Duration::from_millis(20) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let after = thread_cpu_ns().expect("linux exposes schedstat");
        assert!(
            after >= before + 5_000_000,
            "20 ms of spinning is on-CPU time: {before} -> {after}"
        );
    }

    #[test]
    fn json_escapes_and_orders_metrics() {
        let mut m = Metrics::default();
        m.put("a", 1.5, "ms");
        m.put("b\"", f64::NAN, "s");
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\\\"\": {\"value\": 1e12, \"unit\": \"s\"}}"
        );
    }
}
