//! The host-speed probe and the host-normalized figures built on it.
//!
//! On the shared virtual machine this benchmark was written on, the
//! speed of branchy, allocating code moves by up to 2× within seconds as
//! the neighbours on the physical core come and go, while a tight
//! arithmetic loop moves by about 15% (NOTES.md, "Host speed"). The
//! roles' per-reading cost moves with the former, so a saturated
//! throughput measured on one run is as much a reading of the host as
//! of the program. A fixed kernel that allocates and hashes as the roles
//! do, timed between turns on the event-loop thread, tracks that speed:
//! over fan bursts its time and the loop's on-CPU cost per reading moved
//! together, and scaling one by the other cut the run-to-run spread of
//! the burst throughput from 0.11–0.33 to 0.03–0.04 (IQR ÷ median).
//!
//! The kernel uses only `std`, so no change to the repository's crates
//! can change what it measures.

use crate::stats::median;
use std::collections::HashMap;
use std::time::Instant;

/// Operations per kernel call: about 2.5 ms on the reference host.
const KERNEL_OPS: u64 = 20_000;
/// Kernel time on the reference host, ns: the middle of what it took on
/// the 2-vCPU Xeon host of NOTES.md (1.9–4.2 ms). The host-normalized
/// figures are the measured ones with the event-loop thread's on-CPU
/// time rescaled to a host on which the kernel takes this long.
pub const REF_KERNEL_NS: f64 = 2_500_000.0;
/// Least time between two probes of a run, ns.
const PROBE_EVERY_NS: u64 = 100_000_000;

/// The reference work: keyed inserts into a fresh `HashMap` of
/// 64-byte buffers, each touched and summed. Its cost is the
/// allocator, SipHash, and branchy short loops, like the roles' own.
pub fn kernel(ops: u64) -> u64 {
    let mut map: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut x = 7u64;
    let mut acc = 0u64;
    for i in 0..ops {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let buf = map.entry(x >> 50).or_insert_with(|| vec![0u8; 64]);
        buf[(i % 64) as usize] ^= x as u8;
        acc = acc.wrapping_add(buf.iter().map(|&b| b as u64).sum::<u64>());
    }
    acc
}

/// Wall time of one kernel call, ns.
pub fn time_kernel() -> u64 {
    let t = Instant::now();
    std::hint::black_box(kernel(std::hint::black_box(KERNEL_OPS)));
    t.elapsed().as_nanos() as u64
}

/// `REF_KERNEL_NS` ÷ the median of `samples` (kernel times, ns): below 1
/// when this host ran slower than the reference host, above 1 when it
/// ran faster. 1 without samples.
pub fn factor_of(samples: &[u64]) -> f64 {
    let m = median(&samples.iter().map(|&s| s as f64).collect::<Vec<_>>());
    if m.is_finite() && m > 0.0 {
        REF_KERNEL_NS / m
    } else {
        1.0
    }
}

/// Kernel samples taken between turns of one run.
#[derive(Clone, Debug, Default)]
pub struct Probe {
    enabled: bool,
    next_ns: u64,
    /// Each call's wall time, ns.
    pub samples: Vec<u64>,
    /// Wall time spent in the kernel so far, ns: taken out of the loop
    /// thread's on-CPU time per reading. The admitted windows keep it,
    /// as a pause of the loop that lasts about the same on every host
    /// once normalized.
    pub spent_ns: u64,
}

impl Probe {
    /// A probe that samples only when `enabled` (the traced runs, whose
    /// latencies are reported, are not paused for it).
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            ..Self::default()
        }
    }

    /// Times one kernel call when one is due at `now_ns`.
    pub fn tick(&mut self, now_ns: u64) {
        if !self.enabled || now_ns < self.next_ns {
            return;
        }
        let took = time_kernel();
        self.samples.push(took);
        self.spent_ns += took;
        self.next_ns = now_ns + took + PROBE_EVERY_NS;
    }

    /// [`factor_of`] the run's samples.
    pub fn factor(&self) -> f64 {
        factor_of(&self.samples)
    }
}

/// The part of `factor` that applies to a loop on CPU for `busy_frac` of
/// its window: all of it for a saturated loop, little for a loop that
/// mostly waits. The kernel is timed as a continuous stretch of work and
/// tracks a saturated loop; the on-CPU cost of a loop that wakes for one
/// reading at a time did not follow it (NOTES.md, "Host speed"), so
/// scaling that by the full factor would add the kernel's noise.
pub fn damped_factor(factor: f64, busy_frac: f64) -> f64 {
    1.0 + busy_frac.clamp(0.0, 1.0) * (factor - 1.0)
}

/// A window of `window_ns` of which the event-loop thread was on CPU for
/// `busy_ns`, as it would have lasted on the reference host: the on-CPU
/// part scaled by `factor`, the rest (waiting for input, for the peer,
/// for I/O) kept as measured.
pub fn host_normalized_ns(window_ns: u64, busy_ns: u64, factor: f64) -> f64 {
    let busy = busy_ns.min(window_ns) as f64;
    (window_ns as f64 - busy) + busy * factor
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_fixed_work() {
        assert_eq!(kernel(1_000), kernel(1_000));
        assert_ne!(kernel(1_000), kernel(1_001));
    }

    #[test]
    fn probe_samples_only_when_enabled_and_due() {
        let mut off = Probe::new(false);
        off.tick(0);
        assert!(off.samples.is_empty());
        assert_eq!(off.factor(), 1.0);

        let mut p = Probe::new(true);
        p.tick(0);
        p.tick(1); // not due yet
        assert_eq!(p.samples.len(), 1);
        assert_eq!(p.spent_ns, p.samples[0]);
        p.tick(p.samples[0] + PROBE_EVERY_NS);
        assert_eq!(p.samples.len(), 2);
    }

    #[test]
    fn slow_host_shrinks_the_busy_part_only() {
        let mut p = Probe::new(true);
        // A host on which the kernel takes twice the reference time.
        p.samples = vec![2 * REF_KERNEL_NS as u64; 3];
        assert_eq!(p.factor(), 0.5);
        // 10 s window, 6 s of it on CPU: 4 s waiting + 6 s × 0.5.
        let w = host_normalized_ns(10_000_000_000, 6_000_000_000, p.factor());
        assert_eq!(w, 7_000_000_000.0);
        // Busy time beyond the window is clamped to it.
        assert_eq!(host_normalized_ns(100, 150, 0.5), 50.0);
    }

    #[test]
    fn factor_applies_in_proportion_to_how_busy_the_loop_was() {
        assert_eq!(damped_factor(0.5, 1.0), 0.5);
        assert_eq!(damped_factor(0.5, 0.0), 1.0);
        assert_eq!(damped_factor(1.5, 0.2), 1.1);
        assert_eq!(damped_factor(0.5, 3.0), 0.5, "clamped to a saturated loop");
    }
}
