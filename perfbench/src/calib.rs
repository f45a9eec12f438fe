//! Machine-speed calibration.
//!
//! On a shared virtual machine the same work can take 20% longer from one
//! few-second window to the next, and the drift persists for minutes. CPU
//! time drifts as much as wall time. A pure arithmetic loop does not follow
//! the drift, but an allocation- and tree-heavy loop like the simulator's
//! does. So the benchmark runs a fixed kernel of that kind right before and
//! after each iteration, and between the phases of long ones. It then
//! rescales the iteration's timings to the speed at which one kernel pass
//! takes [`REFERENCE_S`]: `seconds × REFERENCE_S / median(kernel seconds)`.
//!
//! The kernel uses only the standard library, never the simulator, so a
//! change to the program cannot speed up its own yardstick.

use std::collections::BTreeMap;
use std::time::Instant;

/// Seconds one kernel pass takes at the reference speed: the median over
/// quiet periods on the 2-vCPU machine the bounds were set on.
pub const REFERENCE_S: f64 = 0.0035;

/// One pass of the kernel on this thread: ordered-map inserts into a few
/// thousand keys, small vector growth and string formatting. Returns its
/// seconds. It runs on the benchmark's main thread only: a kernel run on
/// two threads at once measures where the scheduler put them as much as
/// the machine's speed.
pub fn kernel() -> f64 {
    let started = Instant::now();
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..20_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.entry(x % 4096).or_default().push(i);
        if i % 3 == 0 {
            let s = format!("{x:x}-{i}");
            x = x.wrapping_add(s.len() as u64);
        }
    }
    std::hint::black_box(&map);
    started.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_takes_time() {
        assert!(kernel() > 0.0);
    }
}
