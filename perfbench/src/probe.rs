//! Measurement plumbing shared by the workloads: the per-layer [`Probe`],
//! the per-operation output checks ([`Verdict`]), and summary statistics.

use std::collections::BTreeMap;
use std::time::Instant;

use malsim_kernel::sched::Sim;

use crate::calib;

/// The categories the kernel profiler attributes dispatches to: every trace
/// category plus `untraced` for events that recorded nothing. Fixed, so every
/// traced run reports the same `kernel.dispatches.<category>` names.
pub const DISPATCH_CATEGORIES: [&str; 11] = [
    "untraced",
    "os",
    "net",
    "infection",
    "c2",
    "exfil",
    "scada",
    "destruction",
    "defense",
    "suicide",
    "scenario",
];

/// Per-layer timers and deterministic counters for one iteration.
///
/// Counters are always kept: they are plain additions and must repeat
/// exactly across iterations. Timers only run when the probe is armed (the
/// traced pass); disarmed, [`Probe::time`] and [`Probe::sample`] call their
/// closure and read no clock, so the end-to-end pass measures the program
/// alone.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    armed: bool,
    /// Summed milliseconds per layer metric.
    sums: BTreeMap<&'static str, f64>,
    /// Per-call samples (microseconds or milliseconds, as the name says).
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Deterministic counts.
    counts: BTreeMap<String, u64>,
    /// Calibration samples taken between the iteration's timed phases.
    cal: Vec<f64>,
}

impl Probe {
    /// A probe whose timers run only if `armed`.
    pub fn new(armed: bool) -> Probe {
        Probe { armed, ..Probe::default() }
    }

    /// Whether the timers run.
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// Runs `f`, adding its duration in milliseconds to `name` when armed.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.armed {
            return f();
        }
        let started = Instant::now();
        let out = f();
        self.add_ms(name, started.elapsed().as_secs_f64() * 1e3);
        out
    }

    /// Runs `f`, recording its duration in microseconds as one sample of
    /// `name` when armed.
    pub fn sample<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.armed {
            return f();
        }
        let started = Instant::now();
        let out = f();
        self.add_sample(name, started.elapsed().as_secs_f64() * 1e6);
        out
    }

    /// Adds an externally measured duration to `name` (armed only).
    pub fn add_ms(&mut self, name: &'static str, ms: f64) {
        if self.armed {
            *self.sums.entry(name).or_default() += ms;
        }
    }

    /// Records one externally measured sample of `name` (armed only).
    pub fn add_sample(&mut self, name: &'static str, value: f64) {
        if self.armed {
            self.samples.entry(name).or_default().push(value);
        }
    }

    /// Adds `n` to the deterministic count `name`.
    pub fn count(&mut self, name: impl Into<String>, n: u64) {
        *self.counts.entry(name.into()).or_default() += n;
    }

    /// Raises the deterministic count `name` to at least `n`.
    pub fn count_max(&mut self, name: impl Into<String>, n: u64) {
        let slot = self.counts.entry(name.into()).or_default();
        *slot = (*slot).max(n);
    }

    /// Folds another probe of the same iteration (e.g. one worker's) in.
    pub fn merge(&mut self, other: Probe) {
        for (name, ms) in other.sums {
            *self.sums.entry(name).or_default() += ms;
        }
        for (name, mut values) in other.samples {
            self.samples.entry(name).or_default().append(&mut values);
        }
        for (name, n) in other.counts {
            if name == "kernel.queue_depth_max" {
                self.count_max(name, n);
            } else {
                self.count(name, n);
            }
        }
    }

    /// Arms the kernel's dispatch profiler on `sim` when the probe is armed.
    /// Call right before the run phase.
    pub fn start_kernel<W>(&self, sim: &mut Sim<W>) {
        if self.armed {
            sim.enable_profiling();
        }
    }

    /// Collects the kernel layer after a run phase of `run_ms`: event and
    /// calendar-queue resize counts always; handler time, kernel self time
    /// (run time minus handler time), dispatches per category and the
    /// queue-depth high-water mark when armed.
    pub fn finish_kernel<W>(&mut self, sim: &mut Sim<W>, run_ms: f64) {
        self.count("kernel.events", sim.executed());
        self.count("kernel.calq_resizes", sim.queue_stats().resizes);
        let Some(profile) = sim.finish_profile() else { return };
        self.add_ms("kernel.handler_ms", profile.total_host_ms);
        self.add_ms("kernel.self_ms", run_ms - profile.total_host_ms);
        self.count("kernel.dispatches", profile.total_events);
        for row in &profile.rows {
            let category = row.category.trim_matches(|c| c == '(' || c == ')');
            self.count(format!("kernel.dispatches.{category}"), row.events);
        }
        self.count_max("kernel.queue_depth_max", profile.queue_max as u64);
    }

    /// Takes a single-threaded calibration sample between two timed phases
    /// (see [`crate::calib`]). Call it outside every timed interval.
    pub fn calibrate(&mut self) {
        self.cal.push(calib::kernel());
    }

    /// Rescales every timer and sample by `factor` (counts stay as they
    /// are).
    fn scale(&mut self, factor: f64) {
        self.sums.values_mut().for_each(|v| *v *= factor);
        self.samples.values_mut().flatten().for_each(|v| *v *= factor);
    }

    /// Summed milliseconds of `name` (0 when never timed).
    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// The samples of `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// The deterministic count `name` (0 when never counted).
    pub fn get(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// All deterministic counts.
    pub fn counts(&self) -> &BTreeMap<String, u64> {
        &self.counts
    }
}

/// What one iteration of a workload measured.
#[derive(Debug, Clone)]
pub struct Iteration {
    /// Seconds spent building worlds or queues before the first event or
    /// point.
    pub setup_s: f64,
    /// Seconds of the whole iteration including set-up (output checks and
    /// post-result layer probes excluded).
    pub wall_s: f64,
    /// Seconds of the run phase (for events per second).
    pub run_s: f64,
    /// Seconds of the tail of `wall_s` spent resuming from a finished
    /// journal (`jobs` only; 0 elsewhere).
    pub resume_s: f64,
    /// Grid points or simulations completed.
    pub points: u64,
    /// Per-layer timers and deterministic counts.
    pub probe: Probe,
}

impl Iteration {
    /// Rescales every timing of the iteration to the reference speed, from
    /// the calibration samples taken `before` and `after` it and between its
    /// phases. Returns the iteration's raw `wall_s`.
    pub fn normalize(&mut self, before: f64, after: f64) -> f64 {
        let mut cal = std::mem::take(&mut self.probe.cal);
        cal.extend([before, after]);
        let factor = calib::REFERENCE_S / median(&cal);
        let raw_wall_s = self.wall_s;
        for t in [&mut self.setup_s, &mut self.wall_s, &mut self.run_s, &mut self.resume_s] {
            *t *= factor;
        }
        self.probe.scale(factor);
        raw_wall_s
    }

    /// Kernel events dispatched in the run phase.
    pub fn events(&self) -> u64 {
        self.probe.get("kernel.events")
    }
}

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations with at least one failed check.
    pub failed: u64,
    /// Failure reasons, capped at [`Verdict::MAX_PROBLEMS`].
    pub problems: Vec<String>,
}

impl Verdict {
    /// How many failure reasons are kept for the report.
    pub const MAX_PROBLEMS: usize = 20;

    /// Records one operation; `checks` flags each failed check on it.
    pub fn op(&mut self, checks: impl FnOnce(&mut Checks)) {
        let mut c = Checks(Vec::new());
        checks(&mut c);
        self.attempted += 1;
        if !c.0.is_empty() {
            self.failed += 1;
            let room = Self::MAX_PROBLEMS.saturating_sub(self.problems.len());
            self.problems.extend(c.0.into_iter().take(room));
        }
    }
}

/// The checks on one operation.
#[derive(Debug)]
pub struct Checks(Vec<String>);

impl Checks {
    /// Flags a failure described by `what` unless `ok`.
    pub fn that(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of `values` by linear interpolation between closest
/// ranks (NaN when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn disarmed_probe_counts_but_does_not_time() {
        let mut p = Probe::new(false);
        assert_eq!(p.time("a", || 7), 7);
        p.count("n", 2);
        p.count("n", 3);
        assert_eq!(p.sum("a"), 0.0);
        assert_eq!(p.get("n"), 5);
    }

    #[test]
    fn verdict_counts_failed_operations_once() {
        let mut v = Verdict::default();
        v.op(|c| c.that(true, || "fine".into()));
        v.op(|c| {
            c.that(false, || "first".into());
            c.that(false, || "second".into());
        });
        assert_eq!((v.attempted, v.failed), (2, 1));
        assert_eq!(v.problems, ["first", "second"]);
    }
}
