//! Benchmark of the malsim workspace: four workloads measured end to end
//! with every probe off, and layer by layer in a separate traced pass whose
//! timers sit around the calls into each layer's public functions. See
//! README.md for why each workload exists, which layers it bypasses, and
//! how the metrics map to the older `bench_sweep` rows.

pub mod aramco;
pub mod calib;
pub mod jobs;
pub mod natanz;
pub mod probe;
pub mod storage;
pub mod takedown;

use std::path::Path;
use std::time::{Duration, Instant};

use probe::{median, quantile, Iteration, Probe, Verdict, DISPATCH_CATEGORIES};

/// One benchmark workload: inputs generated from the seed, run as repeated
/// iterations. Iteration `i` runs the same inputs as iteration
/// `i % period()`, so a run averages over a few seeds' inputs.
pub trait Workload {
    /// Iterations before the inputs repeat.
    fn period(&self) -> usize {
        1
    }
    /// Performs only the set-up of iteration `index` and returns its seconds.
    fn setup_only(&mut self, index: usize) -> f64;
    /// Runs iteration `index`, checking its outputs into `verdict`.
    fn iterate(&mut self, index: usize, probe: Probe, verdict: &mut Verdict) -> Iteration;
    /// The fewest traced iterations whose pooled samples support every
    /// per-layer percentile this workload reports.
    fn min_traced_iterations(&self) -> usize {
        1
    }
    /// The most iterations one pass runs, whatever time is left. A workload
    /// whose iteration outlasts a run caps this at 1, so that every run
    /// measures the same cold-start iteration.
    fn max_iterations(&self) -> usize {
        usize::MAX
    }
}

/// The workload names, in the order BENCHMARK.json lists them.
pub const WORKLOADS: [&str; 4] = ["aramco", "takedown", "jobs", "natanz_trace"];

/// Builds the named workload for `seed`; `work_dir` holds any files it
/// writes.
pub fn workload(name: &str, seed: u64, work_dir: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "aramco" => Box::new(aramco::Aramco::new(seed)),
        "takedown" => Box::new(takedown::Takedown::new(seed)),
        "jobs" => Box::new(
            jobs::Jobs::new(seed, work_dir)
                .map_err(|e| format!("cannot create {}: {e}", work_dir.display()))?,
        ),
        "natanz_trace" => Box::new(natanz::Natanz::new(seed)),
        other => return Err(format!("unknown workload {other:?}; expected one of {WORKLOADS:?}")),
    })
}

/// Set-up is measured at least this many times per run.
pub const MIN_SETUP_SAMPLES: usize = 5;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in BENCHMARK.json.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How the value was formed (sample count, quantiles), for people.
    pub note: String,
}

/// Everything one benchmark run reports.
#[derive(Debug)]
pub struct Report {
    /// Output checks: operations attempted and failed.
    pub verdict: Verdict,
    /// The metrics: end-to-end without `trace`, per-layer with it.
    pub metrics: Vec<Metric>,
}

/// The iterations of one pass, rescaled to the reference speed, and their
/// raw `wall_s`.
struct Pass {
    iters: Vec<Iteration>,
    raw_walls: Vec<f64>,
}

/// Runs iterations until `budget` has passed and at least `min` ran, with a
/// calibration sample between each two.
fn iterate_for(
    w: &mut dyn Workload,
    armed: bool,
    budget: Duration,
    min: usize,
    verdict: &mut Verdict,
) -> Pass {
    let started = Instant::now();
    let mut pass = Pass { iters: Vec::new(), raw_walls: Vec::new() };
    let mut before = calib::kernel();
    while pass.iters.len() < min || (started.elapsed() < budget && pass.iters.len() < w.max_iterations()) {
        let mut it = w.iterate(pass.iters.len(), Probe::new(armed), verdict);
        let after = calib::kernel();
        pass.raw_walls.push(it.normalize(before, after));
        pass.iters.push(it);
        before = after;
    }
    pass
}

/// One set-up-only sample of iteration `index`'s inputs, rescaled like an
/// iteration.
fn setup_sample(w: &mut dyn Workload, index: usize) -> f64 {
    let before = calib::kernel();
    let setup_s = w.setup_only(index);
    let after = calib::kernel();
    setup_s * calib::REFERENCE_S / median(&[before, after])
}

/// Checks that every iteration repeated the deterministic counts of the
/// first iteration with the same inputs exactly, one operation per
/// iteration.
fn check_counts(label: &str, iters: &[Iteration], period: usize, verdict: &mut Verdict) {
    for (i, it) in iters.iter().enumerate().skip(period) {
        let first = &iters[i % period];
        verdict.op(|c| {
            c.that(it.probe.counts() == first.probe.counts(), || {
                format!("{label} iteration {i}: counts {:?} != {:?}", it.probe.counts(), first.probe.counts())
            })
        });
    }
}

/// Runs `w` for `seconds` and reports its end-to-end metrics, or, with
/// `trace`, an untraced pass for half the time, then as many traced
/// iterations, and the per-layer metrics.
pub fn run(w: &mut dyn Workload, seconds: u64, trace: bool) -> Report {
    let mut verdict = Verdict::default();
    let budget = Duration::from_secs(if trace { seconds / 2 } else { seconds });
    let plain = iterate_for(w, false, budget, 1, &mut verdict);
    check_counts("untraced", &plain.iters, w.period(), &mut verdict);
    if !trace {
        let mut setups: Vec<f64> = plain.iters.iter().map(|it| it.setup_s).collect();
        while setups.len() < MIN_SETUP_SAMPLES {
            setups.push(setup_sample(w, setups.len()));
        }
        let metrics = end_to_end(&plain, &setups, w.period());
        return Report { verdict, metrics };
    }
    let min = plain.iters.len().max(w.min_traced_iterations());
    let traced = iterate_for(w, true, Duration::ZERO, min, &mut verdict);
    check_counts("traced", &traced.iters, w.period(), &mut verdict);
    // The counts both passes keep must agree: the probe observes, it never
    // changes what the program does.
    let (a, b) = (plain.iters[0].probe.counts(), traced.iters[0].probe.counts());
    verdict.op(|c| {
        for (name, n) in a {
            c.that(b.get(name).is_none_or(|m| m == n), || {
                format!("count {name}: untraced {n} != traced {:?}", b.get(name))
            });
        }
    });
    let metrics = per_layer(&plain, &traced, w.period());
    Report { verdict, metrics }
}

fn walls(iters: &[Iteration]) -> Vec<f64> {
    iters.iter().map(|it| it.wall_s).collect()
}

/// The run's figure for per-iteration `values`, where `values[i]` ran the
/// inputs of iteration `i % period`: the median over each input's
/// iterations, averaged over the inputs. Every seed of the cycle then weighs
/// the same, whichever of them the noise pushes to the middle.
fn summarize(values: &[f64], period: usize) -> f64 {
    let per_input: Vec<f64> = (0..period.min(values.len()))
        .map(|k| median(&values.iter().skip(k).step_by(period).copied().collect::<Vec<f64>>()))
        .collect();
    per_input.iter().sum::<f64>() / per_input.len() as f64
}

fn note(values: &[f64], period: usize) -> String {
    let inputs = period.min(values.len());
    format!(
        "{} iterations over {inputs} input(s) (q1 {:.6}, q3 {:.6})",
        values.len(),
        quantile(values, 0.25),
        quantile(values, 0.75)
    )
}

fn metric(name: &str, unit: &'static str, values: &[f64], period: usize) -> Metric {
    Metric { name: name.to_owned(), value: summarize(values, period), unit, note: note(values, period) }
}

/// The end-to-end metrics of an untraced pass.
fn end_to_end(pass: &Pass, setups: &[f64], period: usize) -> Vec<Metric> {
    let iters = &pass.iters;
    let per = |f: &dyn Fn(&Iteration) -> f64| iters.iter().map(f).collect::<Vec<f64>>();
    let mut wall = metric("wall_s", "s", &walls(iters), period);
    wall.note = format!("{}; raw {:.6} s", wall.note, summarize(&pass.raw_walls, period));
    vec![
        metric("setup_s", "s", setups, period),
        wall,
        metric("events_per_s", "1/s", &per(&|it| it.events() as f64 / it.run_s), period),
        metric("points_per_s", "1/s", &per(&|it| it.points as f64 / (it.wall_s - it.resume_s)), period),
        Metric {
            name: "peak_rss_mb".into(),
            value: peak_rss_mb(),
            unit: "MiB",
            note: "process high-water mark (VmHWM)".into(),
        },
    ]
}

/// The process's resident-set high-water mark in MiB (0 where the kernel
/// does not report it).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Where a per-layer metric's value comes from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// A summed timer: its per-iteration sums, summarised like the
    /// end-to-end metrics.
    Sum,
    /// A quantile of per-call samples pooled over the traced iterations.
    Quantile(&'static str, f64),
    /// A deterministic count per iteration.
    Count,
    /// One count per another, per iteration.
    Ratio(&'static str, &'static str),
    /// Seconds resuming from the journal.
    ResumeS,
    /// Traced wall seconds minus untraced wall seconds.
    OverheadS,
}

/// The per-layer metrics (besides the per-category dispatch counts), with
/// their units, in report order. Percentiles are the highest with at least
/// ten samples beyond them in one traced iteration (`jobs` pools ten).
const PER_LAYER: &[(&str, &str, Source)] = &[
    ("kernel.events", "count", Source::Count),
    ("kernel.handler_ms", "ms", Source::Sum),
    ("kernel.self_ms", "ms", Source::Sum),
    ("kernel.dispatches", "count", Source::Count),
    ("kernel.queue_depth_max", "count", Source::Count),
    ("kernel.calq_resizes", "count", Source::Count),
    ("scenario.build_ms", "ms", Source::Sum),
    ("armory.arm_ms", "ms", Source::Sum),
    ("shamoon.spread_ms", "ms", Source::Sum),
    ("shamoon.wipe_ms", "ms", Source::Sum),
    ("shamoon.infections", "count", Source::Count),
    ("shamoon.bricked", "count", Source::Count),
    ("shamoon.reports", "count", Source::Count),
    ("os.corpus_ms", "ms", Source::Sum),
    ("flame.infect_ms", "ms", Source::Sum),
    ("flame.first_beacon_ms", "ms", Source::Sum),
    ("defense.seize_ms", "ms", Source::Sum),
    ("flame.run_ms", "ms", Source::Sum),
    ("flame.modules_us.p50", "us", Source::Quantile("flame.modules_us", 0.5)),
    ("flame.modules_us.p90", "us", Source::Quantile("flame.modules_us", 0.9)),
    ("flame.bytes_uploaded", "bytes", Source::Count),
    ("script.vm_run_us.p50", "us", Source::Quantile("script.vm_run_us", 0.5)),
    ("script.vm_run_us.p98", "us", Source::Quantile("script.vm_run_us", 0.98)),
    ("script.vm_runs", "count", Source::Count),
    ("script.fuel_per_run", "count", Source::Ratio("script.fuel", "script.vm_runs")),
    ("script.compile_us.p50", "us", Source::Quantile("script.compile_us", 0.5)),
    ("script.run_us.p50", "us", Source::Quantile("script.run_us", 0.5)),
    ("jobs.admit_us.p50", "us", Source::Quantile("jobs.admit_us", 0.5)),
    ("jobs.point_busy_ms", "ms", Source::Sum),
    ("jobs.queue_self_ms", "ms", Source::Sum),
    ("jobs.points_evaluated", "count", Source::Count),
    ("jobs.cache_hits", "count", Source::Count),
    ("jobs.cache_base", "count", Source::Count),
    ("jobs.cache_hit_ratio", "ratio", Source::Ratio("jobs.cache_hits", "jobs.cache_base")),
    ("jobs.resume_s", "s", Source::ResumeS),
    ("jobs.resume_load_ms", "ms", Source::Sum),
    ("journal.appends", "count", Source::Count),
    ("journal.lines", "count", Source::Count),
    ("journal.bytes", "bytes", Source::Count),
    ("journal.fsyncs", "count", Source::Count),
    ("journal.fsync_ms", "ms", Source::Sum),
    ("journal.fsync_ms.p50", "ms", Source::Quantile("journal.fsync_ms", 0.5)),
    ("journal.fsync_ms.p99", "ms", Source::Quantile("journal.fsync_ms", 0.99)),
    ("journal.read_ms", "ms", Source::Sum),
    ("report.render_ms", "ms", Source::Sum),
    ("sim.run_ms", "ms", Source::Sum),
    ("export.chrome_ms", "ms", Source::Sum),
    ("export.jsonl_ms", "ms", Source::Sum),
    ("report.canonical_ms", "ms", Source::Sum),
    ("export.validate_ms", "ms", Source::Sum),
    ("trace.events", "count", Source::Count),
    ("trace.spans", "count", Source::Count),
    ("export.bytes", "bytes", Source::Count),
    ("trace.overhead_s", "s", Source::OverheadS),
];

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(name, unit, _)| (name.to_owned(), unit)).collect();
    let at = names.iter().position(|(n, _)| n == "kernel.dispatches").expect("listed") + 1;
    for (i, cat) in DISPATCH_CATEGORIES.iter().enumerate() {
        names.insert(at + i, (format!("kernel.dispatches.{cat}"), "count"));
    }
    names
}

/// The per-layer metrics of a traced pass; layers the workload never calls
/// read 0.
fn per_layer(plain: &Pass, traced: &Pass, period: usize) -> Vec<Metric> {
    let (plain, traced) = (&plain.iters, &traced.iters);
    let first = &traced[0].probe;
    let pooled =
        |name: &str| traced.iter().flat_map(|it| it.probe.samples(name).iter().copied()).collect::<Vec<_>>();
    let zero_if_nan = |v: f64| if v.is_nan() { 0.0 } else { v };
    per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let source = PER_LAYER.iter().find(|(n, ..)| *n == name).map(|&(_, _, s)| s);
            let (value, note) = match source {
                Some(Source::Sum) => {
                    let v: Vec<f64> = traced.iter().map(|it| it.probe.sum(&name)).collect();
                    (summarize(&v, period), note(&v, period))
                }
                Some(Source::Quantile(key, q)) => {
                    let v = pooled(key);
                    (zero_if_nan(quantile(&v, q)), format!("of {} calls", v.len()))
                }
                Some(Source::Ratio(num, den)) => {
                    let (n, d) = (first.get(num), first.get(den));
                    (if d == 0 { 0.0 } else { n as f64 / d as f64 }, format!("{n} / {d}"))
                }
                Some(Source::ResumeS) => {
                    let v: Vec<f64> = traced.iter().map(|it| it.resume_s).collect();
                    (summarize(&v, period), note(&v, period))
                }
                Some(Source::OverheadS) => {
                    let (t, p) = (summarize(&walls(traced), period), summarize(&walls(plain), period));
                    (t - p, format!("traced wall {t:.6} s - untraced wall {p:.6} s"))
                }
                Some(Source::Count) | None => (first.get(&name) as f64, "per iteration".into()),
            };
            Metric { name, value, unit, note }
        })
        .collect()
}
