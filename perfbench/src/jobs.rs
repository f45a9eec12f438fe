//! `jobs`: a three-tenant [`JobQueue`] with two workers and an fsynced
//! journal on local disk. Each iteration runs the queue fresh (the write
//! path), then resumes it from the finished journal (the read path), which
//! must reproduce every report byte for byte without evaluating a point.
//! Iterations cycle through four consecutive seeds from the benchmark seed.
//!
//! * `atlas` (Normal) sweeps 48 small E2 office-LAN points;
//! * `bolt` (Low) resubmits half of atlas's grid plus 8 points of its own,
//!   so the content-addressed cache serves 24 of its points;
//! * `crow` (High) runs 24 benign scenario scripts, each compiled and run
//!   per point.
//!
//! The points are kept small so that the queue, journal and report layers
//! carry a large share of the time. Shamoon, Flame and the exporters are
//! never called.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use malsim::armory::Pki;
use malsim::chaosfs::StorageBackend;
use malsim::checkpoint::PointStatus;
use malsim::experiments::E2Row;
use malsim::jobs::{
    JobBudget, JobPoint, JobQueue, JobSpec, JobStatus, Priority, QueueConfig, QueueRun, SeedPolicy,
};
use malsim::report::Json;
use malsim::scenario::ScenarioBuilder;
use malsim::script_api::ScriptScenario;
use malsim::sweep::{PointRun, PoolConfig, ScriptFaultInfo, Truncation};
use malsim_kernel::sched::Watchdog;
use malsim_kernel::time::SimDuration;
use malsim_malware::stuxnet;
use malsim_os::patches::Bulletin;

use crate::probe::{Iteration, Probe, Verdict};
use crate::storage::TimingFs;
use crate::Workload;

/// Worker threads of the queue (the machine's core count).
pub const WORKERS: usize = 2;
/// E2 patch rates, one axis of atlas's grid.
const PATCH_RATES: [f64; 8] = [0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875];
/// E2 LAN sizes, the other axis.
const LAN_SIZES: [usize; 6] = [6, 8, 10, 12, 14, 16];
/// Simulated days per E2 point.
const DAYS: u64 = 3;
/// Points of atlas's grid that bolt resubmits.
pub const SHARED_POINTS: usize = 24;
/// Scenario scripts crow runs.
const SCRIPTS: u64 = 24;

/// One E2 point, as the body of `e2_zero_day_ablation_t` runs it, under the
/// job's watchdog.
pub fn e2_point(
    seed: u64,
    rate: f64,
    n: usize,
    days: u64,
    watchdog: Watchdog,
    probe: &mut Probe,
) -> (E2Row, Option<Truncation>) {
    let (mut world, mut sim) = ScenarioBuilder::new(seed).patch_rate(rate).without_trace().office_lan(n);
    let pki = Pki::install(&mut world);
    pki.arm_stuxnet(&mut world);
    let seed_host =
        world.hosts.iter().find(|(_, h)| h.is_vulnerable_to(Bulletin::Ms10_046)).map(|(id, _)| id);
    let mut truncation = None;
    if let Some(h) = seed_host {
        stuxnet::infection::infect_host(&mut world, &mut sim, h, "usb-lnk");
        probe.start_kernel(&mut sim);
        let started = Instant::now();
        let until = sim.now() + SimDuration::from_days(days);
        let watched = sim.run_until_watched(&mut world, until, watchdog);
        probe.finish_kernel(&mut sim, started.elapsed().as_secs_f64() * 1e3);
        truncation = Truncation::from_stop(watched.reason);
    }
    let row = E2Row {
        patch_rate: rate,
        infected_fraction: world.campaigns.stuxnet.infections.len() as f64 / n as f64,
    };
    (row, truncation)
}

/// One scenario-script point: compile, then run against a fresh 3-host LAN,
/// as `script_api::run_source` does, with each step timed.
pub fn script_point(seed: u64, src: &str, probe: &mut Probe) -> Result<Json, ScriptFaultInfo> {
    let scenario = probe.sample("script.compile_us", || ScriptScenario::compile(src)).map_err(|e| {
        ScriptFaultInfo { script_id: "unnamed.flua".into(), error: e.to_string(), fuel_used: 0 }
    })?;
    let (mut world, mut sim) = ScenarioBuilder::new(seed).office_lan(3);
    let report = probe.sample("script.run_us", || scenario.run(&mut world, &mut sim))?;
    probe.count("script.vm_runs", 1);
    probe.count("script.fuel", report.fuel_used);
    Ok(report.row())
}

/// A short benign script whose loop length varies with `k`.
pub fn script_source(k: u64) -> String {
    format!(
        "#! name: tally-{k}\n#! grant: fs_scan\nlet total = 0\nfor i in range({n}) do\n    total = total + i\nend\n\
         return total + len(scan_files(\".dll\")) + host_count()",
        n = 40 + (k * 37) % 160
    )
}

/// The three tenants' submissions, generated from `seed`.
pub fn specs(seed: u64) -> Vec<JobSpec> {
    let e2 = |rate: f64, n: usize| {
        Json::obj([
            ("kind", "e2".into()),
            ("patch_rate", Json::F64(rate)),
            ("n", Json::U64(n as u64)),
            ("days", Json::U64(DAYS)),
        ])
    };
    let atlas_grid: Vec<Json> =
        LAN_SIZES.iter().flat_map(|&n| PATCH_RATES.iter().map(move |&r| e2(r, n))).collect();
    let mut bolt_grid = atlas_grid[..SHARED_POINTS].to_vec();
    bolt_grid.extend(PATCH_RATES.iter().map(|&r| e2(r, 18)));
    let crow_grid = (0..SCRIPTS)
        .map(|i| Json::obj([("kind", "script".into()), ("src", script_source(seed.wrapping_add(i)).into())]))
        .collect();
    let spec = |job_id: &str, tenant: &str, experiment, seed_policy, priority, grid| JobSpec {
        job_id: job_id.to_owned(),
        tenant: tenant.to_owned(),
        experiment,
        base_seed: seed,
        seed_policy,
        priority,
        budget: JobBudget::default(),
        grid,
    };
    vec![
        spec("atlas", "research", "e2", SeedPolicy::Paired, Priority::Normal, atlas_grid),
        spec("bolt", "ops", "e2", SeedPolicy::Paired, Priority::Low, bolt_grid),
        spec("crow", "red-team", "script", SeedPolicy::Derived, Priority::High, crow_grid),
    ]
}

/// The queue's point function: dispatches on the grid point's `kind` and
/// folds the point's layer timings and counts into `into`.
fn evaluate(jp: &JobPoint<'_>, armed: bool, into: &Mutex<Probe>) -> Result<PointRun<Json>, ScriptFaultInfo> {
    let mut probe = Probe::new(armed);
    let started = Instant::now();
    let out = match jp.params.get("kind").and_then(Json::as_str) {
        Some("script") => {
            let src = jp.params.get("src").and_then(Json::as_str).expect("script points carry src");
            script_point(jp.seed(), src, &mut probe).map(PointRun::complete)
        }
        _ => {
            let field = |k: &str| jp.params.get(k).expect("e2 points carry their parameters");
            let rate = field("patch_rate").as_f64().expect("numeric patch_rate");
            let n = field("n").as_u64().expect("integer n") as usize;
            let days = field("days").as_u64().expect("integer days");
            let (row, truncation) = e2_point(jp.seed(), rate, n, days, jp.watchdog, &mut probe);
            Ok(PointRun { result: row.to_json(), truncation, violations: Vec::new() })
        }
    };
    probe.add_ms("jobs.point_busy_ms", started.elapsed().as_secs_f64() * 1e3);
    into.lock().expect("probe lock is never held across a panic").merge(probe);
    out
}

/// Everything one fresh-then-resume cycle produced.
#[derive(Debug)]
pub struct Cycle {
    /// The fresh run's outcomes.
    pub fresh: QueueRun,
    /// The fresh run's reports, canonical JSON, in submission order.
    pub fresh_reports: Vec<String>,
    /// The resumed run's outcomes.
    pub resumed: QueueRun,
    /// The resumed run's reports.
    pub resumed_reports: Vec<String>,
    /// Points the resumed run handed to the point function.
    pub resumed_evaluations: u64,
    /// Seconds of set-up: queue creation and admission.
    pub setup_s: f64,
    /// Seconds of the fresh run phase.
    pub run_s: f64,
    /// Seconds from the resumed queue's creation until its reports exist.
    pub resume_s: f64,
    /// Seconds of the whole cycle.
    pub wall_s: f64,
}

/// Consecutive seeds a run cycles through, one queue cycle each. The E2
/// points' epidemics, and so their cost, differ by seed; the cycle averages
/// that out of a run.
pub const SEEDS: u64 = 4;

/// The job-queue workload.
#[derive(Debug)]
pub struct Jobs {
    /// The submissions at each seed.
    specs: Vec<Vec<JobSpec>>,
    workers: usize,
    journal: PathBuf,
}

impl Jobs {
    /// The workload over seeds `seed..seed + SEEDS`, journaling under `dir`.
    pub fn new(seed: u64, dir: &Path) -> std::io::Result<Jobs> {
        Jobs::with_workers(seed, dir, WORKERS)
    }

    /// As [`Jobs::new`] with an explicit worker count (one worker makes the
    /// journal's line order deterministic).
    pub fn with_workers(seed: u64, dir: &Path, workers: usize) -> std::io::Result<Jobs> {
        std::fs::create_dir_all(dir)?;
        let journal = dir.join(format!("jobs-{}-{workers}.jnl", std::process::id()));
        let specs = (0..SEEDS).map(|i| specs(seed.wrapping_add(i))).collect();
        Ok(Jobs { specs, workers, journal })
    }

    /// The journal file the queue writes.
    pub fn journal(&self) -> &Path {
        &self.journal
    }

    fn config(&self, resume: bool, storage: Option<&TimingFs>) -> QueueConfig {
        QueueConfig {
            pool: PoolConfig::explicit(self.workers),
            max_jobs: self.specs[0].len(),
            journal: Some(self.journal.clone()),
            resume,
            storage: storage.map(|s| Arc::new(s.clone()) as Arc<dyn StorageBackend>),
            ..QueueConfig::default()
        }
    }

    /// Runs the queue on iteration `index`'s submissions fresh, then resumes
    /// it from the finished journal. An armed probe also routes the journal
    /// through a [`TimingFs`].
    pub fn cycle(&self, index: usize, probe: &mut Probe) -> Cycle {
        let specs = &self.specs[index % self.specs.len()];
        let armed = probe.armed();
        let storage = armed.then(TimingFs::default);
        let render = |run: &QueueRun| -> Vec<String> {
            run.outcomes.iter().map(|o| o.report().to_canonical_string()).collect()
        };
        let submissions = specs.clone();

        let t0 = Instant::now();
        let mut queue =
            JobQueue::new(self.config(false, storage.as_ref())).expect("a fresh queue reads nothing");
        for spec in submissions {
            probe.sample("jobs.admit_us", || queue.submit(spec)).expect("the queue admits every tenant");
        }
        let setup_s = t0.elapsed().as_secs_f64();

        let points = Mutex::new(Probe::new(armed));
        let t1 = Instant::now();
        let fresh = queue.run(|jp| evaluate(jp, armed, &points)).expect("the journal is writable");
        let run_s = t1.elapsed().as_secs_f64();
        let points = points.into_inner().expect("probe lock is never held across a panic");
        let busy_ms = points.sum("jobs.point_busy_ms");
        probe.merge(points);
        probe.add_ms("jobs.queue_self_ms", run_s * 1e3 * self.workers as f64 - busy_ms);
        let fresh_reports = probe.time("report.render_ms", || render(&fresh));

        let resubmissions = specs.clone();
        let t2 = Instant::now();
        let mut queue = probe
            .time("jobs.resume_load_ms", || JobQueue::new(self.config(true, storage.as_ref())))
            .expect("the journal is readable");
        for spec in resubmissions {
            queue.submit(spec).expect("a resubmission matches its journal");
        }
        let evaluations = AtomicU64::new(0);
        let discard = Mutex::new(Probe::new(false));
        let resumed = queue
            .run(|jp| {
                evaluations.fetch_add(1, Ordering::Relaxed);
                evaluate(jp, false, &discard)
            })
            .expect("the journal is writable");
        let resumed_reports = probe.time("report.render_ms", || render(&resumed));
        let resume_s = t2.elapsed().as_secs_f64();
        let wall_s = t0.elapsed().as_secs_f64();

        if let Some(fs) = storage {
            let io = fs.take();
            probe.count("journal.appends", io.appends);
            probe.count("journal.lines", io.lines);
            probe.count("journal.bytes", io.bytes);
            probe.count("journal.fsyncs", io.fsync_ms.len() as u64);
            probe.add_ms("journal.fsync_ms", io.fsync_ms.iter().sum());
            for ms in io.fsync_ms {
                probe.add_sample("journal.fsync_ms", ms);
            }
            probe.add_ms("journal.read_ms", io.read_ms);
        }
        let outcomes = &fresh.outcomes;
        probe.count("jobs.points_evaluated", outcomes.iter().map(|o| o.evaluated_points as u64).sum());
        probe.count("jobs.cache_hits", outcomes.iter().map(|o| o.cached_points as u64).sum());
        probe.count("jobs.cache_base", outcomes.iter().map(|o| o.points.len() as u64).sum());
        Cycle {
            fresh,
            fresh_reports,
            resumed,
            resumed_reports,
            resumed_evaluations: evaluations.into_inner(),
            setup_s,
            run_s,
            resume_s,
            wall_s,
        }
    }
}

impl Drop for Jobs {
    fn drop(&mut self) {
        // Best effort: a leftover journal is harmless and git-ignored.
        let _ = std::fs::remove_file(&self.journal);
    }
}

impl Workload for Jobs {
    fn period(&self) -> usize {
        self.specs.len()
    }

    fn setup_only(&mut self, index: usize) -> f64 {
        let submissions = self.specs[index % self.specs.len()].clone();
        let t0 = Instant::now();
        let mut queue = JobQueue::new(self.config(false, None)).expect("a fresh queue reads nothing");
        for spec in submissions {
            queue.submit(spec).expect("the queue admits every tenant");
        }
        t0.elapsed().as_secs_f64()
    }

    fn min_traced_iterations(&self) -> usize {
        // Enough journal fsyncs (about 110 per cycle) for a p99 with ten
        // samples beyond it.
        10
    }

    fn iterate(&mut self, index: usize, mut probe: Probe, verdict: &mut Verdict) -> Iteration {
        let cycle = self.cycle(index, &mut probe);
        for o in &cycle.fresh.outcomes {
            for rec in &o.points {
                verdict.op(|c| {
                    c.that(rec.status == PointStatus::Completed, || {
                        format!("jobs: {} point {} is {}", o.job_id, rec.point, rec.status.label())
                    })
                });
            }
            verdict.op(|c| {
                c.that(o.status == JobStatus::Completed && o.storage_degraded.is_none(), || {
                    format!(
                        "jobs: {} ended {} (storage {:?})",
                        o.job_id,
                        o.status.label(),
                        o.storage_degraded
                    )
                })
            });
        }
        verdict.op(|c| {
            let bolt = cycle.fresh.outcomes.iter().find(|o| o.job_id == "bolt");
            c.that(bolt.is_some_and(|o| o.cached_points == SHARED_POINTS), || {
                format!("jobs: bolt served {:?} cached points", bolt.map(|o| o.cached_points))
            })
        });
        for (i, o) in cycle.resumed.outcomes.iter().enumerate() {
            verdict.op(|c| {
                c.that(cycle.resumed_reports.get(i) == cycle.fresh_reports.get(i), || {
                    format!("jobs: resumed report of {} differs from the fresh run", o.job_id)
                });
                c.that(o.evaluated_points == 0 && o.resumed_points == o.points.len(), || {
                    format!("jobs: resume of {} evaluated {} points", o.job_id, o.evaluated_points)
                });
            });
        }
        verdict.op(|c| {
            c.that(cycle.resumed_evaluations == 0 && cycle.resumed.storage_degraded.is_none(), || {
                format!("jobs: resume evaluated {} points", cycle.resumed_evaluations)
            })
        });
        let points = cycle.fresh.outcomes.iter().map(|o| o.points.len() as u64).sum();
        Iteration {
            setup_s: cycle.setup_s,
            wall_s: cycle.wall_s,
            run_s: cycle.run_s,
            resume_s: cycle.resume_s,
            points,
            probe,
        }
    }
}
