//! On-disk format pin for the durable-sweep files.
//!
//! `tests/fixtures/durable_format/` holds a job journal and a sweep
//! checkpoint written by an earlier revision of the writer, plus what that
//! revision recovered from them (`expected.json`):
//!
//! - `jobs.jnl`: three jobs. `done` finished (admitted, completed,
//!   truncated-with-violation and script-fault points, terminal verdict);
//!   `half` was cut mid-grid (admitted, two points, one of them served from
//!   the result cache, no terminal); `gone` was cancelled before it started.
//!   One line is a bad-hash copy of `done`'s truncated point, and the file
//!   ends in a torn half line.
//! - `sweep.ckpt`: a five-point supervised sweep killed after three records,
//!   ending in a torn half of the fourth.
//!
//! The test resumes both with the current code and demands the same reports,
//! skipped-line counts and resume/cache tallies, and the same
//! `repair_journal` keys and byte counts. The expectations must never be
//! regenerated by the code under test: they are what the format promised.

use std::path::{Path, PathBuf};

use malsim::chaosfs::REAL_FS;
use malsim::checkpoint::{self, journal_line_key, CheckpointConfig};
use malsim::jobs::{JobBudget, JobPoint, JobQueue, JobSpec, Priority, QueueConfig, SeedPolicy};
use malsim::report::{self, Json};
use malsim::sweep::{PointRun, PoolConfig, ScriptFaultInfo, SweepCtx, SweepSupervisor, Truncation};
use malsim_kernel::invariant::InvariantViolation;
use malsim_kernel::time::SimTime;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/durable_format").join(name)
}

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("malsim-format-{tag}-{}", std::process::id()))
}

/// The point function the fixture was written with: a pure function of
/// `(kind, k, seed)` whose rows exercise floats, negative integers, escapes
/// and non-ASCII text.
fn point(kind: &str, k: u64, seed: u64) -> Result<PointRun<Json>, ScriptFaultInfo> {
    let row = Json::obj([
        ("k", Json::U64(k)),
        ("seed", Json::U64(seed)),
        ("rate", Json::F64(k as f64 / 4.0)),
        ("delta", Json::I64(-(k as i64))),
        ("label", Json::Str(format!("pt-{k} \"q\" \u{e9}\n"))),
    ]);
    match kind {
        "trunc" => Ok(PointRun {
            result: row,
            truncation: Some(Truncation::EventBudget),
            violations: vec![InvariantViolation {
                law: "fixture-law",
                at: SimTime::EPOCH,
                detail: format!("breach at point {k}"),
            }],
        }),
        "fault" => Err(ScriptFaultInfo {
            script_id: "bomb.flua".into(),
            error: "script exceeded its fuel budget".into(),
            fuel_used: 4000 + k,
        }),
        "panic" => panic!("fixture panic at point {k}"),
        _ => Ok(PointRun::complete(row)),
    }
}

fn job_point(jp: &JobPoint<'_>) -> Result<PointRun<Json>, ScriptFaultInfo> {
    let kind = jp.params.get("kind").and_then(Json::as_str).unwrap_or("ok");
    let k = jp.params.get("k").and_then(Json::as_u64).unwrap_or(0);
    point(kind, k, jp.seed())
}

fn spec(
    job_id: &str,
    tenant: &str,
    experiment: &'static str,
    base_seed: u64,
    points: &[(&str, u64)],
) -> JobSpec {
    JobSpec {
        job_id: job_id.to_owned(),
        tenant: tenant.to_owned(),
        experiment,
        base_seed,
        seed_policy: SeedPolicy::Derived,
        priority: Priority::Normal,
        budget: JobBudget::default(),
        grid: points
            .iter()
            .map(|&(kind, k)| Json::obj([("kind", kind.into()), ("k", Json::U64(k))]))
            .collect(),
    }
}

fn specs() -> Vec<JobSpec> {
    vec![
        spec("done", "alpha", "fixture-a", 11, &[("ok", 0), ("trunc", 1), ("fault", 2), ("ok", 3)]),
        JobSpec {
            seed_policy: SeedPolicy::Paired,
            priority: Priority::High,
            budget: JobBudget { retries: 1, ..JobBudget::default() },
            ..spec(
                "half",
                "beta",
                "fixture-b",
                12,
                &[("ok", 0), ("panic", 1), ("ok", 0), ("ok", 0), ("ok", 4)],
            )
        },
        JobSpec {
            priority: Priority::Low,
            ..spec("gone", "gamma", "fixture-c", 13, &[("ok", 0), ("ok", 1)])
        },
    ]
}

const SWEEP_KINDS: &[&str] = &["ok", "trunc", "fault", "panic", "ok"];

fn sweep_point(ctx: &SweepCtx, kind: &&str) -> Result<PointRun<Json>, ScriptFaultInfo> {
    point(kind, ctx.point as u64, ctx.derived_seed())
}

fn resume_jobs(threads: usize) -> Json {
    let journal = temp(&format!("jobs-t{threads}.jnl"));
    std::fs::copy(fixture("jobs.jnl"), &journal).unwrap();
    let cfg = QueueConfig {
        pool: PoolConfig::explicit(threads),
        journal: Some(journal.clone()),
        resume: true,
        ..QueueConfig::default()
    };
    let mut queue = JobQueue::new(cfg).unwrap();
    for spec in specs() {
        queue.submit(spec).unwrap();
    }
    let run = queue.run(job_point).unwrap();
    std::fs::remove_file(&journal).unwrap();
    let outcomes = run
        .outcomes
        .iter()
        .map(|o| {
            Json::obj([
                ("evaluated_points", Json::U64(o.evaluated_points as u64)),
                ("cached_points", Json::U64(o.cached_points as u64)),
                ("resumed_points", Json::U64(o.resumed_points as u64)),
                ("report", o.report()),
            ])
        })
        .collect();
    Json::obj([("skipped_lines", Json::U64(run.skipped_lines as u64)), ("outcomes", Json::Arr(outcomes))])
}

fn resume_sweep(threads: usize) -> Json {
    let path = temp(&format!("sweep-t{threads}.ckpt"));
    std::fs::copy(fixture("sweep.ckpt"), &path).unwrap();
    let cfg = CheckpointConfig {
        experiment: "fixture-sweep",
        base_seed: 21,
        pool: PoolConfig::explicit(threads),
        supervisor: SweepSupervisor::default(),
        path: &path,
        resume: true,
        backend: None,
    };
    let out = checkpoint::run_checkpointed(&cfg, SWEEP_KINDS, sweep_point).unwrap();
    std::fs::remove_file(&path).unwrap();
    Json::obj([
        ("skipped_lines", Json::U64(out.skipped_lines as u64)),
        ("resumed_points", Json::U64(out.resumed_points as u64)),
        ("report", out.report()),
    ])
}

fn keys(text: &str) -> Json {
    Json::Arr(text.lines().filter(|l| !l.trim().is_empty()).map(|l| journal_line_key(l).into()).collect())
}

fn repair(name: &str) -> Json {
    let path = temp(&format!("repair-{name}"));
    std::fs::copy(fixture(name), &path).unwrap();
    let before = keys(&std::fs::read_to_string(&path).unwrap());
    let summary = checkpoint::repair_journal(&path, &REAL_FS).unwrap();
    let after = keys(&std::fs::read_to_string(&path).unwrap());
    std::fs::remove_file(&path).unwrap();
    Json::obj([
        ("line_keys", before),
        ("lines_seen", Json::U64(summary.lines_seen as u64)),
        ("kept", Json::U64(summary.kept as u64)),
        ("dropped", Json::U64(summary.dropped as u64)),
        ("bytes_before", Json::U64(summary.bytes_before)),
        ("bytes_after", Json::U64(summary.bytes_after)),
        ("repaired_keys", after),
    ])
}

fn expected(section: &str) -> String {
    let text = std::fs::read_to_string(fixture("expected.json")).unwrap();
    report::parse(&text).unwrap().get(section).expect("expected.json has every section").to_canonical_string()
}

#[test]
fn job_journal_resumes_to_the_pinned_reports() {
    for threads in [1, 2, 4] {
        assert_eq!(resume_jobs(threads).to_canonical_string(), expected("jobs"), "threads={threads}");
    }
}

#[test]
fn sweep_checkpoint_resumes_to_the_pinned_report() {
    for threads in [1, 3] {
        assert_eq!(resume_sweep(threads).to_canonical_string(), expected("sweep"), "threads={threads}");
    }
}

#[test]
fn repair_keeps_the_pinned_slots() {
    assert_eq!(repair("jobs.jnl").to_canonical_string(), expected("repair_jobs"));
    assert_eq!(repair("sweep.ckpt").to_canonical_string(), expected("repair_sweep"));
}
