//! The traced replicas reproduce the public experiments: each workload's
//! layer-by-layer calls yield the same events, rows and counts as the
//! experiment function it replaces, with the probe armed or not. The
//! journal probe writes the same bytes as the plain filesystem.

use std::path::PathBuf;

use malsim::experiments::{
    e13_takedown_resilience_profiled_t, e13_takedown_resilience_t, e1_stuxnet_end_to_end_run,
    e2_zero_day_ablation_t, e9_shamoon_wipe_run,
};
use malsim::export;
use malsim::script_api;
use malsim::sweep::SweepCtx;
use malsim_kernel::sched::Watchdog;
use malsim_perfbench::aramco::{self, Shape};
use malsim_perfbench::jobs::{self, Jobs};
use malsim_perfbench::natanz;
use malsim_perfbench::probe::{Probe, Verdict};
use malsim_perfbench::takedown::{self, FRACTIONS};
use malsim_perfbench::Workload;

fn scratch(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"))
}

#[test]
fn aramco_replica_matches_e9() {
    let shape = Shape { zones: 4, hosts_per_zone: 40, seeded_zones: 2 };
    let public = e9_shamoon_wipe_run(aramco::DEV_SEED, shape.zones, shape.hosts_per_zone, shape.seeded_zones);
    for armed in [false, true] {
        let mut probe = Probe::new(armed);
        let run = aramco::run(aramco::DEV_SEED, shape, &mut probe);
        assert_eq!(run.result, public.result, "armed={armed}");
        assert_eq!(run.sim.executed(), public.sim.executed());
        assert_eq!(run.sim.queue_stats(), public.sim.queue_stats());
        assert_eq!(
            run.sim.metrics.counter("shamoon.infections"),
            public.sim.metrics.counter("shamoon.infections")
        );
        assert_eq!((run.wiped_before_trigger, run.bricked_before_trigger), (0, 0));
        assert_eq!(probe.get("kernel.events"), public.sim.executed());
        assert_eq!(probe.get("shamoon.bricked"), public.result.bricked as u64);
        if armed {
            assert_eq!(probe.get("kernel.dispatches"), public.sim.executed());
            assert!(probe.sum("shamoon.spread_ms") > 0.0 && probe.sum("shamoon.wipe_ms") > 0.0);
        }
    }
}

#[test]
fn takedown_replica_matches_e13() {
    let (seed, clients, days) = (11, 6, 3);
    let public = e13_takedown_resilience_t(seed, clients, days, &FRACTIONS, 1);
    let (_, profiles) = e13_takedown_resilience_profiled_t(seed, clients, days, &FRACTIONS, 1);
    for armed in [false, true] {
        for (i, &frac) in FRACTIONS.iter().enumerate() {
            let mut probe = Probe::new(armed);
            let mut p = takedown::point(seed, frac, clients, days, &mut probe);
            assert_eq!(p.row, public[i], "armed={armed} fraction {frac}");
            assert_eq!(probe.get("kernel.events"), profiles[i].total_events);
            if armed {
                for row in &profiles[i].rows {
                    let category = row.category.trim_matches(|c| c == '(' || c == ')');
                    assert_eq!(probe.get(&format!("kernel.dispatches.{category}")), row.events);
                }
                takedown::probe_modules(&mut p.world, &mut p.sim, &mut probe);
                assert_eq!(probe.samples("flame.modules_us").len(), clients);
                assert_eq!(probe.get("script.vm_runs"), 5 * clients as u64, "five modules run per client");
                assert!(probe.get("script.fuel") > 0);
            }
        }
    }
}

#[test]
fn natanz_replica_matches_e1_and_exports_identically() {
    for seed in [3, 4] {
        let public = e1_stuxnet_end_to_end_run(seed, natanz::DAYS, false);
        let public_chrome = export::chrome_trace(&public.sim.trace, &public.sim.spans).to_canonical_string();
        let public_jsonl = export::jsonl(&public.sim.trace, &public.sim.spans);
        for armed in [false, true] {
            let mut probe = Probe::new(armed);
            let run = natanz::run(seed, natanz::DAYS, &mut probe);
            assert_eq!(run.result, public.result, "seed {seed} armed={armed}");
            assert_eq!(run.sim.executed(), public.sim.executed());
            assert_eq!(run.sim.trace.events(), public.sim.trace.events());
            assert_eq!(run.sim.spans.spans(), public.sim.spans.spans());
            let out = natanz::export(&run.sim, &mut probe);
            assert_eq!(out.valid, Ok(()));
            assert_eq!(out.chrome, public_chrome);
            assert_eq!(out.jsonl, public_jsonl);
        }
    }
}

#[test]
fn job_points_match_e2_and_the_script_runner() {
    let base = 21;
    for (n, rate) in [(6, 0.0), (10, 0.375), (16, 0.875)] {
        let public = e2_zero_day_ablation_t(base, n, 3, &[rate], 1);
        let seed = SweepCtx { experiment: "e2", point: 0, base_seed: base }.derived_seed();
        let (row, truncation) = jobs::e2_point(seed, rate, n, 3, Watchdog::UNLIMITED, &mut Probe::new(true));
        assert_eq!((row, truncation), (public[0].clone(), None));
    }
    for k in 0..4 {
        let src = jobs::script_source(k);
        let (mut world, mut sim) = malsim::scenario::ScenarioBuilder::new(k).office_lan(3);
        let public = script_api::run_source(&src, &mut world, &mut sim).expect("benign script").row();
        assert_eq!(jobs::script_point(k, &src, &mut Probe::new(true)), Ok(public));
    }
}

#[test]
fn traced_job_cycle_reproduces_the_untraced_one() {
    let w = Jobs::new(5, &scratch("cycle")).expect("scratch dir");
    let plain = w.cycle(0, &mut Probe::new(false));
    let mut probe = Probe::new(true);
    let traced = w.cycle(0, &mut probe);
    assert_eq!(plain.fresh_reports, traced.fresh_reports);
    assert_eq!(plain.fresh_reports, plain.resumed_reports);
    assert_eq!(traced.fresh_reports, traced.resumed_reports);
    assert_eq!((plain.resumed_evaluations, traced.resumed_evaluations), (0, 0));
    assert_eq!(probe.get("jobs.cache_hits"), jobs::SHARED_POINTS as u64);
    assert!(probe.get("journal.fsyncs") > 100);
}

#[test]
fn timing_storage_writes_the_bytes_realfs_writes() {
    // One worker fixes the journal's line order, so the files compare byte
    // for byte.
    let w = Jobs::with_workers(9, &scratch("journal"), 1).expect("scratch dir");
    w.cycle(0, &mut Probe::new(false));
    let plain = std::fs::read(w.journal()).expect("journal written");
    let mut probe = Probe::new(true);
    w.cycle(0, &mut probe);
    let timed = std::fs::read(w.journal()).expect("journal written");
    assert_eq!(plain, timed);
    assert_eq!(probe.get("journal.bytes"), timed.len() as u64);
    assert_eq!(probe.get("journal.lines"), timed.iter().filter(|&&b| b == b'\n').count() as u64);
    assert_eq!(probe.get("journal.fsyncs"), probe.get("journal.lines"));
}

#[test]
fn workloads_repeat_their_counts_and_pass_their_checks() {
    let mut w = natanz::Natanz::new(7);
    let mut verdict = Verdict::default();
    let a = w.iterate(0, Probe::new(false), &mut verdict);
    let b = w.iterate(1, Probe::new(true), &mut verdict);
    assert_eq!(a.probe.get("export.bytes"), b.probe.get("export.bytes"));
    assert_eq!(a.events(), b.events());
    assert_eq!((verdict.attempted, verdict.failed), (2 * natanz::SEEDS, 0), "{:?}", verdict.problems);
}
