//! `aramco`: E9, the Shamoon wipe, at the paper's scale — 30 zones of 1000
//! workstations plus one server each (a fleet of 30,030), three seeded zones,
//! trace off, one thread.
//!
//! Spread ticks and wiper detonations do nearly all the work, and the world
//! build is the largest set-up of any workload. The script VM, the job queue,
//! the journal and the exporters are never called: this is the workload on
//! which a change to those layers must show no change.

use std::time::Instant;

use malsim::armory::Pki;
use malsim::experiments::E9Result;
use malsim::scenario::ScenarioBuilder;
use malsim_kernel::time::{SimDuration, SimTime};
use malsim_malware::shamoon;
use malsim_malware::world::{World, WorldSim};
use malsim_os::host::HostId;

use crate::probe::{Iteration, Probe, Verdict};
use crate::Workload;

/// The E9 world's shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Sites, each one internet-connected LAN.
    pub zones: usize,
    /// Workstations per site (each site also has one server).
    pub hosts_per_zone: usize,
    /// Sites with one phished host at the start.
    pub seeded_zones: usize,
}

/// The paper's Aramco scale.
pub const PAPER: Shape = Shape { zones: 30, hosts_per_zone: 1000, seeded_zones: 3 };

/// The seed of the committed `e9_shamoon_aramco` bench row, at which the
/// exact event count is pinned.
pub const DEV_SEED: u64 = 815;
/// Kernel events of the paper-scale run at [`DEV_SEED`].
pub const DEV_SEED_EVENTS: u64 = 303_306;

/// The last instant before the hard-coded trigger (08:08 on 2012-08-15).
fn just_before_trigger() -> SimTime {
    SimTime::from_millis(shamoon::aramco_trigger().as_millis() - 1)
}

/// A world built and armed exactly as `e9_shamoon_wipe_run` builds it,
/// with the scenario and armory layers timed.
pub fn build(seed: u64, shape: Shape, probe: &mut Probe) -> (World, WorldSim) {
    let (mut world, mut sim) = probe.time("scenario.build_ms", || {
        let mut builder = ScenarioBuilder::new(seed);
        builder.start(SimTime::from_utc(2012, 8, 13, 6, 0, 0)).without_trace();
        builder.enterprise(shape.zones, shape.hosts_per_zone)
    });
    probe.time("armory.arm_ms", || {
        let pki = Pki::install(&mut world);
        pki.arm_shamoon(&mut world);
    });
    world.campaigns.shamoon.trigger_at = Some(shamoon::aramco_trigger());
    let per_zone = shape.hosts_per_zone + 1;
    for z in 0..shape.seeded_zones.min(shape.zones) {
        shamoon::dropper::infect_host(&mut world, &mut sim, HostId::new(z * per_zone + 1), "phish");
    }
    (world, sim)
}

/// One E9 run through the public layer functions.
#[derive(Debug)]
pub struct Run {
    /// The headline row, as `e9_shamoon_wipe_run` computes it.
    pub result: E9Result,
    /// Hosts whose wipe had completed before the trigger.
    pub wiped_before_trigger: usize,
    /// Hosts bricked before the trigger.
    pub bricked_before_trigger: usize,
    /// The world after the run.
    pub world: World,
    /// The scheduler after the run.
    pub sim: WorldSim,
    /// Seconds of set-up.
    pub setup_s: f64,
    /// Seconds of the run phase.
    pub run_s: f64,
}

/// Runs the simulation to `until` in one-hour steps, with a calibration
/// sample after each, and returns the seconds spent inside `run_until`.
/// Stepping dispatches exactly the events one call would: nothing is
/// scheduled between the steps.
fn run_in_steps(world: &mut World, sim: &mut WorldSim, until: SimTime, probe: &mut Probe) -> f64 {
    let mut seconds = 0.0;
    while sim.now() < until {
        let next = (sim.now() + SimDuration::from_hours(1)).min(until);
        let started = Instant::now();
        sim.run_until(world, next);
        seconds += started.elapsed().as_secs_f64();
        probe.calibrate();
    }
    seconds
}

/// Runs E9 as `e9_shamoon_wipe_run` does, but split at the trigger so the
/// spread phase (every event up to the last instant before 08:08) and the
/// wipe phase (trigger to trigger + 2 h) are timed apart.
pub fn run(seed: u64, shape: Shape, probe: &mut Probe) -> Run {
    let t0 = Instant::now();
    let (mut world, mut sim) = build(seed, shape, probe);
    let start = sim.now();
    let setup_s = t0.elapsed().as_secs_f64();

    probe.start_kernel(&mut sim);
    let spread_s = run_in_steps(&mut world, &mut sim, just_before_trigger(), probe);
    probe.add_ms("shamoon.spread_ms", spread_s * 1e3);
    let wiped_before_trigger = world.campaigns.shamoon.wiped_count();
    let bricked_before_trigger = world.bricked_count();
    let end = shamoon::aramco_trigger() + SimDuration::from_hours(2);
    let wipe_s = run_in_steps(&mut world, &mut sim, end, probe);
    probe.add_ms("shamoon.wipe_ms", wipe_s * 1e3);
    let run_s = spread_s + wipe_s;
    probe.finish_kernel(&mut sim, run_s * 1e3);

    let result = E9Result {
        fleet: world.hosts.len(),
        infected: world.campaigns.shamoon.infections.len(),
        bricked: world.bricked_count(),
        reports: world.campaigns.shamoon.reports.len(),
        hours_to_trigger: (shamoon::aramco_trigger() - start).as_hours_f64(),
    };
    probe.count("shamoon.infections", result.infected as u64);
    probe.count("shamoon.bricked", result.bricked as u64);
    probe.count("shamoon.reports", result.reports as u64);
    Run { result, wiped_before_trigger, bricked_before_trigger, world, sim, setup_s, run_s }
}

/// The paper-scale workload.
#[derive(Debug)]
pub struct Aramco {
    seed: u64,
}

impl Aramco {
    /// The workload at `seed`.
    pub fn new(seed: u64) -> Aramco {
        Aramco { seed }
    }
}

impl Workload for Aramco {
    fn max_iterations(&self) -> usize {
        1
    }

    fn setup_only(&mut self, _index: usize) -> f64 {
        let t0 = Instant::now();
        let built = build(self.seed, PAPER, &mut Probe::new(false));
        let setup_s = t0.elapsed().as_secs_f64();
        drop(built);
        setup_s
    }

    fn iterate(&mut self, _index: usize, mut probe: Probe, verdict: &mut Verdict) -> Iteration {
        let run = run(self.seed, PAPER, &mut probe);
        let (setup_s, run_s) = (run.setup_s, run.run_s);
        // The fleet's teardown (about 2 GB of wiped disks) is part of a run.
        let Run { result, wiped_before_trigger, bricked_before_trigger, world, sim, .. } = run;
        let events = sim.executed();
        let teardown = Instant::now();
        drop((world, sim));
        let wall_s = setup_s + run_s + teardown.elapsed().as_secs_f64();

        // The paper's headline: ~30,000 workstations, and the three seeded
        // sites (3 x 1001 hosts) saturate and brick at 08:08, not before.
        let seeded_hosts = PAPER.seeded_zones * (PAPER.hosts_per_zone + 1);
        verdict.op(|c| {
            c.that(result.fleet == PAPER.zones * (PAPER.hosts_per_zone + 1), || {
                format!("aramco: fleet {} != 30030", result.fleet)
            });
            c.that(result.infected == seeded_hosts, || format!("aramco: infected {}", result.infected));
            c.that(result.bricked == result.infected, || format!("aramco: bricked {}", result.bricked));
            c.that(result.reports == result.infected, || format!("aramco: reports {}", result.reports));
            c.that(wiped_before_trigger == 0 && bricked_before_trigger == 0, || {
                format!(
                    "aramco: {wiped_before_trigger} wiped / {bricked_before_trigger} bricked before 08:08"
                )
            });
            if self.seed == DEV_SEED {
                c.that(events == DEV_SEED_EVENTS, || format!("aramco: {events} events != {DEV_SEED_EVENTS}"));
            }
        });
        Iteration { setup_s, wall_s, run_s, resume_s: 0.0, points: 1, probe }
    }
}
