//! `natanz_trace`: E1, the Stuxnet chain at the Natanz site, 30 days with
//! trace and spans on, over a batch of consecutive seeds starting at the
//! benchmark seed. Every seed's run is exported as a Chrome trace and as
//! JSONL, the Chrome trace is serialised to canonical JSON and checked with
//! `validate_chrome_trace`.
//!
//! This is the only workload where trace and span recording, the exporters
//! and report serialisation carry load, and the only one running Stuxnet
//! and the SCADA plant. Shamoon, Flame, the job queue and the journal are
//! never called.

use std::time::Instant;

use malsim::activity;
use malsim::armory::Pki;
use malsim::experiments::E1Result;
use malsim::export;
use malsim::scenario::ScenarioBuilder;
use malsim_kernel::time::SimDuration;
use malsim_kernel::trace::TraceCategory;
use malsim_malware::stuxnet;
use malsim_malware::world::{World, WorldSim};
use malsim_os::usb::UsbDrive;

use crate::probe::{Iteration, Probe, Verdict};
use crate::Workload;

/// Simulated days per seed.
pub const DAYS: u64 = 30;
/// Consecutive seeds per iteration.
pub const SEEDS: u64 = 10;

/// One E1 run through the public layer functions.
#[derive(Debug)]
pub struct Run {
    /// The headline row, as `e1_stuxnet_end_to_end_run` computes it.
    pub result: E1Result,
    /// The world after the run.
    pub world: World,
    /// The scheduler after the run, with its trace and spans.
    pub sim: WorldSim,
    /// Seconds of set-up.
    pub setup_s: f64,
    /// Seconds of the run phase.
    pub run_s: f64,
}

/// Runs E1 exactly as `e1_stuxnet_end_to_end_run` does, with the scenario,
/// armory and run phases timed.
pub fn run(seed: u64, days: u64, probe: &mut Probe) -> Run {
    let t0 = Instant::now();
    let (mut world, mut sim, plant, office, station) =
        probe.time("scenario.build_ms", || ScenarioBuilder::new(seed).natanz_site(8, 12));
    probe.time("armory.arm_ms", || {
        let pki = Pki::install(&mut world);
        pki.arm_stuxnet(&mut world);
        pki.register_stuxnet_c2(&mut world);
    });
    let conf = world.usb_drives.push(UsbDrive::new("conference-gift"));
    stuxnet::infection::contaminate_usb(&mut world, &mut sim, conf);
    activity::schedule_usb_courier(&mut sim, conf, office.clone(), SimDuration::from_hours(6));
    let engineer = world.usb_drives.push(UsbDrive::new("engineer-stick"));
    let mut route = vec![office[0], station];
    route.dedup();
    activity::schedule_usb_courier(&mut sim, engineer, route, SimDuration::from_hours(12));
    activity::schedule_stuxnet_checkins(&mut sim, SimDuration::from_hours(8));
    let setup_s = t0.elapsed().as_secs_f64();

    probe.start_kernel(&mut sim);
    let start = sim.now();
    let t1 = Instant::now();
    probe.time("sim.run_ms", || sim.run_until(&mut world, start + SimDuration::from_days(days)));
    let run_s = t1.elapsed().as_secs_f64();
    probe.finish_kernel(&mut sim, run_s * 1e3);

    let plant_ref = &world.plants[plant];
    let result = E1Result {
        infected_hosts: world.campaigns.stuxnet.infections.len(),
        plc_implanted: world.campaigns.stuxnet.plant_attacks.contains_key(&plant),
        destroyed: plant_ref.cascade.destroyed_count(),
        total_centrifuges: plant_ref.cascade.len(),
        safety_tripped: plant_ref.safety.is_tripped(),
        operator_anomalies: plant_ref.operator.anomalies_seen(),
        days_to_first_destruction: sim
            .trace
            .first_of(TraceCategory::Destruction)
            .map(|e| (e.time - start).as_hours_f64() / 24.0),
    };
    Run { result, world, sim, setup_s, run_s }
}

/// The exports of one run.
#[derive(Debug)]
pub struct Exports {
    /// The Chrome trace as canonical JSON.
    pub chrome: String,
    /// The JSONL feed.
    pub jsonl: String,
    /// What `validate_chrome_trace` said about the Chrome trace.
    pub valid: Result<(), String>,
}

/// Exports a finished run both ways and lints the Chrome trace.
pub fn export(sim: &WorldSim, probe: &mut Probe) -> Exports {
    let doc = probe.time("export.chrome_ms", || export::chrome_trace(&sim.trace, &sim.spans));
    let chrome = probe.time("report.canonical_ms", || doc.to_canonical_string());
    let jsonl = probe.time("export.jsonl_ms", || export::jsonl(&sim.trace, &sim.spans));
    let valid = probe.time("export.validate_ms", || export::validate_chrome_trace(&doc));
    Exports { chrome, jsonl, valid }
}

/// The traced-E1 workload.
#[derive(Debug)]
pub struct Natanz {
    seed: u64,
}

impl Natanz {
    /// The workload over seeds `seed..seed + SEEDS`.
    pub fn new(seed: u64) -> Natanz {
        Natanz { seed }
    }

    fn seeds(&self) -> impl Iterator<Item = u64> {
        let base = self.seed;
        (0..SEEDS).map(move |i| base.wrapping_add(i))
    }
}

impl Workload for Natanz {
    fn setup_only(&mut self, _index: usize) -> f64 {
        let mut probe = Probe::new(false);
        self.seeds().map(|seed| run(seed, 0, &mut probe).setup_s).sum()
    }

    fn iterate(&mut self, _index: usize, mut probe: Probe, verdict: &mut Verdict) -> Iteration {
        let (mut setup_s, mut wall_s, mut run_s) = (0.0, 0.0, 0.0);
        for seed in self.seeds() {
            let t0 = Instant::now();
            let r = run(seed, DAYS, &mut probe);
            let out = export(&r.sim, &mut probe);
            let (events, spans) = (r.sim.trace.events().len(), r.sim.spans.spans().len());
            setup_s += r.setup_s;
            run_s += r.run_s;
            drop(r);
            wall_s += t0.elapsed().as_secs_f64();

            verdict.op(|c| {
                c.that(out.valid.is_ok(), || format!("natanz_trace: seed {seed}: {:?}", out.valid));
                c.that(out.jsonl.lines().count() == events + spans, || {
                    format!("natanz_trace: seed {seed}: jsonl lines != {events} events + {spans} spans")
                });
            });
            probe.count("trace.events", events as u64);
            probe.count("trace.spans", spans as u64);
            probe.count("export.bytes", (out.chrome.len() + out.jsonl.len()) as u64);
        }
        Iteration { setup_s, wall_s, run_s, resume_s: 0.0, points: SEEDS, probe }
    }
}
