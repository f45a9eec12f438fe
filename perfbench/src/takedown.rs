//! `takedown`: the E13 grid — 24 Flame clients with document corpora, a
//! USB courier, 7 days, the 22-server C&C sinkholed at fractions
//! {0, .25, .5, .75, 1} — one thread, cycling through four consecutive
//! seeds from the benchmark seed.
//!
//! Flame's module runs (the Flua VM plus the per-beacon host-table rebuild),
//! DNS/HTTP under the fault plane, and the corpora dominate. Shamoon, the job
//! queue, the journal and the exporters are never called. The VM runs
//! modules compiled once per client, the opposite of `jobs`, which compiles
//! a script per point.

use std::time::Instant;

use malsim::activity;
use malsim::armory::Pki;
use malsim::experiments::{e13_takedown_resilience_t, E13Row};
use malsim::scenario::ScenarioBuilder;
use malsim_defense::sinkhole::SinkholeCampaign;
use malsim_kernel::sched::Watchdog;
use malsim_kernel::time::SimDuration;
use malsim_malware::flame;
use malsim_malware::flame::client::FlameClient;
use malsim_malware::flame::modules::{self, ModuleInputs};
use malsim_malware::world::{World, WorldSim};
use malsim_net::addr::Ipv4;
use malsim_os::fs::FileData;
use malsim_os::host::HostId;
use malsim_os::path::WinPath;
use malsim_os::usb::UsbDrive;
use malsim_script::vm::VmLimits;

use crate::probe::{Iteration, Probe, Verdict};
use crate::Workload;

/// Infected clients per point.
pub const CLIENTS: usize = 24;
/// Simulated days per point.
pub const DAYS: u64 = 7;
/// Fractions of the 22 C&C servers sinkholed, one grid point each.
pub const FRACTIONS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// One E13 point, run through the public layer functions.
#[derive(Debug)]
pub struct Point {
    /// The row, as `e13_takedown_resilience_t` computes it.
    pub row: E13Row,
    /// The world after the run.
    pub world: World,
    /// The scheduler after the run.
    pub sim: WorldSim,
    /// Seconds of set-up: world, armory, corpora, infections, first
    /// beacons and the seizure.
    pub setup_s: f64,
    /// Seconds of the run phase.
    pub run_s: f64,
}

/// Runs one E13 point exactly as the experiment's point function does (a
/// paired sweep: every fraction seeds from `seed`), with each layer's calls
/// timed.
pub fn point(seed: u64, frac: f64, clients: usize, days: u64, probe: &mut Probe) -> Point {
    let t0 = Instant::now();
    let (mut world, mut sim) =
        probe.time("scenario.build_ms", || ScenarioBuilder::new(seed).without_trace().office_lan(clients));
    probe.time("armory.arm_ms", || {
        let pki = Pki::install(&mut world);
        pki.arm_flame(&mut world, &mut sim, 22, 80);
    });
    for i in 0..clients {
        let host = HostId::new(i);
        probe.time("os.corpus_ms", || {
            let n_docs = sim.rng.range(3..10usize);
            for d in 0..n_docs {
                let ext = *sim.rng.pick(&["docx", "pdf", "xls", "dwg"]).expect("non-empty");
                let size = sim.rng.range(20_000..2_000_000usize);
                let path = WinPath::new(format!(r"C:\Users\user\Documents\file-{d}.{ext}"));
                world.hosts[host]
                    .fs
                    .write(&path, FileData::Bytes(vec![0; size]), sim.now())
                    .expect("valid path");
            }
        });
        probe.time("flame.infect_ms", || flame::client::infect_host(&mut world, &mut sim, host, "seed"));
        probe.time("flame.first_beacon_ms", || flame::client::beacon(&mut world, &mut sim, host));
    }
    let direct_baseline = sim.metrics.counter("flame.bytes_uploaded");
    let entry_baseline: u64 = {
        let p = world.campaigns.flame_platform.as_ref().expect("armed");
        p.servers.iter().map(|s| s.total_entry_bytes).sum()
    };

    let op = probe.time("defense.seize_ms", || {
        let ips: Vec<Ipv4> =
            world.campaigns.flame_platform.as_ref().expect("armed").servers.iter().map(|s| s.ip).collect();
        let k = ((ips.len() as f64) * frac).round() as usize;
        let mut op = SinkholeCampaign::new(Ipv4::new(198, 51, 100, 1));
        let seized_at = sim.now();
        for &ip in ips.iter().take(k) {
            op.seize_server_and_domains(&mut world.dns, &mut sim.faults, ip, seized_at);
        }
        let p = world.campaigns.flame_platform.as_mut().expect("armed");
        for srv in p.servers.iter_mut().take(k) {
            srv.seized = true;
        }
        op
    });

    let usb = world.usb_drives.push(UsbDrive::new("courier"));
    if clients > 0 {
        let route: Vec<HostId> = (0..clients).map(HostId::new).collect();
        activity::schedule_usb_courier(&mut sim, usb, route, SimDuration::from_hours(6));
    }
    activity::schedule_flame_operator(&mut sim, SimDuration::from_mins(30));
    let setup_s = t0.elapsed().as_secs_f64();

    probe.start_kernel(&mut sim);
    let t1 = Instant::now();
    let until = sim.now() + SimDuration::from_days(days);
    let watched =
        probe.time("flame.run_ms", || sim.run_until_watched(&mut world, until, Watchdog::UNLIMITED));
    let run_s = t1.elapsed().as_secs_f64();
    probe.finish_kernel(&mut sim, run_s * 1e3);
    assert!(watched.completed(), "an unlimited watchdog never truncates");

    let platform = world.campaigns.flame_platform.as_ref().expect("armed");
    let direct = sim.metrics.counter("flame.bytes_uploaded") - direct_baseline;
    let total_entry: u64 = platform.servers.iter().map(|s| s.total_entry_bytes).sum::<u64>() - entry_baseline;
    let ferried = total_entry.saturating_sub(direct);
    let reachable = world
        .campaigns
        .flame_clients
        .values()
        .filter(|c| platform.reach_server_faulted(&world.dns, &sim.faults, sim.now(), &c.domains).is_ok())
        .count();
    let per_week = 7.0 / days.max(1) as f64;
    let row = E13Row {
        sinkhole_fraction: frac,
        servers_seized: op.seized_servers.len(),
        domains_seized: op.seized_domains.len(),
        reachable_clients: reachable as f64 / clients.max(1) as f64,
        direct_bytes_week: direct as f64 * per_week,
        ferried_bytes_week: ferried as f64 * per_week,
        total_bytes_week: total_entry as f64 * per_week,
        stick_backlog: world.usb_drives[usb].hidden_records().len(),
    };
    probe.count("flame.bytes_uploaded", sim.metrics.counter("flame.bytes_uploaded"));
    Point { row, world, sim, setup_s, run_s }
}

/// The inputs `run_all_modules` snapshots for a client before its VM runs.
fn module_inputs(world: &World, host_id: HostId) -> ModuleInputs {
    let host = &world.hosts[host_id];
    let client = &world.campaigns.flame_clients[&host_id];
    let windows = WinPath::new(r"C:\Windows");
    let files = host
        .fs
        .iter()
        .filter(|(p, _)| !p.starts_with(&windows))
        .map(|(p, n)| (p.as_str().to_owned(), n.data.len()))
        .collect();
    let bt_devices = match world.radio_of.get(&host_id) {
        Some(radio) if host.config.bluetooth => world
            .bluetooth
            .discover_from(*radio)
            .into_iter()
            .filter_map(|r| world.bluetooth.radio(r).map(|x| x.name.clone()))
            .collect(),
        _ => Vec::new(),
    };
    let av_event = world
        .av
        .get(&host_id)
        .filter(|av| av.behavioural_alerts() > 0)
        .map(|_| "security product referenced a flame component".to_owned());
    ModuleInputs {
        host_name: host.name().to_owned(),
        files,
        approved: client.approved.clone(),
        summarized: client.summarized.clone(),
        uploaded: client.uploaded.clone(),
        has_microphone: true,
        bt_devices,
        av_event,
    }
}

/// Times one module cycle on every client of a finished point: first
/// `run_all_modules` as a whole, then each module's `Vm::run` alone under
/// its capability-gated `host_env`. The gap between the two is the host
/// table rebuild and input clones. Mutates the world, so call it only after
/// the point's row is checked.
pub fn probe_modules(world: &mut World, sim: &mut WorldSim, probe: &mut Probe) {
    let hosts: Vec<HostId> = world.campaigns.flame_clients.keys().copied().collect();
    for host in hosts {
        probe.sample("flame.modules_us", || flame::client::run_all_modules(world, sim, host));
        if !world.campaigns.flame_clients.contains_key(&host) {
            continue;
        }
        let inputs = module_inputs(world, host);
        let FlameClient { modules: installed, vm, .. } =
            world.campaigns.flame_clients.get_mut(&host).expect("checked above");
        for (name, module) in installed.iter().filter(|(name, _)| name.as_str() != "SUICIDE") {
            let (mut env, _effects) = modules::host_env(inputs.clone(), modules::module_capabilities(name));
            let _ = probe.sample("script.vm_run_us", || vm.run(&module.chunk, &mut env, VmLimits::default()));
            probe.count("script.vm_runs", 1);
            probe.count("script.fuel", vm.last_fuel_used());
        }
    }
}

/// Consecutive seeds a run cycles through, one grid pass each. The corpora
/// differ by seed (3–10 documents of 20 KB–2 MB per client), and so do the
/// time and memory of a pass; the cycle averages that out of a run.
pub const SEEDS: u64 = 4;

/// The E13 grid workload.
#[derive(Debug)]
pub struct Takedown {
    seeds: Vec<u64>,
    /// The public experiment's rows at each seed, computed once.
    expected: Vec<Vec<E13Row>>,
}

impl Takedown {
    /// The workload over seeds `seed..seed + SEEDS`; runs the public
    /// experiment once per seed for the reference rows, on this thread, so
    /// that no worker's heap adds to the process's peak memory.
    pub fn new(seed: u64) -> Takedown {
        let seeds: Vec<u64> = (0..SEEDS).map(|i| seed.wrapping_add(i)).collect();
        let expected =
            seeds.iter().map(|&s| e13_takedown_resilience_t(s, CLIENTS, DAYS, &FRACTIONS, 1)).collect();
        Takedown { seeds, expected }
    }
}

impl Workload for Takedown {
    fn period(&self) -> usize {
        self.seeds.len()
    }

    fn setup_only(&mut self, index: usize) -> f64 {
        // The set-up of every point, without the run phase: the point's
        // set-up seconds are measured before its first event.
        let seed = self.seeds[index % self.seeds.len()];
        let mut probe = Probe::new(false);
        FRACTIONS.iter().map(|&frac| point(seed, frac, CLIENTS, 0, &mut probe).setup_s).sum()
    }

    fn iterate(&mut self, index: usize, mut probe: Probe, verdict: &mut Verdict) -> Iteration {
        let (mut setup_s, mut wall_s, mut run_s) = (0.0, 0.0, 0.0);
        let seed = self.seeds[index % self.seeds.len()];
        let mut rows = Vec::new();
        for (i, &frac) in FRACTIONS.iter().enumerate() {
            let mut p = point(seed, frac, CLIENTS, DAYS, &mut probe);
            let expected = &self.expected[index % self.seeds.len()][i];
            verdict.op(|c| {
                c.that(p.row == *expected, || {
                    format!("takedown: seed {seed} row {frac} {:?} != {expected:?}", p.row)
                })
            });
            if probe.armed() {
                probe_modules(&mut p.world, &mut p.sim, &mut probe);
            }
            setup_s += p.setup_s;
            run_s += p.run_s;
            rows.push(p.row);
            let teardown = Instant::now();
            drop((p.world, p.sim));
            wall_s += p.setup_s + p.run_s + teardown.elapsed().as_secs_f64();
            probe.calibrate();
        }
        // Seed-generic law: seizing more servers never raises direct bytes.
        verdict.op(|c| {
            c.that(rows.windows(2).all(|w| w[1].direct_bytes_week <= w[0].direct_bytes_week), || {
                "takedown: direct bytes/week not monotone in the sinkhole fraction".into()
            })
        });
        Iteration { setup_s, wall_s, run_s, resume_s: 0.0, points: FRACTIONS.len() as u64, probe }
    }
}
