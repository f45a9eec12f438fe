//! Differential test for the Shamoon spread frontier.
//!
//! The dropper's spreading round walks a per-zone frontier of hosts not yet
//! seen infected instead of re-scanning the whole zone. It is proven here
//! against the naive walk it replaced: one pass over
//! `Topology::peers_of(from)`, skipping infected peers. Each seeded small
//! enterprise runs twice from the same seed, once as shipped and once with
//! the naive walk installed through `ShamoonState::spread_override`, and
//! everything observable must match: the infections with their order, time,
//! vector and wiper name; the trace and span feed byte for byte; the
//! metrics; the wipe reports; and the executed-event count.
//!
//! The worlds are built to hit the frontier's edge cases: hosts with
//! sharing disabled (and re-enabled mid-run), hosts moved between zones
//! mid-run (into saturated zones too), hosts bricked mid-run, peers infected
//! outside the spread tick through `infect_host`, and `spread_once` called
//! from a host that is not infected.

use malsim::prelude::*;
use malsim_kernel::span::SpanId;
use malsim_kernel::time::{SimDuration, SimTime};
use malsim_kernel::trace::TraceCategory;
use malsim_malware::shamoon::dropper;
use malsim_net::lateral;
use malsim_net::topology::ZoneId;

/// Seeded enterprises compared per run.
const SEEDS: u64 = 240;

/// The reference: the spreading round as it was before the frontier.
fn naive_spread(world: &mut World, sim: &mut WorldSim, from: HostId, from_span: Option<SpanId>) {
    for peer in world.topology.peers_of(from) {
        if world.campaigns.shamoon.is_infected(peer) {
            continue;
        }
        match lateral::can_copy_to_share(&world.hosts[peer]) {
            Ok(()) => dropper::infect_host_from(world, sim, peer, "share-psexec", from_span),
            Err(reason) => {
                let message = format!("share probe of {} failed: {reason:?}", world.hosts[peer].name());
                match from_span {
                    Some(span) => sim.record_in(span, TraceCategory::Net, world.actor(from), message),
                    None => sim.record(TraceCategory::Net, world.actor(from), message),
                }
            }
        }
    }
}

/// `hours` before the hard-coded trigger.
fn before_trigger(hours: u64) -> SimTime {
    SimTime::from_millis(shamoon::aramco_trigger().as_millis() - hours * 3_600_000)
}

/// Deterministic splitmix64, the generator idiom of `sched_model`.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn host(&mut self, fleet: usize) -> HostId {
        HostId::new(self.below(fleet as u64) as usize)
    }
}

/// A mid-run intervention, scheduled identically on both sides.
#[derive(Clone, Copy, Debug)]
enum Poke {
    /// Move a host into another zone.
    Move { host: HostId, zone: usize },
    /// Infect a host outside the spread tick.
    Infect { host: HostId },
    /// Run a spreading round from the first uninfected host of `near`'s
    /// zone.
    SpreadFromUninfected { near: HostId },
    /// Turn a host's file sharing back on.
    Share { host: HostId },
    /// Brick a host.
    Brick { host: HostId },
}

/// One generated enterprise.
#[derive(Debug)]
struct Plan {
    seed: u64,
    zones: usize,
    hosts_per_zone: usize,
    start: SimTime,
    armed: bool,
    no_sharing: Vec<HostId>,
    patients: Vec<HostId>,
    pokes: Vec<(SimDuration, Poke)>,
}

fn plan(seed: u64) -> Plan {
    let mut g = Gen(seed);
    let zones = 2 + g.below(3) as usize;
    let hosts_per_zone = 3 + g.below(10) as usize;
    let fleet = zones * (hosts_per_zone + 1);
    let start = before_trigger(4 + g.below(20));
    let armed = g.below(5) != 0;
    let no_sharing = (0..fleet).filter(|_| g.below(5) == 0).map(HostId::new).collect();
    let patients = (0..1 + g.below(3)).map(|_| g.host(fleet)).collect();
    let mut pokes = Vec::new();
    for _ in 0..2 + g.below(6) {
        let at = SimDuration::from_mins(1 + g.below(20 * 60));
        let poke = match g.below(5) {
            0 => Poke::Move { host: g.host(fleet), zone: g.below(zones as u64) as usize },
            1 => Poke::Infect { host: g.host(fleet) },
            2 => Poke::SpreadFromUninfected { near: g.host(fleet) },
            3 => Poke::Share { host: g.host(fleet) },
            _ => Poke::Brick { host: g.host(fleet) },
        };
        pokes.push((at, poke));
    }
    // Every world moves a host and calls `spread_once` off the tick at
    // least once, whatever the draws above.
    pokes.push((
        SimDuration::from_mins(1 + g.below(10 * 60)),
        Poke::Move { host: g.host(fleet), zone: g.below(zones as u64) as usize },
    ));
    pokes.push((
        SimDuration::from_mins(1 + g.below(10 * 60)),
        Poke::SpreadFromUninfected { near: g.host(fleet) },
    ));
    Plan { seed, zones, hosts_per_zone, start, armed, no_sharing, patients, pokes }
}

/// How often each edge case actually happened on one side.
#[derive(Debug, Default, PartialEq, Eq)]
struct Hits {
    moves: u64,
    outside_infections: u64,
    uninfected_spreads: u64,
    failed_probes: u64,
}

/// Everything both sides must agree on.
#[derive(Debug, PartialEq)]
struct Observed {
    /// `(host, infected_at, vector, wiper_name)` in infection order.
    infections: Vec<(HostId, SimTime, String, String)>,
    feed: String,
    metrics: String,
    reports: Vec<shamoon::reporter::WipeReport>,
    executed: u64,
    bricked: usize,
    hits: Hits,
}

fn poke(w: &mut World, s: &mut WorldSim, poke: Poke) {
    match poke {
        Poke::Move { host, zone } => {
            w.topology.place(host, ZoneId::new(zone));
            s.metrics.incr("test.moves");
        }
        Poke::Infect { host } => {
            if !w.campaigns.shamoon.is_infected(host) {
                s.metrics.incr("test.outside_infections");
            }
            dropper::infect_host(w, s, host, "usb");
        }
        Poke::SpreadFromUninfected { near } => {
            let zone = w.topology.zone_of(near).expect("every host is placed");
            let uninfected =
                w.topology.zone(zone).hosts().iter().copied().find(|h| !w.campaigns.shamoon.is_infected(*h));
            if let Some(from) = uninfected {
                s.metrics.incr("test.uninfected_spreads");
                dropper::spread_once(w, s, from);
            }
        }
        Poke::Share { host } => w.hosts[host].config.file_sharing = true,
        Poke::Brick { host } => w.hosts[host].brick(),
    }
}

fn run(plan: &Plan, reference: bool) -> Observed {
    let mut builder = ScenarioBuilder::new(plan.seed);
    builder.start(plan.start);
    let (mut world, mut sim) = builder.enterprise(plan.zones, plan.hosts_per_zone);
    let pki = Pki::install(&mut world);
    if plan.armed {
        pki.arm_shamoon(&mut world);
    }
    world.campaigns.shamoon.trigger_at = Some(shamoon::aramco_trigger());
    if reference {
        world.campaigns.shamoon.spread_override = Some(naive_spread);
    }
    for &h in &plan.no_sharing {
        world.hosts[h].config.file_sharing = false;
    }
    for &(at, p) in &plan.pokes {
        sim.schedule_at(plan.start + at, move |w: &mut World, s| poke(w, s, p));
    }
    for &h in &plan.patients {
        dropper::infect_host(&mut world, &mut sim, h, "phish");
    }
    sim.run_until(&mut world, shamoon::aramco_trigger() + SimDuration::from_hours(1));

    let mut by_span: Vec<_> = world.campaigns.shamoon.infections.iter().collect();
    by_span.sort_by_key(|(_, inf)| inf.span);
    let infections = by_span
        .into_iter()
        .map(|(h, inf)| (*h, inf.record.infected_at, inf.record.vector.clone(), inf.wiper_name.clone()))
        .collect();
    let hits = Hits {
        moves: sim.metrics.counter("test.moves"),
        outside_infections: sim.metrics.counter("test.outside_infections"),
        uninfected_spreads: sim.metrics.counter("test.uninfected_spreads"),
        failed_probes: sim.trace.events().iter().filter(|e| e.message.starts_with("share probe of")).count()
            as u64,
    };
    Observed {
        infections,
        feed: export::jsonl(&sim.trace, &sim.spans),
        metrics: format!("{:?}", sim.metrics),
        reports: world.campaigns.shamoon.reports.clone(),
        executed: sim.executed(),
        bricked: world.bricked_count(),
        hits,
    }
}

#[test]
fn frontier_spread_matches_the_naive_walk() {
    let mut total = Hits::default();
    let mut infected = 0;
    for seed in 0..SEEDS {
        let plan = plan(seed);
        let frontier = run(&plan, false);
        let naive = run(&plan, true);
        assert_eq!(frontier.infections, naive.infections, "infection order diverged: {plan:?}");
        assert!(frontier.feed == naive.feed, "trace feed diverged: {plan:?}");
        assert_eq!(frontier, naive, "run diverged: {plan:?}");
        infected += frontier.infections.len();
        total.moves += frontier.hits.moves;
        total.outside_infections += frontier.hits.outside_infections;
        total.uninfected_spreads += frontier.hits.uninfected_spreads;
        total.failed_probes += frontier.hits.failed_probes;
    }
    // The seeds exercise every edge case, many times over.
    assert!(total.moves >= SEEDS, "{total:?}");
    assert!(total.outside_infections >= 20, "{total:?}");
    assert!(total.uninfected_spreads >= SEEDS / 2, "{total:?}");
    assert!(total.failed_probes >= 1_000, "{total:?}");
    assert!(infected as u64 >= 5 * SEEDS, "spread happened: {infected} infections");
}

#[test]
fn a_host_moved_into_a_saturated_zone_is_still_reached() {
    let mut builder = ScenarioBuilder::new(3);
    builder.start(before_trigger(6));
    let (mut world, mut sim) = builder.enterprise(2, 4);
    world.campaigns.shamoon.trigger_at = Some(shamoon::aramco_trigger());
    dropper::infect_host(&mut world, &mut sim, HostId::new(1), "phish");
    sim.run_until(&mut world, sim.now() + SimDuration::from_hours(2));
    assert_eq!(world.campaigns.shamoon.infections.len(), 5, "zone 0 saturated");
    // Zone 0's frontier is now empty; a newcomer must still be probed.
    let newcomer = HostId::new(7);
    world.topology.place(newcomer, ZoneId::new(0));
    sim.run_until(&mut world, sim.now() + SimDuration::from_mins(30));
    assert!(world.campaigns.shamoon.is_infected(newcomer));
    assert_eq!(world.campaigns.shamoon.infections[&newcomer].record.vector, "share-psexec");
}
