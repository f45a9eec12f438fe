//! E9 at the paper's Aramco scale: 30 sites of 1000 workstations plus a
//! server each, three of them seeded, at the seed of the committed
//! `e9_shamoon_aramco` bench row. The run is about a second in release and
//! far longer in debug, so debug test runs skip it.

use malsim::prelude::*;
use malsim_kernel::time::{SimDuration, SimTime};

const SEED: u64 = 815;
const ZONES: usize = 30;
const HOSTS_PER_ZONE: usize = 1000;
const SEEDED_ZONES: usize = 3;

#[test]
#[cfg_attr(debug_assertions, ignore = "paper scale; run with --release")]
fn aramco_saturates_the_seeded_sites_and_bricks_them_at_0808() {
    // Built exactly as `experiments::e9_shamoon_wipe_run` builds it, but
    // stopped just before the trigger to look at the fleet.
    let mut builder = ScenarioBuilder::new(SEED);
    builder.start(SimTime::from_utc(2012, 8, 13, 6, 0, 0)).without_trace();
    let (mut world, mut sim) = builder.enterprise(ZONES, HOSTS_PER_ZONE);
    let pki = Pki::install(&mut world);
    pki.arm_shamoon(&mut world);
    world.campaigns.shamoon.trigger_at = Some(shamoon::aramco_trigger());
    for z in 0..SEEDED_ZONES {
        let patient_zero = HostId::new(z * (HOSTS_PER_ZONE + 1) + 1);
        shamoon::dropper::infect_host(&mut world, &mut sim, patient_zero, "phish");
    }

    let seeded_hosts = SEEDED_ZONES * (HOSTS_PER_ZONE + 1);
    sim.run_until(&mut world, SimTime::from_millis(shamoon::aramco_trigger().as_millis() - 1));
    assert_eq!(world.campaigns.shamoon.infections.len(), seeded_hosts, "seeded sites saturate");
    assert_eq!(world.campaigns.shamoon.wiped_count(), 0, "nothing wiped before 08:08");
    assert_eq!(world.bricked_count(), 0, "nothing bricked before 08:08");

    sim.run_until(&mut world, shamoon::aramco_trigger() + SimDuration::from_hours(2));
    assert_eq!(world.hosts.len(), 30_030, "the fleet");
    assert_eq!(world.campaigns.shamoon.infections.len(), 3_003);
    assert_eq!(world.bricked_count(), 3_003);
    assert_eq!(world.campaigns.shamoon.reports.len(), 3_003);
    assert_eq!(sim.executed(), 303_306, "kernel events of the committed bench row");

    // The library entry point agrees with the split run.
    let e9 = experiments::e9_shamoon_wipe(SEED, ZONES, HOSTS_PER_ZONE, SEEDED_ZONES);
    assert_eq!((e9.fleet, e9.infected, e9.bricked, e9.reports), (30_030, 3_003, 3_003, 3_003));
}
