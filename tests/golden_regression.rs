//! Integration: the golden-snapshot regression suite.
//!
//! Every experiment E1–E13 regenerates its headline rows at the documented
//! EXPERIMENTS.md scale and must match the canonical JSON checked in under
//! `tests/golden/` byte-for-byte. On drift the failure message lists each
//! changed field with its path, expected value, and live value.
//!
//! Re-record after an intended change with:
//!
//! ```sh
//! MALSIM_BLESS=1 cargo test --test golden_regression
//! ```
//!
//! and review the resulting `git diff` — moved headline numbers are the
//! point of this suite, not noise.

use malsim::prelude::*;

/// Every experiment, one golden each. Collects all drift before failing so
/// a broken substrate reports the full blast radius at once.
#[test]
fn experiments_match_golden_snapshots() {
    // With `MALSIM_METRICS=1` the whole suite runs with the telemetry plane
    // armed, proving the goldens stay byte-identical while every kernel
    // dispatch and job counter is being recorded (CI's `telemetry` job).
    telemetry::arm_if_env();
    let threads = sweep::PoolConfig::default().resolve();
    let mut failures = Vec::new();
    for spec in experiments::golden_specs() {
        let live = spec.run(threads);
        if let Err(report) = golden::check(spec.name, &live) {
            failures.push(report);
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} golden snapshots drifted:\n\n{}",
        failures.len(),
        experiments::golden_specs().len(),
        failures.join("\n\n")
    );
}

/// The registry stays in lockstep with the checked-in snapshot files: no
/// orphaned goldens, no experiment without one.
#[test]
fn golden_directory_matches_the_registry() {
    if golden::bless_requested() {
        // While blessing, files are being (re)written; skip the inventory.
        return;
    }
    let mut expected: Vec<String> =
        experiments::golden_specs().iter().map(|s| format!("{}.json", s.name)).collect();
    expected.sort();
    let mut on_disk: Vec<String> = std::fs::read_dir(golden::golden_dir())
        .expect("golden dir exists — record snapshots with MALSIM_BLESS=1")
        .map(|e| e.expect("readable dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    assert_eq!(on_disk, expected, "tests/golden/ out of sync with experiments::golden_specs()");
}

/// The harness actually bites: a perturbed copy of a golden fails the diff
/// with a path-qualified report (the "deliberate perturbation" check from
/// the issue, kept as a permanent test).
#[test]
fn perturbed_golden_is_caught_with_a_readable_report() {
    if golden::bless_requested() {
        // While blessing a fresh checkout the snapshot may not exist yet.
        return;
    }
    let text = std::fs::read_to_string(golden::golden_path("e9_shamoon_wipe"))
        .expect("e9 golden exists — record snapshots with MALSIM_BLESS=1");
    let golden_value = report::parse(&text).expect("golden parses");
    let mut perturbed = golden_value.clone();
    let Json::Obj(ref mut pairs) = perturbed else { panic!("e9 golden is an object") };
    let bricked = pairs.iter_mut().find(|(k, _)| k == "bricked").expect("has bricked");
    bricked.1 = Json::U64(1);
    let drift = report::diff(&golden_value, &perturbed);
    assert_eq!(drift.len(), 1, "{drift:?}");
    assert!(drift[0].starts_with("at $.bricked: expected "), "{drift:?}");
    assert!(drift[0].ends_with(", got 1"), "{drift:?}");
}
