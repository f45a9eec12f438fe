//! Process-wide telemetry hook: the kernel's half of the metrics plane.
//!
//! The kernel stays dependency-free — it neither owns a metrics registry nor
//! knows how metrics are exported. Instead, a host layer (in this workspace,
//! `malsim::telemetry`) implements [`TelemetryHook`] and installs one
//! `'static` instance process-wide via [`install`]. Every [`Sim`] created
//! *after* installation captures the hook in its dispatch probe (see
//! [`crate::sched`]) and flushes it one [`TelemetryDelta`] at the end of
//! every `run*` call and once more when dropped; nothing is called per
//! event. A `Sim` created before installation — or in a process that never
//! installs — carries no probe and pays one branch per dispatch.
//!
//! Installation is deliberately one-way (a [`OnceLock`]): the hook is meant
//! to be armed once at process start, before any simulation exists, so that
//! observation never changes mid-run. Whether the registry behind the hook
//! is recording or discarding is the host layer's business — the kernel only
//! promises to flush.
//!
//! [`Sim`]: crate::sched::Sim

use std::sync::OnceLock;

use crate::calq::QueueStats;
use crate::trace::TraceCategory;

/// Slots of a per-category dispatch tally: one per [`TraceCategory`], in
/// declaration order (`category as usize`), then one for untraced events.
pub const DISPATCH_SLOTS: usize = TraceCategory::ALL.len() + 1;

/// What one [`TelemetryHook::flush`] reports about one [`Sim`](crate::sched::Sim).
/// Counts are deltas since that sim's previous flush, so summing them across
/// sims and runs yields process totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetryDelta {
    /// Dispatches by trace-category attribution (the first category the
    /// event recorded), indexed like [`DISPATCH_SLOTS`].
    pub dispatches: [u64; DISPATCH_SLOTS],
    /// The largest pre-dispatch queue depth the sim has seen so far.
    pub queue_depth_max: usize,
    /// The calendar queue's structural counters (resizes, tombstone reaps,
    /// cursor pull-backs).
    pub queue: QueueStats,
}

/// Observer interface the kernel flushes into when a hook is installed.
///
/// Implementations must be cheap and non-blocking, and must not observe
/// anything back into the simulation: telemetry is strictly write-only from
/// the kernel's point of view, which is what keeps armed and unarmed runs
/// byte-identical.
pub trait TelemetryHook: Send + Sync {
    /// One sim's dispatches and queue counters since its previous flush.
    fn flush(&self, delta: TelemetryDelta);
}

static HOOK: OnceLock<&'static dyn TelemetryHook> = OnceLock::new();

/// Installs the process-wide hook. Returns `false` if one was already
/// installed (the first installation wins; there is no uninstall).
pub fn install(hook: &'static dyn TelemetryHook) -> bool {
    HOOK.set(hook).is_ok()
}

/// The installed hook, if any. Captured by [`Sim::new`](crate::sched::Sim::new).
pub fn installed() -> Option<&'static dyn TelemetryHook> {
    HOOK.get().copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct CountingHook {
        dispatches: AtomicU64,
    }

    impl TelemetryHook for CountingHook {
        fn flush(&self, delta: TelemetryDelta) {
            self.dispatches.fetch_add(delta.dispatches.iter().sum(), Ordering::Relaxed);
        }
    }

    // One test only: installation is process-global, so everything about the
    // installed hook has to be asserted in a single sequence.
    #[test]
    fn install_is_first_wins_and_sims_capture_it() {
        use crate::sched::Sim;
        use crate::time::{SimDuration, SimTime};

        assert!(installed().is_none(), "no hook before install");
        static HOOK_A: CountingHook = CountingHook { dispatches: AtomicU64::new(0) };
        static HOOK_B: CountingHook = CountingHook { dispatches: AtomicU64::new(0) };
        assert!(install(&HOOK_A));
        assert!(!install(&HOOK_B), "second install is rejected");

        let mut sim: Sim<Vec<u32>> = Sim::new(SimTime::EPOCH, 1);
        let mut world = Vec::new();
        sim.schedule_in(SimDuration::from_secs(1), |w: &mut Vec<u32>, sim| {
            sim.record(TraceCategory::Net, "host:a", "probe");
            w.push(1);
        });
        sim.schedule_in(SimDuration::from_secs(2), |w: &mut Vec<u32>, _| w.push(2));
        sim.run(&mut world);
        assert_eq!(world, vec![1, 2]);
        assert_eq!(
            HOOK_A.dispatches.load(Ordering::Relaxed),
            sim.executed(),
            "the flushed dispatch total equals the dispatch count"
        );
        assert_eq!(HOOK_B.dispatches.load(Ordering::Relaxed), 0, "the losing hook never fires");
    }
}
