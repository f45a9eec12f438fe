//! A bucketed calendar queue over generational slab storage: the pending-event
//! structure behind [`crate::sched::Sim`].
//!
//! # Layout
//!
//! Events live in a [`GenSlab`]; the priority structure is a flat ring of
//! buckets, each an intrusive singly linked FIFO chained through the slab
//! (`Node::next`). An event at time `t` (milliseconds) hashes to virtual
//! bucket `t >> shift` — the bucket width is always a power of two — and to
//! physical bucket `(t >> shift) & (buckets.len() - 1)`. Within a bucket,
//! nodes are kept sorted by `time`; because sequence numbers are issued in
//! insertion order and a new node is placed *after* every node with an equal
//! or earlier time, `(time, seq)` order is a structural property of the chain
//! rather than something a comparator must re-derive on every heap sift.
//!
//! Dequeue walks a cursor over virtual buckets. All events of one timestamp
//! sit contiguously at the head of one bucket, so a same-timestamp batch
//! drains with one O(1) head-unlink per event and no re-touching of the
//! priority structure. When a full lap of the ring finds nothing due (a
//! sparse region of the schedule), the cursor jumps straight to the earliest
//! chained node instead of milling through empty buckets.
//!
//! # Cancellation
//!
//! [`CalQueue::cancel`] is an O(1) slot invalidation: the payload is dropped
//! immediately and the node becomes a tombstone that the dequeue cursor reaps
//! in passing. Handles are generation-checked [`SlotRef`]s, so a handle kept
//! past its event's lifetime goes stale rather than aliasing whatever event
//! reuses the slot.
//!
//! # Sizing
//!
//! The ring resizes when the live population outgrows (or far undershoots)
//! the bucket count, and the width is re-derived from the median gap between
//! distinct event times sampled across the queue — wide enough that a cluster
//! of events lands in few buckets, narrow enough that one bucket rarely holds
//! many distinct times. All of this is deterministic: layout depends only on
//! the sequence of operations, and dispatch order is independent of layout.

use crate::ids::{GenSlab, SlotRef};
use crate::time::SimTime;

const NIL: u32 = u32::MAX;
/// Initial and minimum ring size; kept a power of two.
const MIN_BUCKETS: usize = 16;
/// Ring size ceiling: beyond this, buckets just get denser.
const MAX_BUCKETS: usize = 1 << 21;
/// Bucket width before the first resize has sampled the schedule: 2^10 ms.
const DEFAULT_SHIFT: u32 = 10;
/// Widest allowed bucket: 2^40 ms (~35 years).
const MAX_SHIFT: u32 = 40;

#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

impl List {
    const EMPTY: List = List { head: NIL, tail: NIL };
}

/// What a slot currently holds. `Reserved*` states exist for pinned
/// (repeating) events: between a pop and the re-arm the slot stays allocated
/// under its original generation so the original handle keeps working.
enum NodeState<T> {
    /// Linked in a bucket, payload ready to fire.
    Queued(T),
    /// Linked in a bucket, cancelled; reaped when the cursor reaches it.
    Tombstone,
    /// Pinned slot mid-dispatch, awaiting [`CalQueue::rearm`] or
    /// [`CalQueue::release`].
    Reserved,
    /// Cancelled while reserved: the pending re-arm must not happen.
    ReservedCancelled,
}

struct Node<T> {
    time: u64,
    seq: u64,
    next: u32,
    /// Pinned slots survive pops (for repeating events); unpinned slots are
    /// freed as they fire.
    pinned: bool,
    state: NodeState<T>,
}

/// Bucketed calendar queue with O(1) amortized insert/pop/cancel and
/// structural `(time, insertion)` ordering. See the module docs for layout.
///
/// # Examples
///
/// ```
/// use malsim_kernel::calq::CalQueue;
/// use malsim_kernel::time::SimTime;
///
/// let mut q: CalQueue<&str> = CalQueue::new();
/// q.insert(SimTime::from_millis(20), "late");
/// let h = q.insert(SimTime::from_millis(10), "early");
/// q.insert(SimTime::from_millis(10), "early-too");
/// assert!(q.cancel(h));
/// assert!(!q.cancel(h), "cancel is idempotent");
/// assert_eq!(q.pop(), Some((SimTime::from_millis(10), "early-too")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct CalQueue<T> {
    slab: GenSlab<Node<T>>,
    buckets: Vec<List>,
    /// log2 of the bucket width in milliseconds.
    shift: u32,
    /// Virtual bucket index the dequeue scan has reached.
    cursor: u64,
    /// Nodes chained in buckets, including not-yet-reaped tombstones.
    linked: usize,
    /// Chained nodes that still hold a payload.
    live: usize,
    next_seq: u64,
    resizes: u64,
    tombstone_reaps: u64,
    cursor_pullbacks: u64,
}

/// Always-on structural counters of one [`CalQueue`], all deterministic:
/// they depend only on the sequence of operations, never on wall time or
/// thread interleaving. Snapshot via [`CalQueue::stats`] (or
/// [`Sim::queue_stats`](crate::sched::Sim::queue_stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Ring rebuilds (growth, shrink, or width re-derivation).
    pub resizes: u64,
    /// Cancelled nodes unchained and freed — lazily by the dequeue cursor,
    /// in bulk when the queue drains, or during a rebuild.
    pub tombstone_reaps: u64,
    /// Inserts that landed behind a scanned-ahead cursor and pulled it back
    /// (the price of peeking far into a sparse schedule).
    pub cursor_pullbacks: u64,
}

impl std::ops::Sub for QueueStats {
    type Output = QueueStats;

    /// The counters accumulated between snapshot `earlier` and `self`.
    fn sub(self, earlier: QueueStats) -> QueueStats {
        QueueStats {
            resizes: self.resizes - earlier.resizes,
            tombstone_reaps: self.tombstone_reaps - earlier.tombstone_reaps,
            cursor_pullbacks: self.cursor_pullbacks - earlier.cursor_pullbacks,
        }
    }
}

impl<T> Default for CalQueue<T> {
    fn default() -> Self {
        CalQueue::new()
    }
}

impl<T> std::fmt::Debug for CalQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CalQueue")
            .field("live", &self.live)
            .field("linked", &self.linked)
            .field("buckets", &self.buckets.len())
            .field("width_ms", &(1u64 << self.shift))
            .field("resizes", &self.resizes)
            .field("tombstone_reaps", &self.tombstone_reaps)
            .field("cursor_pullbacks", &self.cursor_pullbacks)
            .finish()
    }
}

impl<T> CalQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        CalQueue {
            slab: GenSlab::new(),
            buckets: vec![List::EMPTY; MIN_BUCKETS],
            shift: DEFAULT_SHIFT,
            cursor: 0,
            linked: 0,
            live: 0,
            next_seq: 0,
            resizes: 0,
            tombstone_reaps: 0,
            cursor_pullbacks: 0,
        }
    }

    /// Chained events, including cancelled ones not yet reaped in passing.
    pub fn len(&self) -> usize {
        self.linked
    }

    /// True when no event is left to fire.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Events that would still fire (cancelled ones excluded).
    pub fn live_len(&self) -> usize {
        self.live
    }

    /// How many times the ring has been rebuilt.
    pub fn resizes(&self) -> u64 {
        self.resizes
    }

    /// Cancelled nodes reaped so far (see [`QueueStats::tombstone_reaps`]).
    pub fn tombstone_reaps(&self) -> u64 {
        self.tombstone_reaps
    }

    /// Cursor pull-backs so far (see [`QueueStats::cursor_pullbacks`]).
    pub fn cursor_pullbacks(&self) -> u64 {
        self.cursor_pullbacks
    }

    /// Snapshot of the queue's structural counters.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            resizes: self.resizes,
            tombstone_reaps: self.tombstone_reaps,
            cursor_pullbacks: self.cursor_pullbacks,
        }
    }

    /// Schedules `payload` at `time`. Events sharing a timestamp fire in
    /// insertion order.
    pub fn insert(&mut self, time: SimTime, payload: T) -> SlotRef {
        let seq = self.next_seq;
        self.next_seq += 1;
        let r = self.slab.insert(Node {
            time: time.as_millis(),
            seq,
            next: NIL,
            pinned: false,
            state: NodeState::Queued(payload),
        });
        self.link(r.index() as u32);
        self.live += 1;
        self.linked += 1;
        self.maybe_grow();
        r
    }

    /// Allocates a pinned slot without scheduling anything yet. The returned
    /// handle stays valid across every [`CalQueue::rearm`] of the slot, which
    /// is how a repeating event stays cancellable across periods.
    pub fn reserve(&mut self) -> SlotRef {
        self.slab.insert(Node { time: 0, seq: 0, next: NIL, pinned: true, state: NodeState::Reserved })
    }

    /// Arms (or re-arms) a reserved pinned slot at `time`.
    ///
    /// Returns `false` — dropping `payload` and freeing the slot — when the
    /// slot was cancelled while reserved, i.e. someone cancelled the
    /// repeating event from inside its own dispatch.
    pub fn rearm(&mut self, r: SlotRef, time: SimTime, payload: T) -> bool {
        let Some(node) = self.slab.get_mut(r) else {
            debug_assert!(false, "rearm on a dead slot");
            return false;
        };
        match node.state {
            NodeState::Reserved => {
                node.time = time.as_millis();
                node.seq = self.next_seq;
                node.next = NIL;
                node.state = NodeState::Queued(payload);
                self.next_seq += 1;
                self.link(r.index() as u32);
                self.live += 1;
                self.linked += 1;
                self.maybe_grow();
                true
            }
            NodeState::ReservedCancelled => {
                self.slab.remove(r);
                false
            }
            _ => {
                debug_assert!(false, "rearm on a slot that is not reserved");
                false
            }
        }
    }

    /// Frees a reserved pinned slot: the repeating event ended on its own.
    pub fn release(&mut self, r: SlotRef) {
        match self.slab.get(r) {
            Some(node) => {
                debug_assert!(
                    matches!(node.state, NodeState::Reserved | NodeState::ReservedCancelled),
                    "release on a slot that is not reserved"
                );
                self.slab.remove(r);
            }
            None => debug_assert!(false, "release on a dead slot"),
        }
    }

    /// Cancels a pending event: O(1), no search.
    ///
    /// Returns `true` exactly when this call stopped a future firing — the
    /// event was queued, or is a repeating event (including mid-dispatch,
    /// where the pending re-arm is suppressed). A stale handle (already
    /// fired, already cancelled, or from a reused slot) returns `false`.
    pub fn cancel(&mut self, r: SlotRef) -> bool {
        let Some(node) = self.slab.get_mut(r) else { return false };
        match node.state {
            NodeState::Queued(_) => {
                node.state = NodeState::Tombstone;
                self.live -= 1;
                true
            }
            NodeState::Reserved => {
                node.state = NodeState::ReservedCancelled;
                true
            }
            NodeState::Tombstone | NodeState::ReservedCancelled => false,
        }
    }

    /// The time of the next event to fire, reaping tombstones in passing.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        let (_, idx) = self.settle()?;
        let node = self.slab.get_index(idx as usize).expect("settled head is occupied");
        Some(SimTime::from_millis(node.time))
    }

    /// Removes and returns the earliest `(time, insertion)` event.
    ///
    /// For a pinned (repeating) event the slot is left reserved under its
    /// original generation, awaiting [`CalQueue::rearm`] or
    /// [`CalQueue::release`]; otherwise the slot is freed for reuse.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let (bucket, idx) = self.settle()?;
        self.unlink_head(bucket);
        self.linked -= 1;
        self.live -= 1;
        let node = self.slab.get_index_mut(idx as usize).expect("settled head is occupied");
        let time = node.time;
        let pinned = node.pinned;
        let state = std::mem::replace(&mut node.state, NodeState::Reserved);
        let NodeState::Queued(payload) = state else { unreachable!("settled head is queued") };
        if !pinned {
            self.slab.remove_at(idx as usize);
        }
        self.maybe_shrink();
        Some((SimTime::from_millis(time), payload))
    }

    /// Advances the cursor to the earliest queued node, reaping tombstones,
    /// and returns `(physical bucket, slot index)` of that node — still
    /// linked. `None` when nothing live remains (after purging leftover
    /// tombstones so `len()` settles back to zero).
    fn settle(&mut self) -> Option<(usize, u32)> {
        if self.live == 0 {
            if self.linked > 0 {
                self.purge_tombstones();
            }
            return None;
        }
        let nbuckets = self.buckets.len() as u64;
        let mask = nbuckets - 1;
        let mut scanned = 0u64;
        loop {
            let b = (self.cursor & mask) as usize;
            loop {
                let head = self.buckets[b].head;
                if head == NIL {
                    break;
                }
                let node = self.slab.get_index(head as usize).expect("chained slot is occupied");
                // Live nodes are never behind the cursor, so `<=` only ever
                // admits stale tombstones early — and reaps them.
                if node.time >> self.shift > self.cursor {
                    break;
                }
                match node.state {
                    NodeState::Queued(_) => return Some((b, head)),
                    NodeState::Tombstone => {
                        self.unlink_head(b);
                        self.linked -= 1;
                        self.slab.remove_at(head as usize);
                        self.tombstone_reaps += 1;
                    }
                    NodeState::Reserved | NodeState::ReservedCancelled => {
                        unreachable!("reserved slots are never chained")
                    }
                }
            }
            self.cursor += 1;
            scanned += 1;
            if scanned >= nbuckets {
                // A full lap found nothing due: the schedule is sparse here.
                // Jump straight to the earliest chained node.
                self.cursor = self.earliest_chained_vbucket().expect("live > 0 implies a chained node");
                scanned = 0;
            }
        }
    }

    /// Minimum `time >> shift` over all bucket heads. Heads suffice: each
    /// bucket chain is time-sorted, so its head is its earliest node.
    fn earliest_chained_vbucket(&self) -> Option<u64> {
        self.buckets
            .iter()
            .filter(|list| list.head != NIL)
            .map(|list| {
                let node = self.slab.get_index(list.head as usize).expect("chained slot is occupied");
                node.time >> self.shift
            })
            .min()
    }

    /// Unchains and frees every remaining tombstone (called once the last
    /// live event has fired, so lazy reaping cannot get to them).
    fn purge_tombstones(&mut self) {
        for b in 0..self.buckets.len() {
            let mut cur = self.buckets[b].head;
            while cur != NIL {
                let node = self.slab.get_index(cur as usize).expect("chained slot is occupied");
                debug_assert!(matches!(node.state, NodeState::Tombstone));
                let next = node.next;
                self.slab.remove_at(cur as usize);
                self.tombstone_reaps += 1;
                cur = next;
            }
            self.buckets[b] = List::EMPTY;
        }
        self.linked = 0;
    }

    /// Chains an occupied slot into its bucket at the position that keeps the
    /// chain time-sorted. New nodes go *after* existing nodes of the same
    /// time, so FIFO-per-timestamp holds structurally. Appending at the tail
    /// (monotone schedules, same-timestamp fan-out) is O(1).
    fn link(&mut self, idx: u32) {
        let node = self.slab.get_index(idx as usize).expect("linking an occupied slot");
        let time = node.time;
        let vbucket = time >> self.shift;
        // The cursor may have scanned ahead of this time (e.g. a peek walked
        // to a far-future event); pull it back so the scan can't skip the new
        // node's bucket and break `(time, seq)` order.
        if vbucket < self.cursor {
            self.cursor = vbucket;
            self.cursor_pullbacks += 1;
        }
        let mask = self.buckets.len() as u64 - 1;
        let b = (vbucket & mask) as usize;
        let list = self.buckets[b];
        if list.tail == NIL {
            self.buckets[b] = List { head: idx, tail: idx };
            return;
        }
        let tail_time = self.slab.get_index(list.tail as usize).expect("chained slot is occupied").time;
        if tail_time <= time {
            self.slab.get_index_mut(list.tail as usize).expect("chained slot is occupied").next = idx;
            self.buckets[b].tail = idx;
            return;
        }
        // Walk to the first node strictly later than `time`; insert before it.
        let mut prev = NIL;
        let mut cur = list.head;
        loop {
            debug_assert!(cur != NIL, "tail check guarantees a later node exists");
            let cur_time = self.slab.get_index(cur as usize).expect("chained slot is occupied").time;
            if cur_time > time {
                break;
            }
            prev = cur;
            cur = self.slab.get_index(cur as usize).expect("chained slot is occupied").next;
        }
        self.slab.get_index_mut(idx as usize).expect("linking an occupied slot").next = cur;
        if prev == NIL {
            self.buckets[b].head = idx;
        } else {
            self.slab.get_index_mut(prev as usize).expect("chained slot is occupied").next = idx;
        }
    }

    fn unlink_head(&mut self, b: usize) {
        let head = self.buckets[b].head;
        debug_assert!(head != NIL, "unlink_head on an empty bucket");
        let node = self.slab.get_index_mut(head as usize).expect("chained slot is occupied");
        let next = std::mem::replace(&mut node.next, NIL);
        self.buckets[b].head = next;
        if next == NIL {
            self.buckets[b].tail = NIL;
        }
    }

    fn maybe_grow(&mut self) {
        if self.live > self.buckets.len() * 2 && self.buckets.len() < MAX_BUCKETS {
            self.rebuild();
        }
    }

    fn maybe_shrink(&mut self) {
        if self.buckets.len() > MIN_BUCKETS && self.live < self.buckets.len() / 8 {
            self.rebuild();
        }
    }

    /// Rebuilds the ring sized and widthed for the current population:
    /// unchains everything (dropping tombstones), re-derives the bucket width
    /// from the median gap between sampled distinct event times, and relinks
    /// in `(time, seq)` order so every relink is a tail append.
    fn rebuild(&mut self) {
        self.resizes += 1;
        let mut order: Vec<(u64, u64, u32)> = Vec::with_capacity(self.live);
        for b in 0..self.buckets.len() {
            let mut cur = self.buckets[b].head;
            while cur != NIL {
                let node = self.slab.get_index_mut(cur as usize).expect("chained slot is occupied");
                let next = std::mem::replace(&mut node.next, NIL);
                match node.state {
                    NodeState::Queued(_) => order.push((node.time, node.seq, cur)),
                    NodeState::Tombstone => {
                        self.slab.remove_at(cur as usize);
                        self.tombstone_reaps += 1;
                    }
                    NodeState::Reserved | NodeState::ReservedCancelled => {
                        unreachable!("reserved slots are never chained")
                    }
                }
                cur = next;
            }
        }
        debug_assert_eq!(order.len(), self.live);
        self.linked = order.len();
        order.sort_unstable();
        self.shift = choose_shift(&order);
        let target = (order.len() * 2).next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        self.buckets = vec![List::EMPTY; target];
        self.cursor = order.first().map_or(0, |(t, _, _)| t >> self.shift);
        for &(_, _, idx) in &order {
            self.link(idx);
        }
    }
}

/// Picks `log2(bucket width)` for a population sorted by `(time, seq)`: the
/// median positive gap between up to 64 sampled consecutive times, so one
/// bucket typically spans about one distinct timestamp of the local cluster.
/// All-equal times degrade to the narrowest width, which is fine — they all
/// share one bucket regardless.
fn choose_shift(order: &[(u64, u64, u32)]) -> u32 {
    if order.len() < 2 {
        return DEFAULT_SHIFT;
    }
    let step = (order.len() / 64).max(1);
    let mut gaps: Vec<u64> = Vec::with_capacity(64);
    let mut prev = order[0].0;
    let mut i = step;
    while i < order.len() {
        let t = order[i].0;
        if t > prev {
            gaps.push(t - prev);
        }
        prev = t;
        i += step;
    }
    if gaps.is_empty() {
        return 0;
    }
    gaps.sort_unstable();
    let median = gaps[gaps.len() / 2];
    (63 - median.leading_zeros()).min(MAX_SHIFT)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(t: u64) -> SimTime {
        SimTime::from_millis(t)
    }

    #[test]
    fn pops_in_time_then_insertion_order() {
        let mut q: CalQueue<u32> = CalQueue::new();
        q.insert(ms(50), 1);
        q.insert(ms(10), 2);
        q.insert(ms(50), 3);
        q.insert(ms(10), 4);
        let fired: Vec<(u64, u32)> =
            std::iter::from_fn(|| q.pop()).map(|(t, v)| (t.as_millis(), v)).collect();
        assert_eq!(fired, vec![(10, 2), (10, 4), (50, 1), (50, 3)]);
    }

    #[test]
    fn cancel_is_o1_invalidation_and_idempotent() {
        let mut q: CalQueue<u32> = CalQueue::new();
        let a = q.insert(ms(10), 1);
        q.insert(ms(10), 2);
        assert_eq!(q.live_len(), 2);
        assert!(q.cancel(a));
        assert_eq!(q.live_len(), 1);
        assert!(!q.cancel(a));
        assert_eq!(q.pop(), Some((ms(10), 2)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.len(), 0, "tombstones are gone once the queue drains");
    }

    #[test]
    fn stale_handle_from_reused_slot_stays_dead() {
        let mut q: CalQueue<u32> = CalQueue::new();
        let a = q.insert(ms(10), 1);
        assert_eq!(q.pop(), Some((ms(10), 1)));
        let b = q.insert(ms(20), 2);
        assert_eq!(b.index(), a.index(), "slot is reused");
        assert!(!q.cancel(a), "fired handle must not cancel the new occupant");
        assert_eq!(q.pop(), Some((ms(20), 2)));
        assert!(!q.cancel(b), "fired handle reports false");
    }

    #[test]
    fn far_future_and_near_events_coexist() {
        let mut q: CalQueue<u32> = CalQueue::new();
        q.insert(ms(1 << 35), 99); // ~1 year out
        for i in 0..100u32 {
            q.insert(ms(u64::from(i)), i);
        }
        for i in 0..100u32 {
            assert_eq!(q.pop(), Some((ms(u64::from(i)), i)));
        }
        assert_eq!(q.pop(), Some((ms(1 << 35), 99)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn growth_resizes_preserve_order() {
        let mut q: CalQueue<u64> = CalQueue::new();
        // Interleave two phases so inserts are non-monotone.
        for i in (0..2000u64).step_by(2) {
            q.insert(ms(i * 7), i);
        }
        for i in (1..2000u64).step_by(2) {
            q.insert(ms(i * 7), i);
        }
        assert!(q.resizes() > 0, "2000 events must outgrow {MIN_BUCKETS} buckets");
        let mut last = (0u64, 0u64);
        let mut n = 0;
        while let Some((t, v)) = q.pop() {
            assert!((t.as_millis(), v) >= last, "order broke at {n}");
            last = (t.as_millis(), v);
            n += 1;
        }
        assert_eq!(n, 2000);
    }

    #[test]
    fn reserved_slot_rearm_cycle() {
        let mut q: CalQueue<u32> = CalQueue::new();
        let slot = q.reserve();
        assert!(q.rearm(slot, ms(10), 1));
        assert_eq!(q.pop(), Some((ms(10), 1)));
        // Slot survives the pop under the same generation.
        assert!(q.rearm(slot, ms(20), 2));
        assert!(q.cancel(slot), "still cancellable after a re-arm");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_mid_dispatch_suppresses_rearm() {
        let mut q: CalQueue<u32> = CalQueue::new();
        let slot = q.reserve();
        assert!(q.rearm(slot, ms(10), 1));
        let _ = q.pop();
        assert!(q.cancel(slot), "cancel between pop and rearm stops the repetition");
        assert!(!q.rearm(slot, ms(20), 2), "rearm after cancel reports false and frees");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn release_frees_a_reserved_slot() {
        let mut q: CalQueue<u32> = CalQueue::new();
        let slot = q.reserve();
        assert!(q.rearm(slot, ms(5), 1));
        let _ = q.pop();
        q.release(slot);
        assert!(!q.cancel(slot), "released slot is stale");
    }

    #[test]
    fn same_timestamp_batch_drains_fifo() {
        let mut q: CalQueue<u32> = CalQueue::new();
        for i in 0..500u32 {
            q.insert(ms(1000), i);
        }
        for i in 0..500u32 {
            assert_eq!(q.pop(), Some((ms(1000), i)));
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut q: CalQueue<u32> = CalQueue::new();
        q.insert(ms(30), 1);
        q.insert(ms(20), 2);
        assert_eq!(q.peek_time(), Some(ms(20)));
        assert_eq!(q.pop(), Some((ms(20), 2)));
        assert_eq!(q.peek_time(), Some(ms(30)));
        let h = q.insert(ms(25), 3);
        assert_eq!(q.peek_time(), Some(ms(25)));
        assert!(q.cancel(h));
        assert_eq!(q.peek_time(), Some(ms(30)), "peek reaps the tombstone");
        assert_eq!(q.pop(), Some((ms(30), 1)));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn insert_behind_a_scanned_ahead_cursor_keeps_order() {
        let mut q: CalQueue<u32> = CalQueue::new();
        q.insert(ms(1 << 30), 9); // far future
        assert_eq!(q.peek_time(), Some(ms(1 << 30)), "peek walks the cursor ahead");
        // Both land behind the cursor, in different physical buckets.
        q.insert(ms(5000), 1);
        q.insert(ms(100), 0);
        assert_eq!(q.pop(), Some((ms(100), 0)));
        assert_eq!(q.pop(), Some((ms(5000), 1)));
        assert_eq!(q.pop(), Some((ms(1 << 30), 9)));
    }

    #[test]
    fn structural_counters_track_reaps_and_pullbacks() {
        let mut q: CalQueue<u32> = CalQueue::new();
        assert_eq!(q.stats(), QueueStats::default());

        // A cancel is not a reap: the tombstone is only counted when the
        // cursor (or a drain, or a rebuild) actually unchains it.
        let a = q.insert(ms(10), 1);
        q.insert(ms(20), 2);
        assert!(q.cancel(a));
        assert_eq!(q.tombstone_reaps(), 0);
        assert_eq!(q.pop(), Some((ms(20), 2)));
        assert_eq!(q.tombstone_reaps(), 1, "the cursor reaped the tombstone in passing");

        // Draining with only tombstones left purges (and counts) the rest.
        let b = q.insert(ms(30), 3);
        let c = q.insert(ms(40), 4);
        assert!(q.cancel(b));
        assert!(q.cancel(c));
        assert_eq!(q.pop(), None);
        assert_eq!(q.tombstone_reaps(), 3);

        // A peek that walks far ahead, then an insert behind the cursor.
        q.insert(ms(1 << 30), 9);
        assert_eq!(q.peek_time(), Some(ms(1 << 30)));
        assert_eq!(q.cursor_pullbacks(), 0);
        q.insert(ms(100), 0);
        assert_eq!(q.cursor_pullbacks(), 1, "the insert pulled the cursor back");
        assert_eq!(q.stats().cursor_pullbacks, 1);
    }

    #[test]
    fn rebuild_counts_tombstones_it_drops() {
        let mut q: CalQueue<u64> = CalQueue::new();
        let handles: Vec<_> = (0..100u64).map(|i| q.insert(ms(i * 7), i)).collect();
        for h in handles.iter().step_by(2) {
            assert!(q.cancel(*h));
        }
        let reaped_before = q.tombstone_reaps();
        // Grow past the resize threshold; the rebuild must drop (and count)
        // every tombstone still chained.
        for i in 100..2000u64 {
            q.insert(ms(i * 7), i);
        }
        assert!(q.resizes() > 0);
        assert_eq!(q.tombstone_reaps(), reaped_before + 50, "rebuild reaped the cancelled half");
        assert_eq!(q.len(), q.live_len(), "no tombstones survive a rebuild");
    }

    #[test]
    fn max_time_events_are_representable() {
        let mut q: CalQueue<u32> = CalQueue::new();
        q.insert(SimTime::MAX, 1);
        q.insert(ms(0), 2);
        assert_eq!(q.pop(), Some((ms(0), 2)));
        assert_eq!(q.pop(), Some((SimTime::MAX, 1)));
    }
}
