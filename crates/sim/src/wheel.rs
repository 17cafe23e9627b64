//! Indexed event-wheel (calendar-queue) window selection.
//!
//! [`Scheduler`](crate::Scheduler) fast-forward needs, at every step, the
//! minimum [`next_activity`](crate::ClockedComponent::next_activity)
//! window across a set of components. Folding the poll over every
//! component is O(components) per selection even when a single DRAM
//! channel is the only thing awake. [`EventWheel`] turns the selection
//! into an indexed lookup: each component (a *slot*) registers the
//! absolute cycle at which it next wants attention, wakes land in a ring
//! of buckets keyed by `wake mod horizon` with a bitmap over the buckets,
//! and the minimum is found by scanning occupied buckets circularly from
//! `now` — O(active slots), with quiescent slots costing nothing.
//!
//! # Registration contract
//!
//! The wheel stores one absolute wake per slot, computed from the slot's
//! activity window at registration time (`wake = now + window`; `None`
//! disarms the slot). Because windows count down by exactly one per
//! trivial cycle, an absolute wake stays valid across idle time with no
//! re-registration. The owner must uphold two rules (`docs/simulation.md`
//! spells them out):
//!
//! * **never stale-late** — any event that can make a slot's activity
//!   *earlier* than its registered wake (new input accepted, the slot
//!   actually stepping at its wake cycle) must [`EventWheel::mark_dirty`]
//!   the slot, or mark all due slots via [`EventWheel::dirty_due`] after
//!   advancing the clock;
//! * **stale-early is fine** — a slot may turn out to sleep *longer* than
//!   registered (e.g. a loaded channel issuing internally during a bulk
//!   skip). [`EventWheel::next_window`] revalidates every candidate
//!   against the live window function and re-registers it later before
//!   trusting it.
//!
//! Under those rules the returned window is exactly the poll minimum,
//! which the integration sites debug-assert against the legacy fold (the
//! debug-build oracle).

use std::fmt;

/// Absolute wake value meaning "unarmed / quiescent".
const UNARMED: u64 = u64::MAX;

/// Smallest supported bucket-ring span, in cycles.
pub const MIN_WHEEL_HORIZON: usize = 1;

/// Largest supported bucket-ring span, in cycles. Bounds the bitmap to a
/// few words; wakes beyond the ring spill to an overflow list, so a
/// small horizon is a performance knob, never a correctness one.
pub const MAX_WHEEL_HORIZON: usize = 4096;

/// Default bucket-ring span: generously past the longest DRAM access
/// class (a row conflict is ~42 cycles) and inter-chip flight latency,
/// so overflow spills are rare, while the bitmap stays at 16 words.
pub const DEFAULT_WHEEL_HORIZON: usize = 1024;

/// One registered wake: the slot it belongs to and the absolute cycle it
/// was registered for. An entry is live only while it matches the
/// authoritative per-slot wake; superseded entries are discarded lazily
/// when a scan visits them.
#[derive(Debug, Clone, Copy)]
struct Entry {
    slot: u32,
    wake: u64,
}

/// A calendar queue over a fixed set of slots (see the module docs).
#[derive(Debug, Clone)]
pub struct EventWheel {
    /// Authoritative absolute wake per slot ([`UNARMED`] = quiescent).
    wakes: Vec<u64>,
    /// Ring of buckets spanning `[now, now + horizon)`, keyed by
    /// `wake & mask`.
    buckets: Vec<Vec<Entry>>,
    /// One bit per bucket: set iff the bucket holds entries (possibly
    /// stale; cleared when a scan empties the bucket).
    words: Vec<u64>,
    /// Entries registered for `wake >= now + horizon`; migrated into the
    /// ring as the clock advances.
    overflow: Vec<Entry>,
    /// Slots whose window must be recomputed at the next
    /// [`EventWheel::next_window`] (deduplicated via `dirty_flag`).
    dirty: Vec<u32>,
    dirty_flag: Vec<bool>,
    now: u64,
    /// `horizon - 1`; the horizon is a power of two.
    mask: u64,
}

impl EventWheel {
    /// A wheel over `slots` components with a `horizon`-cycle bucket
    /// ring.
    ///
    /// # Panics
    ///
    /// Panics on an invalid shape; use [`EventWheel::try_new`] where the
    /// parameters are configuration-derived.
    pub fn new(slots: usize, horizon: usize) -> Self {
        // lint:allow(panic-freedom): documented panicking convenience; EventWheel::try_new is the fallible path
        EventWheel::try_new(slots, horizon).expect("invalid event-wheel shape")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns an actionable message if `slots` is zero or `horizon` is
    /// not a power of two in
    /// [[`MIN_WHEEL_HORIZON`], [`MAX_WHEEL_HORIZON`]].
    pub fn try_new(slots: usize, horizon: usize) -> Result<Self, String> {
        if slots == 0 {
            return Err("event wheel misconfigured: slot count is 0\n  \
                 the wheel indexes the activity of a fixed set of components, so it needs \
                 at least one slot\n  \
                 valid slot counts: 1 ..= u32::MAX"
                .to_string());
        }
        if slots > u32::MAX as usize {
            return Err(format!(
                "event wheel misconfigured: slot count {slots} exceeds u32::MAX\n  \
                 slots are indexed by u32 handles\n  \
                 valid slot counts: 1 ..= u32::MAX"
            ));
        }
        EventWheel::check_horizon(horizon)?;
        // lint:allow-item(hot-path-alloc): construction-time: ring buckets, occupancy words, and dirty tracking are allocated once per wheel
        Ok(EventWheel {
            wakes: vec![UNARMED; slots],
            buckets: (0..horizon).map(|_| Vec::new()).collect(),
            words: vec![0u64; horizon.div_ceil(64)],
            overflow: Vec::new(),
            dirty: Vec::new(),
            dirty_flag: vec![false; slots],
            now: 0,
            mask: (horizon - 1) as u64,
        })
    }

    /// Checks a horizon without building a wheel: configuration
    /// validation shares this with [`EventWheel::try_new`].
    ///
    /// # Errors
    ///
    /// Returns an actionable message unless `horizon` is a power of two
    /// in [[`MIN_WHEEL_HORIZON`], [`MAX_WHEEL_HORIZON`]].
    pub fn check_horizon(horizon: usize) -> Result<(), String> {
        if !(MIN_WHEEL_HORIZON..=MAX_WHEEL_HORIZON).contains(&horizon) || !horizon.is_power_of_two()
        {
            return Err(format!(
                "event wheel misconfigured: horizon {horizon} is invalid\n  \
                 valid horizons: powers of two in [{MIN_WHEEL_HORIZON}, {MAX_WHEEL_HORIZON}] \
                 (e.g. 256, 1024, 4096)\n  \
                 the horizon is the bucket ring's span in cycles; wakes beyond it spill to an \
                 overflow list, so a small horizon is slow, not wrong"
            ));
        }
        Ok(())
    }

    /// Number of slots the wheel indexes.
    pub fn slots(&self) -> usize {
        self.wakes.len()
    }

    /// The bucket ring's span in cycles.
    pub fn horizon(&self) -> usize {
        self.buckets.len()
    }

    /// The wheel's current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Whether `slot` holds a registered wake (i.e. was not quiescent at
    /// its last registration).
    #[inline]
    pub fn is_armed(&self, slot: usize) -> bool {
        self.wakes[slot] != UNARMED
    }

    /// Queues `slot` for re-registration at the next
    /// [`EventWheel::next_window`]. Idempotent between flushes.
    #[inline]
    pub fn mark_dirty(&mut self, slot: usize) {
        if !self.dirty_flag[slot] {
            self.dirty_flag[slot] = true;
            self.dirty.push(slot as u32);
        }
    }

    /// Queues every slot for re-registration (start of a drain, after
    /// bulk external mutation).
    pub fn mark_all_dirty(&mut self) {
        for slot in 0..self.wakes.len() {
            self.mark_dirty(slot);
        }
    }

    /// Queues every armed slot whose wake is due (`wake <= now`) for
    /// re-registration. Owners call this after each real tick: a slot
    /// that reached its wake cycle has just acted, so its old wake says
    /// nothing about its future.
    pub fn dirty_due(&mut self) {
        for slot in 0..self.wakes.len() {
            let wake = self.wakes[slot];
            if wake != UNARMED && wake <= self.now {
                self.mark_dirty(slot);
            }
        }
    }

    /// Advances the wheel's clock by `cycles` (a tick passes 1, a bulk
    /// skip passes the window), migrating overflow wakes that the ring
    /// now spans.
    pub fn advance(&mut self, cycles: u64) {
        self.now += cycles;
        if self.overflow.is_empty() {
            return;
        }
        let horizon = self.buckets.len() as u64;
        let mut i = 0;
        while i < self.overflow.len() {
            let e = self.overflow[i];
            if self.wakes[e.slot as usize] != e.wake {
                self.overflow.swap_remove(i);
                continue;
            }
            if e.wake.saturating_sub(self.now) < horizon {
                self.overflow.swap_remove(i);
                self.insert_bucket(e);
                continue;
            }
            i += 1;
        }
    }

    /// Registers `slot` at `window` cycles from now (`None` disarms),
    /// replacing any previous registration. [`EventWheel::next_window`]
    /// does this automatically for dirty slots; the direct form exists
    /// for benches and tests.
    pub fn register(&mut self, slot: usize, window: Option<u64>) {
        let new_wake = match window {
            None => UNARMED,
            // A window so large that `now + window` saturates is pinned
            // just below the unarmed sentinel; it stays in overflow.
            Some(w) => self.now.saturating_add(w).min(UNARMED - 1),
        };
        if new_wake == self.wakes[slot] {
            return; // the live entry for this wake is already placed
        }
        self.wakes[slot] = new_wake;
        if new_wake != UNARMED {
            self.insert(Entry {
                slot: slot as u32,
                wake: new_wake,
            });
        }
    }

    /// Re-registers dirty slots via `window`, then returns the minimum
    /// window across all armed slots — exactly the value the legacy
    /// `next_activity` poll would fold, found by a circular bitmap scan
    /// from `now` with per-candidate revalidation (module docs).
    ///
    /// `window(slot)` must return the slot's live activity window
    /// (`None` = quiescent); it is called for every dirty slot and for
    /// every candidate the scan visits, so it can be invoked more than
    /// once per slot per call.
    pub fn next_window<F>(&mut self, mut window: F) -> Option<u64>
    where
        F: FnMut(usize) -> Option<u64>,
    {
        // Flush re-registrations first: a dirty slot's stored wake is
        // meaningless until recomputed.
        while let Some(slot) = self.dirty.pop() {
            self.dirty_flag[slot as usize] = false;
            self.register(slot as usize, window(slot as usize));
        }

        let horizon = self.buckets.len();
        let start = (self.now & self.mask) as usize;
        let mut off = 0usize;
        while off < horizon {
            let pos = (start + off) & self.mask as usize;
            if !bit(&self.words, pos) {
                // Jump to the next occupied bucket.
                match next_set_bit_circular(&self.words, pos) {
                    None => break,
                    Some(p) => {
                        let noff = (p + horizon - start) & self.mask as usize;
                        if noff <= off {
                            break; // wrapped past `start`: ring exhausted
                        }
                        off = noff;
                        continue;
                    }
                }
            }
            // Every live entry in this bucket shares one wake: the ring
            // spans `[now, now + horizon)`, so the bucket index pins it.
            let expected = self.now + off as u64;
            // Every path below removes entry `i` or returns, so the
            // index never advances.
            let i = 0;
            while i < self.buckets[pos].len() {
                let e = self.buckets[pos][i];
                if self.wakes[e.slot as usize] != e.wake {
                    self.buckets[pos].swap_remove(i); // superseded
                    continue;
                }
                if e.wake != expected {
                    // A live wake in the past: the owner let a due slot
                    // act without a dirty mark. Recover by recomputing,
                    // but the scan order is no longer trustworthy.
                    debug_assert!(
                        false,
                        "event wheel visited a past-due wake (slot {}, wake {}, now {}): \
                         a due slot must be marked dirty before its next selection",
                        e.slot, e.wake, self.now
                    );
                    self.buckets[pos].swap_remove(i);
                    self.wakes[e.slot as usize] = UNARMED;
                    self.register(e.slot as usize, window(e.slot as usize));
                    continue;
                }
                // Candidate minimum: revalidate against the live window.
                match window(e.slot as usize) {
                    None => {
                        self.wakes[e.slot as usize] = UNARMED;
                        self.buckets[pos].swap_remove(i);
                    }
                    Some(w) => {
                        let new_wake = self.now.saturating_add(w).min(UNARMED - 1);
                        if new_wake == e.wake {
                            return Some(w);
                        }
                        // Stale-early: the slot slept longer than it
                        // registered (never shorter — that would need a
                        // dirty mark). Move it later and keep scanning.
                        debug_assert!(
                            new_wake > e.wake,
                            "activity moved earlier (slot {}, wake {} -> {}) without mark_dirty",
                            e.slot,
                            e.wake,
                            new_wake
                        );
                        self.wakes[e.slot as usize] = new_wake;
                        self.buckets[pos].swap_remove(i);
                        self.insert(Entry {
                            slot: e.slot,
                            wake: new_wake,
                        });
                        if new_wake < e.wake {
                            return Some(w); // defensive: see debug_assert
                        }
                    }
                }
            }
            debug_assert!(self.buckets[pos].is_empty());
            clear_bit(&mut self.words, pos);
            off += 1;
        }

        // The ring held nothing live: the minimum, if any, is in the
        // overflow (every overflow wake is >= now + horizon, beyond any
        // ring wake by construction).
        loop {
            let mut best: Option<(usize, u64)> = None;
            let mut i = 0;
            while i < self.overflow.len() {
                let e = self.overflow[i];
                if self.wakes[e.slot as usize] != e.wake {
                    self.overflow.swap_remove(i);
                    continue;
                }
                if best.is_none_or(|(_, w)| e.wake < w) {
                    best = Some((i, e.wake));
                }
                i += 1;
            }
            let (i, wake) = best?;
            let slot = self.overflow[i].slot as usize;
            match window(slot) {
                None => {
                    self.wakes[slot] = UNARMED;
                    self.overflow.swap_remove(i);
                }
                Some(w) => {
                    let new_wake = self.now.saturating_add(w).min(UNARMED - 1);
                    if new_wake == wake {
                        return Some(w);
                    }
                    debug_assert!(
                        new_wake > wake,
                        "activity moved earlier (slot {slot}, wake {wake} -> {new_wake}) \
                         without mark_dirty"
                    );
                    self.wakes[slot] = new_wake;
                    self.overflow.swap_remove(i);
                    self.insert(Entry {
                        slot: slot as u32,
                        wake: new_wake,
                    });
                    if new_wake < wake {
                        return Some(w); // defensive: see debug_assert
                    }
                }
            }
        }
    }

    /// Places a live entry into the ring or the overflow.
    fn insert(&mut self, e: Entry) {
        debug_assert_ne!(e.wake, UNARMED);
        debug_assert_eq!(self.wakes[e.slot as usize], e.wake);
        if e.wake.saturating_sub(self.now) < self.buckets.len() as u64 {
            self.insert_bucket(e);
        } else {
            self.overflow.push(e);
            if self.overflow.len() > self.wakes.len() {
                let wakes = &self.wakes;
                self.overflow.retain(|e| wakes[e.slot as usize] == e.wake);
            }
        }
    }

    fn insert_bucket(&mut self, e: Entry) {
        let b = (e.wake & self.mask) as usize;
        self.buckets[b].push(e);
        set_bit(&mut self.words, b);
        // Lazy deletion can pile superseded entries up; compact a bucket
        // that outgrows the slot count (it can hold at most one live
        // entry per slot).
        if self.buckets[b].len() > self.wakes.len() {
            let wakes = &self.wakes;
            self.buckets[b].retain(|e| wakes[e.slot as usize] == e.wake);
        }
    }
}

impl fmt::Display for EventWheel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let armed = self.wakes.iter().filter(|&&w| w != UNARMED).count();
        write!(
            f,
            "EventWheel {{ slots: {}, horizon: {}, now: {}, armed: {} }}",
            self.slots(),
            self.horizon(),
            self.now,
            armed
        )
    }
}

#[inline]
fn bit(words: &[u64], pos: usize) -> bool {
    (words[pos / 64] >> (pos % 64)) & 1 == 1
}

#[inline]
fn set_bit(words: &mut [u64], pos: usize) {
    words[pos / 64] |= 1u64 << (pos % 64);
}

#[inline]
fn clear_bit(words: &mut [u64], pos: usize) {
    words[pos / 64] &= !(1u64 << (pos % 64));
}

/// First set bit in circular order starting at `start` (inclusive), or
/// `None` if no bit is set.
fn next_set_bit_circular(words: &[u64], start: usize) -> Option<usize> {
    let nwords = words.len();
    let wi = start / 64;
    let shift = start % 64;
    let high = words[wi] & (!0u64 << shift);
    if high != 0 {
        return Some(wi * 64 + high.trailing_zeros() as usize);
    }
    for step in 1..nwords {
        let i = (wi + step) % nwords;
        if words[i] != 0 {
            return Some(i * 64 + words[i].trailing_zeros() as usize);
        }
    }
    let low = words[wi] & !(!0u64 << shift);
    if low != 0 {
        return Some(wi * 64 + low.trailing_zeros() as usize);
    }
    None
}

/// The wheel's ring, overflow list, and dirty set are all rebuildable
/// caches over the per-slot wake registry, and the registry itself is
/// re-derived by the owner's window functions once every slot is dirty.
/// A snapshot therefore records only the clock (plus the shape, for
/// verification); restore rebuilds a fresh wheel at the saved `now` with
/// every slot marked dirty.
impl crate::snapshot::Snapshot for EventWheel {
    fn save(&self, w: &mut crate::snapshot::SnapWriter) {
        w.tag(b"WHEL");
        w.usize(self.slots());
        w.usize(self.horizon());
        w.u64(self.now());
    }

    fn load(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<(), crate::snapshot::SnapError> {
        r.expect_tag(b"WHEL")?;
        let slots = r.usize()?;
        let horizon = r.usize()?;
        let now = r.u64()?;
        if slots != self.slots() || horizon != self.horizon() {
            return Err(crate::snapshot::SnapError::new(format!(
                "event wheel shape mismatch: snapshot {slots} slots / horizon {horizon}, \
                 live {} / {}",
                self.slots(),
                self.horizon()
            )));
        }
        let mut fresh =
            EventWheel::try_new(slots, horizon).map_err(crate::snapshot::SnapError::new)?;
        fresh.advance(now);
        fresh.mark_all_dirty();
        *self = fresh;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference model: windows per slot, polled naively.
    fn poll_min(windows: &[Option<u64>]) -> Option<u64> {
        windows
            .iter()
            .copied()
            .fold(None, crate::clock::min_activity)
    }

    #[test]
    fn rejects_invalid_shapes_with_actionable_messages() {
        let err = EventWheel::try_new(0, 64).expect_err("zero slots");
        assert!(err.contains("slot count is 0"), "{err}");
        assert!(err.contains("valid slot counts"), "{err}");
        for horizon in [0usize, 3, 48, 8192] {
            let err = EventWheel::try_new(4, horizon).expect_err("bad horizon");
            assert!(
                err.contains(&format!("horizon {horizon} is invalid")),
                "{err}"
            );
            assert!(err.contains("powers of two"), "{err}");
        }
        assert!(EventWheel::try_new(1, 1).is_ok());
        assert!(EventWheel::try_new(7, 4096).is_ok());
    }

    #[test]
    fn empty_wheel_is_quiescent() {
        let mut wheel = EventWheel::new(4, 16);
        assert_eq!(wheel.next_window(|_| unreachable!("nothing dirty")), None);
        wheel.advance(100);
        assert_eq!(wheel.next_window(|_| unreachable!()), None);
    }

    #[test]
    fn selects_the_minimum_across_slots() {
        let mut wheel = EventWheel::new(4, 16);
        let windows = [Some(7), None, Some(3), Some(12)];
        wheel.mark_all_dirty();
        assert_eq!(wheel.next_window(|s| windows[s]), Some(3));
        assert!(wheel.is_armed(0));
        assert!(!wheel.is_armed(1));
    }

    #[test]
    fn windows_decay_with_the_clock_without_re_registration() {
        let mut wheel = EventWheel::new(3, 16);
        let windows = [Some(9), Some(4), None];
        wheel.mark_all_dirty();
        assert_eq!(wheel.next_window(|s| windows[s]), Some(4));
        wheel.advance(3);
        // wakes are absolute: windows shrank by 3 with no new calls
        let decayed = [Some(6), Some(1), None];
        assert_eq!(wheel.next_window(|s| decayed[s]), Some(1));
        wheel.advance(1);
        let due = [Some(5), Some(0), None];
        assert_eq!(wheel.next_window(|s| due[s]), Some(0));
    }

    #[test]
    fn due_slot_is_recomputed_after_dirty_due() {
        let mut wheel = EventWheel::new(2, 8);
        wheel.mark_all_dirty();
        assert_eq!(wheel.next_window(|s| [Some(0), Some(5)][s]), Some(0));
        // slot 0 acts, the clock ticks, and its next wake is 3 away
        wheel.advance(1);
        wheel.dirty_due();
        assert_eq!(wheel.next_window(|s| [Some(3), Some(4)][s]), Some(3));
    }

    #[test]
    fn stale_early_candidate_is_revalidated_and_moved_later() {
        let mut wheel = EventWheel::new(2, 32);
        wheel.mark_all_dirty();
        assert_eq!(wheel.next_window(|s| [Some(2), Some(10)][s]), Some(2));
        wheel.advance(2);
        // Slot 0 turned out to sleep longer (a loaded skip issued
        // internally): its live window at its registered wake is 6, not
        // 0. No dirty mark — the scan must revalidate and fall through
        // to... slot 0 again (6 < 8), at its corrected wake.
        let live = [Some(6), Some(8)];
        assert_eq!(wheel.next_window(|s| live[s]), Some(6));
        // and the correction stuck: advancing 6 makes it due
        wheel.advance(6);
        assert_eq!(wheel.next_window(|s| [Some(0), Some(2)][s]), Some(0));
    }

    #[test]
    fn quiescence_discovered_during_revalidation_disarms() {
        let mut wheel = EventWheel::new(2, 16);
        wheel.mark_all_dirty();
        assert_eq!(wheel.next_window(|s| [Some(1), None][s]), Some(1));
        wheel.advance(1);
        // slot 0 drained in the meantime; revalidation must disarm it
        assert_eq!(wheel.next_window(|_| None), None);
        assert!(!wheel.is_armed(0));
    }

    #[test]
    fn wakes_beyond_the_horizon_overflow_and_migrate_back() {
        let mut wheel = EventWheel::new(3, 8);
        wheel.mark_all_dirty();
        let windows = [Some(100), Some(20), None];
        assert_eq!(wheel.next_window(|s| windows[s]), Some(20));
        wheel.advance(20);
        wheel.dirty_due();
        // slot 1 acted and went quiescent; slot 0 is 80 out (overflow)
        assert_eq!(wheel.next_window(|s| [Some(80), None, None][s]), Some(80));
        wheel.advance(75);
        // now within the ring: the migrated entry must be found
        assert_eq!(wheel.next_window(|s| [Some(5), None, None][s]), Some(5));
        wheel.advance(5);
        assert_eq!(wheel.next_window(|s| [Some(0), None, None][s]), Some(0));
    }

    #[test]
    fn matches_the_poll_under_randomized_traffic() {
        // A self-contained model: each slot holds a deterministic list of
        // absolute event times; its window at `now` is the distance to
        // its next event. The wheel must equal the naive poll at every
        // step of a long advance schedule.
        let slots = 13usize;
        let mut rng = 0x9E3779B97F4A7C15u64;
        let mut step = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let events: Vec<Vec<u64>> = (0..slots)
            .map(|_| {
                let mut t = 0u64;
                let mut ev = Vec::new();
                for _ in 0..40 {
                    t += step() % 97 + 1;
                    ev.push(t);
                }
                ev
            })
            .collect();
        let window_at = |slot: usize, now: u64| -> Option<u64> {
            events[slot].iter().find(|&&t| t >= now).map(|&t| t - now)
        };

        let mut wheel = EventWheel::new(slots, 64);
        wheel.mark_all_dirty();
        let mut now = 0u64;
        loop {
            let expect = poll_min(&(0..slots).map(|s| window_at(s, now)).collect::<Vec<_>>());
            let got = wheel.next_window(|s| window_at(s, now));
            assert_eq!(got, expect, "at cycle {now}");
            match got {
                None => break,
                Some(w) => {
                    // advance to the event (or half-way, exercising the
                    // clamped-skip path where nothing comes due)
                    let jump = if step() % 3 == 0 && w > 1 {
                        w / 2
                    } else {
                        w.max(1)
                    };
                    now += jump;
                    wheel.advance(jump);
                    wheel.dirty_due();
                }
            }
        }
        assert_eq!(wheel.next_window(|_| None), None);
    }

    #[test]
    fn dense_wake_sets_share_buckets() {
        // More slots than horizon: many wakes collide per bucket.
        let slots = 200usize;
        let mut wheel = EventWheel::new(slots, 4);
        wheel.mark_all_dirty();
        assert_eq!(wheel.next_window(|s| Some((s % 4) as u64)), Some(0));
        wheel.advance(4);
        wheel.dirty_due();
        assert_eq!(wheel.next_window(|_| Some(2)), Some(2));
    }

    #[test]
    fn mark_dirty_is_idempotent_and_flushes_once() {
        let mut wheel = EventWheel::new(2, 8);
        wheel.mark_dirty(0);
        wheel.mark_dirty(0);
        wheel.mark_dirty(1);
        let mut calls = [0u32; 2];
        let got = wheel.next_window(|s| {
            calls[s] += 1;
            Some(5)
        });
        assert_eq!(got, Some(5));
        // one registration flush each; +1 revalidation for the candidate
        assert!(calls[0] + calls[1] <= 3, "{calls:?}");
    }

    #[test]
    fn register_replaces_previous_wake() {
        let mut wheel = EventWheel::new(1, 16);
        wheel.register(0, Some(10));
        wheel.register(0, Some(2));
        assert_eq!(wheel.next_window(|_| Some(2)), Some(2));
        wheel.register(0, None);
        assert_eq!(wheel.next_window(|_| None), None);
    }

    #[test]
    fn display_summarizes_shape() {
        let wheel = EventWheel::new(4, 16);
        let text = wheel.to_string();
        assert!(text.contains("slots: 4"), "{text}");
        assert!(text.contains("horizon: 16"), "{text}");
    }
}
