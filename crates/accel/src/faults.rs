//! Deterministic fault injection (`docs/robustness.md`).
//!
//! A [`crate::config::FaultPlan`] on the accelerator configuration is a
//! *seeded schedule* of transient hardware faults; this module expands
//! it into the concrete [`FaultEvent`] windows an engine consults while
//! draining. Three fault kinds are modeled, all graceful-degradation
//! stressors rather than data corruptors:
//!
//! * **link stall** — the inter-chip link accepts no new injections for
//!   the window (in-flight packets keep moving); staged traffic waits.
//! * **DRAM brown-out** — one memory channel stops issuing requests
//!   (in-service accesses still complete) via
//!   [`higraph_sim::MemoryChannel`]'s pause latch.
//! * **chip pause** — one chip's scatter pipeline is clock-gated: its
//!   combinational step is skipped while held packets simply wait.
//!
//! Faults never drop traffic, so every run still terminates with the
//! exact algorithm result; only timing degrades. Windows are indexed by
//! the *global scatter-cycle timeline* (cycles accumulated across all
//! drains), which makes the schedule independent of iteration boundaries
//! and lets a checkpoint/restore round-trip mid-fault reproduce the
//! remaining windows exactly. Fault runs force per-cycle ticking
//! (fast-forward off) so windows land on precise cycles, and extend the
//! stall guard by the total stalled time so an injected stall is never
//! misreported as a mis-sized design.
//!
//! In a sharded run the windows apply inside each part's own drain:
//! every chip checks its brown-outs and pauses, and the link its
//! stalls, at `base + cycle` of the global timeline, where `base` is
//! the scatter cycle the iteration started at. Every part of an
//! iteration starts at the same `base`, so this is exactly the cycle a
//! shared clock would have given, and the drains fan out over the host
//! cores like a clean run's.

use crate::config::FaultPlan;

/// What a single fault window does, with its resolved target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The inter-chip link accepts no injections (serial runs: no-op).
    LinkStall,
    /// DRAM channel `channel` of chip `chip` stops issuing.
    DramBrownout {
        /// Chip whose memory subsystem browns out.
        chip: usize,
        /// Channel index within that chip's DRAM system.
        channel: usize,
    },
    /// Chip `chip`'s scatter pipeline is clock-gated.
    ChipPause {
        /// The paused chip.
        chip: usize,
    },
}

/// One scheduled fault window on the global scatter-cycle timeline:
/// active for cycles in `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The fault and its target.
    pub kind: FaultKind,
    /// First global scatter cycle the fault is active.
    pub start: u64,
    /// First global scatter cycle after the fault clears.
    pub end: u64,
}

/// `splitmix64` — the same tiny seeded generator the dataset builders
/// use, so fault schedules are reproducible from the plan alone.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`FaultPlan`] expanded against a concrete topology: the resolved
/// event windows an engine polls each drained cycle.
#[derive(Debug, Clone)]
pub struct FaultRuntime {
    events: Vec<FaultEvent>,
    /// Sum of all window durations — the stall-guard extension.
    total_stall: u64,
}

impl FaultRuntime {
    /// Expands `plan` for a run with `num_chips` chips, each with
    /// `dram_channels` modeled DRAM channels (0 when memory is the
    /// infinite stub — brown-outs then resolve to chip pauses so every
    /// drawn event still exercises *some* degradation path).
    pub fn new(plan: &FaultPlan, num_chips: usize, dram_channels: usize) -> Self {
        let chips = num_chips.max(1);
        let mut state = plan.seed;
        let mut events = Vec::with_capacity(plan.events as usize);
        let mut total_stall = 0u64;
        for _ in 0..plan.events {
            let kind_raw = splitmix64(&mut state);
            let target = splitmix64(&mut state);
            let start = splitmix64(&mut state) % plan.horizon.max(1);
            let duration = 1 + splitmix64(&mut state) % plan.max_duration.max(1);
            let chip = (target % chips as u64) as usize;
            let kind = match kind_raw % 3 {
                0 => FaultKind::LinkStall,
                1 if dram_channels > 0 => FaultKind::DramBrownout {
                    chip,
                    channel: ((target >> 32) % dram_channels as u64) as usize,
                },
                _ => FaultKind::ChipPause { chip },
            };
            total_stall += duration;
            events.push(FaultEvent {
                kind,
                start,
                end: start.saturating_add(duration),
            });
        }
        FaultRuntime {
            events,
            total_stall,
        }
    }

    /// The expanded schedule (inspection and reporting).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Stall-guard extension: the total cycles the schedule can hold the
    /// pipeline, so injected stalls never fire the guard on their own.
    pub fn guard_bonus(&self) -> u64 {
        self.total_stall
    }

    /// Whether the inter-chip link refuses injections at `cycle`.
    pub fn link_stalled(&self, cycle: u64) -> bool {
        self.events
            .iter()
            .any(|e| e.kind == FaultKind::LinkStall && e.start <= cycle && cycle < e.end)
    }

    /// Whether chip `chip` is clock-gated at `cycle`.
    pub fn chip_paused(&self, cycle: u64, chip: usize) -> bool {
        self.events.iter().any(|e| {
            matches!(e.kind, FaultKind::ChipPause { chip: c } if c == chip)
                && e.start <= cycle
                && cycle < e.end
        })
    }

    /// Applies the brown-out state for `cycle`: calls `set(chip,
    /// channel, active)` for every channel named by a brown-out event.
    /// The call is unconditional each cycle (idempotent on the channel's
    /// pause latch), so overlapping windows and windows that straddle a
    /// drain or checkpoint boundary resolve without transition tracking.
    pub fn set_brownouts(&self, cycle: u64, mut set: impl FnMut(usize, usize, bool)) {
        for e in &self.events {
            if let FaultKind::DramBrownout { chip, channel } = e.kind {
                set(chip, channel, e.start <= cycle && cycle < e.end);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlan {
        FaultPlan {
            seed: 7,
            events: 8,
            max_duration: 50,
            horizon: 1000,
        }
    }

    #[test]
    fn expansion_is_deterministic_and_bounded() {
        let a = FaultRuntime::new(&plan(), 4, 8);
        let b = FaultRuntime::new(&plan(), 4, 8);
        assert_eq!(a.events(), b.events());
        assert_eq!(a.events().len(), 8);
        for e in a.events() {
            assert!(e.start < 1000);
            assert!(e.end > e.start && e.end <= e.start + 50);
            match e.kind {
                FaultKind::DramBrownout { chip, channel } => {
                    assert!(chip < 4 && channel < 8);
                }
                FaultKind::ChipPause { chip } => assert!(chip < 4),
                FaultKind::LinkStall => {}
            }
        }
        assert_eq!(
            a.guard_bonus(),
            a.events().iter().map(|e| e.end - e.start).sum::<u64>()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultRuntime::new(&plan(), 2, 8);
        let b = FaultRuntime::new(&FaultPlan { seed: 8, ..plan() }, 2, 8);
        assert_ne!(a.events(), b.events());
    }

    #[test]
    fn no_dram_channels_degrades_brownouts_to_pauses() {
        let rt = FaultRuntime::new(&plan(), 2, 0);
        assert!(rt
            .events()
            .iter()
            .all(|e| !matches!(e.kind, FaultKind::DramBrownout { .. })));
    }

    #[test]
    fn window_queries_respect_bounds() {
        let rt = FaultRuntime {
            events: vec![
                FaultEvent {
                    kind: FaultKind::LinkStall,
                    start: 10,
                    end: 20,
                },
                FaultEvent {
                    kind: FaultKind::ChipPause { chip: 1 },
                    start: 5,
                    end: 6,
                },
            ],
            total_stall: 11,
        };
        assert!(!rt.link_stalled(9));
        assert!(rt.link_stalled(10) && rt.link_stalled(19));
        assert!(!rt.link_stalled(20));
        assert!(rt.chip_paused(5, 1));
        assert!(!rt.chip_paused(5, 0));
        assert!(!rt.chip_paused(6, 1));
        let mut seen = Vec::new();
        rt.set_brownouts(10, |c, ch, on| seen.push((c, ch, on)));
        assert!(seen.is_empty(), "no brown-out events in this schedule");
    }
}
