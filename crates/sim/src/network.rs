//! The [`Network`] abstraction — the interface shared by every propagation
//! fabric in the reproduction (crossbar, MDP-network, naive nW1R FIFO).
//!
//! Fig. 5 (a) of the paper abstracts the problem all three solve: data from
//! multiple input channels must be directed to multiple output channels
//! selected by a destination address. The accelerator engine is written
//! against this trait, so swapping a crossbar for an MDP-network (the
//! paper's Opt-O / Opt-E / Opt-D ablations and the Fig. 12 comparison) is a
//! configuration change, not a code change.

use crate::clock::ClockedComponent;
use crate::stats::NetworkStats;

/// A routable payload: knows which output channel it must reach.
pub trait Packet {
    /// Index of the destination output channel.
    fn dest(&self) -> usize;
}

/// A multi-input multi-output propagation fabric with per-cycle semantics.
///
/// The sequential half of the protocol — `tick`, `in_flight`, drain
/// detection — comes from the [`ClockedComponent`] supertrait; this trait
/// adds the combinational routing interface. See the crate-level docs for
/// the push → pop → tick cycle protocol.
pub trait Network<T: Packet>: ClockedComponent {
    /// Number of input channels.
    fn num_inputs(&self) -> usize;

    /// Number of output channels.
    fn num_outputs(&self) -> usize;

    /// Whether input `input` can accept `packet` this cycle.
    ///
    /// Acceptance may depend on the packet's destination (e.g. which
    /// stage-0 FIFO it routes to inside an MDP-network).
    ///
    /// The probe is exact and free of side effects: `can_accept(i, p)`
    /// is `true` exactly when `push(i, p)` would return `Ok`, and it
    /// changes no state or statistic. A refused `push` counts one
    /// rejection in [`NetworkStats::rejected`]; a producer that probes
    /// first and skips the push instead commits that rejection itself
    /// (the fabrics' `commit_rejected(1)`), so both paths leave the same
    /// statistics. This lets a producer build a packet's payload only
    /// once the fabric will take it.
    fn can_accept(&self, input: usize, packet: &T) -> bool;

    /// Offers `packet` at input channel `input`.
    ///
    /// # Errors
    ///
    /// Returns `Err(packet)` (handing the packet back) if the input cannot
    /// accept it this cycle; the producer must stall and retry.
    fn push(&mut self, input: usize, packet: T) -> Result<(), T>;

    /// The packet currently presented at output `output`, if any.
    fn peek(&self, output: usize) -> Option<&T>;

    /// Consumes the packet presented at output `output`.
    fn pop(&mut self, output: usize) -> Option<T>;

    /// Consumes the packet presented at every output that has one, in
    /// ascending output order, handing each to `f(output, packet)`.
    ///
    /// Equivalent to calling [`Network::pop`] on every output in turn;
    /// fabrics that track output occupancy visit only occupied outputs.
    fn pop_each(&mut self, mut f: impl FnMut(usize, T))
    where
        Self: Sized,
    {
        for output in 0..self.num_outputs() {
            if let Some(packet) = self.pop(output) {
                f(output, packet);
            }
        }
    }

    /// Whether the fabric holds no packets.
    fn is_empty(&self) -> bool {
        self.is_drained()
    }

    /// Cumulative statistics.
    fn stats(&self) -> &NetworkStats;
}

#[cfg(test)]
pub(crate) mod testing {
    use super::Packet;

    /// Minimal test packet: `(dest, tag)`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct TestPacket {
        pub dest: usize,
        pub tag: u64,
    }

    impl Packet for TestPacket {
        fn dest(&self) -> usize {
            self.dest
        }
    }
}
