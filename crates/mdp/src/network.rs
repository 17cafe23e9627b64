//! Cycle-level model of the MDP-network.
//!
//! Storage: one FIFO per (stage, channel) — the stage's 2W1R FIFOs. Every
//! cycle each FIFO pops at most one packet (its single read port) and
//! accepts at most `radix` packets (its write ports), which the topology
//! guarantees structurally: exactly `radix` source channels map to each
//! FIFO. Packets advance one stage per cycle toward their destination —
//! deterministic propagation, no arbitration anywhere.

use crate::maskbits::{mask_clear, mask_set, mask_words};
use crate::topology::Topology;
use higraph_sim::{ClockedComponent, Fifo, Network, NetworkStats, Packet};

/// A cycle-accurate MDP-network over `T` packets.
///
/// Implements [`Network`]; see the crate docs for an example.
#[derive(Debug, Clone)]
pub struct MdpNetwork<T> {
    topology: Topology,
    /// Channel count `n` (the row length of `fifos`).
    n: usize,
    /// Stage FIFOs, flat: stage `s`, channel `c` is `fifos[s * n + c]`;
    /// the last stage's FIFOs are the outputs.
    fifos: Vec<Fifo<T>>,
    stats: NetworkStats,
    /// Cached packet count across all stage FIFOs: `in_flight` is O(1)
    /// and an empty fabric's tick early-outs — both on the per-cycle hot
    /// path. A tick conserves the count (packets only move between
    /// stages); push/pop maintain it.
    occupancy: usize,
    /// Per-stage occupancy bitmask ([`crate::maskbits`]): a tick visits
    /// only occupied channels instead of scanning the full width
    /// (sparsely-occupied fabrics dominate ramp-up and drain tails).
    stage_mask: Vec<Vec<u64>>,
}

impl<T: Packet> MdpNetwork<T> {
    /// Builds the network from a generated topology with `fifo_capacity`
    /// entries per stage FIFO.
    ///
    /// The paper sizes buffers as entries *per channel* (Fig. 12 sweeps
    /// this); with `S` stages, a per-channel budget of `B` entries means
    /// `fifo_capacity = B / S`. Use [`MdpNetwork::with_channel_budget`] for
    /// that accounting.
    ///
    /// # Panics
    ///
    /// Panics if `fifo_capacity` is zero.
    // lint:allow-item(hot-path-alloc): construction-time: stage FIFOs and occupancy masks are allocated once per network
    pub fn new(topology: Topology, fifo_capacity: usize) -> Self {
        let n = topology.num_channels();
        let fifos = (0..topology.num_stages() * n)
            .map(|_| Fifo::new(fifo_capacity))
            .collect();
        MdpNetwork {
            stage_mask: vec![vec![0u64; mask_words(n)]; topology.num_stages()],
            topology,
            n,
            fifos,
            stats: NetworkStats::new(),
            occupancy: 0,
        }
    }

    /// Builds the network giving each channel a total buffer budget of
    /// `entries_per_channel`, split evenly across stages (minimum 1 per
    /// stage FIFO).
    pub fn with_channel_budget(topology: Topology, entries_per_channel: usize) -> Self {
        let per_stage = (entries_per_channel / topology.num_stages().max(1)).max(1);
        MdpNetwork::new(topology, per_stage)
    }

    /// The generated topology this network instantiates.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Total buffer entries across all stage FIFOs.
    pub fn total_buffer_entries(&self) -> usize {
        self.fifos.iter().map(Fifo::capacity).sum()
    }

    /// Index of the last stage (the outputs).
    #[inline]
    fn last(&self) -> usize {
        self.topology.num_stages() - 1
    }

    /// Whether the next tick can move nothing: every non-final-stage
    /// head's target FIFO is full (final-stage packets only leave via
    /// [`Network::pop`], the owner's concern). A wedged tick is pure
    /// bookkeeping — the per-head HoL counts it accrues are committed in
    /// bulk by [`ClockedComponent::skip`]. Vacuously true when empty.
    pub fn is_wedged(&self) -> bool {
        let n = self.n;
        for s in 0..self.last() {
            for c in 0..n {
                if let Some(head) = self.fifos[s * n + c].peek() {
                    let target = self.topology.next_channel(s + 1, c, head.dest());
                    if !self.fifos[(s + 1) * n + target].is_full() {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Heads a wedged tick counts as HoL-blocked (non-final-stage heads).
    fn blocked_heads(&self) -> u64 {
        self.fifos[..self.last() * self.n]
            .iter()
            .filter(|f| !f.is_empty())
            .count() as u64
    }

    /// Bulk-commits `count` deterministic input rejections (a producer
    /// retrying a push against a full stage-0 FIFO every cycle, or one
    /// that probed with [`Network::can_accept`] and was refused).
    pub fn commit_rejected(&mut self, count: u64) {
        self.stats.rejected += count;
    }
}

impl<T: Packet> Network<T> for MdpNetwork<T> {
    fn num_inputs(&self) -> usize {
        self.n
    }

    fn num_outputs(&self) -> usize {
        self.n
    }

    fn can_accept(&self, input: usize, packet: &T) -> bool {
        let target = self.topology.next_channel(0, input, packet.dest());
        !self.fifos[target].is_full()
    }

    fn push(&mut self, input: usize, packet: T) -> Result<(), T> {
        debug_assert!(packet.dest() < self.num_outputs(), "dest out of range");
        let target = self.topology.next_channel(0, input, packet.dest());
        match self.fifos[target].push(packet) {
            Ok(()) => {
                self.stats.accepted += 1;
                self.occupancy += 1;
                mask_set(&mut self.stage_mask[0], target);
                Ok(())
            }
            Err(p) => {
                self.stats.rejected += 1;
                Err(p)
            }
        }
    }

    fn peek(&self, output: usize) -> Option<&T> {
        self.fifos[self.last() * self.n + output].peek()
    }

    fn pop(&mut self, output: usize) -> Option<T> {
        let last = self.last();
        let fifo = &mut self.fifos[last * self.n + output];
        let p = fifo.pop();
        if p.is_some() {
            if fifo.is_empty() {
                mask_clear(&mut self.stage_mask[last], output);
            }
            self.stats.delivered += 1;
            self.occupancy -= 1;
        }
        p
    }

    /// Visits only the occupied outputs, through the last stage's
    /// occupancy mask.
    fn pop_each(&mut self, mut f: impl FnMut(usize, T)) {
        let last = self.last();
        let outputs = &mut self.fifos[last * self.n..];
        let mask = &mut self.stage_mask[last];
        let mut delivered = 0usize;
        for w in 0..mask.len() {
            let mut bits = mask[w];
            while bits != 0 {
                let o = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let Some(packet) = outputs[o].pop() else {
                    continue;
                };
                if outputs[o].is_empty() {
                    mask_clear(mask, o);
                }
                delivered += 1;
                f(o, packet);
            }
        }
        self.stats.delivered += delivered as u64;
        self.occupancy -= delivered;
    }

    fn stats(&self) -> &NetworkStats {
        &self.stats
    }
}

impl<T: Packet> ClockedComponent for MdpNetwork<T> {
    fn tick(&mut self) {
        self.stats.cycles += 1;
        if self.occupancy == 0 {
            // An empty fabric's tick is pure time-keeping.
            return;
        }
        let n = self.n;
        // Move heads from stage s into stage s+1, processing the deepest
        // stage first so freshly freed slots are usable by the stage above
        // (standard pipeline register behaviour), and a packet advances at
        // most one stage per tick.
        for s in (0..self.last()).rev() {
            let (upper, lower) = self.fifos.split_at_mut((s + 1) * n);
            let (here, next) = (&mut upper[s * n..], &mut lower[..n]);
            let (upper_mask, lower_mask) = self.stage_mask.split_at_mut(s + 1);
            let (here_mask, next_mask) = (&mut upper_mask[s], &mut lower_mask[0]);
            for w in 0..here_mask.len() {
                // Snapshot the word: pops this stage only clear bits we
                // already visited, pushes land in stage s+1.
                let mut bits = here_mask[w];
                while bits != 0 {
                    let c = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    // lint:allow(panic-freedom): infallible: the occupancy mask guarantees this channel has a head
                    let head = here[c].peek().expect("masked channel has a head");
                    let target = self.topology.next_channel(s + 1, c, head.dest());
                    if next[target].is_full() {
                        self.stats.hol_blocked += 1;
                        continue;
                    }
                    // lint:allow(panic-freedom): infallible: the pop follows the masked peek above on the same channel
                    let pkt = here[c].pop().expect("peeked head exists");
                    next[target]
                        .push(pkt)
                        // lint:allow(panic-freedom): push cannot fail: the target's space was checked before the transfer
                        .unwrap_or_else(|_| unreachable!("target checked for space"));
                    if here[c].is_empty() {
                        mask_clear(here_mask, c);
                    }
                    mask_set(next_mask, target);
                }
            }
        }
    }

    fn in_flight(&self) -> usize {
        debug_assert_eq!(
            self.occupancy,
            self.fifos.iter().map(Fifo::len).sum::<usize>(),
            "cached occupancy out of sync"
        );
        self.occupancy
    }

    fn network_stats(&self) -> Option<NetworkStats> {
        Some(self.stats)
    }

    // `next_activity` keeps the default: only the owner (who knows the
    // consumer side) can prove a non-empty fabric inert, via
    // `MdpNetwork::is_wedged`.

    /// An idle tick over an empty *or wedged* fabric only advances the
    /// cycle counter and, when wedged, the per-head HoL counts.
    fn skip(&mut self, cycles: u64) {
        debug_assert!(
            cycles == 0 || self.is_wedged(),
            "skip() on an MDP-network that can still move packets"
        );
        self.stats.cycles += cycles;
        self.stats.hol_blocked += cycles * self.blocked_heads();
    }
}

/// The wire form is stage by stage, each stage a channel-ordered FIFO
/// slice, independent of the flat in-memory layout.
impl<T: higraph_sim::SnapValue> higraph_sim::Snapshot for MdpNetwork<T> {
    fn save(&self, w: &mut higraph_sim::SnapWriter) {
        w.tag(b"MDPN");
        w.usize(self.topology.num_stages());
        w.usize(self.n);
        self.stats.save(w);
        for stage in self.fifos.chunks(self.n) {
            stage.save(w);
        }
    }

    fn load(&mut self, r: &mut higraph_sim::SnapReader<'_>) -> Result<(), higraph_sim::SnapError> {
        r.expect_tag(b"MDPN")?;
        let stages = r.usize()?;
        let channels = r.usize()?;
        if stages != self.topology.num_stages() || channels != self.n {
            return Err(higraph_sim::SnapError::new(format!(
                "MDP-network shape mismatch: snapshot {stages}x{channels}, live {}x{}",
                self.topology.num_stages(),
                self.n
            )));
        }
        self.stats.load(r)?;
        for stage in self.fifos.chunks_mut(self.n) {
            stage.load(r)?;
        }
        // Re-derive the occupancy count and per-stage masks.
        self.occupancy = 0;
        for (stage, mask) in self.fifos.chunks(self.n).zip(&mut self.stage_mask) {
            mask.iter_mut().for_each(|word| *word = 0);
            for (c, fifo) in stage.iter().enumerate() {
                self.occupancy += fifo.len();
                if !fifo.is_empty() {
                    mask_set(mask, c);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct P {
        dest: usize,
        tag: u64,
    }

    impl Packet for P {
        fn dest(&self) -> usize {
            self.dest
        }
    }

    fn net(n: usize, cap: usize) -> MdpNetwork<P> {
        MdpNetwork::new(Topology::new(n, 2).unwrap(), cap)
    }

    /// Drains everything currently in flight, returning (output, packet).
    fn drain(net: &mut MdpNetwork<P>, max_cycles: usize) -> Vec<(usize, P)> {
        let mut out = Vec::new();
        for _ in 0..max_cycles {
            for o in 0..net.num_outputs() {
                if let Some(p) = net.pop(o) {
                    out.push((o, p));
                }
            }
            net.tick();
            if net.is_empty() {
                break;
            }
        }
        out
    }

    #[test]
    fn delivers_to_correct_output() {
        let mut n = net(8, 4);
        for dest in 0..8 {
            n.push(
                0,
                P {
                    dest,
                    tag: dest as u64,
                },
            )
            .unwrap();
        }
        let out = drain(&mut n, 64);
        assert_eq!(out.len(), 8);
        for (o, p) in out {
            assert_eq!(o, p.dest);
        }
    }

    #[test]
    fn latency_is_one_cycle_per_stage() {
        let mut n = net(8, 4); // 3 stages
        n.push(5, P { dest: 2, tag: 0 }).unwrap();
        // Packet lands in stage-0 FIFO at push; each tick advances one
        // stage; it is visible at the output after stages-1 = 2 ticks.
        assert!(n.peek(2).is_none());
        n.tick();
        assert!(n.peek(2).is_none());
        n.tick();
        assert!(n.peek(2).is_some());
    }

    #[test]
    fn preserves_per_flow_order() {
        // packets from one input to one output must arrive in order
        let mut n = net(4, 16);
        for tag in 0..10 {
            n.push(3, P { dest: 1, tag }).unwrap();
        }
        let out = drain(&mut n, 64);
        let tags: Vec<u64> = out.iter().map(|(_, p)| p.tag).collect();
        assert_eq!(tags, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn no_loss_no_duplication_under_load() {
        let mut n = net(16, 2);
        let mut pushed = 0u64;
        let mut received = Vec::new();
        let mut tag = 0u64;
        for cycle in 0..200 {
            for o in 0..16 {
                if let Some(p) = n.pop(o) {
                    assert_eq!(o, p.dest);
                    received.push(p.tag);
                }
            }
            for i in 0..16 {
                let dest = (cycle * 7 + i * 13) % 16;
                let p = P { dest, tag };
                if n.push(i, p).is_ok() {
                    pushed += 1;
                    tag += 1;
                }
            }
            n.tick();
        }
        // drain
        for _ in 0..200 {
            for o in 0..16 {
                if let Some(p) = n.pop(o) {
                    received.push(p.tag);
                }
            }
            n.tick();
        }
        assert!(n.is_empty());
        received.sort_unstable();
        assert_eq!(received.len() as u64, pushed);
        received.dedup();
        assert_eq!(received.len() as u64, pushed, "duplicated packets");
    }

    #[test]
    fn rejects_when_stage0_fifo_full() {
        let mut n = net(4, 1);
        // inputs 0 and 2 share a stage-0 module; dests 0 and 1 both have
        // address bit1 = 0 → both go to the same stage-0 FIFO (channel 0).
        n.push(0, P { dest: 0, tag: 1 }).unwrap();
        let r = n.push(2, P { dest: 1, tag: 2 });
        assert!(r.is_err());
        assert_eq!(n.stats().rejected, 1);
    }

    #[test]
    fn head_of_line_counted_when_downstream_full() {
        let mut n = net(4, 1);
        n.push(0, P { dest: 0, tag: 1 }).unwrap();
        n.tick(); // moves to stage 1 (output 0)
        n.push(0, P { dest: 0, tag: 2 }).unwrap();
        n.tick(); // blocked: output FIFO full
        assert!(n.stats().hol_blocked >= 1);
        assert_eq!(n.pop(0).map(|p| p.tag), Some(1));
    }

    #[test]
    fn channel_budget_splits_across_stages() {
        let topo = Topology::new(16, 2).unwrap(); // 4 stages
        let n: MdpNetwork<P> = MdpNetwork::with_channel_budget(topo, 160);
        assert_eq!(n.total_buffer_entries(), 16 * 4 * 40);
    }

    #[test]
    fn full_throughput_on_conflict_free_traffic() {
        // identity traffic keeps every stage FIFO at one write and one
        // read per cycle; after warm-up the network sustains 1
        // packet/cycle/channel with zero rejections.
        let mut n = net(8, 4);
        let mut delivered = 0u64;
        for cycle in 0..100u64 {
            for o in 0..8 {
                if n.pop(o).is_some() {
                    delivered += 1;
                }
            }
            for i in 0..8usize {
                n.push(
                    i,
                    P {
                        dest: i,
                        tag: cycle,
                    },
                )
                .unwrap();
            }
            n.tick();
        }
        // 100 cycles, 3-stage latency: expect ≥ 8 * (100 - 4) deliveries
        assert!(delivered >= 8 * 90, "delivered {delivered}");
        assert_eq!(n.stats().rejected, 0);
    }
}
