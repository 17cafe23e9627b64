//! The MDP-network variant for Edge Array access (Sec. 4.2, Fig. 6).
//!
//! The access pattern in reading the Edge Array is one-to-multiple: one
//! `{Off, nOff}` pair requires several consecutive interleaved banks. The
//! paper's pipeline is:
//!
//! 1. **Replay Engine** — divides `{Off, nOff}` into `{Off, Len}` chunks of
//!    an appropriate length (at most one bank row, so a chunk never wraps
//!    around the bank interleaving);
//! 2. **Range MDP-network** — propagates `{Off, Len}` stage by stage; when
//!    a chunk spans the boundary between two target ranges it is *split*
//!    (the paper's example: `Off 4, Len 9` → `Off 4, Len 4` + `Off 8,
//!    Len 5`), so competition for subsequent datapaths reduces stage by
//!    stage;
//! 3. **Dispatcher** — a small terminal unit per output channel that fans a
//!    final (narrow) range onto its group of consecutive banks.

use crate::maskbits::{mask_clear, mask_set, mask_words};
use crate::topology::Topology;
use higraph_sim::{ClockedComponent, Fifo, NetworkStats};
use std::fmt;

/// A contiguous run of Edge Array entries, `[off, off + len)`, plus the
/// payload that must accompany the eventual edge reads (typically the
/// source vertex property).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRange<P> {
    /// Global index of the first edge.
    pub off: u64,
    /// Number of edges; always ≥ 1 inside the network.
    pub len: u32,
    /// Caller payload carried alongside the range.
    pub payload: P,
}

impl<P> EdgeRange<P> {
    /// Index one past the last edge.
    pub fn end(&self) -> u64 {
        self.off + u64::from(self.len)
    }
}

/// Errors constructing a [`RangeMdpNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeNetworkError {
    /// The bank count is not a positive multiple of the channel count.
    BankChannelMismatch {
        /// Banks requested.
        num_banks: usize,
        /// Channels in the topology.
        num_channels: usize,
    },
    /// The bank count is not a power of two, so bank and dispatcher-group
    /// indices cannot be taken with masks and shifts.
    BanksNotPowerOfTwo {
        /// Banks requested.
        num_banks: usize,
    },
}

impl fmt::Display for RangeNetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RangeNetworkError::BankChannelMismatch {
                num_banks,
                num_channels,
            } => write!(
                f,
                "bank count {num_banks} must be a positive multiple of channel count {num_channels}"
            ),
            RangeNetworkError::BanksNotPowerOfTwo { num_banks } => {
                write!(f, "bank count {num_banks} must be a power of two")
            }
        }
    }
}

impl std::error::Error for RangeNetworkError {}

/// `off % num_banks`: a mask for the power-of-two bank counts the
/// accelerator's validation guarantees, a division for any other count.
#[inline]
fn bank_of(off: u64, num_banks: u64) -> u64 {
    if num_banks.is_power_of_two() {
        off & (num_banks - 1)
    } else {
        off % num_banks
    }
}

/// The Replay Engine: splits one `{Off, nOff}` request into row-aligned
/// `{Off, Len}` chunks, one per cycle.
///
/// A chunk never crosses a multiple of `num_banks` in edge-index space, so
/// the banks it touches are consecutive and non-wrapping — the form the
/// range MDP-network and dispatchers handle.
///
/// # Example
///
/// ```
/// use higraph_mdp::ReplayEngine;
///
/// let mut re = ReplayEngine::new(16);
/// assert!(re.load(4, 20, ()));
/// assert_eq!(re.emit().map(|r| (r.off, r.len)), Some((4, 12))); // up to row end
/// assert_eq!(re.emit().map(|r| (r.off, r.len)), Some((16, 4)));
/// assert_eq!(re.emit(), None);
/// assert!(re.is_idle());
/// ```
#[derive(Debug, Clone)]
pub struct ReplayEngine<P> {
    num_banks: u64,
    current: Option<(u64, u64, P)>,
}

impl<P: Copy> ReplayEngine<P> {
    /// Creates a replay engine over `num_banks` interleaved edge banks.
    ///
    /// # Panics
    ///
    /// Panics if `num_banks` is zero.
    pub fn new(num_banks: usize) -> Self {
        // lint:allow(panic-freedom): documented panic: a replay engine over zero banks has no semantics
        assert!(num_banks > 0, "need at least one bank");
        ReplayEngine {
            num_banks: num_banks as u64,
            current: None,
        }
    }

    /// Whether the engine can accept a new `{Off, nOff}` request.
    pub fn is_idle(&self) -> bool {
        self.current.is_none()
    }

    /// Loads a new request. Returns `false` (dropping nothing) if the
    /// engine is still busy. Zero-length requests (`off == n_off`) complete
    /// immediately.
    pub fn load(&mut self, off: u64, n_off: u64, payload: P) -> bool {
        if !self.is_idle() {
            return false;
        }
        debug_assert!(off <= n_off, "offset pair must be ordered");
        if off < n_off {
            self.current = Some((off, n_off, payload));
        }
        true
    }

    /// Emits the next chunk, if the engine is busy. Call once per cycle.
    pub fn emit(&mut self) -> Option<EdgeRange<P>> {
        let (off, n_off, payload) = self.current?;
        let row_end = off - bank_of(off, self.num_banks) + self.num_banks;
        let end = n_off.min(row_end);
        let chunk = EdgeRange {
            off,
            len: (end - off) as u32,
            payload,
        };
        self.current = if end < n_off {
            Some((end, n_off, payload))
        } else {
            None
        };
        Some(chunk)
    }
}

/// The terminal Dispatcher (Sec. 4.2): expands a narrow range into
/// per-bank edge reads within one group of `width` consecutive banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatcher {
    num_banks: u64,
}

impl Dispatcher {
    /// Creates a dispatcher aware of the global bank interleaving.
    ///
    /// # Panics
    ///
    /// Panics if `num_banks` is zero.
    pub fn new(num_banks: usize) -> Self {
        // lint:allow(panic-freedom): documented panic: a replay engine over zero banks has no semantics
        assert!(num_banks > 0, "need at least one bank");
        Dispatcher {
            num_banks: num_banks as u64,
        }
    }

    /// The `(bank, global_edge_index)` reads a range issues. All banks are
    /// distinct (the replay engine guarantees non-wrapping chunks), so a
    /// dispatcher completes a range in a single cycle.
    ///
    /// Because the range does not wrap, its banks are the consecutive run
    /// starting at its first bank, computed once per range, not per edge.
    pub fn expand<P: Copy>(&self, range: &EdgeRange<P>) -> impl Iterator<Item = (usize, u64)> + '_ {
        let off = range.off;
        let first = bank_of(off, self.num_banks) as usize;
        debug_assert!(
            first as u64 + u64::from(range.len) <= self.num_banks,
            "range wraps the bank interleaving"
        );
        (0..range.len as usize).map(move |k| (first + k, off + k as u64))
    }
}

/// Bank-index geometry of a power-of-two bank interleaving: masks and
/// shifts computed once, so the per-cycle path never divides.
#[derive(Debug, Clone, Copy)]
struct BankGeometry {
    /// `num_banks - 1`: an edge index's bank is `off & bank_mask`.
    bank_mask: u64,
    /// `log2(width)`: a bank's dispatcher group is `bank >> width_shift`.
    width_shift: u32,
}

impl BankGeometry {
    /// The bank edge index `off` lives in.
    #[inline]
    fn bank(self, off: u64) -> u64 {
        off & self.bank_mask
    }

    /// The dispatcher group (output channel) owning `off`'s bank.
    #[inline]
    fn group(self, off: u64) -> usize {
        (self.bank(off) >> self.width_shift) as usize
    }
}

/// The range-splitting MDP-network for Edge Array access.
///
/// Structurally identical to [`crate::MdpNetwork`] — `log2(n)` stages of
/// per-channel FIFOs — but the payload is an [`EdgeRange`] and a head that
/// spans two target ranges is split in flight. The destination key of a
/// range is the *dispatcher group* of its first bank: with `m` banks and
/// `n` channels, group `g` owns banks `[g·m/n, (g+1)·m/n)`.
#[derive(Debug, Clone)]
pub struct RangeMdpNetwork<P> {
    topology: Topology,
    /// Channel count `n` (the row length of `fifos`).
    n: usize,
    num_banks: usize,
    /// Banks per output channel (dispatcher width, `m / n`).
    width: usize,
    geometry: BankGeometry,
    /// Stage FIFOs, flat: stage `s`, channel `c` is `fifos[s * n + c]`;
    /// the last stage's FIFOs are the outputs.
    fifos: Vec<Fifo<EdgeRange<P>>>,
    stats: NetworkStats,
    splits: u64,
    /// Cached range count across all stage FIFOs: `in_flight` is O(1)
    /// and an empty fabric's tick early-outs — both on the per-cycle hot
    /// path. Unlike the packet network, a tick can *change* the count
    /// (a moved head splits into pieces); every split site maintains it.
    occupancy: usize,
    /// Per-stage occupancy bitmask ([`crate::maskbits`]): a tick visits
    /// only occupied channels instead of scanning the full width.
    stage_mask: Vec<Vec<u64>>,
}

impl<P: Copy> RangeMdpNetwork<P> {
    /// Builds the network over `topology.num_channels()` channels serving
    /// `num_banks` edge banks, with `fifo_capacity` entries per stage FIFO.
    ///
    /// # Errors
    ///
    /// Returns [`RangeNetworkError::BankChannelMismatch`] unless
    /// `num_banks` is a positive multiple of the channel count, and
    /// [`RangeNetworkError::BanksNotPowerOfTwo`] unless it is a power of
    /// two.
    pub fn new(
        topology: Topology,
        num_banks: usize,
        fifo_capacity: usize,
    ) -> Result<Self, RangeNetworkError> {
        let n = topology.num_channels();
        if num_banks == 0 || !num_banks.is_multiple_of(n) {
            return Err(RangeNetworkError::BankChannelMismatch {
                num_banks,
                num_channels: n,
            });
        }
        if !num_banks.is_power_of_two() {
            return Err(RangeNetworkError::BanksNotPowerOfTwo { num_banks });
        }
        let width = num_banks / n;
        // lint:allow-item(hot-path-alloc): construction-time: stage FIFOs are allocated once per network
        let fifos = (0..topology.num_stages() * n)
            .map(|_| Fifo::new(fifo_capacity))
            .collect();
        // lint:allow-item(hot-path-alloc): construction-time: occupancy masks are allocated once per network
        Ok(RangeMdpNetwork {
            width,
            geometry: BankGeometry {
                bank_mask: num_banks as u64 - 1,
                width_shift: width.trailing_zeros(),
            },
            stage_mask: vec![vec![0u64; mask_words(n)]; topology.num_stages()],
            topology,
            n,
            num_banks,
            fifos,
            stats: NetworkStats::new(),
            splits: 0,
            occupancy: 0,
        })
    }

    /// Number of input/output channels.
    pub fn num_channels(&self) -> usize {
        self.n
    }

    /// Number of edge banks served.
    pub fn num_banks(&self) -> usize {
        self.num_banks
    }

    /// Banks per dispatcher (output channel).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Number of in-flight range splits performed so far.
    pub fn splits(&self) -> u64 {
        self.splits
    }

    /// Index of the last stage (the outputs).
    #[inline]
    fn last(&self) -> usize {
        self.topology.num_stages() - 1
    }

    /// The bank-region size a piece may still reach after routing by
    /// `stage` (`target_range(stage)` dispatcher groups of `width` banks
    /// each), a power of two. Shift-based so mixed-radix topologies work
    /// too.
    #[inline]
    fn region_at(&self, stage: usize) -> u64 {
        let region = self.width << self.topology.stage(stage).shift;
        debug_assert!(region >= self.width && region.is_power_of_two());
        region as u64
    }

    /// Visits the pieces of `range` split at `region`-sized bank
    /// boundaries, in ascending bank order, without materializing them
    /// (the per-cycle hot path splits every non-final-stage head).
    /// Radix 2 yields at most two pieces — the paper's
    /// `Off 4, Len 9 → (4,4)+(8,5)` example. Stops early when `f`
    /// returns `false`.
    #[inline]
    fn for_each_piece(
        region: u64,
        geometry: BankGeometry,
        range: EdgeRange<P>,
        mut f: impl FnMut(EdgeRange<P>) -> bool,
    ) {
        let b0 = geometry.bank(range.off);
        let b_end = b0 + u64::from(range.len); // exclusive, non-wrapping
        let mut cur = range.off;
        let mut cur_bank = b0;
        while cur_bank < b_end {
            // The next multiple of the (power-of-two) region above cur_bank.
            let boundary = (cur_bank | (region - 1)) + 1;
            let piece_end_bank = boundary.min(b_end);
            let len = (piece_end_bank - cur_bank) as u32;
            let piece = EdgeRange {
                off: cur,
                len,
                payload: range.payload,
            };
            if !f(piece) {
                return;
            }
            cur += u64::from(len);
            cur_bank = piece_end_bank;
        }
    }

    /// Splits `range` at the target-range boundaries of `stage`,
    /// materialized ([`RangeMdpNetwork::for_each_piece`] is the
    /// allocation-free hot-path form; this is for tests/diagnostics).
    #[cfg(test)]
    fn split_at_stage(&self, stage: usize, range: EdgeRange<P>) -> Vec<EdgeRange<P>> {
        let mut pieces = Vec::with_capacity(2);
        Self::for_each_piece(self.region_at(stage), self.geometry, range, |piece| {
            pieces.push(piece);
            true
        });
        pieces
    }

    /// Whether input `input` can accept `range` this cycle.
    pub fn can_accept(&self, input: usize, range: &EdgeRange<P>) -> bool {
        let geometry = self.geometry;
        let mut ok = true;
        Self::for_each_piece(self.region_at(0), geometry, *range, |piece| {
            let t = self
                .topology
                .next_channel(0, input, geometry.group(piece.off));
            ok = !self.fifos[t].is_full();
            ok
        });
        ok
    }

    /// Offers `range` at input `input`, splitting it if it spans first
    /// stage boundaries.
    ///
    /// # Errors
    ///
    /// Returns `Err(range)` (handing back the whole range) if any target
    /// FIFO lacks space; the producer must stall.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the range wraps the bank interleaving —
    /// the replay engine guarantees this cannot happen.
    pub fn push(&mut self, input: usize, range: EdgeRange<P>) -> Result<(), EdgeRange<P>> {
        debug_assert!(range.len >= 1, "empty range");
        debug_assert!(
            self.geometry.bank(range.off) + u64::from(range.len) <= self.num_banks as u64,
            "range wraps the bank interleaving"
        );
        if !self.can_accept(input, &range) {
            self.stats.rejected += 1;
            return Err(range);
        }
        let geometry = self.geometry;
        let region = self.region_at(0);
        let topology = &self.topology;
        let stage0 = &mut self.fifos[..self.n];
        let stage0_mask = &mut self.stage_mask[0];
        let mut pieces = 0u64;
        Self::for_each_piece(region, geometry, range, |piece| {
            let t = topology.next_channel(0, input, geometry.group(piece.off));
            stage0[t]
                .push(piece)
                // lint:allow(panic-freedom): push cannot fail: space was checked by can_accept before the transfer
                .unwrap_or_else(|_| unreachable!("space checked by can_accept"));
            mask_set(stage0_mask, t);
            pieces += 1;
            true
        });
        self.splits += pieces - 1;
        self.occupancy += pieces as usize;
        self.stats.accepted += 1;
        Ok(())
    }

    /// The range presented at output `output`, if any. Output ranges lie
    /// entirely within the output's dispatcher group.
    pub fn peek(&self, output: usize) -> Option<&EdgeRange<P>> {
        self.fifos[self.last() * self.n + output].peek()
    }

    /// Consumes the range presented at output `output`.
    pub fn pop(&mut self, output: usize) -> Option<EdgeRange<P>> {
        let last = self.last();
        let fifo = &mut self.fifos[last * self.n + output];
        let r = fifo.pop();
        if r.is_some() {
            if fifo.is_empty() {
                mask_clear(&mut self.stage_mask[last], output);
            }
            self.stats.delivered += 1;
            self.occupancy -= 1;
        }
        r
    }

    /// Occupancy mask of the output stage: bit `o` (word `o / 64`) is set
    /// iff output `o` presents a range. Lets a consumer visit only the
    /// outputs that have something to issue.
    pub fn output_mask(&self) -> &[u64] {
        &self.stage_mask[self.last()]
    }

    /// Advances one cycle: each non-final stage head is split (if needed)
    /// and moved one stage toward its destination.
    ///
    /// When a head splits across two target FIFOs, the halves advance
    /// *independently*: if only one target has space, that half moves and
    /// the remainder shrinks in place (skid-buffer behaviour of the 2W2R
    /// module). Without this, sibling-FIFO coupling would let output
    /// stages starve while the fabric is congested.
    pub fn tick(&mut self) {
        self.stats.cycles += 1;
        if self.occupancy == 0 {
            // An empty fabric's tick is pure time-keeping.
            return;
        }
        let n = self.n;
        let geometry = self.geometry;
        for s in (0..self.last()).rev() {
            let region = self.region_at(s + 1);
            let (upper, lower) = self.fifos.split_at_mut((s + 1) * n);
            let (here, next) = (&mut upper[s * n..], &mut lower[..n]);
            let (upper_mask, lower_mask) = self.stage_mask.split_at_mut(s + 1);
            let (here_mask, next_mask) = (&mut upper_mask[s], &mut lower_mask[0]);
            let topology = &self.topology;
            for w in 0..here_mask.len() {
                // Snapshot the word: pops this stage only clear bits we
                // already visited, pushes land in stage s+1.
                let mut bits = here_mask[w];
                while bits != 0 {
                    let c = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    // lint:allow(panic-freedom): infallible: the occupancy mask guarantees this channel has a head
                    let head = *here[c].peek().expect("masked channel has a head");
                    // Move a prefix of pieces (ascending bank order) while
                    // their target FIFOs have space; the head shrinks in
                    // place to the contiguous remainder (skid-buffer
                    // behaviour of the 2W2R module). Without independent
                    // piece movement, sibling-FIFO coupling would let
                    // output stages starve while the fabric is congested.
                    // Pieces are visited without materializing them (no
                    // per-head allocation).
                    let mut moved = 0usize;
                    let mut blocked_at: Option<EdgeRange<P>> = None;
                    Self::for_each_piece(region, geometry, head, |piece| {
                        let t = topology.next_channel(s + 1, c, geometry.group(piece.off));
                        if next[t].is_full() {
                            blocked_at = Some(piece);
                            return false;
                        }
                        next[t]
                            .push(piece)
                            // lint:allow(panic-freedom): push cannot fail: space was checked by can_accept before the transfer
                            .unwrap_or_else(|_| unreachable!("space checked"));
                        mask_set(next_mask, t);
                        moved += 1;
                        true
                    });
                    match blocked_at {
                        None => {
                            here[c].pop();
                            if here[c].is_empty() {
                                mask_clear(here_mask, c);
                            }
                            // popped one, pushed `moved` pieces
                            self.occupancy += moved - 1;
                            self.splits += moved as u64 - 1;
                        }
                        Some(first_kept) => {
                            self.stats.hol_blocked += 1;
                            if moved > 0 {
                                let consumed = (first_kept.off - head.off) as u32;
                                let rest = EdgeRange {
                                    off: first_kept.off,
                                    len: head.len - consumed,
                                    payload: head.payload,
                                };
                                // lint:allow(panic-freedom): infallible: the masked peek above proved this head exists; peek_mut revisits the same slot
                                *here[c].peek_mut().expect("head exists") = rest;
                                self.occupancy += moved;
                                self.splits += moved as u64;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Number of ranges currently inside the network.
    pub fn in_flight(&self) -> usize {
        debug_assert_eq!(
            self.occupancy,
            self.fifos.iter().map(Fifo::len).sum::<usize>(),
            "cached occupancy out of sync"
        );
        self.occupancy
    }

    /// Total edges covered by in-flight ranges.
    pub fn pending_edges(&self) -> u64 {
        self.fifos
            .iter()
            .flat_map(|f| f.iter())
            .map(|r| u64::from(r.len))
            .sum()
    }

    /// Whether the network holds no ranges.
    pub fn is_empty(&self) -> bool {
        self.in_flight() == 0
    }
}

impl<P: Copy> ClockedComponent for RangeMdpNetwork<P> {
    fn tick(&mut self) {
        RangeMdpNetwork::tick(self);
    }

    fn in_flight(&self) -> usize {
        RangeMdpNetwork::in_flight(self)
    }

    fn network_stats(&self) -> Option<NetworkStats> {
        Some(*self.stats())
    }

    /// An idle tick over empty stage FIFOs only advances the cycle
    /// counter.
    fn skip(&mut self, cycles: u64) {
        debug_assert!(
            cycles == 0 || RangeMdpNetwork::in_flight(self) == 0,
            "skip() on a range network holding ranges"
        );
        self.stats.cycles += cycles;
    }
}

impl<P: higraph_sim::SnapValue> higraph_sim::SnapValue for EdgeRange<P> {
    fn save_value(&self, w: &mut higraph_sim::SnapWriter) {
        w.u64(self.off);
        w.u32(self.len);
        self.payload.save_value(w);
    }

    fn load_value(r: &mut higraph_sim::SnapReader<'_>) -> Result<Self, higraph_sim::SnapError> {
        Ok(EdgeRange {
            off: r.u64()?,
            len: r.u32()?,
            payload: P::load_value(r)?,
        })
    }
}

impl<P: higraph_sim::SnapValue> higraph_sim::Snapshot for ReplayEngine<P> {
    fn save(&self, w: &mut higraph_sim::SnapWriter) {
        w.tag(b"RPLY");
        w.u64(self.num_banks);
        w.value(&self.current);
    }

    fn load(&mut self, r: &mut higraph_sim::SnapReader<'_>) -> Result<(), higraph_sim::SnapError> {
        r.expect_tag(b"RPLY")?;
        let num_banks = r.u64()?;
        if num_banks != self.num_banks {
            return Err(higraph_sim::SnapError::new(format!(
                "replay engine bank mismatch: snapshot {num_banks}, live {}",
                self.num_banks
            )));
        }
        self.current = r.value()?;
        Ok(())
    }
}

impl<P: higraph_sim::SnapValue> higraph_sim::Snapshot for RangeMdpNetwork<P> {
    fn save(&self, w: &mut higraph_sim::SnapWriter) {
        w.tag(b"RMDP");
        w.usize(self.topology.num_stages());
        w.usize(self.topology.num_channels());
        w.usize(self.num_banks);
        w.u64(self.splits);
        self.stats.save(w);
        // Stage by stage, independent of the flat in-memory layout.
        for stage in self.fifos.chunks(self.n) {
            stage.save(w);
        }
    }

    fn load(&mut self, r: &mut higraph_sim::SnapReader<'_>) -> Result<(), higraph_sim::SnapError> {
        r.expect_tag(b"RMDP")?;
        let stages = r.usize()?;
        let channels = r.usize()?;
        let num_banks = r.usize()?;
        if stages != self.topology.num_stages()
            || channels != self.topology.num_channels()
            || num_banks != self.num_banks
        {
            return Err(higraph_sim::SnapError::new(format!(
                "range MDP-network shape mismatch: snapshot {stages}x{channels} over \
                 {num_banks} banks, live {}x{} over {}",
                self.topology.num_stages(),
                self.topology.num_channels(),
                self.num_banks
            )));
        }
        self.splits = r.u64()?;
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

    fn net(n: usize, m: usize, cap: usize) -> RangeMdpNetwork<u32> {
        RangeMdpNetwork::new(Topology::new(n, 2).unwrap(), m, cap).unwrap()
    }

    #[test]
    fn paper_example_off4_len9_splits_at_8() {
        // Fig. 6: m = 16, "Off 4 with Len 9 … split into Off 4 with Len 4
        // and Off 8 with Len 5" at stage 1 (boundary 8 = m/2).
        let n = net(4, 16, 8);
        let r = EdgeRange {
            off: 4,
            len: 9,
            payload: 0u32,
        };
        let pieces = n.split_at_stage(0, r);
        assert_eq!(pieces.len(), 2);
        assert_eq!((pieces[0].off, pieces[0].len), (4, 4));
        assert_eq!((pieces[1].off, pieces[1].len), (8, 5));
    }

    #[test]
    fn replay_engine_chunks_are_row_aligned() {
        let mut re = ReplayEngine::new(8);
        assert!(re.load(5, 30, 7u32));
        assert!(!re.load(0, 1, 7u32), "busy engine rejects load");
        let mut chunks = Vec::new();
        while let Some(c) = re.emit() {
            chunks.push((c.off, c.len));
        }
        assert_eq!(chunks, vec![(5, 3), (8, 8), (16, 8), (24, 6)]);
        assert!(re.is_idle());
    }

    #[test]
    fn replay_engine_zero_length_is_noop() {
        let mut re = ReplayEngine::new(8);
        assert!(re.load(5, 5, ()));
        assert!(re.is_idle());
        assert_eq!(re.emit(), None);
    }

    #[test]
    fn dispatcher_expands_to_distinct_banks() {
        let d = Dispatcher::new(16);
        let r = EdgeRange {
            off: 20,
            len: 9,
            payload: (),
        };
        let reads: Vec<_> = d.expand(&r).collect();
        assert_eq!(reads.len(), 9);
        let mut banks: Vec<_> = reads.iter().map(|(b, _)| *b).collect();
        banks.sort_unstable();
        banks.dedup();
        assert_eq!(banks.len(), 9, "banks must be distinct");
        assert_eq!(reads[0], (4, 20));
    }

    #[test]
    fn delivered_ranges_cover_exactly_the_request() {
        // push chunks for a whole row and check output coverage
        let mut n = net(4, 16, 8);
        n.push(
            0,
            EdgeRange {
                off: 32,
                len: 16,
                payload: 1u32,
            },
        )
        .unwrap();
        let mut covered = Vec::new();
        for _ in 0..16 {
            for o in 0..4 {
                if let Some(r) = n.pop(o) {
                    // output range lies inside output o's dispatcher group
                    let b0 = (r.off % 16) as usize;
                    assert_eq!(b0 / 4, o);
                    assert!(b0 + r.len as usize <= (o + 1) * 4);
                    covered.extend(r.off..r.end());
                }
            }
            n.tick();
        }
        covered.sort_unstable();
        assert_eq!(covered, (32..48).collect::<Vec<_>>());
        assert!(n.is_empty());
    }

    #[test]
    fn no_edge_lost_under_random_load() {
        let mut n = net(8, 32, 4);
        let mut expected = 0u64;
        let mut got = 0u64;
        let mut seed = 12345u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            seed >> 33
        };
        for _ in 0..300 {
            for o in 0..8 {
                if let Some(r) = n.pop(o) {
                    got += u64::from(r.len);
                }
            }
            for i in 0..8 {
                let off = next() % 97 * 32 + next() % 20; // arbitrary rows
                let len = (next() % (32 - off % 32)).max(1) as u32;
                let r = EdgeRange {
                    off,
                    len,
                    payload: 0u32,
                };
                if n.push(i, r).is_ok() {
                    expected += u64::from(len);
                }
            }
            n.tick();
        }
        for _ in 0..100 {
            for o in 0..8 {
                if let Some(r) = n.pop(o) {
                    got += u64::from(r.len);
                }
            }
            n.tick();
        }
        assert!(n.is_empty());
        assert_eq!(got, expected);
    }

    #[test]
    fn rejects_mismatched_banks() {
        let t = Topology::new(4, 2).unwrap();
        assert!(RangeMdpNetwork::<u32>::new(t.clone(), 15, 4).is_err());
        assert!(RangeMdpNetwork::<u32>::new(t, 0, 4).is_err());
    }

    #[test]
    fn rejects_bank_counts_that_are_not_powers_of_two() {
        let t = Topology::new(4, 2).unwrap();
        let err = RangeMdpNetwork::<u32>::new(t.clone(), 12, 4).unwrap_err();
        assert_eq!(err, RangeNetworkError::BanksNotPowerOfTwo { num_banks: 12 });
        assert!(err.to_string().contains("power of two"), "{err}");
        assert!(RangeMdpNetwork::<u32>::new(t, 32, 4).is_ok());
    }

    #[test]
    fn pending_edges_counts_in_flight() {
        let mut n = net(4, 16, 8);
        n.push(
            1,
            EdgeRange {
                off: 0,
                len: 10,
                payload: 0u32,
            },
        )
        .unwrap();
        assert_eq!(n.pending_edges(), 10);
        assert!(n.splits() >= 1); // 0..10 spans the mid boundary 8
    }
}
