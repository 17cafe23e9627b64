//! The accelerator engine: P chip pipelines over a destination-interval
//! partition, coupled by a modeled inter-chip link.
//!
//! The paper's scalability story (Fig. 11) widens one chip; this module
//! also scales *out*. [`ShardedEngine`] instantiates one scatter pipeline
//! per chip over the `higraph_graph::slicing::partition` shards, plus a
//! `higraph_sim::InterChipLink` carrying cross-shard edge updates. An
//! iteration's scatter phase ends only when every chip *and* the link
//! have drained.
//!
//! There is one run loop for every way the pipeline runs. P = 1 *is*
//! the serial engine: [`Engine`](crate::Engine) is a one-chip
//! [`ShardedEngine`], whose chip scatters the caller's graph itself and
//! whose link never carries a packet. A sliced run (Sec. 5.3,
//! [`Engine::run_sliced`](crate::Engine::run_sliced)) is that one chip
//! draining S destination slices one after another within an iteration.
//! Both shapes are the same rule: an iteration drains its *lanes* (the
//! destination intervals with their edges) P at a time, one per chip.
//!
//! # Execution model
//!
//! Destination-interval sharding keeps the algorithm untouched: chip `p`
//! owns destinations `[dst_start, dst_end)` of slice `p`, scatters the
//! *global* frontier over its slice graph into its own tProperty
//! interval, and applies its owned vertices. Because every edge lives on
//! exactly one chip and reduction is per-destination, the final Property
//! Array does not depend on P, which `tests/sharded_equivalence.rs`
//! asserts against the one-chip run.
//!
//! # Per-chip drains
//!
//! Within a scatter phase the parts never interact. Every chip's input
//! (the frontier) is loaded before the phase starts, and no chip gains
//! work mid-phase. The link's input (the staged `[src][dst]` packet
//! counts) is fixed at the same moment, and arrivals are discarded. So
//! each of the P + 1 parts — the chips and the link — drains to
//! quiescence on its own `Scheduler`, with its own fast-forward, and the
//! parts fan out over the shared [`CorePool`] with one join per
//! iteration (at P = 1 the link is empty and the chip drains on the
//! calling thread). The iteration's scatter time is the **max** of the
//! P + 1 drain times. A part that finished early is then padded with
//! `skip(spent − own)`: the idle ticks a shared clock would have given
//! it (fabric cycle counters, arbiter parity, the DRAM clock). The
//! result is bit-identical to clocking all parts on one composite clock,
//! for any worker count (`docs/sharding.md` has the argument).
//!
//! # Traffic model
//!
//! Each processed edge whose source vertex is owned by a different chip
//! than its destination contributes one update packet on the inter-chip
//! link, entering at the source chip and delivered to the destination
//! chip. Over one full-frontier iteration the packet count therefore
//! equals the partitioner's reported cut-edge count
//! ([`higraph_graph::slicing::total_cut_edges`]) — a property test holds
//! the two equal. The link models egress-queue depth, per-chip injection
//! bandwidth, and flight latency; see `docs/sharding.md` for the
//! cycle-accounting assumptions.

use crate::apply::{apply_cycles, apply_phase};
use crate::config::AcceleratorConfig;
use crate::engine::{
    Checkpoint, ControlError, Outcome, ScatterPipeline, SlicedRunResult, StallDiagnostic,
};
use crate::faults::FaultRuntime;
use crate::metrics::Metrics;
use crate::netfactory::NetworkFactory;
use higraph_graph::slicing::{partition, slice_swap_cycles, total_cut_edges, Slice};
use higraph_graph::{Csr, VertexId};
use higraph_pool::CorePool;
use higraph_sim::{
    content_checksum, ClockedComponent, DrainError, DrainStep, InterChipLink, Network,
    NetworkStats, Packet, RunControl, Scheduler, SnapError, SnapReader, SnapValue, SnapWriter,
    Snapshot,
};
use higraph_vcpm::VertexProgram;
use std::sync::{Mutex, PoisonError};
use std::thread::ThreadId;

/// Geometry and timing of the inter-chip fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of chips (= shards). 1 is the serial engine.
    pub num_chips: usize,
    /// Link flight latency in cycles, on top of the one-cycle stage
    /// minimum every clocked component obeys.
    pub link_latency: u64,
    /// Update packets each chip can inject per cycle.
    pub link_bandwidth: usize,
    /// Depth of each chip's link egress queue.
    pub link_capacity: usize,
}

impl ShardConfig {
    /// A `num_chips`-way configuration with board-level defaults: 8-cycle
    /// flight latency, 4 packets/cycle/chip, 64-entry egress queues.
    pub fn new(num_chips: usize) -> Self {
        ShardConfig {
            num_chips,
            link_latency: 8,
            link_bandwidth: 4,
            link_capacity: 64,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message if the chip count, bandwidth, or queue capacity
    /// is zero.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_chips == 0 {
            return Err("need at least one chip".to_string());
        }
        if self.link_bandwidth == 0 || self.link_capacity == 0 {
            return Err("link bandwidth and capacity must be positive".to_string());
        }
        Ok(())
    }
}

/// One cross-shard edge update on the inter-chip link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPacket {
    /// Chip owning the source vertex (link input).
    pub src_chip: usize,
    /// Chip owning the destination vertex (link output).
    pub dst_chip: usize,
}

impl Packet for ShardPacket {
    fn dest(&self) -> usize {
        self.dst_chip
    }
}

impl SnapValue for ShardPacket {
    fn save_value(&self, w: &mut SnapWriter) {
        w.usize(self.src_chip);
        w.usize(self.dst_chip);
    }
    fn load_value(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(ShardPacket {
            src_chip: r.usize()?,
            dst_chip: r.usize()?,
        })
    }
}

/// Result of a sharded run ([`ShardedEngine::run`]).
#[derive(Debug, Clone)]
pub struct ShardedRunResult<P> {
    /// Final Property Array — identical for every chip count.
    pub properties: Vec<P>,
    /// Aggregate metrics on the multi-chip critical path: scatter cycles
    /// are the slowest of each iteration's drains (every chip *and* the
    /// link), apply cycles the slowest chip's owned-interval scan per
    /// iteration. Fabric stats and counters are merged across chips.
    pub metrics: Metrics,
    /// Per-chip metrics, indexed by chip (= slice) number.
    pub chips: Vec<Metrics>,
    /// Update packets that crossed the inter-chip link.
    pub cross_chip_packets: u64,
    /// Link fabric counters (accepted/rejected/delivered/cycles).
    pub link: NetworkStats,
    /// Host threads that drained parts of one iteration, at most, over
    /// this run's iterations. Host-side observability only: it depends
    /// on pool availability, never on the simulation, and no simulated
    /// number reads it.
    pub drain_participants: usize,
}

impl<P> ShardedRunResult<P> {
    /// Number of chips that executed this run.
    pub fn num_chips(&self) -> usize {
        self.chips.len()
    }

    /// Scatter cycles of the slowest chip — the compute-only critical
    /// path, before the link's drain is folded in.
    pub fn max_chip_scatter_cycles(&self) -> u64 {
        self.chips
            .iter()
            .map(|m| m.scatter_cycles)
            .max()
            .unwrap_or(0)
    }

    /// Aggregate cycles per processed edge — the scale-out efficiency
    /// figure the multi-chip sweep reports.
    pub fn cycles_per_edge(&self) -> f64 {
        if self.metrics.edges_processed == 0 {
            0.0
        } else {
            self.metrics.cycles as f64 / self.metrics.edges_processed as f64
        }
    }
}

/// How a controlled run ([`ShardedEngine::run_controlled`]) ended:
/// completion, a boundary checkpoint, or cancellation.
pub type ShardedOutcome<P> = Outcome<ShardedRunResult<P>>;

/// The inter-chip link plus the per-chip egress staging for packets the
/// link has not yet accepted: the one part of a scatter phase that is
/// not a chip.
///
/// Staged traffic is a `[src][dst]` remaining-count matrix, not a queue
/// of materialized packets: every packet of a (src, dst) pair is
/// identical and consumers discard them on arrival, so synthesizing
/// packets at link-push time models the same cycles and counts in O(P²)
/// memory instead of O(cut edges) per iteration.
struct LinkStage {
    link: InterChipLink<ShardPacket>,
    staged: Vec<Vec<u64>>,
}

impl LinkStage {
    /// Packets staged but not yet accepted by the link.
    fn staged_total(&self) -> u64 {
        self.staged.iter().flatten().sum()
    }

    /// One cycle's exchange: the link's outputs sink (and discard)
    /// whatever updates arrived this cycle, then staged updates
    /// (synthesized from the counts) are offered until the link
    /// back-pressures.
    fn exchange(&mut self) {
        let link = &mut self.link;
        for ci in 0..self.staged.len() {
            while link.pop(ci).is_some() {}
        }
        for (src_chip, row) in self.staged.iter_mut().enumerate() {
            // a full egress queue blocks every destination of this source
            // chip alike — move to the next chip
            'dsts: for (dst_chip, count) in row.iter_mut().enumerate() {
                while *count > 0 {
                    let pkt = ShardPacket { src_chip, dst_chip };
                    match link.push(src_chip, pkt) {
                        Ok(()) => *count -= 1,
                        Err(_) => break 'dsts,
                    }
                }
            }
        }
    }
}

impl ClockedComponent for LinkStage {
    fn tick(&mut self) {
        self.link.tick();
    }

    fn in_flight(&self) -> usize {
        self.link.in_flight() + self.staged_total() as usize
    }

    /// Staged packets are offered — and their rejections counted — every
    /// cycle until the link accepts them, so they pin the window to 0;
    /// otherwise the link's own window applies.
    fn next_activity(&mut self) -> Option<u64> {
        if self.staged_total() > 0 {
            Some(0)
        } else {
            self.link.activity_window()
        }
    }

    fn skip(&mut self, cycles: u64) {
        self.link.skip(cycles);
    }
}

/// Every part a scatter phase drains: P chip pipelines and the link
/// stage. Between iterations all of them are drained, which is what
/// makes an iteration boundary a checkpointable state.
struct MultiChip<P> {
    chips: Vec<ScatterPipeline<P>>,
    link: LinkStage,
}

impl<P: Copy + 'static> MultiChip<P> {
    fn is_drained(&self) -> bool {
        self.chips.iter().all(ClockedComponent::is_drained) && self.link.is_drained()
    }
}

impl<P: SnapValue + 'static> Snapshot for MultiChip<P> {
    fn save(&self, w: &mut SnapWriter) {
        w.tag(b"MCHP");
        w.usize(self.chips.len());
        for chip in &self.chips {
            chip.save(w);
        }
        self.link.link.save(w);
        for row in &self.link.staged {
            row.save(w);
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_tag(b"MCHP")?;
        let chips = r.usize()?;
        if chips != self.chips.len() {
            return Err(SnapError::new(format!(
                "checkpoint has {chips} chips, engine has {}",
                self.chips.len()
            )));
        }
        for chip in &mut self.chips {
            chip.load(r)?;
        }
        self.link.link.load(r)?;
        for row in &mut self.link.staged {
            row.load(r)?;
        }
        Ok(())
    }
}

/// One chip's share of a scatter phase: the pipeline plus everything
/// only this chip writes (its metrics, its lane's tProperty interval).
struct ChipLane<'a, P> {
    /// Chip index within the shard (the chip a fault window targets).
    index: usize,
    chip: &'a mut ScatterPipeline<P>,
    metrics: &'a mut Metrics,
    /// The lane's tProperty interval (disjoint across chips).
    t_props: &'a mut [P],
    /// Global vertex id of `t_props[0]`.
    t_base: u32,
    graph: &'a Csr,
}

/// One independently drained part of a scatter phase.
enum Part<'a, P> {
    Chip(ChipLane<'a, P>),
    Link(&'a mut LinkStage),
}

/// What every part's drain shares: read-only, so the parts can drain on
/// different host threads.
struct DrainContext<'a, Prog> {
    program: &'a Prog,
    control: &'a RunControl,
    faults: Option<&'a FaultRuntime>,
    fast_forward: bool,
    guard: u64,
    /// Global scatter cycle at which this phase starts: fault windows
    /// index the global timeline, so a window straddling an iteration
    /// (or checkpoint) boundary keeps holding its target across drains.
    base: u64,
}

impl<Prog: VertexProgram> DrainContext<'_, Prog> {
    /// Drains one part to quiescence on its own scheduler, returning the
    /// cycles it took.
    fn drain(&self, part: &mut Part<'_, Prog::Prop>) -> Result<u64, DrainError> {
        let mut scheduler = Scheduler::new()
            .with_fast_forward(self.fast_forward)
            .with_stall_guard(self.guard);
        let (faults, base) = (self.faults, self.base);
        match part {
            Part::Link(stage) => scheduler.drain_ctrl(&mut **stage, self.control, |stage, step| {
                // A link stall window refuses injections (in-flight
                // packets keep moving through `tick`).
                if let DrainStep::Cycle(cycle) = step {
                    if faults.is_none_or(|f| !f.link_stalled(base + cycle)) {
                        stage.exchange();
                    }
                }
            }),
            Part::Chip(lane) => {
                let ChipLane {
                    index,
                    chip,
                    metrics,
                    t_props,
                    t_base,
                    graph,
                } = lane;
                scheduler.drain_ctrl(&mut **chip, self.control, |chip, step| {
                    let cycle = match step {
                        DrainStep::Cycle(cycle) => cycle,
                        DrainStep::Skipped { cycles, .. } => {
                            chip.commit_idle(cycles, metrics);
                            return;
                        }
                    };
                    if let Some(f) = faults {
                        let now = base + cycle;
                        f.set_brownouts(now, |fault_chip, channel, active| {
                            if fault_chip == *index {
                                chip.mem.set_dram_channel_paused(channel, active);
                            }
                        });
                        if f.chip_paused(now, *index) {
                            // Clock-gated: held packets wait, nothing steps.
                            return;
                        }
                    }
                    // Stages evaluate consumer-first: back-end (1–3),
                    // then front-end (4–6) feeding the back-end's edge
                    // unit.
                    chip.back
                        .step(self.program, graph, t_props, *t_base, metrics);
                    chip.front
                        .step(graph, &mut chip.back.edge_access, &mut chip.mem, metrics);
                })
            }
        }
    }
}

/// A destination interval one chip scatters in one drain, with the
/// graph that holds exactly the edges into it.
struct Lane<'a> {
    graph: &'a Csr,
    dst_start: u32,
    dst_end: u32,
    /// Cycles to load the lane from off-chip memory before it scatters
    /// (Sec. 5.3 slice replacement); 0 unless the run is sliced.
    swap: u64,
}

impl<'a> Lane<'a> {
    fn of(slice: &'a Slice, swap: u64) -> Self {
        Lane {
            graph: &slice.graph,
            dst_start: slice.dst_start,
            dst_end: slice.dst_end,
            swap,
        }
    }
}

/// The accelerator engine bound to a graph: P chips over its
/// destination-interval partition, P = 1 being the serial engine.
#[derive(Debug)]
pub struct ShardedEngine<'g> {
    factory: NetworkFactory,
    shard: ShardConfig,
    graph: &'g Csr,
    /// The destination-interval shards, one per chip. Empty at P = 1,
    /// where the one chip scatters `graph` itself.
    slices: Vec<Slice>,
    /// Owning chip per vertex (destination-interval lookup); empty at
    /// P = 1, where no edge crosses chips.
    owner: Vec<usize>,
    /// Overrides the workload-derived stall guard when set.
    stall_guard: Option<u64>,
    /// Event-driven fast-forward of idle cycles in each part's drain (on
    /// by default; bit-identical — see `docs/simulation.md`).
    fast_forward: bool,
    /// `Some(1)` drains an iteration's parts one after another on the
    /// calling thread; anything else fans them out over the shared
    /// [`CorePool`]. Results are bit-identical for every setting.
    threads: Option<usize>,
}

impl<'g> ShardedEngine<'g> {
    /// Creates a sharded engine: `shard.num_chips` identical chips built
    /// from `config`, over the destination-interval partition of `graph`.
    ///
    /// # Panics
    ///
    /// Panics if either configuration is invalid; use
    /// [`ShardedEngine::try_new`] for a fallible constructor.
    pub fn new(config: AcceleratorConfig, shard: ShardConfig, graph: &'g Csr) -> Self {
        // lint:allow(panic-freedom): documented panicking convenience constructor; ShardedEngine::try_new is the fallible path
        ShardedEngine::try_new(config, shard, graph).expect("invalid sharded configuration")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns the validation message for an invalid accelerator or
    /// shard configuration.
    pub fn try_new(
        config: AcceleratorConfig,
        shard: ShardConfig,
        graph: &'g Csr,
    ) -> Result<Self, String> {
        shard.validate()?;
        let factory = NetworkFactory::new(&config)?;
        // One chip borrows the caller's graph: no partition copy.
        let (slices, owner) = if shard.num_chips == 1 {
            (Vec::new(), Vec::new())
        } else {
            let slices = partition(graph, shard.num_chips);
            let mut owner = vec![0usize; graph.num_vertices() as usize];
            for s in &slices {
                for v in s.dst_start..s.dst_end {
                    owner[v as usize] = s.index;
                }
            }
            (slices, owner)
        };
        Ok(ShardedEngine {
            factory,
            shard,
            graph,
            slices,
            owner,
            stall_guard: None,
            fast_forward: true,
            threads: None,
        })
    }

    /// Replaces the workload-derived stall guard with a fixed cycle
    /// budget for each part's drain (`None` restores the derived guard).
    /// A run that exceeds it fails with a [`StallDiagnostic`] instead of
    /// simulating indefinitely.
    pub fn set_stall_guard(&mut self, guard: Option<u64>) {
        self.stall_guard = guard;
    }

    /// Enables or disables the event-driven fast-forward of idle scatter
    /// cycles (on by default). Results — cycle counts and every metric —
    /// are bit-identical either way; disabling it only reverts host
    /// performance to per-cycle ticking (the `simspeed` repro target
    /// measures the difference).
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on;
    }

    /// Sets how an iteration's P + 1 drains (the chips and the link) run
    /// on the host. `Some(1)` drains them one after another on the
    /// calling thread. Any other setting, `None` included (the default),
    /// fans them out with [`CorePool::run_ordered`] over the process-wide
    /// pool, whose idle workers join the calling thread; busy workers
    /// simply leave more parts to it. Cycle counts and every metric are
    /// **bit-identical** for every setting; only host time changes. See
    /// `docs/performance.md`.
    pub fn set_threads(&mut self, threads: Option<usize>) {
        self.threads = threads;
    }

    /// The nominal chip-level parallelism of the current setting: the
    /// explicit request, or the resident pool's worker count, capped at
    /// the chip count (1 for a serial `Some(1)` drain). The threads a run
    /// actually got depend on what the pool had idle; each run reports
    /// them as [`ShardedRunResult::drain_participants`].
    pub fn worker_threads(&self) -> usize {
        self.threads
            .unwrap_or_else(|| CorePool::global().workers())
            .clamp(1, self.shard.num_chips)
    }

    /// The per-chip accelerator configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        self.factory.config()
    }

    /// The shard/link configuration.
    pub fn shard_config(&self) -> &ShardConfig {
        &self.shard
    }

    /// The partitioner's total cut-edge count — the per-full-frontier
    /// cross-chip packet count.
    pub fn cut_edges(&self) -> u64 {
        total_cut_edges(&self.slices)
    }

    /// Executes `program` across all chips to completion: the controlled
    /// run loop under an inert [`RunControl`], which never cancels or
    /// parks.
    ///
    /// # Errors
    ///
    /// Returns a [`StallDiagnostic`] if a part of an iteration's scatter
    /// phase fails to drain within its stall guard (a mis-sized fabric,
    /// link, or memory configuration).
    pub fn run<Prog>(
        &mut self,
        program: &Prog,
    ) -> Result<ShardedRunResult<Prog::Prop>, StallDiagnostic>
    where
        Prog: VertexProgram + Sync,
    {
        self.run_lanes(program, &self.chip_lanes())
            .map(finish_result)
    }

    /// The Sec. 5.3 large-graph schedule on this engine's one chip: the
    /// iteration drains `num_slices` destination-interval slices one
    /// after another, each loaded at `memory_bytes_per_cycle`. See
    /// [`Engine::run_sliced`](crate::Engine::run_sliced).
    ///
    /// # Panics
    ///
    /// Panics if `num_slices` is zero.
    pub(crate) fn run_sliced<Prog>(
        &self,
        program: &Prog,
        num_slices: usize,
        memory_bytes_per_cycle: u64,
    ) -> Result<SlicedRunResult<Prog::Prop>, StallDiagnostic>
    where
        Prog: VertexProgram + Sync,
    {
        debug_assert_eq!(self.shard.num_chips, 1, "slices drain on one chip");
        let slices = partition(self.graph, num_slices);
        let lanes: Vec<Lane<'_>> = slices
            .iter()
            .map(|s| Lane::of(s, slice_swap_cycles(s, memory_bytes_per_cycle)))
            .collect();
        let st = self.run_lanes(program, &lanes)?;
        let (swap_cycles_sequential, swap_cycles_overlapped) = st.swap;
        let r = finish_result(st);
        Ok(SlicedRunResult {
            properties: r.properties,
            metrics: r.metrics,
            num_slices,
            swap_cycles_sequential,
            swap_cycles_overlapped,
        })
    }

    /// Executes `program` under cooperative run control: `control` can
    /// cancel the run mid-drain, or park it — by explicit request or an
    /// exhausted simulated-cycle budget — at the next committed
    /// iteration boundary, where every part is drained and the state
    /// checkpoints into a restorable [`Checkpoint`]. The drains fan out
    /// exactly as in [`ShardedEngine::run`]; a run that completes is
    /// bit-identical to it at any thread count.
    ///
    /// # Errors
    ///
    /// Returns a [`StallDiagnostic`] exactly as [`ShardedEngine::run`]
    /// does.
    pub fn run_controlled<Prog>(
        &mut self,
        program: &Prog,
        control: &RunControl,
    ) -> Result<ShardedOutcome<Prog::Prop>, StallDiagnostic>
    where
        Prog: VertexProgram + Sync,
        Prog::Prop: SnapValue,
    {
        let state = self.fresh_state(program);
        self.controlled(program, control, state)
    }

    /// Continues a parked run from `checkpoint` under `control`. The
    /// engine must be built over the same graph, accelerator
    /// configuration, and shard geometry that produced the checkpoint;
    /// mismatches are rejected with a precise error before any state is
    /// touched. A pending park request on `control` is cleared
    /// (otherwise the resume would re-park at the first boundary);
    /// callers raising a cycle budget set it before the call.
    ///
    /// # Errors
    ///
    /// [`ControlError::Snapshot`] for a rejected checkpoint,
    /// [`ControlError::Stall`] as for [`ShardedEngine::run`].
    pub fn resume_controlled<Prog>(
        &mut self,
        program: &Prog,
        control: &RunControl,
        checkpoint: &[u8],
    ) -> Result<ShardedOutcome<Prog::Prop>, ControlError>
    where
        Prog: VertexProgram + Sync,
        Prog::Prop: SnapValue,
    {
        let mut state = self.fresh_state(program);
        self.load_checkpoint(&mut state, checkpoint)?;
        control.clear_park();
        self.controlled(program, control, state)
            .map_err(ControlError::Stall)
    }

    /// Runs the loop under `control` and turns where it stopped into an
    /// outcome, serializing the state if it parked.
    fn controlled<Prog>(
        &self,
        program: &Prog,
        control: &RunControl,
        mut st: RunState<Prog::Prop>,
    ) -> Result<ShardedOutcome<Prog::Prop>, StallDiagnostic>
    where
        Prog: VertexProgram + Sync,
        Prog::Prop: SnapValue,
    {
        let stop = self.drive(program, control, &mut st, &self.chip_lanes())?;
        Ok(match stop {
            None => Outcome::Done(finish_result(st)),
            Some(Stop::Park) => Outcome::Parked(self.save_checkpoint(&st)),
            Some(Stop::Cancel) => Outcome::Cancelled,
        })
    }

    /// Runs `program` over `lanes` from a fresh state to completion.
    fn run_lanes<Prog>(
        &self,
        program: &Prog,
        lanes: &[Lane<'_>],
    ) -> Result<RunState<Prog::Prop>, StallDiagnostic>
    where
        Prog: VertexProgram + Sync,
    {
        let mut st = self.fresh_state(program);
        let stop = self.drive(program, &RunControl::new(), &mut st, lanes)?;
        debug_assert!(stop.is_none(), "an inert control never stops a run");
        Ok(st)
    }

    /// One lane per chip: its shard, or at P = 1 the whole graph.
    fn chip_lanes(&self) -> Vec<Lane<'_>> {
        if self.slices.is_empty() {
            vec![Lane {
                graph: self.graph,
                dst_start: 0,
                dst_end: self.graph.num_vertices(),
                swap: 0,
            }]
        } else {
            self.slices.iter().map(|s| Lane::of(s, 0)).collect()
        }
    }

    /// The state a run starts from (checkpoints restore over it).
    fn fresh_state<Prog: VertexProgram>(&self, program: &Prog) -> RunState<Prog::Prop> {
        let config = self.factory.config();
        let num_chips = self.shard.num_chips;
        let fresh_metrics = || Metrics {
            frequency_ghz: config.effective_frequency_ghz(),
            vpe_starvation_per_channel: vec![0; config.back_channels],
            ..Metrics::default()
        };
        RunState {
            properties: self
                .graph
                .vertices()
                .map(|v| program.init_prop(v, self.graph))
                .collect(),
            t_props: vec![program.identity(); self.graph.num_vertices() as usize],
            frontier: program.initial_frontier(self.graph),
            multi: MultiChip {
                chips: (0..num_chips)
                    .map(|_| ScatterPipeline::new(&self.factory))
                    .collect(),
                link: LinkStage {
                    link: InterChipLink::new(
                        num_chips,
                        self.shard.link_latency,
                        self.shard.link_bandwidth,
                        self.shard.link_capacity,
                    ),
                    staged: vec![vec![0u64; num_chips]; num_chips],
                },
            },
            chip_metrics: (0..num_chips).map(|_| fresh_metrics()).collect(),
            agg: fresh_metrics(),
            cross_chip_packets: 0,
            swap: (0, 0),
            drain_participants: 1,
        }
    }

    /// Expands the configuration's fault plan against this engine's
    /// topology (chip count, per-chip DRAM channels), if one is set.
    fn fault_runtime<P: Copy + 'static>(&self, multi: &MultiChip<P>) -> Option<FaultRuntime> {
        self.factory.config().fault_plan.as_ref().map(|plan| {
            FaultRuntime::new(
                plan,
                self.shard.num_chips,
                multi.chips.first().map_or(0, |c| c.mem.dram_channels()),
            )
        })
    }

    /// The workload-derived stall guard of one scatter phase: compute
    /// slack per edge, plus the link terms when there is more than one
    /// chip, plus the worst-case off-chip latency when memory is modeled.
    fn derived_stall_guard(&self, edges: u64, frontier_len: u64, staged_packets: u64) -> u64 {
        let config = self.factory.config();
        let num_chips = self.shard.num_chips as u64;
        let mem_bonus = config
            .memory
            .as_ref()
            .map(|m| m.stall_guard_bonus(edges, frontier_len))
            .unwrap_or(0);
        let link = if num_chips > 1 {
            staged_packets * 8 + self.shard.link_latency
        } else {
            0
        };
        10_000 + edges * 64 * num_chips + link + mem_bonus
    }

    /// The run loop, shared by every entry point: iterations until the
    /// frontier empties, with cancel checks and boundary parking. Each
    /// iteration drains `lanes` P at a time, one per chip — P shards at
    /// once, or S slices one after another on one chip — then applies.
    /// Returns where `control` stopped it early, or `None` on completion.
    fn drive<Prog>(
        &self,
        program: &Prog,
        control: &RunControl,
        st: &mut RunState<Prog::Prop>,
        lanes: &[Lane<'_>],
    ) -> Result<Option<Stop>, StallDiagnostic>
    where
        Prog: VertexProgram + Sync,
    {
        let config = self.factory.config();
        let num_chips = self.shard.num_chips;
        let faults = self.fault_runtime(&st.multi);
        // Each chip scans the interval its lanes cover in the apply phase.
        let mut owned = vec![0u32; num_chips];
        for round in lanes.chunks(num_chips) {
            for (owned, lane) in owned.iter_mut().zip(round) {
                *owned += lane.dst_end - lane.dst_start;
            }
        }

        while !st.frontier.is_empty() {
            if let Some(cap) = program.max_iterations() {
                if st.agg.iterations >= cap {
                    break;
                }
            }
            if control.cancelled() {
                return Ok(Some(Stop::Cancel));
            }
            if control.should_park(st.agg.scatter_cycles + st.agg.apply_cycles) {
                return Ok(Some(Stop::Park));
            }

            let mut prev_compute = 0u64;
            for round in lanes.chunks(num_chips) {
                debug_assert!(
                    st.multi.is_drained(),
                    "a scatter phase must start with every part drained"
                );
                // Stage this phase's cross-chip traffic: one packet per
                // edge a chip will process from a remotely-owned source,
                // counted per (source chip, destination chip) pair. One
                // chip owns every source.
                let mut edges = 0u64;
                for &u in &st.frontier {
                    let src_chip = if num_chips > 1 {
                        self.owner[u.index()]
                    } else {
                        0
                    };
                    for (chip, lane) in round.iter().enumerate() {
                        let degree = lane.graph.out_degree(u);
                        edges += degree;
                        if chip != src_chip {
                            st.multi.link.staged[src_chip][chip] += degree;
                        }
                    }
                }
                let staged = st.multi.link.staged_total();
                st.cross_chip_packets += staged;

                // Load the global frontier into every chip's front-end.
                for chip in &mut st.multi.chips {
                    chip.front.load_frontier(&st.frontier, &st.properties);
                }

                let guard = self.stall_guard.unwrap_or_else(|| {
                    self.derived_stall_guard(edges, st.frontier.len() as u64, staged)
                }) + faults.as_ref().map_or(0, FaultRuntime::guard_bonus);
                let cx = DrainContext {
                    program,
                    control,
                    faults: faults.as_ref(),
                    // Fault windows land on exact global cycles, so fault
                    // runs tick every cycle.
                    fast_forward: self.fast_forward && faults.is_none(),
                    guard,
                    base: st.agg.scatter_cycles,
                };
                let spent = match self.drain_parts(&cx, st, round) {
                    Ok(spent) => spent,
                    Err(DrainError::Interrupted { .. }) => return Ok(Some(Stop::Cancel)),
                    Err(DrainError::Stall(stall)) => {
                        return Err(StallDiagnostic {
                            config: config.name.clone(),
                            num_chips,
                            iteration: st.agg.iterations,
                            iteration_edges: edges,
                            staged_packets: staged,
                            stall,
                        })
                    }
                };
                st.agg.scatter_cycles += spent;

                // Slice replacement: the first load of an iteration is
                // always exposed; under double buffering each later load
                // overlaps the previous slice's compute.
                let swap: u64 = round.iter().map(|lane| lane.swap).sum();
                st.swap.0 += swap;
                st.swap.1 += swap.saturating_sub(prev_compute);
                prev_compute = spent;
            }

            // Apply: functionally global (bit-identity), cycle-wise each
            // chip scans only its owned interval; the slowest chip gates
            // the iteration.
            apply_phase(
                program,
                self.graph,
                &mut st.properties,
                &mut st.t_props,
                &mut st.frontier,
            );
            let mut max_apply = 0u64;
            for (metrics, &owned) in st.chip_metrics.iter_mut().zip(&owned) {
                let a = apply_cycles(owned, config.back_channels);
                metrics.apply_cycles += a;
                metrics.iterations += 1;
                max_apply = max_apply.max(a);
            }
            st.agg.apply_cycles += max_apply;
            st.agg.iterations += 1;
        }
        Ok(None)
    }

    /// One scatter phase: drains one round of lanes on the chips and the
    /// link independently (fanned out over the pool unless the engine is
    /// pinned serial or has one chip), pads every part that finished
    /// early up to the slowest, and credits each chip its own drain
    /// time. Returns the phase's scatter cycles, the max over all parts.
    ///
    /// # Errors
    ///
    /// [`DrainError::Interrupted`] if any part observed a cancellation;
    /// otherwise the first part's [`DrainError::Stall`], in chip order
    /// and then the link. Every part has the same guard, so the report
    /// matches what one composite drain would have given.
    fn drain_parts<Prog>(
        &self,
        cx: &DrainContext<'_, Prog>,
        st: &mut RunState<Prog::Prop>,
        round: &[Lane<'_>],
    ) -> Result<u64, DrainError>
    where
        Prog: VertexProgram + Sync,
    {
        let MultiChip { chips, link } = &mut st.multi;
        let parts: Vec<Mutex<Part<'_, Prog::Prop>>> = chips
            .iter_mut()
            .zip(st.chip_metrics.iter_mut())
            .zip(split_lane_intervals(&mut st.t_props, round))
            .zip(round)
            .enumerate()
            .map(|(index, (((chip, metrics), t_props), lane))| {
                Mutex::new(Part::Chip(ChipLane {
                    index,
                    chip,
                    metrics,
                    t_props,
                    t_base: lane.dst_start,
                    graph: lane.graph,
                }))
            })
            .chain(std::iter::once(Mutex::new(Part::Link(link))))
            .collect();
        // Each part sits behind a mutex that only item `i` ever locks, so
        // the shared closure can hand it its part by `&mut`; a panicking
        // part re-raises from the join and is never locked again.
        let drain = |i: usize| -> (Result<u64, DrainError>, ThreadId) {
            let mut part = parts[i].lock().unwrap_or_else(PoisonError::into_inner);
            (cx.drain(&mut part), std::thread::current().id())
        };
        // One chip's link stays empty, so there is nothing to fan out.
        let drained: Vec<(Result<u64, DrainError>, ThreadId)> =
            if self.threads == Some(1) || self.shard.num_chips == 1 {
                (0..parts.len()).map(drain).collect()
            } else {
                CorePool::global().run_ordered(parts.len(), drain)
            };
        drop(parts);

        let mut threads: Vec<ThreadId> = Vec::with_capacity(drained.len());
        let mut own = Vec::with_capacity(drained.len());
        let mut first_stall = None;
        for (result, thread) in drained {
            if !threads.contains(&thread) {
                threads.push(thread);
            }
            match result {
                Ok(cycles) => own.push(cycles),
                Err(interrupted @ DrainError::Interrupted { .. }) => return Err(interrupted),
                Err(stall) => {
                    first_stall.get_or_insert(stall);
                }
            }
        }
        if let Some(stall) = first_stall {
            return Err(stall);
        }
        st.drain_participants = st.drain_participants.max(threads.len());

        // Pad every part to the phase length: the idle ticks a shared
        // clock would have given a part that drained early.
        let spent = own.iter().copied().max().unwrap_or(0);
        let MultiChip { chips, link } = &mut st.multi;
        for ((chip, metrics), &cycles) in chips.iter_mut().zip(&mut st.chip_metrics).zip(&own) {
            chip.skip(spent - cycles);
            metrics.scatter_cycles += cycles;
        }
        if let Some(&cycles) = own.last() {
            link.skip(spent - cycles);
        }
        Ok(spent)
    }

    /// Serializes a boundary state: identity context (graph hash,
    /// canonical configuration encoding, shard geometry) followed by the
    /// run variables and every chip and the link.
    fn save_checkpoint<P: SnapValue + 'static>(&self, st: &RunState<P>) -> Checkpoint {
        let mut w = SnapWriter::new();
        w.tag(b"SHRC");
        w.u64(self.graph.content_hash());
        w.u64(content_checksum(
            self.factory.config().canonical_encoding().as_bytes(),
        ));
        w.usize(self.shard.num_chips);
        w.u64(self.shard.link_latency);
        w.usize(self.shard.link_bandwidth);
        w.usize(self.shard.link_capacity);
        st.agg.save(&mut w);
        for chip in &st.chip_metrics {
            chip.save(&mut w);
        }
        w.u64(st.cross_chip_packets);
        w.usize(st.frontier.len());
        for v in &st.frontier {
            w.u32(v.0);
        }
        w.seq(st.properties.iter());
        w.seq(st.t_props.iter());
        st.multi.save(&mut w);
        Checkpoint {
            bytes: w.finish(),
            cycles: st.agg.scatter_cycles + st.agg.apply_cycles,
            iterations: st.agg.iterations,
        }
    }

    /// Restores a checkpoint over a freshly initialized state, verifying
    /// the identity context first.
    fn load_checkpoint<P: SnapValue + 'static>(
        &self,
        st: &mut RunState<P>,
        checkpoint: &[u8],
    ) -> Result<(), SnapError> {
        let num_v = self.graph.num_vertices() as usize;
        let mut r = SnapReader::open(checkpoint)?;
        r.expect_tag(b"SHRC")?;
        if r.u64()? != self.graph.content_hash() {
            return Err(SnapError::new(
                "checkpoint was taken on a different graph (content hash mismatch)",
            ));
        }
        let live_sum = content_checksum(self.factory.config().canonical_encoding().as_bytes());
        if r.u64()? != live_sum {
            return Err(SnapError::new(
                "checkpoint was taken under a different accelerator configuration",
            ));
        }
        let geometry = (r.usize()?, r.u64()?, r.usize()?, r.usize()?);
        let live = (
            self.shard.num_chips,
            self.shard.link_latency,
            self.shard.link_bandwidth,
            self.shard.link_capacity,
        );
        if geometry != live {
            return Err(SnapError::new(format!(
                "checkpoint shard geometry {geometry:?} does not match engine {live:?}"
            )));
        }
        st.agg.load(&mut r)?;
        for chip in &mut st.chip_metrics {
            chip.load(&mut r)?;
        }
        st.cross_chip_packets = r.u64()?;
        let frontier_len = r.usize()?;
        if frontier_len > num_v {
            return Err(SnapError::new(format!(
                "frontier length {frontier_len} exceeds vertex count {num_v}"
            )));
        }
        st.frontier.clear();
        for _ in 0..frontier_len {
            let raw = r.u32()?;
            if raw as usize >= num_v {
                return Err(SnapError::new(format!(
                    "frontier vertex {raw} out of range (graph has {num_v})"
                )));
            }
            st.frontier.push(VertexId(raw));
        }
        for (name, array) in [
            ("property", &mut st.properties),
            ("tProperty", &mut st.t_props),
        ] {
            *array = r.seq(num_v)?;
            if array.len() != num_v {
                return Err(SnapError::new(format!(
                    "{name} array length {} does not match vertex count {num_v}",
                    array.len()
                )));
            }
        }
        st.multi.load(&mut r)?;
        r.expect_exhausted()
    }
}

/// Where the run loop stopped before completion.
enum Stop {
    /// Parked at a committed iteration boundary.
    Park,
    /// Cancellation was observed; the state is discarded.
    Cancel,
}

/// The live state of one run, bundled so the controlled paths can park
/// it into a checkpoint at a committed iteration boundary and restore it
/// later (`docs/robustness.md`).
struct RunState<P> {
    properties: Vec<P>,
    t_props: Vec<P>,
    frontier: Vec<VertexId>,
    multi: MultiChip<P>,
    chip_metrics: Vec<Metrics>,
    agg: Metrics,
    cross_chip_packets: u64,
    /// Slice-replacement cycles (sequential, overlapped) of a sliced
    /// run; not part of a checkpoint, since sliced runs never park.
    swap: (u64, u64),
    /// Host-side only; not part of a checkpoint.
    drain_participants: usize,
}

/// Final metric harvest and merge of a completed run.
fn finish_result<P: Copy + 'static>(st: RunState<P>) -> ShardedRunResult<P> {
    let RunState {
        properties,
        multi,
        mut chip_metrics,
        mut agg,
        cross_chip_packets,
        drain_participants,
        ..
    } = st;
    for (metrics, chip) in chip_metrics.iter_mut().zip(&multi.chips) {
        finalize_metrics(metrics, chip);
    }
    for chip in &chip_metrics {
        agg.edges_processed += chip.edges_processed;
        agg.vpe_starvation_cycles += chip.vpe_starvation_cycles;
        for (c, s) in chip.vpe_starvation_per_channel.iter().enumerate() {
            agg.vpe_starvation_per_channel[c] += s;
        }
        agg.offset_conflicts += chip.offset_conflicts;
        agg.offset_net.merge(&chip.offset_net);
        agg.edge_net.merge(&chip.edge_net);
        agg.dataflow_net.merge(&chip.dataflow_net);
        agg.memory.merge(&chip.memory);
    }
    agg.cycles = agg.scatter_cycles + agg.apply_cycles;
    ShardedRunResult {
        properties,
        metrics: agg,
        chips: chip_metrics,
        cross_chip_packets,
        link: *multi.link.link.stats(),
        drain_participants,
    }
}

/// Harvests one chip's fabric and memory statistics into its metrics.
fn finalize_metrics<P: Copy + 'static>(metrics: &mut Metrics, pipeline: &ScatterPipeline<P>) {
    metrics.cycles = metrics.scatter_cycles + metrics.apply_cycles;
    metrics.offset_net = pipeline.front.offset_stats();
    metrics.edge_net = pipeline.back.edge_stats();
    metrics.dataflow_net = pipeline.back.dataflow_stats();
    let cache = pipeline.mem.cache_stats();
    metrics.memory.cache_hits = cache.hits;
    metrics.memory.cache_misses = cache.misses;
    metrics.memory.dram = pipeline.mem.dram_stats();
}

/// Splits the global tProperty array into the intervals of `lanes`
/// (disjoint and in vertex order), one window per lane. Disjointness is
/// what lets chips step concurrently.
fn split_lane_intervals<'t, P>(t_props: &'t mut [P], lanes: &[Lane<'_>]) -> Vec<&'t mut [P]> {
    let mut out = Vec::with_capacity(lanes.len());
    let mut rest = t_props;
    let mut at = 0u32;
    for lane in lanes {
        debug_assert!(lane.dst_start >= at, "lanes must be disjoint and in order");
        let (_, tail) = rest.split_at_mut((lane.dst_start - at) as usize);
        let (mine, tail) = tail.split_at_mut((lane.dst_end - lane.dst_start) as usize);
        out.push(mine);
        rest = tail;
        at = lane.dst_end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use higraph_graph::gen::{erdos_renyi, power_law};
    use higraph_vcpm::programs::{Bfs, PageRank, Sssp};
    use higraph_vcpm::reference;

    #[test]
    fn one_chip_is_bit_identical_to_serial() {
        let g = power_law(300, 2700, 2.0, 31, 23);
        let prog = Sssp::from_source(higraph_graph::stats::hub_vertex(&g).expect("non-empty").0);
        let serial = Engine::new(AcceleratorConfig::higraph(), &g)
            .run(&prog)
            .expect("no stall");
        let sharded = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(1), &g)
            .run(&prog)
            .expect("no stall");
        assert_eq!(sharded.properties, serial.properties);
        assert_eq!(sharded.metrics, serial.metrics);
        assert_eq!(sharded.chips.len(), 1);
        assert_eq!(sharded.chips[0], serial.metrics);
        assert_eq!(sharded.cross_chip_packets, 0);
        assert_eq!(sharded.link.accepted, 0);
    }

    #[test]
    fn multi_chip_matches_reference_results() {
        let g = erdos_renyi(256, 2048, 31, 29);
        let prog = Bfs::from_source(0);
        let expect = reference::execute(&prog, &g);
        for p in [2usize, 3, 4, 8] {
            let r = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(p), &g)
                .run(&prog)
                .expect("no stall");
            assert_eq!(r.properties, expect.properties, "{p} chips");
            assert_eq!(
                r.metrics.edges_processed, expect.edges_processed,
                "{p} chips"
            );
            assert_eq!(r.num_chips(), p);
        }
    }

    #[test]
    fn cross_chip_traffic_is_delivered_and_counted() {
        let g = power_law(200, 1800, 2.0, 31, 37);
        let mut engine = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(4), &g);
        // one full-frontier iteration: packets == the partition's cut edges
        let r = engine.run(&PageRank::new(1)).expect("no stall");
        assert_eq!(r.cross_chip_packets, engine.cut_edges());
        assert!(r.cross_chip_packets > 0, "4-way partition must cut edges");
        assert_eq!(r.link.delivered, r.cross_chip_packets);
        assert_eq!(r.link.accepted, r.cross_chip_packets);
    }

    #[test]
    fn scatter_phase_covers_compute_and_link() {
        // With a huge link latency the drain must extend past the slowest
        // chip's compute: communication is simulated, not hand-waved.
        let g = power_law(200, 1800, 2.0, 31, 41);
        let shard = ShardConfig::new(4);
        let slow_link = ShardConfig {
            link_latency: 100_000,
            ..shard
        };
        let fast = ShardedEngine::new(AcceleratorConfig::higraph(), shard, &g)
            .run(&PageRank::new(1))
            .expect("no stall");
        let slow = ShardedEngine::new(AcceleratorConfig::higraph(), slow_link, &g)
            .run(&PageRank::new(1))
            .expect("no stall");
        assert_eq!(fast.properties, slow.properties);
        assert!(
            slow.metrics.scatter_cycles > fast.metrics.scatter_cycles,
            "slow {} vs fast {}",
            slow.metrics.scatter_cycles,
            fast.metrics.scatter_cycles
        );
        assert!(slow.metrics.scatter_cycles > 100_000);
        // compute-only critical path is unchanged by link latency
        assert_eq!(
            slow.max_chip_scatter_cycles(),
            fast.max_chip_scatter_cycles()
        );
    }

    #[test]
    fn padding_keeps_every_part_on_one_clock() {
        // The chips and the link drain at different times; padding must
        // still give each of them every tick of the phase, as one shared
        // clock would.
        let g = power_law(300, 2700, 2.0, 31, 79);
        let r = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(4), &g)
            .run(&PageRank::new(2))
            .expect("no stall");
        assert!(
            r.chips
                .iter()
                .any(|c| c.scatter_cycles < r.metrics.scatter_cycles),
            "some part must drain early for the padding to matter"
        );
        assert_eq!(r.link.cycles, r.metrics.scatter_cycles);
        for chip in &r.chips[1..] {
            assert_eq!(chip.offset_net.cycles, r.chips[0].offset_net.cycles);
            assert_eq!(chip.edge_net.cycles, r.chips[0].edge_net.cycles);
            assert_eq!(chip.dataflow_net.cycles, r.chips[0].dataflow_net.cycles);
        }
    }

    #[test]
    fn aggregate_counters_sum_over_chips() {
        let g = erdos_renyi(192, 1600, 31, 43);
        let r = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(2), &g)
            .run(&Bfs::from_source(0))
            .expect("no stall");
        assert_eq!(
            r.metrics.edges_processed,
            r.chips.iter().map(|c| c.edges_processed).sum::<u64>()
        );
        assert_eq!(
            r.metrics.dataflow_net.delivered,
            r.chips
                .iter()
                .map(|c| c.dataflow_net.delivered)
                .sum::<u64>()
        );
        assert_eq!(
            r.metrics.cycles,
            r.metrics.scatter_cycles + r.metrics.apply_cycles
        );
        assert!(r.cycles_per_edge() > 0.0);
        for chip in &r.chips {
            assert!(chip.scatter_cycles <= r.metrics.scatter_cycles);
        }
    }

    #[test]
    fn per_chip_memory_channels_are_modeled_and_merged() {
        use crate::config::MemoryConfig;
        let g = power_law(300, 2700, 2.0, 31, 53);
        let prog = Sssp::from_source(higraph_graph::stats::hub_vertex(&g).expect("non-empty").0);
        let free = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(4), &g)
            .run(&prog)
            .expect("no stall");
        let mut cfg = AcceleratorConfig::higraph();
        cfg.memory = Some(MemoryConfig::hbm2().with_cache_kb(16));
        let priced = ShardedEngine::new(cfg, ShardConfig::new(4), &g)
            .run(&prog)
            .expect("no stall");
        assert_eq!(priced.properties, free.properties);
        // each chip owns its channels; the aggregate merges their counters
        let per_chip_misses: u64 = priced.chips.iter().map(|c| c.memory.cache_misses).sum();
        assert!(per_chip_misses > 0);
        assert_eq!(priced.metrics.memory.cache_misses, per_chip_misses);
        assert_eq!(
            priced.metrics.memory.stall_cycles,
            priced
                .chips
                .iter()
                .map(|c| c.memory.stall_cycles)
                .sum::<u64>()
        );
        assert!(priced.metrics.scatter_cycles >= free.metrics.scatter_cycles);
    }

    #[test]
    fn fast_forward_is_bit_identical_across_chips_and_memory() {
        use crate::config::MemoryConfig;
        let g = power_law(300, 2700, 2.0, 31, 61);
        let prog = PageRank::new(2);
        for memory in [None, Some(MemoryConfig::hbm2().with_cache_kb(16))] {
            let mut cfg = AcceleratorConfig::higraph();
            cfg.memory = memory;
            let run = |fast: bool| {
                let mut engine = ShardedEngine::new(cfg.clone(), ShardConfig::new(4), &g);
                engine.set_fast_forward(fast);
                engine.run(&prog).expect("no stall")
            };
            let naive = run(false);
            let fast = run(true);
            assert_eq!(fast.properties, naive.properties);
            assert_eq!(fast.metrics, naive.metrics);
            assert_eq!(fast.chips, naive.chips);
            assert_eq!(fast.link, naive.link);
            assert_eq!(fast.cross_chip_packets, naive.cross_chip_packets);
        }
    }

    #[test]
    fn sharded_stall_guard_override_fails_with_diagnostic() {
        let g = erdos_renyi(128, 1024, 31, 59);
        let mut engine = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(2), &g);
        engine.set_stall_guard(Some(1));
        let err = engine.run(&Bfs::from_source(0)).expect_err("must stall");
        assert_eq!(err.num_chips, 2);
        assert_eq!(err.stall.limit, 1);
        engine.set_stall_guard(None);
        assert!(engine.run(&Bfs::from_source(0)).is_ok());
    }

    #[test]
    fn controlled_sharded_run_completes_bit_identical() {
        let g = power_law(300, 2700, 2.0, 31, 67);
        let prog = PageRank::new(2);
        let plain = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(4), &g)
            .run(&prog)
            .expect("no stall");
        let control = RunControl::new();
        let outcome = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(4), &g)
            .run_controlled(&prog, &control)
            .expect("no stall");
        match outcome {
            ShardedOutcome::Done(r) => {
                assert_eq!(r.properties, plain.properties);
                assert_eq!(r.metrics, plain.metrics);
                assert_eq!(r.chips, plain.chips);
                assert_eq!(r.link, plain.link);
                assert_eq!(r.cross_chip_packets, plain.cross_chip_packets);
            }
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn sharded_park_and_resume_is_bit_identical() {
        let g = power_law(300, 2700, 2.0, 31, 71);
        let src = higraph_graph::stats::hub_vertex(&g).expect("non-empty").0;
        let prog = Sssp::from_source(src);
        let plain = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(3), &g)
            .run(&prog)
            .expect("no stall");

        let control = RunControl::new();
        control.set_budget_cycles(Some(1));
        let mut engine = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(3), &g);
        let parked = match engine.run_controlled(&prog, &control).expect("no stall") {
            ShardedOutcome::Parked(ck) => ck,
            other => panic!("expected a parked run, got {other:?}"),
        };
        control.set_budget_cycles(None);
        match engine
            .resume_controlled(&prog, &control, &parked.bytes)
            .expect("no stall")
        {
            ShardedOutcome::Done(r) => {
                assert_eq!(r.properties, plain.properties);
                assert_eq!(r.metrics, plain.metrics, "restore must be cycle-exact");
                assert_eq!(r.chips, plain.chips);
                assert_eq!(r.link, plain.link);
                assert_eq!(r.cross_chip_packets, plain.cross_chip_packets);
            }
            other => panic!("expected completion, got {other:?}"),
        }

        // Wrong shard geometry is rejected before any state is touched.
        let err = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(2), &g)
            .resume_controlled(&prog, &control, &parked.bytes)
            .expect_err("must reject");
        assert!(err.to_string().contains("geometry"), "{err}");
    }

    #[test]
    fn sharded_fault_plan_degrades_gracefully() {
        use crate::config::FaultPlan;
        let g = power_law(300, 2700, 2.0, 31, 73);
        let prog = PageRank::new(2);
        let clean = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(4), &g)
            .run(&prog)
            .expect("no stall");
        let mut cfg = AcceleratorConfig::higraph();
        cfg.fault_plan = Some(FaultPlan {
            seed: 3,
            events: 8,
            max_duration: 500,
            horizon: clean.metrics.scatter_cycles.max(1),
        });
        let faulty = ShardedEngine::new(cfg.clone(), ShardConfig::new(4), &g)
            .run(&prog)
            .expect("no stall");
        assert_eq!(faulty.properties, clean.properties);
        assert!(faulty.metrics.scatter_cycles >= clean.metrics.scatter_cycles);
        let again = ShardedEngine::new(cfg, ShardConfig::new(4), &g)
            .run(&prog)
            .expect("no stall");
        assert_eq!(again.metrics, faulty.metrics);
        assert_eq!(again.link, faulty.link);
    }

    #[test]
    fn invalid_shard_config_rejected() {
        let g = erdos_renyi(64, 256, 15, 47);
        let bad = ShardConfig {
            num_chips: 0,
            ..ShardConfig::new(1)
        };
        assert!(ShardedEngine::try_new(AcceleratorConfig::higraph(), bad, &g).is_err());
        let bad = ShardConfig {
            link_bandwidth: 0,
            ..ShardConfig::new(2)
        };
        assert!(ShardedEngine::try_new(AcceleratorConfig::higraph(), bad, &g).is_err());
    }
}
