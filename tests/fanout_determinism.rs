//! The per-chip drains fan out over the shared core pool on every run
//! path: plain, fault-injected, and controlled (park, resume, cancel).
//! Whatever the threading setting — `Some(1)` drains the parts one after
//! another on the calling thread, `Some(2)` and `None` fan them out —
//! each path's outcome must be bit-identical: properties, aggregate and
//! per-chip `Metrics`, cross-chip packets, and link stats.

use higraph::prelude::*;
use higraph::sim::NetworkStats;
use std::sync::atomic::{AtomicU64, Ordering};

const CHIPS: usize = 4;
const THREADINGS: [Option<usize>; 3] = [Some(1), Some(2), None];

/// Everything a completed run reports that must not depend on threading.
type Observed<P> = (Vec<P>, Metrics, Vec<Metrics>, u64, NetworkStats);

fn observed<P: Clone>(r: &ShardedRunResult<P>) -> Observed<P> {
    (
        r.properties.clone(),
        r.metrics.clone(),
        r.chips.clone(),
        r.cross_chip_packets,
        r.link,
    )
}

fn engine<'g>(cfg: &AcceleratorConfig, g: &'g Csr, threads: Option<usize>) -> ShardedEngine<'g> {
    let mut engine = ShardedEngine::new(cfg.clone(), ShardConfig::new(CHIPS), g);
    engine.set_threads(threads);
    engine
}

fn assert_same_for_every_threading<P, F>(what: &str, mut run: F)
where
    P: PartialEq + std::fmt::Debug,
    F: FnMut(Option<usize>) -> Observed<P>,
{
    let serial = run(THREADINGS[0]);
    for threads in &THREADINGS[1..] {
        let got = run(*threads);
        let label = format!("{what}, threads {threads:?}");
        assert_eq!(got.0, serial.0, "properties differ ({label})");
        assert_eq!(got.1, serial.1, "aggregate metrics differ ({label})");
        assert_eq!(got.2, serial.2, "per-chip metrics differ ({label})");
        assert_eq!(got.3, serial.3, "cross-chip packets differ ({label})");
        assert_eq!(got.4, serial.4, "link stats differ ({label})");
    }
}

#[test]
fn faulted_run_is_bit_identical_across_threadings() {
    let g = higraph::graph::gen::power_law(400, 3600, 2.0, 31, 131);
    let prog = PageRank::new(2);
    let mut cfg = AcceleratorConfig::higraph();
    // Modeled memory gives the plan DRAM channels to brown out.
    cfg.memory = Some(MemoryConfig::hbm2().with_cache_kb(16));
    let clean = engine(&cfg, &g, Some(1)).run(&prog).expect("no stall");
    cfg.fault_plan = Some(FaultPlan {
        seed: 0xFA17,
        events: 12,
        max_duration: 400,
        horizon: clean.metrics.scatter_cycles.max(1),
    });
    assert_same_for_every_threading("faulted", |threads| {
        let r = engine(&cfg, &g, threads).run(&prog).expect("no stall");
        assert_eq!(
            r.properties, clean.properties,
            "faults never change results"
        );
        assert!(
            r.metrics.cycles > clean.metrics.cycles,
            "the plan must bite"
        );
        observed(&r)
    });
}

#[test]
fn park_and_resume_is_bit_identical_across_threadings() {
    let g = higraph::graph::gen::power_law(400, 3600, 2.0, 31, 137);
    let src = higraph::graph::stats::hub_vertex(&g).expect("non-empty").0;
    let prog = Sssp::from_source(src);
    let cfg = AcceleratorConfig::higraph();
    let plain = engine(&cfg, &g, Some(1)).run(&prog).expect("no stall");
    let mut checkpoints = Vec::new();
    assert_same_for_every_threading("park -> resume", |threads| {
        let control = RunControl::new();
        control.set_budget_cycles(Some(plain.metrics.cycles / 2));
        let mut parked_engine = engine(&cfg, &g, threads);
        let ck = match parked_engine.run_controlled(&prog, &control) {
            Ok(ShardedOutcome::Parked(ck)) => ck,
            other => panic!("expected a parked run ({threads:?}), got {other:?}"),
        };
        // Resume in a fresh engine: the checkpoint alone carries the run.
        let resumed =
            match engine(&cfg, &g, threads).resume_controlled(&prog, &RunControl::new(), &ck.bytes)
            {
                Ok(ShardedOutcome::Done(r)) => r,
                other => panic!("expected completion ({threads:?}), got {other:?}"),
            };
        checkpoints.push(ck);
        let got = observed(&resumed);
        assert_eq!(got, observed(&plain), "resume must match the plain run");
        got
    });
    assert!(
        checkpoints.windows(2).all(|w| w[0] == w[1]),
        "the parked state must not depend on threading"
    );
}

/// Wraps a program so that its first `process_edge` call — made inside
/// a chip's drain — requests cancellation on `control`.
struct CancelOnFirstEdge<'c, Prog> {
    inner: Prog,
    control: &'c RunControl,
    edges: AtomicU64,
}

impl<Prog: VertexProgram> VertexProgram for CancelOnFirstEdge<'_, Prog> {
    type Prop = Prog::Prop;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init_prop(&self, v: VertexId, graph: &Csr) -> Self::Prop {
        self.inner.init_prop(v, graph)
    }

    fn initial_frontier(&self, graph: &Csr) -> Vec<VertexId> {
        self.inner.initial_frontier(graph)
    }

    fn identity(&self) -> Self::Prop {
        self.inner.identity()
    }

    fn process_edge(&self, u_prop: Self::Prop, weight: higraph::graph::Weight) -> Self::Prop {
        self.edges.fetch_add(1, Ordering::Relaxed);
        self.control.request_cancel();
        self.inner.process_edge(u_prop, weight)
    }

    fn reduce(&self, t_prop: Self::Prop, imm: Self::Prop) -> Self::Prop {
        self.inner.reduce(t_prop, imm)
    }

    fn apply(&self, v: VertexId, prop: Self::Prop, t_prop: Self::Prop, graph: &Csr) -> Self::Prop {
        self.inner.apply(v, prop, t_prop, graph)
    }

    fn max_iterations(&self) -> Option<u32> {
        self.inner.max_iterations()
    }
}

#[test]
fn cancel_mid_drain_returns_cancelled_for_every_threading() {
    // Large enough that every chip's first drain outlasts the drain's
    // cancellation poll interval, so the cancel is observed inside it.
    let g = higraph::graph::gen::power_law(8_000, 160_000, 2.0, 31, 139);
    let first_iteration_edges = g.num_edges();
    for threads in THREADINGS {
        let control = RunControl::new();
        let prog = CancelOnFirstEdge {
            inner: PageRank::new(2),
            control: &control,
            edges: AtomicU64::new(0),
        };
        let outcome = engine(&AcceleratorConfig::higraph(), &g, threads)
            .run_controlled(&prog, &control)
            .expect("no stall");
        assert!(
            matches!(outcome, ShardedOutcome::Cancelled),
            "threads {threads:?}: expected Cancelled, got {outcome:?}"
        );
        let processed = prog.edges.load(Ordering::Relaxed);
        assert!(
            processed > 0 && processed < first_iteration_edges,
            "threads {threads:?}: the cancel must land inside the first \
             scatter phase ({processed} of {first_iteration_edges} edges)"
        );
    }
}
