//! Graph slicing (Sec. 5.3 discussion): processing a graph slice by slice
//! must compute exactly what whole-graph processing computes.
//!
//! Slices partition edges by destination interval, so within one VCPM
//! iteration the scatter phases of all slices can run back to back: each
//! slice only touches its own tProperty interval, and reduction is
//! commutative. We verify the full multi-iteration algorithm matches,
//! both functionally and through the cycle-level engine.

use higraph::graph::slicing::{partition, reassemble};
use higraph::prelude::*;
use higraph::vcpm::reference;

/// Runs a vertex program iteration-by-iteration, executing the scatter
/// phase slice by slice (the on-chip slicing schedule), and returns the
/// final properties.
fn execute_sliced<Prog: VertexProgram>(
    program: &Prog,
    whole: &Csr,
    num_slices: usize,
) -> Vec<Prog::Prop> {
    let slices = partition(whole, num_slices);
    let n = whole.num_vertices() as usize;
    let mut properties: Vec<Prog::Prop> = whole
        .vertices()
        .map(|v| program.init_prop(v, whole))
        .collect();
    let mut active = program.initial_frontier(whole);
    let mut iterations = 0u32;

    while !active.is_empty() {
        if let Some(cap) = program.max_iterations() {
            if iterations >= cap {
                break;
            }
        }
        let mut t_props: Vec<Prog::Prop> = vec![program.identity(); n];
        // scatter: one pass per slice over the (shared) active list
        for slice in &slices {
            for &u in &active {
                let u_prop = properties[u.index()];
                for e in slice.graph.neighbors(u) {
                    let imm = program.process_edge(u_prop, e.weight);
                    let t = &mut t_props[e.dst.index()];
                    *t = program.reduce(*t, imm);
                }
            }
        }
        // apply: whole-graph scan (degrees come from the whole graph)
        active.clear();
        for v in whole.vertices() {
            let res = program.apply(v, properties[v.index()], t_props[v.index()], whole);
            if properties[v.index()] != res {
                properties[v.index()] = res;
                active.push(v);
            }
        }
        iterations += 1;
    }
    properties
}

#[test]
fn sliced_execution_matches_whole_graph() {
    let g = higraph::graph::gen::power_law(600, 6000, 2.0, 31, 21);
    let src = higraph::graph::stats::hub_vertex(&g).expect("non-empty").0;
    for slices in [2usize, 3, 7] {
        let bfs = Bfs::from_source(src);
        assert_eq!(
            execute_sliced(&bfs, &g, slices),
            reference::execute(&bfs, &g).properties,
            "BFS with {slices} slices"
        );
        let pr = PageRank::new(5);
        assert_eq!(
            execute_sliced(&pr, &g, slices),
            reference::execute(&pr, &g).properties,
            "PR with {slices} slices"
        );
    }
}

#[test]
fn engine_on_reassembled_partition_matches() {
    // The destination-interval partition is lossless: reassembling it and
    // running the cycle-level engine gives identical results and edge
    // counts (edge order within a vertex changes; reduction commutes).
    let g = higraph::graph::gen::erdos_renyi(400, 3200, 63, 9);
    let slices = partition(&g, 4);
    let r = reassemble(&slices).expect("non-empty partition");
    assert_eq!(r.num_edges(), g.num_edges());

    let src = higraph::graph::stats::hub_vertex(&g).expect("non-empty").0;
    let prog = Sssp::from_source(src);
    let a = Engine::new(AcceleratorConfig::higraph(), &g)
        .run(&prog)
        .expect("no stall");
    let b = Engine::new(AcceleratorConfig::higraph(), &r)
        .run(&prog)
        .expect("no stall");
    assert_eq!(a.properties, b.properties);
    assert_eq!(a.metrics.edges_processed, b.metrics.edges_processed);
}

#[test]
fn per_slice_engine_runs_cover_all_edges() {
    // Run the engine on each slice independently with everything active
    // once (a single PR power iteration per slice) and check the edge
    // totals — the throughput accounting basis for sliced processing.
    let g = higraph::graph::gen::power_law(512, 4096, 2.0, 15, 33);
    let slices = partition(&g, 4);
    let mut total = 0;
    for s in &slices {
        let m = Engine::new(AcceleratorConfig::higraph(), &s.graph)
            .run(&PageRank::new(1))
            .expect("no stall")
            .metrics;
        total += m.edges_processed;
    }
    assert_eq!(total, g.num_edges());
}

/// The observable summary of a sliced run pinned below: every scatter
/// and apply cycle, the edge count, the fabric and memory counters the
/// fault windows move, and both swap-cycle totals.
fn sliced_summary<P>(r: &higraph::accel::SlicedRunResult<P>) -> [u64; 12] {
    let m = &r.metrics;
    [
        m.cycles,
        m.scatter_cycles,
        m.apply_cycles,
        m.edges_processed,
        u64::from(m.iterations),
        m.vpe_starvation_cycles,
        m.offset_conflicts,
        m.dataflow_net.rejected,
        m.memory.stall_cycles,
        m.memory.cache_misses,
        r.swap_cycles_sequential,
        r.swap_cycles_overlapped,
    ]
}

#[test]
fn faulted_sliced_run_keeps_its_fault_timeline() {
    // A fault plan indexes the global scatter timeline, which a sliced
    // run advances slice by slice: each slice's drain starts at the
    // cycle the previous one ended. These figures were recorded from the
    // engine before sliced runs were folded into the sharded run loop;
    // any change to where a slice's fault windows land moves them.
    const EXPECTED: [(Option<usize>, [u64; 12], [u64; 12]); 2] = [
        (
            None,
            [528, 500, 28, 5400, 2, 10600, 634, 0, 0, 0, 1802, 1488],
            [908, 880, 28, 5400, 2, 10632, 784, 0, 0, 0, 1802, 1243],
        ),
        (
            Some(16),
            [2543, 2515, 28, 5400, 2, 75080, 47, 0, 81907, 637, 1802, 605],
            [3105, 3077, 28, 5400, 2, 80488, 52, 0, 83538, 637, 1802, 605],
        ),
    ];
    let g = higraph::graph::gen::power_law(300, 2700, 2.0, 31, 79);
    let prog = PageRank::new(2);
    let whole = reference::execute(&prog, &g).properties;
    for (cache_kb, expect_clean, expect_faulty) in EXPECTED {
        let mut clean_cfg = AcceleratorConfig::higraph();
        clean_cfg.memory = cache_kb.map(|kb| MemoryConfig::hbm2().with_cache_kb(kb));
        let clean = Engine::new(clean_cfg.clone(), &g)
            .run_sliced(&prog, 3, 32)
            .expect("no stall");
        let mut cfg = clean_cfg;
        cfg.fault_plan = Some(FaultPlan {
            seed: 11,
            events: 6,
            max_duration: 400,
            horizon: clean.metrics.scatter_cycles.max(1),
        });
        let faulty = Engine::new(cfg, &g)
            .run_sliced(&prog, 3, 32)
            .expect("no stall");
        assert_eq!(faulty.properties, whole, "faults only stall");
        assert_eq!(clean.properties, whole);
        assert!(faulty.metrics.scatter_cycles > clean.metrics.scatter_cycles);
        assert_eq!(
            sliced_summary(&clean),
            expect_clean,
            "clean, cache {cache_kb:?}"
        );
        assert_eq!(
            sliced_summary(&faulty),
            expect_faulty,
            "faulted, cache {cache_kb:?}"
        );
    }
}
