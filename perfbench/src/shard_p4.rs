//! `shard-p4`: the six algorithms on the Twitter stand-in ÷4 across four
//! chips (`ShardedEngine::run`, default threading, memory model off), once
//! clean and once under the seeded fault plan of `repro faults`.
//!
//! All of its host time is in the multi-chip drain, the inter-chip link,
//! the fabrics, pool leases and the fault-forced path; none is in DRAM,
//! the memo, snapshots or DSE.

use crate::check::{baseline_value, expect_properties, OpCheck};
use crate::inputs::{build_graph, Program, DEFAULT_SEED};
use crate::{with_program, Bench, Size};
use higraph::prelude::*;
use higraph_bench::Algo;

const CHIPS: usize = 4;
const PR_ITERS: u32 = 5;

/// The fault plan `repro faults` soaks the engines under.
const FAULT_PLAN: FaultPlan = FaultPlan {
    seed: 0xD15EA5E,
    events: 6,
    max_duration: 96,
    horizon: 4096,
};

/// What the checks and per-layer metrics keep of one run.
#[derive(Clone)]
struct RunSummary {
    metrics: Metrics,
    chip_cycles: u64,
    max_chip_scatter: u64,
    mean_chip_scatter: f64,
    cross_chip_packets: u64,
    link_hol_blocked: u64,
}

impl RunSummary {
    fn of(r: &ShardedRunResult<u64>) -> Self {
        let scatter: u64 = r.chips.iter().map(|c| c.scatter_cycles).sum();
        RunSummary {
            metrics: r.metrics.clone(),
            chip_cycles: r.chips.iter().map(|c| c.cycles).sum(),
            max_chip_scatter: r.max_chip_scatter_cycles(),
            mean_chip_scatter: scatter as f64 / r.chips.len().max(1) as f64,
            cross_chip_packets: r.cross_chip_packets,
            link_hol_blocked: r.link.hol_blocked,
        }
    }
}

pub(crate) fn run(bench: &mut Bench) {
    let (dataset, divisor) = match bench.params.size {
        Size::Full => (Dataset::Twitter, 4),
        Size::Tiny => (Dataset::Vote, 16),
    };
    let seed = bench.params.seed;
    let recorded = seed == DEFAULT_SEED && bench.params.size == Size::Full;
    let clean_cfg = AcceleratorConfig::higraph();
    let mut faulty_cfg = AcceleratorConfig::higraph();
    faulty_cfg.fault_plan = Some(FAULT_PLAN);
    let shard = ShardConfig::new(CHIPS);

    const SETUPS: usize = 7;
    let mut graphs = bench.setup(SETUPS, |t| {
        let (graph, _) = t.span("graph.build", 0, |_| build_graph(dataset, divisor, seed));
        for cfg in [&clean_cfg, &faulty_cfg] {
            let (engine, _) = t.span("accel.sharded.new", 0, |_| {
                ShardedEngine::new(cfg.clone(), shard, &graph)
            });
            drop(engine);
        }
        graph
    });
    let graph = graphs.pop().expect("at least one set-up");
    drop(graphs);

    let programs: Vec<Program> = Algo::ALL
        .iter()
        .map(|&algo| Program::new(algo, &graph, PR_ITERS))
        .collect();
    let oracles: Vec<Vec<u64>> = programs
        .iter()
        .map(|p| bench.tracer.span("vcpm.execute", 0, |_| p.oracle(&graph)).0)
        .collect();
    let mut clean = ShardedEngine::new(clean_cfg, shard, &graph);
    let mut faulty = ShardedEngine::new(faulty_cfg, shard, &graph);

    // Slots 0..6 are the clean suite, 6..12 the faulted one.
    let mut first: Vec<Option<RunSummary>> = vec![None; 2 * Algo::ALL.len()];
    let mut inject = bench.params.inject_oracle_mismatch;
    let timed = bench.measure(
        1..=usize::MAX,
        |t, checker, pass, _| {
            let mut chip_cycles = 0u64;
            for faulted in [false, true] {
                for (i, algo) in Algo::ALL.into_iter().enumerate() {
                    let slot = i + if faulted { Algo::ALL.len() } else { 0 };
                    let (engine, span, kind) = if faulted {
                        (&mut faulty, "accel.sharded.faulted_run", "faulted")
                    } else {
                        (&mut clean, "accel.sharded.run", "clean")
                    };
                    let op_id = (pass * first.len() + slot + 1) as u64;
                    let (result, _) =
                        t.span(span, op_id, |_| with_program!(&programs[i], p => engine.run(p)));
                    let op = format!("pass {pass} {} {kind}", algo.label());
                    let r = match result {
                        Ok(r) => r,
                        Err(stall) => {
                            checker.fail(&op, stall);
                            continue;
                        }
                    };
                    let mut check = OpCheck::default();
                    if std::mem::take(&mut inject) {
                        let mut wrong = oracles[i].clone();
                        wrong[0] ^= 1;
                        expect_properties(&mut check, &r.properties, &wrong);
                    } else {
                        expect_properties(&mut check, &r.properties, &oracles[i]);
                    }
                    if faulted {
                        if let Some(c) = &first[i] {
                            let m = &r.metrics;
                            check.expect_eq("faulted edges", m.edges_processed, c.metrics.edges_processed);
                            check.expect_eq("faulted iterations", m.iterations, c.metrics.iterations);
                            check.expect(m.cycles >= c.metrics.cycles, || {
                                format!("faulted run took {} cycles, fewer than clean {}", m.cycles, c.metrics.cycles)
                            });
                        }
                    } else if recorded {
                        let key = format!("shardfull.{}.p{CHIPS}.cycles", algo.label());
                        check.expect_eq(&key, Some(r.metrics.cycles as f64), baseline_value(&key));
                    }
                    let summary = RunSummary::of(&r);
                    match &first[slot] {
                        Some(f) => check.expect_eq("metrics against pass 0", &summary.metrics, &f.metrics),
                        None => first[slot] = Some(summary.clone()),
                    }
                    chip_cycles += summary.chip_cycles;
                    checker.record(&op, check);
                }
            }
            chip_cycles as f64
        },
        |timed| {
            format!(
                "shard-p4: {} pass(es) of {} runs in {:.3} s; sim_cycles_per_s = {:.0} cycles/s (chip cycles summed over chips)",
                timed.passes,
                2 * Algo::ALL.len(),
                timed.wall_s,
                timed.throughput()
            )
        },
    );

    let clean_runs: Vec<&RunSummary> = first[..Algo::ALL.len()].iter().flatten().collect();
    let faulted_runs: Vec<&RunSummary> = first[Algo::ALL.len()..].iter().flatten().collect();
    let total = |runs: &[&RunSummary], f: &dyn Fn(&RunSummary) -> f64| {
        runs.iter().map(|r| f(r)).sum::<f64>()
    };
    let clean_cycles = total(&clean_runs, &|r| r.metrics.cycles as f64);
    let faulted_cycles = total(&faulted_runs, &|r| r.metrics.cycles as f64);
    let clean_chip_cycles = total(&clean_runs, &|r| r.chip_cycles as f64);
    let faulted_chip_cycles = total(&faulted_runs, &|r| r.chip_cycles as f64);
    bench.record_simulated(&clean_runs.iter().map(|r| &r.metrics).collect::<Vec<_>>());
    let run_s = timed.per_pass_s("accel.sharded.run");
    let faulted_run_s = timed.per_pass_s("accel.sharded.faulted_run");
    let build_s = bench.span_total_s("graph.build") / SETUPS as f64;
    let new_s = bench.span_total_s("accel.sharded.new") / (2 * SETUPS) as f64;
    let oracle_s = bench.span_total_s("vcpm.execute");
    let per_cycle = |s: f64, cycles: f64| if cycles > 0.0 { s * 1e9 / cycles } else { 0.0 };
    let l = &mut bench.layers;
    l.insert("graph.build_s", build_s);
    l.insert("accel.sharded.new_s", new_s);
    l.insert("vcpm.oracle_s", oracle_s);
    l.insert("accel.sharded.run_s", run_s);
    l.insert(
        "accel.sharded.ns_per_cycle",
        per_cycle(run_s, clean_chip_cycles),
    );
    l.insert("accel.sharded.faulted_run_s", faulted_run_s);
    l.insert(
        "accel.sharded.faulted_ns_per_cycle",
        per_cycle(faulted_run_s, faulted_chip_cycles),
    );
    l.insert(
        "accel.sharded.chip_imbalance",
        total(&clean_runs, &|r| r.max_chip_scatter as f64)
            / total(&clean_runs, &|r| r.mean_chip_scatter).max(1.0),
    );
    l.insert(
        "sim.link.cross_chip_packets",
        total(&clean_runs, &|r| r.cross_chip_packets as f64),
    );
    l.insert(
        "sim.link.hol_blocked",
        total(&clean_runs, &|r| r.link_hol_blocked as f64),
    );
    l.insert("faults.overhead", faulted_cycles / clean_cycles.max(1.0));
    bench.lines.push(format!(
        "graph {dataset}/{divisor}: {} vertices, {} edges; clean suite {clean_cycles} cycles \
         ({clean_chip_cycles} summed over chips), faulted suite {faulted_cycles} cycles \
         (faults.overhead {:.4})",
        graph.num_vertices(),
        graph.num_edges(),
        faulted_cycles / clean_cycles.max(1.0)
    ));
}
