//! `memstarved`: single-chip `Engine::run` of PageRank ×2 on the Twitter
//! stand-in ÷32 under one DDR-class memory channel
//! (`figures::simspeed_memory`), fast-forward on, at each cache size of
//! the 16/64/256/1024 KiB sweep.
//!
//! Its host time is in DRAM, the cache, edge access and event-wheel
//! fast-forward. It has no chips, link, leases or faults, so a change to
//! the multi-chip drain must leave it unchanged.

use crate::check::{expect_properties, OpCheck};
use crate::inputs::{build_graph, Program, DEFAULT_SEED};
use crate::{with_program, Bench, Size};
use higraph::accel::cache::EDGE_BYTES;
use higraph::prelude::*;
use higraph_bench::{simspeed_memory, Algo, MEM_SWEEP_CACHE_KB};

const PR_ITERS: u32 = 2;

/// Simulated cycles of one sweep at the default seed.
const RECORDED_SWEEP_CYCLES: u64 = 9_912_511;

fn config(cache_kb: usize) -> AcceleratorConfig {
    let mut cfg = AcceleratorConfig::higraph();
    cfg.memory = Some(simspeed_memory(cache_kb));
    cfg
}

pub(crate) fn run(bench: &mut Bench) {
    let (dataset, divisor) = match bench.params.size {
        Size::Full => (Dataset::Twitter, 32),
        Size::Tiny => (Dataset::Vote, 16),
    };
    let seed = bench.params.seed;
    let recorded = seed == DEFAULT_SEED && bench.params.size == Size::Full;
    let configs: Vec<AcceleratorConfig> = MEM_SWEEP_CACHE_KB.iter().map(|&kb| config(kb)).collect();

    const SETUPS: usize = 15;
    let mut graphs = bench.setup(SETUPS, |t| {
        let (graph, _) = t.span("graph.build", 0, |_| build_graph(dataset, divisor, seed));
        for cfg in &configs {
            let (engine, _) = t.span("accel.engine.new", 0, |_| Engine::new(cfg.clone(), &graph));
            drop(engine);
        }
        graph
    });
    let graph = graphs.pop().expect("at least one set-up");
    drop(graphs);

    let program = Program::new(Algo::Pr, &graph, PR_ITERS);
    let (oracle, _) = bench
        .tracer
        .span("vcpm.execute", 0, |_| program.oracle(&graph));
    let mut engines: Vec<Engine<'_>> = configs
        .iter()
        .map(|cfg| {
            let mut engine = Engine::new(cfg.clone(), &graph);
            engine.set_fast_forward(true);
            engine
        })
        .collect();

    let mut first: Vec<Option<Metrics>> = vec![None; engines.len()];
    let mut inject = bench.params.inject_oracle_mismatch;
    let timed = bench.measure(
        1..=usize::MAX,
        |t, checker, pass, _| {
            let mut cycles = 0u64;
            let mut sweep_ok = true;
            for (i, engine) in engines.iter_mut().enumerate() {
                let kb = MEM_SWEEP_CACHE_KB[i];
                let op_id = (pass * MEM_SWEEP_CACHE_KB.len() + i + 1) as u64;
                let (result, _) = t.span(
                    "accel.engine.run",
                    op_id,
                    |_| with_program!(&program, p => engine.run(p)),
                );
                let op = format!("pass {pass} PR c{kb}KB");
                let r = match result {
                    Ok(r) => r,
                    Err(stall) => {
                        sweep_ok = false;
                        checker.fail(&op, stall);
                        continue;
                    }
                };
                let mut check = OpCheck::default();
                if std::mem::take(&mut inject) {
                    let mut wrong = oracle.clone();
                    wrong[0] ^= 1;
                    expect_properties(&mut check, &r.properties, &wrong);
                } else {
                    expect_properties(&mut check, &r.properties, &oracle);
                }
                match &first[i] {
                    Some(f) => check.expect_eq("metrics against pass 0", &r.metrics, f),
                    None => first[i] = Some(r.metrics.clone()),
                }
                cycles += r.metrics.cycles;
                if recorded && sweep_ok && i + 1 == MEM_SWEEP_CACHE_KB.len() {
                    check.expect_eq(
                        "sweep cycles against the recorded total",
                        cycles,
                        RECORDED_SWEEP_CYCLES,
                    );
                }
                checker.record(&op, check);
            }
            cycles as f64
        },
        |timed| {
            format!(
                "memstarved: {} sweep(s) of {} runs in {:.3} s; sim_cycles_per_s = {:.0} cycles/s",
                timed.passes,
                MEM_SWEEP_CACHE_KB.len(),
                timed.wall_s,
                timed.throughput()
            )
        },
    );

    let edge_kib = graph.num_edges() * EDGE_BYTES / 1024;
    for (kb, m) in MEM_SWEEP_CACHE_KB.iter().zip(&first) {
        if let Some(m) = m {
            bench.lines.push(format!(
                "cache {kb:>4} KiB vs edge array {edge_kib} KiB: {} cycles, hit rate {:.4}, \
                 DRAM row-hit rate {:.4}, {} memory-stall cycles",
                m.cycles,
                m.memory.cache_hit_rate(),
                m.memory.row_hit_rate(),
                m.memory.stall_cycles
            ));
        }
    }
    let runs: Vec<&Metrics> = first.iter().flatten().collect();
    let sweep_cycles: u64 = runs.iter().map(|m| m.cycles).sum();
    bench.record_simulated(&runs);
    let run_s = timed.per_pass_s("accel.engine.run");
    let build_s = bench.span_total_s("graph.build") / SETUPS as f64;
    let oracle_s = bench.span_total_s("vcpm.execute");
    let l = &mut bench.layers;
    l.insert("graph.build_s", build_s);
    l.insert("vcpm.oracle_s", oracle_s);
    l.insert("accel.engine.run_s", run_s);
    l.insert(
        "accel.engine.ns_per_cycle",
        if sweep_cycles > 0 {
            run_s * 1e9 / sweep_cycles as f64
        } else {
            0.0
        },
    );
}
