//! Behavioural tests of the accelerator models: the qualitative claims of
//! the paper's evaluation must hold on representative workloads.

use higraph::prelude::*;
use higraph_bench::{Algo, Scale};

#[test]
fn higraph_outperforms_graphdyns_on_conflict_heavy_workloads() {
    // Fig. 8's direction: on irregular low-degree graphs (front-end and
    // dataflow conflicts), HiGraph must beat GraphDynS clearly.
    let g = Dataset::Epinions.build_scaled(16);
    for algo in [Algo::Bfs, Algo::Pr] {
        let hi = algo
            .run(&AcceleratorConfig::higraph(), &g, 4)
            .expect("well-sized config");
        let gd = algo
            .run(&AcceleratorConfig::graphdyns(), &g, 4)
            .expect("well-sized config");
        let speedup = hi.speedup_over(&gd);
        assert!(
            speedup > 1.1,
            "{}: speedup {speedup:.2} too small",
            algo.label()
        );
    }
}

#[test]
fn higraph_mini_sits_between_baseline_and_full() {
    let g = Dataset::Vote.build_scaled(4);
    let gd = Algo::Pr
        .run(&AcceleratorConfig::graphdyns(), &g, 5)
        .expect("well-sized config");
    let mini = Algo::Pr
        .run(&AcceleratorConfig::higraph_mini(), &g, 5)
        .expect("well-sized config");
    let hi = Algo::Pr
        .run(&AcceleratorConfig::higraph(), &g, 5)
        .expect("well-sized config");
    assert!(
        mini.speedup_over(&gd) > 1.05,
        "mini {:.2}",
        mini.speedup_over(&gd)
    );
    assert!(hi.speedup_over(&mini) >= 0.98, "full below mini");
    assert!(hi.speedup_over(&gd) > mini.speedup_over(&gd) * 0.98);
}

#[test]
fn full_opts_reduce_vpe_starvation() {
    // Fig. 10b: starvation must drop substantially from Baseline to
    // OPT-O+OPT-E+OPT-D (the paper reports up to 58%). A scaled-down
    // power-law workload shows the effect clearly (scaled-down RMAT is
    // hot-vertex-capped: its hottest vertex serializes every design).
    let g = Dataset::Epinions.build_scaled(8);
    let base = Algo::Pr
        .run(
            &AcceleratorConfig::higraph_with_opts(OptLevel::BASELINE),
            &g,
            3,
        )
        .expect("well-sized config");
    let full = Algo::Pr
        .run(&AcceleratorConfig::higraph_with_opts(OptLevel::OED), &g, 3)
        .expect("well-sized config");
    let reduction =
        1.0 - full.vpe_starvation_cycles as f64 / base.vpe_starvation_cycles.max(1) as f64;
    assert!(
        reduction > 0.30,
        "starvation reduction only {:.0}%",
        reduction * 100.0
    );
}

#[test]
fn frontend_opts_do_nothing_for_in_order_pr() {
    // Fig. 10a, observation 2: on RMAT PR the Offset/Edge arrays are read
    // in order, so the front-end optimizations alone gain (almost)
    // nothing.
    let g = Dataset::Rmat14.build_scaled(8);
    let runs: Vec<Metrics> = OptLevel::ALL
        .iter()
        .map(|&o| {
            Algo::Pr
                .run(&AcceleratorConfig::higraph_with_opts(o), &g, 3)
                .expect("well-sized config")
        })
        .collect();
    let gteps: Vec<f64> = runs.iter().map(Metrics::gteps).collect();
    assert!((gteps[1] - gteps[0]).abs() / gteps[0] < 0.05, "{gteps:?}");
    assert!((gteps[2] - gteps[0]).abs() / gteps[0] < 0.05, "{gteps:?}");
    // and the full design never loses to the baseline
    assert!(gteps[3] >= gteps[0] * 0.99, "{gteps:?}");
}

#[test]
fn opt_d_gains_most_on_conflict_heavy_traffic() {
    // Fig. 10a, observation 1: adding Opt-D brings the largest gain, on a
    // workload whose dataflow propagation actually conflicts. The Twitter
    // stand-in (mean degree 22) keeps the dataflow fabric saturated; the
    // low-degree Epinions stand-in is front-end-bound and shows only a
    // marginal Opt-D effect.
    let g = Dataset::Twitter.build_scaled(8);
    let oe = Algo::Pr
        .run(&AcceleratorConfig::higraph_with_opts(OptLevel::OE), &g, 3)
        .expect("well-sized config");
    let oed = Algo::Pr
        .run(&AcceleratorConfig::higraph_with_opts(OptLevel::OED), &g, 3)
        .expect("well-sized config");
    assert!(
        oed.gteps() > oe.gteps() * 1.05,
        "Opt-D gain too small: {:.2} -> {:.2}",
        oe.gteps(),
        oed.gteps()
    );
}

#[test]
fn scalability_follows_fig11() {
    // HiGraph holds 1 GHz out to 256 channels and throughput grows with
    // channel count; GraphDynS loses its clock past 32 channels.
    let g = Dataset::Rmat14.build_scaled(16);
    let hi32 = Algo::Pr
        .run(&AcceleratorConfig::higraph().scaled_to(32), &g, 3)
        .expect("well-sized config");
    let hi128 = Algo::Pr
        .run(&AcceleratorConfig::higraph().scaled_to(128), &g, 3)
        .expect("well-sized config");
    assert_eq!(hi32.frequency_ghz, 1.0);
    assert_eq!(hi128.frequency_ghz, 1.0);
    assert!(
        hi128.gteps() > hi32.gteps() * 1.2,
        "128ch {:.1} vs 32ch {:.1}",
        hi128.gteps(),
        hi32.gteps()
    );
    let gd64 = AcceleratorConfig::graphdyns().scaled_to(64);
    assert!(gd64.effective_frequency_ghz() < 1.0);
}

#[test]
fn mdp_beats_fifo_plus_crossbar_at_every_buffer_size() {
    // Fig. 12's claim, on a conflict-heavy workload (see
    // `opt_d_gains_most_on_conflict_heavy_traffic` for the dataset choice).
    let g = Dataset::Twitter.build_scaled(8);
    for buffer in [20usize, 80, 160] {
        let mut mdp = AcceleratorConfig::higraph();
        mdp.dataflow_buffer_per_channel = buffer;
        let mut xbar = mdp.clone();
        xbar.dataflow_network = NetworkKind::Crossbar;
        let m = Algo::Pr.run(&mdp, &g, 4).expect("well-sized config");
        let x = Algo::Pr.run(&xbar, &g, 4).expect("well-sized config");
        assert!(
            m.gteps() >= x.gteps() * 0.98,
            "buffer {buffer}: MDP {:.2} vs crossbar {:.2}",
            m.gteps(),
            x.gteps()
        );
    }
}

#[test]
fn pagerank_frontend_in_order_has_few_offset_conflicts() {
    // "the Offset Array and Edge Array are read in order on the PR
    // algorithm, so that no datapath conflict arises in front-end"
    let g = Dataset::Rmat14.build_scaled(16);
    let pr = Algo::Pr
        .run(&AcceleratorConfig::higraph(), &g, 3)
        .expect("well-sized config");
    let bfs = Algo::Bfs
        .run(&AcceleratorConfig::higraph(), &g, 3)
        .expect("well-sized config");
    let pr_rate = pr.offset_conflicts as f64 / pr.scatter_cycles.max(1) as f64;
    let bfs_rate = bfs.offset_conflicts as f64 / bfs.scatter_cycles.max(1) as f64;
    assert!(
        pr_rate < bfs_rate + 0.05,
        "PR conflict rate {pr_rate:.3} should not exceed BFS {bfs_rate:.3}"
    );
    assert!(
        pr_rate < 0.5,
        "PR offset conflicts too frequent: {pr_rate:.3}"
    );
}

#[test]
fn throughput_never_exceeds_ideal() {
    let scale = Scale::tiny();
    for ds in [Dataset::Vote, Dataset::Rmat14] {
        let g = scale.build(ds);
        for algo in Algo::ALL {
            let m = algo
                .run(&AcceleratorConfig::higraph(), &g, scale.pr_iters)
                .expect("well-sized config");
            assert!(
                m.gteps() <= 32.0,
                "{} {}: {:.1} GTEPS exceeds the 32 GTEPS ideal",
                algo.label(),
                ds,
                m.gteps()
            );
        }
    }
}

#[test]
fn metrics_accounting_is_consistent() {
    let g = Dataset::Vote.build_scaled(8);
    let m = Algo::Sssp
        .run(&AcceleratorConfig::higraph_mini(), &g, 3)
        .expect("well-sized config");
    assert_eq!(m.cycles, m.scatter_cycles + m.apply_cycles);
    assert_eq!(m.dataflow_net.delivered, m.edges_processed);
    assert!(m.offset_net.accepted >= 1);
    assert!(m.time_ns() > 0.0);
    // per-channel starvation vector is populated and sums to the total
    assert_eq!(m.vpe_starvation_per_channel.len(), 32);
    assert_eq!(
        m.vpe_starvation_per_channel.iter().sum::<u64>(),
        m.vpe_starvation_cycles
    );
    assert!(m.starvation_imbalance() >= 1.0);
}

#[test]
fn locality_reduces_dataflow_conflicts() {
    // Watts-Strogatz locality dial: with beta = 0 every destination is
    // bank-adjacent to its source, so the baseline crossbar sees far less
    // head-of-line blocking than with uniform-random rewiring.
    use higraph::graph::gen::small_world;
    let run = |beta: f64| {
        let g = small_world(4096, 8, beta, 15, 3);
        let mut engine = Engine::new(AcceleratorConfig::graphdyns(), &g);
        engine.run(&PageRank::new(3)).expect("no stall").metrics
    };
    let local = run(0.0);
    let random = run(1.0);
    let rate = |m: &Metrics| m.dataflow_net.hol_blocked as f64 / m.scatter_cycles.max(1) as f64;
    assert!(
        rate(&local) < rate(&random) * 0.7,
        "local {:.2} vs random {:.2} HoL/cycle",
        rate(&local),
        rate(&random)
    );
}

#[test]
fn dispatcher_read_ports_never_hurt() {
    // the design-choice ablation: extra dispatcher read ports may help,
    // must never hurt (they only add issue opportunities)
    let g = Dataset::Epinions.build_scaled(16);
    let mut one = AcceleratorConfig::higraph_mini();
    one.dispatcher_read_ports = 1;
    let mut two = AcceleratorConfig::higraph_mini();
    two.dispatcher_read_ports = 2;
    let m1 = Algo::Pr.run(&one, &g, 3).expect("well-sized config");
    let m2 = Algo::Pr.run(&two, &g, 3).expect("well-sized config");
    assert!(
        m2.cycles <= m1.cycles + m1.cycles / 50,
        "2R {} vs 1R {}",
        m2.cycles,
        m1.cycles
    );
}
