//! Inputs made from the workload seed: graphs, vertex programs and the
//! random stream that orders serve-mix jobs.
//!
//! The default seed builds exactly the Table 2 stand-ins `repro` builds
//! (`Dataset::build_scaled`, i.e. `power_law(n, m, 2.0, 63, 0xD0C5 ^
//! dataset)`). Any other seed builds graphs of the same shape — same
//! vertex count, edge count, exponent and weight range — through
//! `higraph::graph::gen::power_law` with a seed derived from it.

use higraph::graph::gen::power_law;
use higraph::prelude::*;
use higraph_bench::Algo;

/// The seed that reproduces `repro`'s Table 2 stand-ins, DSE schedule
/// and recorded cycle counts.
pub const DEFAULT_SEED: u64 = 0;

/// A seed kept out of all tuning: later performance claims are confirmed
/// on it (see README.md).
pub const HELD_OUT_SEED: u64 = 7919;

/// SplitMix64: a small, well-mixed deterministic stream.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream starting from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle of `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The graph a workload runs on: `dataset` scaled down by `divisor`, from
/// the workload seed. Only the power-law (SNAP stand-in) datasets have a
/// seeded variant.
pub fn build_graph(dataset: Dataset, divisor: u32, seed: u64) -> Csr {
    if seed == DEFAULT_SEED {
        return dataset.build_scaled(divisor);
    }
    assert!(
        Dataset::REAL_WORLD.contains(&dataset),
        "{dataset} has no seeded variant"
    );
    let spec = dataset.spec();
    let n = (spec.num_vertices / divisor).max(16);
    let m = (spec.num_edges / u64::from(divisor)).max(64);
    let graph_seed = SplitMix64::new(seed ^ ((dataset as u64) << 48)).next_u64();
    power_law(n, m, 2.0, 63, graph_seed)
}

/// One of the six vertex programs, as the figure harnesses set it up.
/// Every program's property is a `u64`, so one result type serves all.
#[derive(Debug, Clone)]
pub enum Program {
    /// Breadth-first search from the hub vertex.
    Bfs(Bfs),
    /// Shortest paths from the hub vertex.
    Sssp(Sssp),
    /// Widest paths from the hub vertex.
    Sswp(Sswp),
    /// PageRank.
    Pr(PageRank),
    /// Weakly connected components.
    Wcc(Wcc),
    /// 64-landmark multi-source BFS.
    Msbfs(MultiSourceBfs),
}

/// Runs `$body` with `$p` bound to the concrete program inside a
/// [`Program`].
#[macro_export]
macro_rules! with_program {
    ($program:expr, $p:ident => $body:expr) => {
        match $program {
            $crate::inputs::Program::Bfs($p) => $body,
            $crate::inputs::Program::Sssp($p) => $body,
            $crate::inputs::Program::Sswp($p) => $body,
            $crate::inputs::Program::Pr($p) => $body,
            $crate::inputs::Program::Wcc($p) => $body,
            $crate::inputs::Program::Msbfs($p) => $body,
        }
    };
}

impl Program {
    /// `algo` on `graph` with the sources `higraph_bench::Algo` uses: the
    /// hub vertex, or 64 evenly spaced landmarks for MS-BFS.
    pub fn new(algo: Algo, graph: &Csr, pr_iters: u32) -> Self {
        let source = higraph::graph::stats::hub_vertex(graph).map_or(u32::MAX, |v| v.0);
        match algo {
            Algo::Bfs => Program::Bfs(Bfs::from_source(source)),
            Algo::Sssp => Program::Sssp(Sssp::from_source(source)),
            Algo::Sswp => Program::Sswp(Sswp::from_source(source)),
            Algo::Pr => Program::Pr(PageRank::new(pr_iters)),
            Algo::Wcc => Program::Wcc(Wcc::new()),
            Algo::Msbfs => {
                let num_v = graph.num_vertices() as usize;
                let landmarks: Vec<u32> = if num_v == 0 {
                    vec![u32::MAX]
                } else {
                    let count = num_v.min(64);
                    let step = (num_v / count).max(1);
                    (0..count).map(|i| (i * step) as u32).collect()
                };
                Program::Msbfs(MultiSourceBfs::new(landmarks).expect("1..=64 landmarks"))
            }
        }
    }

    /// The software oracle's final properties (`higraph::vcpm::execute`).
    pub fn oracle(&self, graph: &Csr) -> Vec<u64> {
        with_program!(self, p => higraph::vcpm::execute(p, graph).properties)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_seed_builds_the_table2_stand_in() {
        let graph = build_graph(Dataset::Vote, 16, DEFAULT_SEED);
        assert_eq!(
            graph.content_hash(),
            Dataset::Vote.build_scaled(16).content_hash()
        );
    }

    #[test]
    fn other_seeds_keep_the_shape_and_change_the_graph() {
        let a = build_graph(Dataset::Vote, 16, 1);
        let b = build_graph(Dataset::Vote, 16, 2);
        let stand_in = Dataset::Vote.build_scaled(16);
        assert_eq!(a.num_vertices(), stand_in.num_vertices());
        assert_eq!(
            a.content_hash(),
            build_graph(Dataset::Vote, 16, 1).content_hash()
        );
        assert_ne!(a.content_hash(), b.content_hash());
        assert_ne!(a.content_hash(), stand_in.content_hash());
    }

    #[test]
    fn programs_match_the_harness_runs() {
        let graph = Dataset::Vote.build_scaled(16);
        for algo in Algo::ALL {
            let program = Program::new(algo, &graph, 3);
            let mut engine = Engine::new(AcceleratorConfig::higraph(), &graph);
            let ours = with_program!(&program, p => engine.run(p)).expect("runs");
            let harness = algo
                .run(&AcceleratorConfig::higraph(), &graph, 3)
                .expect("runs");
            assert_eq!(ours.metrics, harness, "{}", algo.label());
            assert_eq!(ours.properties, program.oracle(&graph), "{}", algo.label());
        }
    }
}
