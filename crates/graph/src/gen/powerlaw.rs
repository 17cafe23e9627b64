//! Heavy-tailed (power-law) graph generator.
//!
//! SNAP social graphs (Vote, Epinions, Slashdot, Twitter in Table 2) have
//! skewed in- *and* out-degree distributions, but even their hottest
//! vertex receives well under ~2% of all edges (e.g. Epinions' largest
//! in-degree is ≈3 000 of 508 837 edges). This generator therefore draws
//! *both* degree sequences from a truncated discrete power law, caps the
//! hottest vertex at `target_edges / 128` (≈0.8%, matching e.g. Epinions' 0.6%), and pairs sources with a
//! shuffled destination pool — giving exact edge counts, a realistic hot
//! set, and no single vertex that would serialize an entire accelerator
//! bank (an artifact no SNAP graph exhibits).

// lint:allow-file(panic-freedom): generator argument checks are the documented public-API panic contract (cold construction, never per-cycle), and the CSR built in place is valid by those same bounds
use crate::csr::{Csr, Edge, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates a directed power-law graph with `num_vertices` vertices and
/// exactly `target_edges` edges.
///
/// `alpha` is the power-law exponent of both degree distributions
/// (typical social networks: 1.8–2.5; lower = heavier tail). Out-degrees
/// decide how many edges each source emits; destinations are drawn from an
/// independent in-degree sequence via a shuffled pool, so in-degrees are
/// exact as well. Self-loops and parallel edges may occur, as in raw SNAP
/// exports.
///
/// # Panics
///
/// Panics if `num_vertices == 0`, `alpha <= 1.0`, or `max_weight == 0`.
///
/// # Example
///
/// ```
/// use higraph_graph::gen::power_law;
///
/// let g = power_law(1000, 8000, 2.0, 63, 1);
/// assert_eq!(g.num_vertices(), 1000);
/// assert_eq!(g.num_edges(), 8000);
/// ```
pub fn power_law(
    num_vertices: u32,
    target_edges: u64,
    alpha: f64,
    max_weight: u32,
    seed: u64,
) -> Csr {
    assert!(num_vertices > 0, "need at least one vertex");
    assert!(alpha > 1.0, "power-law exponent must exceed 1");
    assert!(max_weight > 0, "max_weight must be positive");
    let mut rng = StdRng::seed_from_u64(seed);

    let out_degrees = degree_sequence(&mut rng, num_vertices, target_edges, alpha);
    let in_degrees = degree_sequence(&mut rng, num_vertices, target_edges, alpha);

    // Destination pool: vertex v appears in_degrees[v] times, shuffled.
    let mut pool: Vec<u32> = Vec::with_capacity(target_edges as usize);
    for (v, &d) in in_degrees.iter().enumerate() {
        pool.extend(std::iter::repeat_n(v as u32, d as usize));
    }
    debug_assert_eq!(pool.len() as u64, target_edges);
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.gen_range(0..=i));
    }

    // Sources take their edges in ascending order, so the CSR fills in
    // place: the out-degrees are the offset deltas, the shuffled pool
    // read front to back is the destination column, and the weights come
    // from their own stream in CSR order.
    let mut offsets = Vec::with_capacity(num_vertices as usize + 1);
    offsets.push(0u64);
    offsets.extend(out_degrees.iter().scan(0u64, |end, &deg| {
        *end += deg;
        Some(*end)
    }));
    let mut weights = StdRng::seed_from_u64(seed ^ 0x5eed);
    let edges: Vec<Edge> = pool
        .into_iter()
        .map(|dst| Edge {
            dst: VertexId(dst),
            weight: weights.gen_range(1..=max_weight),
        })
        .collect();
    Csr::from_raw_parts(offsets, edges).expect("degree sums match and endpoints are in range")
}

/// Samples a power-law degree sequence summing to exactly `target`, with
/// the hottest vertex capped at `max(target/64, 4·mean)` so no vertex
/// dominates the edge set.
fn degree_sequence(rng: &mut StdRng, n: u32, target: u64, alpha: f64) -> Vec<u64> {
    let mean = (target as f64 / f64::from(n)).max(1.0);
    let cap = ((target / 128).max((4.0 * mean) as u64)).max(1) as f64;
    let max_sample = (f64::from(n)).max(2.0);

    let raw: Vec<f64> = (0..n)
        .map(|_| sample_power(rng, alpha, max_sample))
        .collect();
    let total: f64 = raw.iter().sum();
    let scale = target as f64 / total.max(1.0);
    let scaled: Vec<f64> = raw.iter().map(|d| (d * scale).min(cap)).collect();

    // Largest-remainder rounding to hit `target` exactly.
    let mut assigned: Vec<u64> = scaled.iter().map(|d| *d as u64).collect();
    let mut remaining = target.saturating_sub(assigned.iter().sum::<u64>());
    let mut order: Vec<usize> = (0..n as usize).collect();
    order.sort_by(|&a, &b| {
        let fa = scaled[a] - scaled[a].floor();
        let fb = scaled[b] - scaled[b].floor();
        fb.partial_cmp(&fa).expect("degrees are finite")
    });
    'outer: loop {
        let mut progressed = false;
        for &i in &order {
            if remaining == 0 {
                break 'outer;
            }
            // keep honoring the hot-vertex cap while distributing remainder
            if (assigned[i] as f64) < cap {
                assigned[i] += 1;
                remaining -= 1;
                progressed = true;
            }
        }
        if !progressed {
            // every vertex is at the cap (tiny graphs): spill round-robin
            for &i in &order {
                if remaining == 0 {
                    break 'outer;
                }
                assigned[i] += 1;
                remaining -= 1;
            }
        }
    }
    assigned
}

/// Samples from a power law on `[1, max)` with exponent `alpha` via
/// inverse transform sampling.
fn sample_power(rng: &mut StdRng, alpha: f64, max: f64) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    let exp = 1.0 - alpha;
    let x = (1.0 - u * (1.0 - max.powf(exp))).powf(1.0 / exp);
    x.clamp(1.0, max - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DegreeStats;

    #[test]
    fn deterministic() {
        assert_eq!(
            power_law(200, 1000, 2.1, 15, 5),
            power_law(200, 1000, 2.1, 15, 5)
        );
    }

    #[test]
    fn exact_edge_count() {
        for seed in 0..5 {
            let g = power_law(333, 2500, 2.0, 63, seed);
            assert_eq!(g.num_edges(), 2500, "seed {seed}");
        }
    }

    #[test]
    fn tail_is_heavy_but_capped() {
        let g = power_law(2000, 20_000, 1.9, 63, 7);
        let out = DegreeStats::of(&g);
        assert!(
            out.max as f64 > 5.0 * out.mean,
            "max {} mean {}",
            out.max,
            out.mean
        );
        // hottest vertex must stay a small fraction of all edges
        assert!(out.max <= 20_000 / 128 + 1, "out max {}", out.max);
        let ind = DegreeStats::of(&g.transpose());
        assert!(ind.max as f64 > 5.0 * ind.mean);
        assert!(ind.max <= 20_000 / 128 + 1, "in max {}", ind.max);
    }

    #[test]
    fn most_vertices_participate() {
        // with mean degree 10, nearly every vertex should have in- and
        // out-edges (reachable core), unlike a rank-1-dominated graph
        let g = power_law(1000, 10_000, 2.0, 3, 11);
        let out = DegreeStats::of(&g);
        let ind = DegreeStats::of(&g.transpose());
        assert!(out.zeros < 100, "out zeros {}", out.zeros);
        assert!(ind.zeros < 100, "in zeros {}", ind.zeros);
    }

    #[test]
    fn hub_source_reaches_most_of_the_graph() {
        let g = power_law(500, 5000, 2.0, 3, 3);
        let hub = g
            .vertices()
            .max_by_key(|&v| g.out_degree(v))
            .expect("non-empty");
        // plain BFS reachability from the hub
        let mut seen = vec![false; 500];
        let mut stack = vec![hub];
        seen[hub.index()] = true;
        let mut count = 0;
        while let Some(u) = stack.pop() {
            count += 1;
            for e in g.neighbors(u) {
                if !seen[e.dst.index()] {
                    seen[e.dst.index()] = true;
                    stack.push(e.dst);
                }
            }
        }
        assert!(count > 350, "hub reaches only {count}/500");
    }
}
