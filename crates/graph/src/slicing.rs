//! Graph slicing for graphs larger than on-chip memory.
//!
//! Sec. 5.3 (Discussion): "For the large graph processing, the graph can be
//! partitioned into small slices, so that each slice is processed on chip
//! \[Graphicionado\]. … the time consumed in the replacement of slices can be
//! overlapped using double buffer design."
//!
//! A slice restricts *destination* vertices to a contiguous interval, so the
//! tProperty array of a slice fits on chip; every slice still scans all
//! source vertices, mirroring Graphicionado's destination-interval slicing.

use crate::csr::{Csr, Edge, VertexId};

/// A destination-interval slice of a larger graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slice {
    /// Index of this slice within the partition.
    pub index: usize,
    /// First destination vertex (inclusive) owned by this slice.
    pub dst_start: u32,
    /// One past the last destination vertex owned by this slice.
    pub dst_end: u32,
    /// The sliced graph: same vertex set, only edges whose destination is
    /// in `[dst_start, dst_end)`.
    pub graph: Csr,
    /// Boundary traffic of this slice: edges whose *source* vertex is
    /// owned by a different slice of the same partition. When slices map
    /// to chips, each such edge's update crosses the inter-chip fabric.
    pub cut_edges: u64,
    /// Ghost vertices: distinct source vertices not owned by this slice
    /// that have at least one edge into it. Their IDs and properties must
    /// be replicated (as ghosts) for the slice to scatter locally.
    pub ghost_vertices: u32,
}

impl Slice {
    /// Number of destination vertices owned by this slice.
    pub fn num_owned(&self) -> u32 {
        self.dst_end - self.dst_start
    }

    /// Whether this slice owns destination vertex `v`.
    pub fn owns(&self, v: VertexId) -> bool {
        (self.dst_start..self.dst_end).contains(&v.0)
    }
}

/// Total cut edges reported by a partition: the number of edges whose
/// source and destination are owned by different slices. This is exactly
/// the per-full-frontier packet count on a modeled inter-chip fabric
/// (`tests/sharded_equivalence.rs` holds the two equal by property test).
pub fn total_cut_edges(slices: &[Slice]) -> u64 {
    slices.iter().map(|s| s.cut_edges).sum()
}

/// Partitions `graph` into `num_slices` destination-interval slices.
///
/// Every edge of `graph` appears in exactly one slice; offsets are rebuilt
/// per slice so each slice is a structurally valid [`Csr`].
///
/// # Panics
///
/// Panics if `num_slices == 0`.
///
/// # Example
///
/// ```
/// use higraph_graph::{gen::erdos_renyi, slicing::partition};
///
/// let g = erdos_renyi(64, 512, 3, 1);
/// let slices = partition(&g, 4);
/// assert_eq!(slices.len(), 4);
/// let total: u64 = slices.iter().map(|s| s.graph.num_edges()).sum();
/// assert_eq!(total, 512);
/// ```
pub fn partition(graph: &Csr, num_slices: usize) -> Vec<Slice> {
    // lint:allow(panic-freedom): documented panic: slicing into zero slices has no semantics
    assert!(num_slices > 0, "need at least one slice");
    let n = graph.num_vertices();
    let per = n.div_ceil(num_slices as u32).max(1);
    // Vertex `v` belongs to slice `v / per`. One pass sizes every slice's
    // Edge Array exactly; a second fills them all.
    let slice_of = |v: u32| (v / per) as usize;
    let mut sizes = vec![0usize; num_slices];
    for e in graph.edges_raw() {
        sizes[slice_of(e.dst.0)] += 1;
    }
    let mut parts: Vec<(Vec<u64>, Vec<Edge>)> = sizes
        .iter()
        .map(|&size| {
            let mut offsets = Vec::with_capacity(n as usize + 1);
            offsets.push(0u64);
            (offsets, Vec::with_capacity(size))
        })
        .collect();
    let mut cut_edges = vec![0u64; num_slices];
    let mut ghost_vertices = vec![0u32; num_slices];
    for u in graph.vertices() {
        for e in graph.neighbors(u) {
            parts[slice_of(e.dst.0)].1.push(*e);
        }
        let home = slice_of(u.0);
        for (i, (offsets, edges)) in parts.iter_mut().enumerate() {
            let added = edges.len() as u64 - offsets[offsets.len() - 1];
            if i != home && added > 0 {
                cut_edges[i] += added;
                ghost_vertices[i] += 1;
            }
            offsets.push(edges.len() as u64);
        }
    }
    parts
        .into_iter()
        .enumerate()
        .map(|(i, (offsets, edges))| Slice {
            index: i,
            dst_start: (i as u32 * per).min(n),
            dst_end: ((i as u32 + 1) * per).min(n),
            graph: Csr::from_raw_parts(offsets, edges)
                // lint:allow(panic-freedom): infallible: each slice copies a structurally valid sub-range of a valid CSR
                .expect("slice construction preserves CSR validity"),
            cut_edges: cut_edges[i],
            ghost_vertices: ghost_vertices[i],
        })
        .collect()
}

/// Estimated cycles to swap a slice in/out of on-chip memory, given a
/// memory bandwidth in bytes/cycle. With double buffering (Sec. 5.3) this
/// cost overlaps with compute; the engine exposes both modes.
pub fn slice_swap_cycles(slice: &Slice, bytes_per_cycle: u64) -> u64 {
    // Edge array entry: 19-bit dst + weight, stored as 8 bytes on chip;
    // offsets: 8 bytes per vertex.
    let bytes = slice.graph.num_edges() * 8 + u64::from(slice.graph.num_vertices()) * 8;
    bytes.div_ceil(bytes_per_cycle.max(1))
}

/// Reassembles the destination-sliced partition back into the original
/// graph (used to verify the partition is lossless).
///
/// The slices must form a complete partition *in order*: every slice over
/// the same vertex set, destination ranges contiguous and non-overlapping
/// from vertex 0 to the last vertex. Returns `None` for anything else —
/// out-of-order, overlapping, or gapped slices used to be concatenated
/// silently into a structurally valid but wrong [`Csr`].
pub fn reassemble(slices: &[Slice]) -> Option<Csr> {
    let first = slices.first()?;
    let n = first.graph.num_vertices();
    let mut expect_start = 0u32;
    for (i, s) in slices.iter().enumerate() {
        if s.graph.num_vertices() != n {
            return None; // slice of a different graph
        }
        if s.index != i || s.dst_start != expect_start || s.dst_end < s.dst_start {
            return None; // out of order, overlapping, or gapped
        }
        expect_start = s.dst_end;
    }
    if expect_start != n {
        return None; // ranges do not cover the vertex set
    }
    let mut offsets = vec![0u64];
    let mut edges: Vec<Edge> = Vec::new();
    for u in 0..n {
        for s in slices {
            for e in s.graph.neighbors(VertexId(u)) {
                edges.push(*e);
            }
        }
        offsets.push(edges.len() as u64);
    }
    Csr::from_raw_parts(offsets, edges).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{power_law, rmat, RmatConfig};

    /// One slice at a time by filtering every edge: the definition the
    /// two-pass [`partition`] must reproduce exactly.
    fn reference_partition(graph: &Csr, num_slices: usize) -> Vec<Slice> {
        let n = graph.num_vertices();
        let per = n.div_ceil(num_slices as u32).max(1);
        (0..num_slices)
            .map(|i| {
                let dst_start = (i as u32 * per).min(n);
                let dst_end = ((i as u32 + 1) * per).min(n);
                let owns = |v: u32| (dst_start..dst_end).contains(&v);
                let mut offsets = vec![0u64];
                let mut edges = Vec::new();
                let (mut cut_edges, mut ghost_vertices) = (0u64, 0u32);
                for u in graph.vertices() {
                    let before = edges.len();
                    edges.extend(graph.neighbors(u).iter().filter(|e| owns(e.dst.0)));
                    if !owns(u.0) && edges.len() > before {
                        cut_edges += (edges.len() - before) as u64;
                        ghost_vertices += 1;
                    }
                    offsets.push(edges.len() as u64);
                }
                Slice {
                    index: i,
                    dst_start,
                    dst_end,
                    graph: Csr::from_raw_parts(offsets, edges).unwrap(),
                    cut_edges,
                    ghost_vertices,
                }
            })
            .collect()
    }

    #[test]
    fn partition_matches_the_per_slice_definition() {
        let graphs = [
            power_law(128, 1024, 2.0, 7, 3),
            power_law(1000, 9000, 2.1, 63, 8),
            rmat(&RmatConfig::graph500(7), 2),
            Csr::from_raw_parts(vec![0, 0, 0], Vec::new()).unwrap(),
        ];
        for g in &graphs {
            for num_slices in [1, 2, 3, 4, 7, 16, 300] {
                assert_eq!(
                    partition(g, num_slices),
                    reference_partition(g, num_slices),
                    "{} vertices into {num_slices} slices",
                    g.num_vertices()
                );
            }
        }
    }

    #[test]
    fn partition_is_lossless_up_to_order() {
        let g = power_law(128, 1024, 2.0, 7, 3);
        let slices = partition(&g, 4);
        let r = reassemble(&slices).expect("non-empty");
        assert_eq!(r.num_edges(), g.num_edges());
        for u in g.vertices() {
            let mut a: Vec<_> = g.neighbors(u).to_vec();
            let mut b: Vec<_> = r.neighbors(u).to_vec();
            a.sort_by_key(|e| (e.dst, e.weight));
            b.sort_by_key(|e| (e.dst, e.weight));
            assert_eq!(a, b, "vertex {u}");
        }
    }

    #[test]
    fn slices_own_disjoint_destinations() {
        let g = rmat(
            &RmatConfig {
                scale: 8,
                edge_factor: 8,
                ..RmatConfig::graph500(8)
            },
            1,
        );
        let slices = partition(&g, 3);
        for s in &slices {
            for (_, e) in s.graph.edges() {
                assert!((s.dst_start..s.dst_end).contains(&e.dst.0));
            }
        }
        let owned: u32 = slices.iter().map(Slice::num_owned).sum();
        assert_eq!(owned, g.num_vertices());
    }

    #[test]
    fn more_slices_than_vertices_is_ok() {
        let g = power_law(4, 16, 2.0, 3, 0);
        let slices = partition(&g, 8);
        let total: u64 = slices.iter().map(|s| s.graph.num_edges()).sum();
        assert_eq!(total, 16);
    }

    #[test]
    fn single_slice_has_no_boundary() {
        let g = power_law(96, 700, 2.0, 7, 5);
        let slices = partition(&g, 1);
        assert_eq!(slices[0].cut_edges, 0);
        assert_eq!(slices[0].ghost_vertices, 0);
        assert_eq!(total_cut_edges(&slices), 0);
        assert_eq!(slices[0].graph, g);
    }

    #[test]
    fn cut_edges_count_cross_owner_edges() {
        let g = power_law(128, 1024, 2.0, 7, 11);
        let slices = partition(&g, 4);
        // recount from first principles: an edge is cut when the slice
        // owning its destination does not own its source
        let expect: u64 = g
            .edges()
            .filter(|&(u, e)| {
                let owner = slices.iter().find(|s| s.owns(e.dst)).expect("covered");
                !owner.owns(u)
            })
            .count() as u64;
        assert_eq!(total_cut_edges(&slices), expect);
        // per-slice ghosts never exceed per-slice cut edges
        for s in &slices {
            assert!(u64::from(s.ghost_vertices) <= s.cut_edges);
        }
    }

    #[test]
    fn reassemble_rejects_out_of_order_slices() {
        let g = power_law(64, 512, 2.0, 7, 9);
        let mut slices = partition(&g, 4);
        assert!(reassemble(&slices).is_some());
        slices.swap(1, 2);
        assert!(reassemble(&slices).is_none());
    }

    #[test]
    fn reassemble_rejects_gapped_or_foreign_slices() {
        let g = power_law(64, 512, 2.0, 7, 13);
        let slices = partition(&g, 4);
        // dropping a middle slice leaves a gap
        let gapped: Vec<Slice> = [&slices[0], &slices[2], &slices[3]]
            .into_iter()
            .cloned()
            .collect();
        assert!(reassemble(&gapped).is_none());
        // dropping the tail fails coverage
        assert!(reassemble(&slices[..3]).is_none());
        // a slice of a different graph is rejected
        let other = power_law(32, 256, 2.0, 7, 13);
        let mut mixed = partition(&g, 2);
        mixed[1] = partition(&other, 2).remove(1);
        assert!(reassemble(&mixed).is_none());
    }

    #[test]
    fn swap_cycles_scale_with_size() {
        let g = power_law(64, 512, 2.0, 3, 0);
        let slices = partition(&g, 2);
        let c = slice_swap_cycles(&slices[0], 64);
        assert!(c > 0);
        assert!(slice_swap_cycles(&slices[0], 128) <= c);
    }
}
