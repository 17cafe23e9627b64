//! Packet types flowing through the accelerator's fabrics.
//!
//! The hot path moves the *ref* types ([`VertexRef`], [`ImmRef`],
//! [`EdgeRef`]): 8-byte handles into the per-chip SoA arenas of
//! [`crate::arena`], carrying only what the fabrics inspect in flight
//! (the destination). The materialized structs ([`VertexPacket`],
//! [`ImmPacket`], [`PendingEdge`]) document the modeled payload each
//! handle stands for and serve as the struct-copy baseline in the
//! host-performance microbenchmarks.

use higraph_sim::Packet;

/// Handle to a vertex packet whose `(u, prop)` payload lives in the
/// front-end's [`crate::arena::PairArena`]. This is what the
/// offset-routing fabric and staging FIFOs move per hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VertexRef {
    /// Arena handle of the `(u, prop)` pair.
    pub handle: u32,
    /// `u % n` — the only field inspected in flight.
    pub dest: u32,
}

impl Packet for VertexRef {
    fn dest(&self) -> usize {
        self.dest as usize
    }
}

impl VertexRef {
    /// A ref with no arena slot behind it, for a capacity probe
    /// ([`higraph_sim::Network::can_accept`]) before the payload is
    /// stored: the fabrics route on `dest` and never dereference a
    /// handle.
    #[inline]
    pub(crate) fn probe(dest: u32) -> Self {
        VertexRef {
            handle: u32::MAX,
            dest,
        }
    }
}

/// Handle to an update packet whose `(v, imm)` payload lives in the
/// back-end's [`crate::arena::PairArena`]. This is what the dataflow
/// propagation fabric moves per hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImmRef {
    /// Arena handle of the `(v, imm)` pair.
    pub handle: u32,
    /// `v % m` — the only field inspected in flight.
    pub dest: u32,
}

impl Packet for ImmRef {
    fn dest(&self) -> usize {
        self.dest as usize
    }
}

impl ImmRef {
    /// A ref with no arena slot behind it, for a capacity probe
    /// ([`higraph_sim::Network::can_accept`]) before the payload is
    /// stored: the fabrics route on `dest` and never dereference a
    /// handle.
    #[inline]
    pub(crate) fn probe(dest: u32) -> Self {
        ImmRef {
            handle: u32::MAX,
            dest,
        }
    }
}

/// Handle to a pending edge whose `(dst, weight, u_prop)` payload lives
/// in the back-end's [`crate::arena::EdgeArena`]. This is what the ePE
/// queues hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRef(pub u32);

/// A source vertex travelling from the ActiveVertex Array to its Offset
/// Array channel (front-end routing; Fig. 6 "MDP-network for Offset Array
/// Access"). Destination: channel `u % n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VertexPacket<P> {
    /// Source vertex ID.
    pub u: u32,
    /// The vertex's current property (rides along so the back-end never
    /// re-reads the Property Array mid-scatter).
    pub prop: P,
    /// `u % n`.
    pub dest: usize,
}

impl<P> Packet for VertexPacket<P> {
    fn dest(&self) -> usize {
        self.dest
    }
}

/// An update travelling from an ePE to the vPE owning its destination
/// vertex (Fig. 6 dataflow propagation). Destination: channel `v % m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImmPacket<P> {
    /// Destination vertex ID.
    pub v: u32,
    /// `Imm = Process_Edge(u.prop, e.weight)`.
    pub imm: P,
    /// `v % m`.
    pub dest: usize,
}

impl<P> Packet for ImmPacket<P> {
    fn dest(&self) -> usize {
        self.dest
    }
}

/// An edge waiting at an ePE: read from the Edge Array, paired with the
/// source property it must be combined with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingEdge<P> {
    /// Destination vertex of the edge.
    pub dst: u32,
    /// Edge weight.
    pub weight: u32,
    /// Property of the source vertex.
    pub u_prop: P,
}

impl higraph_sim::SnapValue for VertexRef {
    fn save_value(&self, w: &mut higraph_sim::SnapWriter) {
        w.u32(self.handle);
        w.u32(self.dest);
    }
    fn load_value(r: &mut higraph_sim::SnapReader<'_>) -> Result<Self, higraph_sim::SnapError> {
        Ok(VertexRef {
            handle: r.u32()?,
            dest: r.u32()?,
        })
    }
}

impl higraph_sim::SnapValue for ImmRef {
    fn save_value(&self, w: &mut higraph_sim::SnapWriter) {
        w.u32(self.handle);
        w.u32(self.dest);
    }
    fn load_value(r: &mut higraph_sim::SnapReader<'_>) -> Result<Self, higraph_sim::SnapError> {
        Ok(ImmRef {
            handle: r.u32()?,
            dest: r.u32()?,
        })
    }
}

impl higraph_sim::SnapValue for EdgeRef {
    fn save_value(&self, w: &mut higraph_sim::SnapWriter) {
        w.u32(self.0);
    }
    fn load_value(r: &mut higraph_sim::SnapReader<'_>) -> Result<Self, higraph_sim::SnapError> {
        Ok(EdgeRef(r.u32()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packets_report_dest() {
        let v = VertexPacket {
            u: 10,
            prop: 5u64,
            dest: 2,
        };
        assert_eq!(v.dest(), 2);
        let i = ImmPacket {
            v: 9,
            imm: 1u64,
            dest: 7,
        };
        assert_eq!(i.dest(), 7);
    }
}
