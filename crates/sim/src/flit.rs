//! Flits and packets: the paper's data units.
//!
//! "In packet-based NoC communication each packet is split into data
//! units called flits. The buffer queues for channels are defined as
//! multiples of the flit data unit." Packets are constant-size (6 flits
//! in the paper's simulations); the head flit is actively routed and
//! the rest follow its wormhole path.

use core::fmt;
use noc_topology::NodeId;

/// Unique identifier of a packet within one simulation run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PacketId(u64);

impl PacketId {
    /// Creates a packet identifier from a raw sequence number.
    pub const fn new(raw: u64) -> Self {
        PacketId(raw)
    }

    /// The raw sequence number.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Position of a flit within its packet.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FlitKind {
    /// First flit: carries routing information, opens the wormhole path.
    Head,
    /// Middle flit: passively switched along the established path.
    Body,
    /// Last flit: closes the path, releases allocations.
    Tail,
    /// A complete single-flit packet (head and tail at once).
    HeadTail,
}

impl FlitKind {
    /// Returns `true` for flits that open a path (head or head-tail).
    pub const fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// Returns `true` for flits that close a path (tail or head-tail).
    pub const fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }

    /// Kind of the flit at position `index` of a `len`-flit packet:
    /// `Head`, then `Body`, with `Tail` last (`HeadTail` when
    /// `len == 1`).
    ///
    /// # Examples
    ///
    /// ```
    /// use noc_sim::FlitKind;
    ///
    /// assert_eq!(FlitKind::at(0, 6), FlitKind::Head);
    /// assert_eq!(FlitKind::at(3, 6), FlitKind::Body);
    /// assert_eq!(FlitKind::at(5, 6), FlitKind::Tail);
    /// assert_eq!(FlitKind::at(0, 1), FlitKind::HeadTail);
    /// ```
    #[inline]
    pub const fn at(index: usize, len: usize) -> FlitKind {
        match (index, len) {
            (0, 1) => FlitKind::HeadTail,
            (0, _) => FlitKind::Head,
            (i, l) if i + 1 == l => FlitKind::Tail,
            _ => FlitKind::Body,
        }
    }
}

/// One flow-control digit travelling through the network.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Flit {
    /// Packet this flit belongs to.
    pub packet: PacketId,
    /// Position within the packet.
    pub kind: FlitKind,
    /// Source node of the packet.
    pub src: NodeId,
    /// Destination node of the packet.
    pub dst: NodeId,
    /// Cycle at which the packet was created at its source.
    pub created: u64,
    /// Link crossings this flit has made so far. Under wormhole
    /// switching every flit of a packet traverses the same links, so
    /// the tail's counter at consumption equals the head's hop count —
    /// which is why the simulator needs no per-packet hop table.
    pub hops: u64,
}

impl Flit {
    /// Builds the flit sequence of one packet: `Head`, `len - 2` times
    /// `Body`, `Tail` (or a single `HeadTail` for `len == 1`).
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` or `src == dst`.
    ///
    /// # Examples
    ///
    /// ```
    /// use noc_sim::{Flit, FlitKind, PacketId};
    /// use noc_topology::NodeId;
    ///
    /// let flits = Flit::packet(PacketId::new(0), NodeId::new(1), NodeId::new(2), 6, 100);
    /// assert_eq!(flits.len(), 6);
    /// assert_eq!(flits[0].kind, FlitKind::Head);
    /// assert!(flits[1..5].iter().all(|f| f.kind == FlitKind::Body));
    /// assert_eq!(flits[5].kind, FlitKind::Tail);
    /// ```
    pub fn packet(
        packet: PacketId,
        src: NodeId,
        dst: NodeId,
        len: usize,
        created: u64,
    ) -> Vec<Flit> {
        assert!(len > 0, "packets must contain at least one flit");
        assert_ne!(src, dst, "packet source must differ from destination");
        let template = Flit {
            packet,
            kind: FlitKind::Body,
            src,
            dst,
            created,
            hops: 0,
        };
        (0..len)
            .map(|i| Flit {
                kind: FlitKind::at(i, len),
                ..template
            })
            .collect()
    }
}

impl fmt::Display for Flit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = match self.kind {
            FlitKind::Head => "H",
            FlitKind::Body => "B",
            FlitKind::Tail => "T",
            FlitKind::HeadTail => "HT",
        };
        write!(f, "{}{}[{}->{}]", self.packet, k, self.src, self.dst)
    }
}

/// Generational handle to a packet slot in a [`PacketArena`].
///
/// The generation counter detects stale handles: a slot reused for a new
/// packet increments its generation, so a leftover reference to the old
/// packet can no longer resolve.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PacketRef {
    index: u32,
    generation: u32,
}

/// The in-network representation of a flit: a 16-byte handle instead of
/// the 48-byte [`Flit`] record.
///
/// Per-packet constants (source, destination, id, creation cycle) live
/// once in the [`PacketArena`]; each travelling flit carries only its
/// packet handle, its position in the packet and its own hop counter.
/// [`PacketArena::materialize`] reconstructs the full [`Flit`] view for
/// observability seams (probes, audit, stats) that want the flat record.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ArenaFlit {
    /// Handle of the packet this flit belongs to.
    pub pkt: PacketRef,
    /// Position within the packet.
    pub kind: FlitKind,
    /// Link crossings this flit has made so far.
    pub hops: u32,
}

impl ArenaFlit {
    /// Filler for unoccupied ring cells; never read as a live flit (its
    /// handle resolves to no arena slot).
    pub(crate) const VACANT: ArenaFlit = ArenaFlit {
        pkt: PacketRef {
            index: u32::MAX,
            generation: u32::MAX,
        },
        kind: FlitKind::Body,
        hops: 0,
    };
}

/// Slab allocator for in-flight packet descriptors, SoA layout.
///
/// One slot per live packet. The simulator takes a packet's slot at its
/// first injection attempt, not at generation: a packet still waiting
/// in its source queue is a compact descriptor there and holds no slot.
/// Slots are recycled through a free list when the packet's tail flit
/// is consumed (wormhole ordering guarantees the tail is the last flit
/// of its packet to leave the network, so freeing at tail consumption
/// can never orphan a sibling flit). Capacity grows with the peak
/// number of live packets, which is bounded by buffer space plus one
/// packet per source (the one being injected), not by simulation length
/// or source backlog — so steady-state simulation does not allocate.
///
/// # Examples
///
/// ```
/// use noc_sim::{FlitKind, PacketArena, PacketId};
/// use noc_topology::NodeId;
///
/// let mut arena = PacketArena::new();
/// let pkt = arena.alloc(PacketId::new(0), NodeId::new(1), NodeId::new(4), 100);
/// assert_eq!(arena.dst(pkt), NodeId::new(4));
/// let flit = arena.flit(pkt, FlitKind::Head);
/// assert_eq!(arena.materialize(flit).src, NodeId::new(1));
/// arena.free(pkt);
/// assert_eq!(arena.live(), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PacketArena {
    id: Vec<PacketId>,
    src: Vec<NodeId>,
    dst: Vec<NodeId>,
    created: Vec<u64>,
    generation: Vec<u32>,
    free: Vec<u32>,
    live: usize,
}

impl PacketArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        PacketArena::default()
    }

    /// Creates an empty arena with room for `capacity` concurrent
    /// packets before reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        PacketArena {
            id: Vec::with_capacity(capacity),
            src: Vec::with_capacity(capacity),
            dst: Vec::with_capacity(capacity),
            created: Vec::with_capacity(capacity),
            generation: Vec::with_capacity(capacity),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Number of live (allocated, not yet freed) packets.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Allocates a slot for one packet and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` (the simulator never self-addresses) or if
    /// the arena exceeds `u32::MAX` slots.
    #[inline]
    pub fn alloc(&mut self, id: PacketId, src: NodeId, dst: NodeId, created: u64) -> PacketRef {
        assert_ne!(src, dst, "packet source must differ from destination");
        self.live += 1;
        if let Some(index) = self.free.pop() {
            let i = index as usize;
            self.id[i] = id;
            self.src[i] = src;
            self.dst[i] = dst;
            self.created[i] = created;
            PacketRef {
                index,
                generation: self.generation[i],
            }
        } else {
            let index = u32::try_from(self.id.len()).expect("arena exceeds u32::MAX packets");
            self.id.push(id);
            self.src.push(src);
            self.dst.push(dst);
            self.created.push(created);
            self.generation.push(0);
            PacketRef {
                index,
                generation: 0,
            }
        }
    }

    /// Releases a packet slot for reuse, invalidating all existing
    /// handles to it.
    ///
    /// # Panics
    ///
    /// Panics if `pkt` is stale (already freed).
    #[inline]
    pub fn free(&mut self, pkt: PacketRef) {
        let i = self.check(pkt);
        self.generation[i] = self.generation[i].wrapping_add(1);
        self.free.push(pkt.index);
        self.live -= 1;
    }

    #[inline]
    fn check(&self, pkt: PacketRef) -> usize {
        let i = pkt.index as usize;
        assert_eq!(
            self.generation[i], pkt.generation,
            "stale packet handle {pkt:?}"
        );
        i
    }

    /// Packet identifier of the packet behind `pkt`.
    #[inline]
    pub fn packet_id(&self, pkt: PacketRef) -> PacketId {
        self.id[self.check(pkt)]
    }

    /// Destination node of the packet behind `pkt`.
    #[inline]
    pub fn dst(&self, pkt: PacketRef) -> NodeId {
        self.dst[self.check(pkt)]
    }

    /// Creation cycle of the packet behind `pkt`.
    #[inline]
    pub fn created(&self, pkt: PacketRef) -> u64 {
        self.created[self.check(pkt)]
    }

    /// Builds an in-network flit of packet `pkt` with zero hops.
    #[inline]
    pub fn flit(&self, pkt: PacketRef, kind: FlitKind) -> ArenaFlit {
        let _ = self.check(pkt);
        ArenaFlit { pkt, kind, hops: 0 }
    }

    /// Reconstructs the flat [`Flit`] view of an in-network flit, for
    /// the observability seams (probes and the auditor).
    #[inline]
    pub fn materialize(&self, flit: ArenaFlit) -> Flit {
        let i = self.check(flit.pkt);
        Flit {
            packet: self.id[i],
            kind: flit.kind,
            src: self.src[i],
            dst: self.dst[i],
            created: self.created[i],
            hops: u64::from(flit.hops),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_id_round_trip() {
        assert_eq!(PacketId::new(7).raw(), 7);
        assert_eq!(PacketId::new(7).to_string(), "p7");
        assert!(PacketId::new(1) < PacketId::new(2));
    }

    #[test]
    fn flit_kinds_classify() {
        assert!(FlitKind::Head.is_head());
        assert!(!FlitKind::Head.is_tail());
        assert!(FlitKind::Tail.is_tail());
        assert!(FlitKind::HeadTail.is_head() && FlitKind::HeadTail.is_tail());
        assert!(!FlitKind::Body.is_head() && !FlitKind::Body.is_tail());
    }

    #[test]
    fn six_flit_packet_structure() {
        let flits = Flit::packet(PacketId::new(3), NodeId::new(0), NodeId::new(5), 6, 42);
        assert_eq!(flits.len(), 6);
        assert!(flits.iter().all(|f| f.packet == PacketId::new(3)));
        assert!(flits.iter().all(|f| f.created == 42));
        assert_eq!(flits.iter().filter(|f| f.kind.is_head()).count(), 1);
        assert_eq!(flits.iter().filter(|f| f.kind.is_tail()).count(), 1);
    }

    #[test]
    fn single_flit_packet_is_head_tail() {
        let flits = Flit::packet(PacketId::new(0), NodeId::new(0), NodeId::new(1), 1, 0);
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::HeadTail);
    }

    #[test]
    fn two_flit_packet_is_head_then_tail() {
        let flits = Flit::packet(PacketId::new(0), NodeId::new(0), NodeId::new(1), 2, 0);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[1].kind, FlitKind::Tail);
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_length_packet_panics() {
        let _ = Flit::packet(PacketId::new(0), NodeId::new(0), NodeId::new(1), 0, 0);
    }

    #[test]
    #[should_panic(expected = "differ")]
    fn self_addressed_packet_panics() {
        let _ = Flit::packet(PacketId::new(0), NodeId::new(1), NodeId::new(1), 3, 0);
    }

    #[test]
    fn display_is_compact() {
        let flits = Flit::packet(PacketId::new(9), NodeId::new(1), NodeId::new(4), 2, 0);
        assert_eq!(flits[0].to_string(), "p9H[n1->n4]");
        assert_eq!(flits[1].to_string(), "p9T[n1->n4]");
    }

    #[test]
    fn arena_round_trips_packet_fields() {
        let mut arena = PacketArena::new();
        let pkt = arena.alloc(PacketId::new(7), NodeId::new(2), NodeId::new(5), 42);
        assert_eq!(arena.packet_id(pkt), PacketId::new(7));
        assert_eq!(arena.dst(pkt), NodeId::new(5));
        assert_eq!(arena.created(pkt), 42);
        let mut flit = arena.flit(pkt, FlitKind::Tail);
        flit.hops = 3;
        let full = arena.materialize(flit);
        assert_eq!(
            full,
            Flit {
                packet: PacketId::new(7),
                kind: FlitKind::Tail,
                src: NodeId::new(2),
                dst: NodeId::new(5),
                created: 42,
                hops: 3,
            }
        );
    }

    #[test]
    fn arena_recycles_slots_with_new_generation() {
        let mut arena = PacketArena::new();
        let a = arena.alloc(PacketId::new(0), NodeId::new(0), NodeId::new(1), 0);
        arena.free(a);
        let b = arena.alloc(PacketId::new(1), NodeId::new(3), NodeId::new(4), 9);
        assert_ne!(a, b, "recycled slot must carry a fresh generation");
        assert_eq!(arena.live(), 1);
        assert_eq!(arena.packet_id(b), PacketId::new(1));
    }

    #[test]
    #[should_panic(expected = "stale packet handle")]
    fn arena_rejects_stale_handles() {
        let mut arena = PacketArena::new();
        let a = arena.alloc(PacketId::new(0), NodeId::new(0), NodeId::new(1), 0);
        arena.free(a);
        let _ = arena.dst(a);
    }

    #[test]
    #[should_panic(expected = "differ")]
    fn arena_rejects_self_addressed_packets() {
        let mut arena = PacketArena::new();
        let _ = arena.alloc(PacketId::new(0), NodeId::new(1), NodeId::new(1), 0);
    }
}
