//! Router buffers as network-wide flat rings: per-VC output queues with
//! wormhole ownership, and input buffers with their wormhole routes.
//!
//! The paper's node model (Figure 4): "Incoming links have a one-flit
//! buffer, while outgoing links have a pair of output buffers (used both
//! for virtual channel management and deadlock avoidance) in Ring and
//! Spidergon topologies, and one single buffer in Mesh topologies. All
//! output buffers may contain up to three flits."
//!
//! Capacities are fixed for a run, so every buffer of one class lives
//! in a single contiguous array of fixed-stride rings addressed by a
//! dense *slot id* (laid out by the simulation: router `v`'s link slot
//! `(port, vc)` is `base[v] + port * vcs + vc`, its ejection channels
//! follow its link slots). A buffer access is one index computation
//! instead of two or three pointer hops through nested vectors.
//!
//! Buffers store the compact [`ArenaFlit`] handle; per-packet constants
//! (source, destination, id, creation cycle) live in the simulation's
//! [`crate::PacketArena`] and are materialized only at the
//! observability seams.

use crate::flit::{ArenaFlit, PacketRef};

/// Largest capacity a ring slot supports: head and length are kept in
/// one byte each.
pub(crate) const MAX_RING_CAPACITY: usize = u8::MAX as usize;

/// Read and length cursor of one ring slot.
#[derive(Clone, Copy, Default, Debug)]
struct Cursor {
    head: u8,
    len: u8,
}

/// Fixed-capacity FIFO rings, one per slot id, stored back to back.
///
/// Generic so its accessors are monomorphized (and inlinable) in the
/// crate that instantiates the simulation.
#[derive(Clone, Debug)]
pub(crate) struct Rings<T> {
    /// Slot `s` owns `items[s * cap .. (s + 1) * cap]`.
    items: Vec<T>,
    cursor: Vec<Cursor>,
    cap: usize,
}

impl<T: Copy> Rings<T> {
    /// Creates `slots` empty rings of `capacity` items each; `fill`
    /// only initializes the storage and is never read back.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or above [`MAX_RING_CAPACITY`].
    pub(crate) fn new(slots: usize, capacity: usize, fill: T) -> Self {
        assert!(capacity > 0, "buffers must hold at least one flit");
        assert!(
            capacity <= MAX_RING_CAPACITY,
            "buffers hold at most {MAX_RING_CAPACITY} flits, not {capacity}"
        );
        Rings {
            items: vec![fill; slots * capacity],
            cursor: vec![Cursor::default(); slots],
            cap: capacity,
        }
    }

    /// Items each ring can hold.
    #[inline]
    pub(crate) fn capacity(&self) -> usize {
        self.cap
    }

    /// Items queued in ring `s`.
    #[inline]
    pub(crate) fn len(&self, s: usize) -> usize {
        usize::from(self.cursor[s].len)
    }

    /// The oldest item of ring `s`, if any.
    #[inline]
    pub(crate) fn front(&self, s: usize) -> Option<&T> {
        let c = self.cursor[s];
        (c.len > 0).then(|| &self.items[s * self.cap + usize::from(c.head)])
    }

    /// Appends `item` to ring `s`.
    ///
    /// # Panics
    ///
    /// Panics if the ring is full.
    #[inline]
    pub(crate) fn push_back(&mut self, s: usize, item: T) {
        *self.push_back_cell(s) = item;
    }

    /// Appends a cell to ring `s` and returns it, holding whatever the
    /// storage held there, for the caller to fill field by field.
    ///
    /// # Panics
    ///
    /// Panics if the ring is full.
    #[inline]
    pub(crate) fn push_back_cell(&mut self, s: usize) -> &mut T {
        let c = &mut self.cursor[s];
        let len = usize::from(c.len);
        assert!(len < self.cap, "ring slot {s} overrun");
        let mut at = usize::from(c.head) + len;
        if at >= self.cap {
            at -= self.cap;
        }
        c.len += 1;
        &mut self.items[s * self.cap + at]
    }

    /// Removes and returns the oldest item of ring `s`.
    #[inline]
    pub(crate) fn pop_front(&mut self, s: usize) -> Option<T> {
        let c = &mut self.cursor[s];
        if c.len == 0 {
            return None;
        }
        let head = usize::from(c.head);
        // `head + 1 <= cap <= u8::MAX`, so the narrowing is lossless.
        c.head = if head + 1 == self.cap {
            0
        } else {
            (head + 1) as u8
        };
        c.len -= 1;
        Some(self.items[s * self.cap + head])
    }

    /// Items of ring `s`, oldest first.
    pub(crate) fn iter(&self, s: usize) -> impl Iterator<Item = &T> + '_ {
        let c = self.cursor[s];
        let head = usize::from(c.head);
        (0..usize::from(c.len)).map(move |k| {
            let mut at = head + k;
            if at >= self.cap {
                at -= self.cap;
            }
            &self.items[s * self.cap + at]
        })
    }
}

/// Every output VC queue and ejection channel of the network, with the
/// wormhole owner of each.
///
/// Wormhole switching forbids interleaving flits of different packets
/// within a VC: a queue is *owned* by a packet from the moment its head
/// flit enters until its tail flit enters. While owned, only flits of
/// the owning packet may be pushed.
#[derive(Clone, Debug)]
pub(crate) struct OutputRings {
    flits: Rings<ArenaFlit>,
    owner: Vec<Option<PacketRef>>,
}

impl OutputRings {
    /// Creates `slots` empty queues of `capacity` flits each.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or above [`MAX_RING_CAPACITY`].
    pub(crate) fn new(slots: usize, capacity: usize) -> Self {
        OutputRings {
            flits: Rings::new(slots, capacity, ArenaFlit::VACANT),
            owner: vec![None; slots],
        }
    }

    /// Flits each queue can hold.
    #[inline]
    pub(crate) fn capacity(&self) -> usize {
        self.flits.capacity()
    }

    /// Flits queued in queue `s`.
    #[inline]
    pub(crate) fn len(&self, s: usize) -> usize {
        self.flits.len(s)
    }

    /// Returns `true` if queue `s` holds no flit.
    #[inline]
    pub(crate) fn is_empty(&self, s: usize) -> bool {
        self.flits.len(s) == 0
    }

    /// The packet currently owning queue `s` for enqueueing, if any.
    #[inline]
    pub(crate) fn owner(&self, s: usize) -> Option<PacketRef> {
        self.owner[s]
    }

    /// Returns `true` if `flit` may be pushed into queue `s` now: there
    /// is space, and either the queue is unowned and `flit` is a head,
    /// or it is owned by `flit`'s packet.
    #[inline]
    pub(crate) fn can_accept(&self, s: usize, flit: &ArenaFlit) -> bool {
        if self.flits.len(s) >= self.flits.capacity() {
            return false;
        }
        match self.owner[s] {
            None => flit.kind.is_head(),
            Some(owner) => owner == flit.pkt && !flit.kind.is_head(),
        }
    }

    /// Pushes `flit` into queue `s` if [`can_accept`](Self::can_accept)
    /// allows it, updating ownership (head claims, tail releases).
    /// Returns whether the flit was pushed; a refused flit changes
    /// nothing.
    #[inline]
    pub(crate) fn try_push(&mut self, s: usize, flit: ArenaFlit) -> bool {
        if !self.can_accept(s, &flit) {
            return false;
        }
        // Pushed before `owner` is written: the compiler cannot tell
        // that store from one to the ring cursors, so pushing after it
        // would load the length `can_accept` just read a second time.
        self.flits.push_back(s, flit);
        if flit.kind.is_head() {
            self.owner[s] = Some(flit.pkt);
        }
        if flit.kind.is_tail() {
            self.owner[s] = None;
        }
        true
    }

    /// Removes and returns the head flit of queue `s`.
    #[inline]
    pub(crate) fn pop(&mut self, s: usize) -> Option<ArenaFlit> {
        self.flits.pop_front(s)
    }

    /// Flits of queue `s`, head first.
    pub(crate) fn iter(&self, s: usize) -> impl Iterator<Item = &ArenaFlit> + '_ {
        self.flits.iter(s)
    }
}

/// Allocation held by an input buffer (or a source queue) for the
/// packet currently in flight.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct SlotRoute {
    /// Output slot id the packet's head claimed: a link VC queue or an
    /// ejection channel of the same router.
    pub(crate) out: usize,
    /// Packet the allocation belongs to (guards against stale state).
    pub(crate) packet: PacketRef,
}

/// Every input buffer of the network (one flit deep per VC in the
/// paper's node model, deeper for buffer-sizing ablations), with the
/// wormhole route of the packet currently traversing each.
#[derive(Clone, Debug)]
pub(crate) struct InputRings {
    /// Buffered flits with the cycle from which each may leave (the
    /// router pipeline delay counted from arrival).
    flits: Rings<(ArenaFlit, u64)>,
    /// Wormhole allocation per slot: set by the head flit, followed by
    /// body and tail flits, cleared when the tail leaves.
    route: Vec<Option<SlotRoute>>,
}

impl InputRings {
    /// Creates `slots` empty input buffers of `capacity` flits each.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or above [`MAX_RING_CAPACITY`].
    pub(crate) fn new(slots: usize, capacity: usize) -> Self {
        InputRings {
            flits: Rings::new(slots, capacity, (ArenaFlit::VACANT, 0)),
            route: vec![None; slots],
        }
    }

    /// Flits each buffer can hold.
    #[inline]
    pub(crate) fn capacity(&self) -> usize {
        self.flits.capacity()
    }

    /// Flits buffered in slot `s`, ready or not.
    #[inline]
    pub(crate) fn len(&self, s: usize) -> usize {
        self.flits.len(s)
    }

    /// Returns `true` if slot `s` can receive a flit from the link —
    /// the paper's signal-based flow control.
    #[inline]
    pub(crate) fn has_space(&self, s: usize) -> bool {
        self.flits.len(s) < self.flits.capacity()
    }

    /// Stores `flit`, which has just crossed the link into slot `s`,
    /// with one more hop counted; it becomes eligible for switch
    /// allocation at cycle `eligible_at` (arrival cycle plus the router
    /// pipeline delay). The cell is written field by field, so the
    /// stored flit is never assembled on the stack and reloaded whole.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full — the sender must check
    /// [`has_space`](Self::has_space) first.
    #[inline]
    pub(crate) fn receive(&mut self, s: usize, flit: ArenaFlit, eligible_at: u64) {
        assert!(self.has_space(s), "input buffer {s} overrun by {flit:?}");
        let (cell, at) = self.flits.push_back_cell(s);
        cell.pkt = flit.pkt;
        cell.kind = flit.kind;
        cell.hops = flit.hops + 1;
        *at = eligible_at;
    }

    /// The oldest flit of slot `s` if it has cleared the router
    /// pipeline by cycle `now`.
    #[inline]
    pub(crate) fn front_ready(&self, s: usize, now: u64) -> Option<ArenaFlit> {
        match self.flits.front(s) {
            Some(&(flit, at)) if at <= now => Some(flit),
            _ => None,
        }
    }

    /// Removes and returns the oldest flit of slot `s`, ready or not
    /// (the allocator checks [`front_ready`](Self::front_ready) first).
    #[inline]
    pub(crate) fn pop(&mut self, s: usize) -> Option<ArenaFlit> {
        self.flits.pop_front(s).map(|(flit, _)| flit)
    }

    /// Flits of slot `s`, oldest first, whether or not they have
    /// cleared the router pipeline yet.
    pub(crate) fn iter(&self, s: usize) -> impl Iterator<Item = &ArenaFlit> + '_ {
        self.flits.iter(s).map(|(flit, _)| flit)
    }

    /// Wormhole allocation of the packet crossing slot `s`, if any.
    #[inline]
    pub(crate) fn route(&self, s: usize) -> Option<SlotRoute> {
        self.route[s]
    }

    /// Sets (or, with `None`, clears) slot `s`'s wormhole allocation.
    #[inline]
    pub(crate) fn set_route(&mut self, s: usize, route: Option<SlotRoute>) {
        self.route[s] = route;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlitKind, PacketArena, PacketId};
    use noc_topology::NodeId;

    /// `flit` after one more link crossing, as an input buffer stores it.
    fn crossed(flit: ArenaFlit) -> ArenaFlit {
        ArenaFlit {
            hops: flit.hops + 1,
            ..flit
        }
    }

    /// Flit sequence of one `len`-flit packet, allocated in `arena`.
    fn packet(arena: &mut PacketArena, id: u64, len: usize) -> Vec<ArenaFlit> {
        let pkt = arena.alloc(PacketId::new(id), NodeId::new(0), NodeId::new(1), 0);
        (0..len)
            .map(|i| arena.flit(pkt, FlitKind::at(i, len)))
            .collect()
    }

    #[test]
    fn capacity_is_enforced() {
        let mut arena = PacketArena::new();
        let mut q = OutputRings::new(2, 3);
        let flits = packet(&mut arena, 0, 6);
        for f in &flits[..3] {
            assert!(q.try_push(1, *f));
        }
        assert!(!q.can_accept(1, &flits[3]));
        assert!(!q.try_push(1, flits[3]), "a full queue refuses");
        assert_eq!(q.len(1), 3);
        assert!(q.is_empty(0), "slots are independent");
        q.pop(1);
        assert!(q.can_accept(1, &flits[3]));
    }

    #[test]
    fn ownership_lifecycle() {
        let mut arena = PacketArena::new();
        let mut q = OutputRings::new(1, 8);
        let a = packet(&mut arena, 0, 3);
        let b = packet(&mut arena, 1, 3);
        assert!(q.try_push(0, a[0]));
        assert_eq!(q.owner(0), Some(a[0].pkt));
        assert!(!q.can_accept(0, &b[0]), "foreign head rejected mid-packet");
        assert!(!q.try_push(0, b[0]));
        assert!(q.try_push(0, a[1]));
        assert!(q.try_push(0, a[2]), "tail releases");
        assert_eq!(q.owner(0), None);
        assert!(q.can_accept(0, &b[0]), "new head accepted after tail");
        assert!(q.try_push(0, b[0]));
        assert_eq!(q.owner(0), Some(b[0].pkt));
    }

    #[test]
    fn body_without_head_rejected() {
        let mut arena = PacketArena::new();
        let q = OutputRings::new(1, 3);
        let a = packet(&mut arena, 0, 3);
        assert!(!q.can_accept(0, &a[1]), "body flit needs an owning head");
    }

    #[test]
    fn single_flit_packet_claims_and_releases_at_once() {
        let mut arena = PacketArena::new();
        let mut q = OutputRings::new(1, 3);
        let a = packet(&mut arena, 0, 1);
        assert!(q.try_push(0, a[0]));
        assert_eq!(q.owner(0), None);
        let b = packet(&mut arena, 1, 1);
        assert!(q.can_accept(0, &b[0]));
    }

    #[test]
    fn fifo_order_preserved() {
        let mut arena = PacketArena::new();
        let mut q = OutputRings::new(1, 6);
        let a = packet(&mut arena, 0, 3);
        for f in &a {
            assert!(q.try_push(0, *f));
        }
        assert_eq!(q.iter(0).next().unwrap().kind, a[0].kind);
        let kinds: Vec<_> = q.iter(0).map(|f| f.kind).collect();
        assert_eq!(kinds, a.iter().map(|f| f.kind).collect::<Vec<_>>());
        let drained: Vec<ArenaFlit> = std::iter::from_fn(|| q.pop(0)).collect();
        assert_eq!(drained, a);
        assert!(q.is_empty(0));
    }

    #[test]
    fn refused_push_changes_nothing() {
        let mut arena = PacketArena::new();
        let mut q = OutputRings::new(1, 1);
        let a = packet(&mut arena, 0, 3);
        assert!(q.try_push(0, a[0]));
        assert!(!q.try_push(0, a[1]), "full");
        assert_eq!(q.len(0), 1);
        assert_eq!(q.owner(0), Some(a[0].pkt));
        assert_eq!(q.iter(0).copied().collect::<Vec<_>>(), [a[0]]);
    }

    #[test]
    fn input_buffer_flow_control() {
        let mut arena = PacketArena::new();
        let mut buf = InputRings::new(2, 1);
        assert!(buf.has_space(0));
        assert_eq!(buf.len(0), 0);
        let a = packet(&mut arena, 0, 2);
        buf.receive(0, a[0], 0);
        assert!(!buf.has_space(0));
        assert!(buf.has_space(1), "slots are independent");
        assert_eq!(buf.len(0), 1);
        assert_eq!(buf.front_ready(0, 0), Some(crossed(a[0])));
        assert_eq!(buf.pop(0), Some(crossed(a[0])));
        assert!(buf.has_space(0));
        assert_eq!(buf.front_ready(0, 0), None);
        assert_eq!(buf.pop(0), None);
    }

    #[test]
    fn pipeline_delay_gates_eligibility() {
        let mut arena = PacketArena::new();
        let mut buf = InputRings::new(1, 1);
        let a = packet(&mut arena, 0, 2);
        buf.receive(0, a[0], 5);
        assert_eq!(buf.front_ready(0, 4), None, "not yet through the pipeline");
        assert_eq!(buf.len(0), 1, "flit still occupies the buffer");
        assert_eq!(buf.front_ready(0, 5), Some(crossed(a[0])));
    }

    #[test]
    fn deep_input_buffer_is_fifo() {
        let mut arena = PacketArena::new();
        let mut buf = InputRings::new(1, 3);
        let a = packet(&mut arena, 0, 3);
        for f in &a {
            buf.receive(0, *f, 0);
        }
        assert!(!buf.has_space(0));
        let a: Vec<ArenaFlit> = a.into_iter().map(crossed).collect();
        assert_eq!(buf.iter(0).copied().collect::<Vec<_>>(), a);
        let drained: Vec<ArenaFlit> = std::iter::from_fn(|| buf.pop(0)).collect();
        assert_eq!(drained, a);
    }

    #[test]
    #[should_panic(expected = "overrun")]
    fn input_buffer_overrun_panics() {
        let mut arena = PacketArena::new();
        let mut buf = InputRings::new(1, 1);
        let a = packet(&mut arena, 0, 2);
        buf.receive(0, a[0], 0);
        buf.receive(0, a[1], 0);
    }

    #[test]
    fn input_route_is_per_slot() {
        let mut arena = PacketArena::new();
        let mut buf = InputRings::new(2, 1);
        let a = packet(&mut arena, 0, 2);
        let route = SlotRoute {
            out: 7,
            packet: a[0].pkt,
        };
        buf.set_route(1, Some(route));
        assert_eq!(buf.route(0), None);
        assert_eq!(buf.route(1), Some(route));
        buf.set_route(1, None);
        assert_eq!(buf.route(1), None);
    }

    #[test]
    fn rings_wrap_around() {
        // Push and pop past the end of the storage stride many times:
        // order, length and the neighbouring slot must stay intact.
        let mut rings = Rings::new(3, 3, 0u32);
        rings.push_back(2, 99);
        let mut next = 0u32;
        let mut expect = std::collections::VecDeque::new();
        for round in 0..10u32 {
            while rings.len(1) < 3 {
                rings.push_back(1, next);
                expect.push_back(next);
                next += 1;
            }
            for _ in 0..=(round % 3) {
                assert_eq!(rings.pop_front(1), expect.pop_front());
            }
            assert_eq!(
                rings.iter(1).copied().collect::<Vec<_>>(),
                expect.iter().copied().collect::<Vec<_>>()
            );
            assert_eq!(rings.front(1), expect.front());
        }
        assert_eq!(rings.len(0), 0);
        assert_eq!(rings.iter(2).copied().collect::<Vec<_>>(), [99]);
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_capacity_input_buffer_rejected() {
        let _ = InputRings::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_capacity_rejected() {
        let _ = OutputRings::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn oversized_capacity_rejected() {
        let _ = OutputRings::new(1, MAX_RING_CAPACITY + 1);
    }
}
