//! The wormhole network simulation: the paper's node model (Figure 4)
//! replicated at every node of a topology and advanced cycle by cycle.
//!
//! # Node model
//!
//! Every router has, per link direction:
//!
//! * an **input buffer** per virtual channel (one flit deep by
//!   default);
//! * a set of **output VC queues** (three flits deep by default) — a
//!   pair on Ring/Spidergon links (dateline deadlock avoidance), a
//!   single one on mesh links;
//!
//! plus a local **source queue** (the NI injection side, fed by a
//! Poisson process) and a local **ejection queue** drained by the IP
//! sink at a configurable rate (one flit per cycle by default — the
//! "destination node saturation" bottleneck of the hot-spot figures).
//!
//! The source queue is packet-granular: it holds one [`QueuedPacket`]
//! descriptor per waiting packet, and the front packet's flits are
//! derived from a cursor as they are injected. Past saturation the
//! source queues hold most of the traffic, so a backlogged packet costs
//! one small descriptor instead of `packet_len` flits and an arena
//! slot.
//!
//! # Cycle phases
//!
//! 1. **generate** — move this cycle's packet arrivals from the arrival
//!    schedule into source queues;
//! 2. **consume** — sinks pop up to `sink_rate` flits from ejection
//!    queues (packet latency recorded at tail consumption);
//! 3. **link transfer** — per unidirectional link, one flit moves from
//!    the sender's output VC queue to the receiver's input buffer if
//!    the buffer has space (signal-based flow control), VCs arbitrated
//!    round-robin;
//! 4. **switch allocation** — per router, input buffers and the source
//!    queue compete for output queues: head flits are routed
//!    ([`noc_routing::RoutingAlgorithm`]) and claim a (port, VC), body
//!    and tail flits follow the wormhole allocation; one write per
//!    output port per cycle, inputs served round-robin.
//!
//! # Buffer storage
//!
//! Every buffer lives in one of two network-wide arrays of fixed-stride
//! rings ([`crate::buffer`]), addressed by a dense **slot id**: router
//! `v`'s link `(port, vc)` is slot `base[v] + port * vcs + vc`, and its
//! `sink_rate` ejection channels follow as `base[v] + ports * vcs + k`.
//! Output queues and ejection channels share the output array (with
//! their wormhole owners beside them); input buffers use the same ids in
//! the input array (with the wormhole route of each). Precomputed tables
//! map a slot id to its `(port, vc)`, a link slot to where its flits
//! land (the input slot, the receiving router and that buffer's bit in
//! the router's input-occupancy word), and an input slot to its one
//! feeding link VC. A link's VC round-robin pointer sits at the slot id
//! of its VC 0. Link traversals are counted per link slot only; a run
//! sums each link's VCs into
//! [`SimStats::per_link`](crate::SimStats::per_link) and all of them into
//! [`SimStats::link_traversals`](crate::SimStats::link_traversals).
//!
//! # Switch allocation
//!
//! A router's allocation slots are the source queue (slot 0) and its
//! input buffers (slot `1 + d * vcs + vc`). Each cycle the router serves
//! them round-robin from slot `cycle % slots`, taken once per cycle for
//! each distinct slot count in the network (a mesh has routers with 3, 4
//! and 5 slots, a spidergon only 7). The order is walked over the set
//! bits of the router's occupied-slot mask: first those at or above the
//! start, then those below it, each ascending. Dense mode walks every
//! slot.
//!
//! Every flit enters an output queue or ejection channel through one
//! primitive, `place`, which offers it to one queue and answers
//! `Placed` (pushed: counters updated, the crossbar port's write spent,
//! and a tail's release handed on to the heads waiting for it),
//! `PortBusy` (that port was already written this cycle) or `Refused`
//! (the queue is full or owned by another packet).
//!
//! Two paths lead to it. The **one-route path**, `place_one`, serves
//! every flit that has exactly one output queue: body and tail flits,
//! which follow their packet's wormhole allocation, and heads routed by
//! the precompiled table. It calls `place` once and parks the slot on
//! that queue if it was refused. The **candidate-list path**,
//! `place_first`, serves only heads routed by an adaptive algorithm: it
//! tries their candidates in preference order until one is placed, and
//! parks the slot on all of them if every one refused. A head bound for
//! the sink checks the ejection port's write budget before it scans the
//! ejection channels for one to claim: a spent port fails every channel
//! alike.
//!
//! The wormhole allocation of an input buffer (or of the source queue)
//! is written by its packet's head and cleared by its tail; body flits
//! only read it.
//!
//! # Sparse active-set core
//!
//! Phases 2–4 walk bitsets of routers instead of all nodes, one bit
//! per router in `u64` words. A router's bit in the **active set** is
//! set exactly while it holds at least one flit in any of its queues
//! (source and ejection flits are counted per node, and input buffers
//! and output queues have a bit each in the router's occupancy words):
//! the flit that makes a router non-empty sets it at once, and it is
//! cleared at the end of the cycle in which the router empties. A
//! flitless router is a proven no-op in every phase — its queues are
//! empty and any lingering wormhole allocation belongs to a packet
//! whose remaining flits are still upstream — so skipping it is
//! bit-exact. Consumption walks the smaller **ejecting set**, the
//! routers holding ejected flits, and link transfer walks each router's
//! non-empty, unparked output VCs link by link. Set bits are walked
//! word by word, lowest first, which is ascending router order, so phase
//! side effects (probe events, audit checks, statistics) fire in the
//! same order as a dense `0..n` scan.
//! Round-robin pointers that previously advanced unconditionally every
//! cycle (`eject_rr`, `rr_offset`) are derived from the cycle counter
//! instead of stored, so an idle router needs no per-cycle pointer
//! maintenance either. When the network holds no flits at all,
//! [`Simulation::run`] fast-forwards the clock to the next scheduled
//! arrival: it skips the four phases of each empty cycle, which would
//! do nothing, and still calls [`Probe::on_cycle_end`] for that cycle,
//! so a skipped cycle looks the same to every probe as a stepped one.
//!
//! Within an active router the core is **wake-on-change**. Past
//! saturation most attempts fail on a full or foreign-owned queue and
//! would fail again, unchanged, every cycle until that queue changes; a
//! failed attempt changes no state, so skipping the repeats is
//! bit-exact:
//!
//! * an allocation slot (bit 0 the source queue, bit `1 + d * vcs + vc`
//!   an input buffer) whose attempt failed on output-queue state is set
//!   in the router's `blocked` mask, and its bit is filed with every
//!   queue the attempt could have used — all candidates of an adaptive
//!   head, every ejection channel for a head bound for the sink (it
//!   takes the first that accepts it). Each queue files it by what
//!   refused it. A head refused by a queue another packet owns goes into
//!   that queue's `release_waiters`: only the owner's tail push makes the
//!   queue claimable, and it clears them from `blocked` if the queue
//!   still has space, or moves them into `waiters` if the tail filled
//!   it. Everything else waits on a full queue (a head on a full unowned
//!   one, a body or tail flit on its own packet's) and goes into its
//!   `waiters`, which the queue's next pop clears from `blocked`. Head
//!   and body pushes wake nobody;
//! * a link VC whose downstream input buffer was full is set in the
//!   router's `link_blocked` mask until that buffer pops. Each input
//!   buffer has exactly one feeding VC, so the precomputed upstream map
//!   stands in for a waiter list.
//!
//! Two failures pass within the cycle and never park: a crossbar port
//! already written this cycle, and an input flit still in the router
//! pipeline (`router_delay`). `blocked` is read live at each slot, since
//! a push earlier in the same turn (a tail releasing an ejection
//! channel, with `sink_rate > 1`) can wake a slot the dense scan still
//! tries this cycle. A spurious wake costs one more failing attempt; a
//! missed one would change the results.
//!
//! `SimConfig::sparse` disables all of this: the dense scan keeps every
//! router's active bit set, visits every router, link and slot every
//! cycle, parks nothing and keeps no skip, so it stays an independent
//! oracle for the differential
//! conformance checks; both modes produce bit-identical results.
//!
//! # Deadlock watchdog
//!
//! A step reports [`SimError::Stalled`] once no flit has moved for
//! `max(router_delay, 1)` consecutive cycles while flits are in the
//! network. The wait is exact: a flit that crosses a link at cycle `t`
//! is eligible for switch allocation at `t + router_delay`, and one
//! placed in an output queue or ejection channel can leave it the next
//! cycle, so after that wait every flit is eligible. An idle cycle in
//! which every flit is eligible means each waits on a full or
//! foreign-owned buffer or queue that only another stuck flit can free;
//! the cycle changed no state, so every later cycle fails the same way,
//! and new packets only add flits. A run that is not deadlocked never
//! idles for `max(router_delay, 1)` cycles with flits in the network.

use crate::arrivals::Arrivals;
use crate::buffer::{InputRings, OutputRings, SlotRoute};
use crate::flit::{ArenaFlit, FlitKind, PacketArena, PacketRef};
use crate::probe::{NetworkShape, NullProbe, Probe};
use crate::stats::{LatencyTally, LinkLoad};
use crate::{PacketId, SimConfig, SimError, SimStats};
use noc_routing::{CompiledRoutes, RoutingAlgorithm};
use noc_topology::{Direction, NodeId, Topology};
use noc_traffic::{Trace, TrafficPattern};
use std::collections::VecDeque;
use std::ops::Deref;

/// Sentinel in a node's direction→port map for directions the node has
/// no link in.
const NO_PORT: u8 = u8::MAX;

/// Per-node router and network-interface state (the buffers
/// themselves live in the simulation's network-wide rings).
///
/// Crate-visible so the [`Auditor`](crate::Auditor) can read (never
/// write) the node's layout when re-deriving occupancy and wormhole
/// structure.
#[derive(Debug)]
pub(crate) struct NodeState {
    /// Link directions at this node (canonical order).
    pub(crate) dirs: Vec<Direction>,
    /// Per link direction: (peer node index, peer's input-port index).
    pub(crate) peer: Vec<(usize, usize)>,
    /// First slot id of this router: link `(port, vc)` is slot
    /// `base + port * vcs + vc`, ejection channel `k` (one per flit of
    /// sink bandwidth) is slot `base + dirs.len() * vcs + k`.
    pub(crate) base: usize,
    /// Packets awaiting injection, oldest first, one descriptor each.
    source_queue: VecDeque<QueuedPacket>,
    /// Flits of the front packet already injected; the next flit to
    /// inject is [`FlitKind::at`] this position.
    source_sent: usize,
    /// Arena handle of the front packet, taken at its first injection
    /// attempt; `None` until then and again once its tail has left.
    source_pkt: Option<PacketRef>,
    /// Wormhole allocation of the packet currently being injected.
    source_route: Option<SlotRoute>,
    /// Port index per [`Direction::index`], [`NO_PORT`] where absent —
    /// lets the compiled-route fast path turn a direction into a port
    /// without scanning `dirs`.
    port_of: [u8; Direction::ALL.len()],
}

/// A complete wormhole NoC simulation: topology + routing + traffic +
/// configuration, advanced in synchronous cycles, with an observation
/// probe attached.
///
/// The type parameter `P` is the probe ([`crate::probe`]). It defaults
/// to [`NullProbe`], whose empty inlined hooks monomorphize away — the
/// plain simulator pays nothing for the instrumentation points. Attach
/// a [`Recorder`](crate::Recorder) or an [`Auditor`](crate::Auditor)
/// with [`with_probe`](Simulation::with_probe).
///
/// The probe sits beside the [`Network`] it observes, not inside it, so
/// the cycle phases can hand it a read-only view of the network while
/// they advance it. A `Simulation` dereferences to that `Network` for
/// every state accessor ([`cycle`](Network::cycle),
/// [`occupancy`](Network::occupancy), ...).
///
/// # Examples
///
/// ```
/// use noc_routing::SpidergonAcrossFirst;
/// use noc_sim::{SimConfig, Simulation};
/// use noc_topology::Spidergon;
/// use noc_traffic::UniformRandom;
///
/// let topo = Spidergon::new(8)?;
/// let routing = SpidergonAcrossFirst::new(&topo);
/// let pattern = UniformRandom::new(8)?;
/// let config = SimConfig::builder()
///     .injection_rate(0.1)
///     .warmup_cycles(200)
///     .measure_cycles(2_000)
///     .build()?;
/// let mut sim = Simulation::new(Box::new(topo), Box::new(routing), Box::new(pattern), config)?;
/// let stats = sim.run()?;
/// assert!(stats.packets_delivered > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Simulation<P: Probe = NullProbe> {
    net: Network,
    probe: P,
}

/// The state of a simulated network: routers, buffers, packets in
/// flight, the clock and the statistics gathered so far.
///
/// Probe hooks receive it read-only; a [`Simulation`] dereferences to
/// it.
#[derive(Debug)]
pub struct Network {
    pub(crate) topo: Box<dyn Topology>,
    pub(crate) routing: Box<dyn RoutingAlgorithm>,
    /// Precompiled next-hop table, present when the algorithm offers one
    /// candidate per node pair ([`CompiledRoutes::compile`]). `None`
    /// falls back to the dynamic algorithm (adaptive routing).
    compiled: Option<CompiledRoutes>,
    pub(crate) config: SimConfig,
    pub(crate) vcs: usize,
    /// Nodes the traffic pattern (or trace) generates packets at.
    pub(crate) num_sources: usize,
    pub(crate) nodes: Vec<NodeState>,
    /// Every output VC queue and ejection channel, by slot id.
    pub(crate) outputs: OutputRings,
    /// Every input buffer, by slot id (ejection slot ids stay unused).
    pub(crate) inputs: InputRings,
    /// Slot id → `(port, vc)` within its router, the port being
    /// `dirs.len()` for ejection channels — precomputed so the hot
    /// loops never divide by the VC count (a real `div` instruction,
    /// since `vcs` is a runtime value).
    slot_port: Vec<(u8, u8)>,
    /// Link slot id → where a flit crossing the link lands.
    link_dst: Vec<LinkDst>,
    /// Per link, at the slot id of its VC 0: the VC round-robin pointer
    /// for link arbitration. Stored (not cycle-derived) because it only
    /// advances on actual transfers.
    link_rr: Vec<u8>,
    /// Input slot id → `(node, out_slots bit)` of the one link VC
    /// feeding it, whose [`link_blocked`](Self::link_blocked) bit a pop
    /// clears.
    upstream: Vec<(u32, u32)>,
    /// Descriptors of the packets with a flit inside routers or being
    /// injected; buffers hold [`ArenaFlit`] handles into it. Packets
    /// still waiting in a source queue take no slot.
    pub(crate) arena: PacketArena,
    /// When packets are created and where they go.
    arrivals: Arrivals,
    cycle: u64,
    next_packet: u64,
    /// Flits currently inside routers (not in source queues).
    in_network: u64,
    /// Flits currently waiting in source queues, maintained
    /// incrementally (generation adds, injection subtracts) so
    /// [`source_backlog`](Self::source_backlog) is O(1) and consistent
    /// with [`in_network`](Self::flits_in_network) at every phase
    /// boundary of a cycle.
    source_flits: u64,
    /// Lifetime totals (warmup included), for conservation checks.
    total_flits_generated: u64,
    total_flits_consumed: u64,
    /// Consecutive cycles with flits in the network and no move.
    idle_cycles: u64,
    measuring: bool,
    stats: SimStats,
    /// Flits per link slot during the window (ejection slots stay 0);
    /// [`run`](Self::run) sums each link's VCs into `per_link`.
    link_counters: Vec<u64>,
    /// Packet latencies during the window, counted densely;
    /// [`run`](Self::run) folds them into `latency`.
    latency: LatencyTally,
    /// Reusable buffer for routing candidate directions (hot path:
    /// filled and drained every head-flit allocation attempt).
    dir_scratch: Vec<Direction>,
    /// Reusable buffer for the candidate output slots of a head routed
    /// by the dynamic algorithm.
    route_scratch: Vec<usize>,
    /// Distinct allocation-slot counts over all routers: switch
    /// allocation takes `cycle % count` once per cycle for each.
    alloc_slot_counts: Vec<usize>,
    /// The active set: router `v` is bit `v % 64` of word `v / 64`, and
    /// bits past the last router stay 0. Set at once by
    /// [`activate`](Self::activate); at every cycle boundary bit `v` is
    /// set ⟺ [`holds_flits`](Self::holds_flits)`(v)`. Dense mode sets
    /// every router's bit for good.
    active: Vec<u64>,
    /// The ejecting set, laid out like `active`: bit `v` set ⟺
    /// `node_flits[v].eject > 0`. Sparse consumption walks it.
    ejecting: Vec<u64>,
    /// Source-queue and ejection flits at each node, maintained
    /// incrementally as flits enter and leave those queues. With
    /// `in_slots` and `out_slots` they say whether a router holds any
    /// flit, which clears its active bit.
    node_flits: Vec<NodeFlits>,
    /// Σ over stepped cycles of the active-set size; with the cycle
    /// count this yields [`active_router_ratio`](Self::active_router_ratio).
    active_node_cycles: u64,
    /// Bit `d * vcs + vc` set ⟺ the output queue of `(v, d, vc)` is
    /// non-empty. Maintained in every mode; only the sparse phase
    /// loops consult it (skipping an empty queue is dense-identical).
    out_slots: Vec<u32>,
    /// Bit `d * vcs + vc` set ⟺ the input buffer of `(v, d, vc)` is
    /// non-empty (ready or not) — forward allocation slot `k` is bit
    /// `k - 1`, so switch allocation tests a slot with one shift. Same
    /// maintenance contract as `out_slots`.
    in_slots: Vec<u32>,
    /// Bit `k` set ⟺ allocation slot `k` of the router (0 = source
    /// queue, `1 + d * vcs + vc` = input buffer) is parked: its last
    /// attempt failed on the state of output queues, and none of them
    /// has changed since in a way that could let it succeed. Sparse
    /// mode only.
    blocked: Vec<u64>,
    /// Per output slot id: the allocation slots of its router parked
    /// on it while it was full (bit layout of `blocked`), woken by its
    /// next pop.
    waiters: Vec<u64>,
    /// Per output slot id: the heads of its router parked on it while
    /// another packet owned it (bit layout of `blocked`). The owner's
    /// tail push wakes them if the queue still has space, and otherwise
    /// moves them into [`waiters`](Self::waiters).
    release_waiters: Vec<u64>,
    /// Bit `d * vcs + vc` set ⟺ the link VC `(v, d, vc)` found its
    /// downstream input buffer full and that buffer has not popped
    /// since. Sparse mode only.
    link_blocked: Vec<u32>,
}

/// Per-node flit counts of the two buffer classes that no per-buffer
/// occupancy word covers: input buffers and output queues have a bit
/// each in `in_slots` and `out_slots` instead.
#[derive(Clone, Copy, Default, Debug)]
struct NodeFlits {
    /// Flits waiting in the source (injection) queue.
    source: u32,
    /// Flits held in ejection queues.
    eject: u32,
}

/// The set bits of `word`, lowest first.
#[inline]
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

/// Upper bound on ports per router: every non-local [`Direction`] plus
/// the ejection port — lets switch allocation keep its per-port write
/// budget in a stack array instead of a per-cycle heap allocation.
const MAX_PORTS: usize = Direction::ALL.len() + 1;

/// Upper bound on allocation slots per router: the source queue plus
/// one per input VC, whose bits fill the `u32` occupancy word.
const MAX_ALLOC_SLOTS: usize = 1 + u32::BITS as usize;

/// Where a flit crossing a link lands, by link slot id.
#[derive(Clone, Copy, Debug)]
struct LinkDst {
    /// Slot id of the receiving input buffer.
    input: u32,
    /// The receiving router.
    node: u32,
    /// The input buffer's bit in the receiver's `in_slots` word.
    bit: u32,
}

/// Outcome of offering a flit to one output queue
/// ([`Network::place`]).
#[derive(Clone, Copy, Debug)]
enum Placement {
    /// The flit was pushed.
    Placed,
    /// The queue's crossbar port was already written this cycle: a
    /// transient failure that parks nothing.
    PortBusy,
    /// The queue refused the flit on its own state (full, or owned by
    /// another packet): retrying is pointless until it changes.
    Refused,
}

/// A generated packet waiting in its source queue. Its arena slot is
/// taken at its first injection attempt and its flits are derived from
/// the queue's cursor, so a backlogged packet costs only this
/// descriptor.
#[derive(Clone, Copy, Debug)]
struct QueuedPacket {
    id: PacketId,
    dst: NodeId,
    /// Cycle at which the packet was generated.
    created: u64,
}

/// Snapshot of flit occupancy across the network's buffer classes.
///
/// Produced by [`Network::occupancy`]; the sum of the router-side
/// fields equals [`Network::flits_in_network`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Occupancy {
    /// Flits waiting in source (injection) queues.
    pub source_flits: u64,
    /// Flits held in input buffers.
    pub input_flits: u64,
    /// Flits held in output VC queues.
    pub output_flits: u64,
    /// Flits held in ejection queues.
    pub eject_flits: u64,
}

impl Occupancy {
    /// Flits inside routers (everything except source queues).
    pub fn in_network(&self) -> u64 {
        self.input_flits + self.output_flits + self.eject_flits
    }
}

impl Simulation {
    /// Builds a simulation over `topology` with `routing`, `pattern`
    /// and `config`.
    ///
    /// The number of virtual channels per link is taken from
    /// [`RoutingAlgorithm::num_vcs_required`] (a pair on ring-like
    /// topologies, one on meshes), matching the paper's node model.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NodeCountMismatch`] if the traffic pattern
    /// covers a different node count than the topology, and
    /// [`SimError::InvalidConfig`] if `config` fails
    /// [`SimConfig::validate`] or its sources expect more than
    /// [`MAX_EXPECTED_FLITS`](crate::MAX_EXPECTED_FLITS) generated
    /// flits.
    pub fn new(
        topology: Box<dyn Topology>,
        routing: Box<dyn RoutingAlgorithm>,
        pattern: Box<dyn TrafficPattern>,
        config: SimConfig,
    ) -> Result<Self, SimError> {
        Simulation::with_probe(topology, routing, pattern, config, NullProbe)
    }
}

impl<P: Probe> Simulation<P> {
    /// Builds a simulation like [`Simulation::new`] with an observation
    /// probe attached ([`crate::probe`]).
    ///
    /// The probe sees the assembled network once
    /// ([`Probe::on_attach`]) and every lifecycle hook afterwards; read
    /// it back with [`probe`](Self::probe) or
    /// [`into_probe`](Self::into_probe) after running. Probes only
    /// observe — a probed run yields bit-identical [`SimStats`] to an
    /// unprobed run with the same seed.
    ///
    /// # Errors
    ///
    /// See [`Simulation::new`].
    pub fn with_probe(
        topology: Box<dyn Topology>,
        routing: Box<dyn RoutingAlgorithm>,
        pattern: Box<dyn TrafficPattern>,
        config: SimConfig,
        probe: P,
    ) -> Result<Self, SimError> {
        if pattern.num_nodes() != topology.num_nodes() {
            return Err(SimError::NodeCountMismatch {
                topology: topology.num_nodes(),
                pattern: pattern.num_nodes(),
            });
        }
        config.validate()?;
        let num_sources = pattern.sources().len();
        config.check_expected_flits(num_sources)?;
        let arrivals = Arrivals::stochastic(pattern, &config);
        let net = Network::assemble(topology, routing, config, arrivals, num_sources);
        Ok(Simulation::attach(net, probe))
    }

    /// Builds a **trace-replay** simulation with `probe` attached:
    /// packets are injected exactly as listed in `trace` (paper future
    /// work: application traffic), with no stochastic sources.
    ///
    /// The injection-rate and injection-process configuration fields
    /// are ignored in this mode.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidTrace`] if the trace addresses nodes
    /// outside the topology.
    pub fn with_trace(
        topology: Box<dyn Topology>,
        routing: Box<dyn RoutingAlgorithm>,
        trace: &Trace,
        config: SimConfig,
        probe: P,
    ) -> Result<Self, SimError> {
        if trace.num_nodes() != topology.num_nodes() {
            return Err(SimError::InvalidTrace {
                reason: format!(
                    "trace covers {} nodes but topology has {}",
                    trace.num_nodes(),
                    topology.num_nodes()
                ),
            });
        }
        config.validate()?;
        let num_sources = trace.sources().len();
        let net = Network::assemble(
            topology,
            routing,
            config,
            Arrivals::trace(trace),
            num_sources,
        );
        Ok(Simulation::attach(net, probe))
    }

    fn attach(net: Network, mut probe: P) -> Self {
        probe.on_attach(&net);
        Simulation { net, probe }
    }

    /// The attached observation probe.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Consumes the simulation and returns its probe (a
    /// [`Recorder`](crate::Recorder) holding the captured trace, an
    /// [`Auditor`](crate::Auditor) holding its report).
    pub fn into_probe(self) -> P {
        self.probe
    }

    /// Runs warmup plus measurement and returns the collected
    /// statistics.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stalled`] if the deadlock watchdog fires.
    pub fn run(&mut self) -> Result<SimStats, SimError> {
        self.net.run(&mut self.probe)
    }

    /// Advances the simulation by one cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stalled`] if no flit has moved for the
    /// configured threshold while flits are in flight.
    pub fn step(&mut self) -> Result<(), SimError> {
        self.net.step(&mut self.probe)
    }
}

impl<P: Probe> Deref for Simulation<P> {
    type Target = Network;

    fn deref(&self) -> &Network {
        &self.net
    }
}

// The phase methods are generic over the probe, so they are compiled in
// the crate that runs the simulation; the non-generic helpers they call
// every cycle or every allocation attempt are `#[inline]` so they can
// still be inlined there.
impl Network {
    /// Builds the network around `arrivals` from a validated `config`.
    fn assemble(
        topology: Box<dyn Topology>,
        routing: Box<dyn RoutingAlgorithm>,
        config: SimConfig,
        arrivals: Arrivals,
        num_sources: usize,
    ) -> Network {
        let vcs = routing.num_vcs_required().max(1);
        let n = topology.num_nodes();
        let mut nodes = Vec::with_capacity(n);
        let mut slots = 0;
        for v in topology.node_ids() {
            let dirs = topology.directions(v);
            assert!(
                dirs.len() < MAX_PORTS,
                "router at {v} has {} link ports, more than any known topology",
                dirs.len()
            );
            // The per-router input-occupancy word keeps one bit per
            // forward slot (port, VC).
            assert!(
                dirs.len() * vcs <= u32::BITS as usize,
                "router at {v} has {} forward slots, more than the occupancy word holds",
                dirs.len() * vcs
            );
            let peer = dirs
                .iter()
                .map(|&d| {
                    let u = topology.neighbor(v, d).expect("listed direction");
                    let back = d.opposite().expect("link direction");
                    let u_dirs = topology.directions(u);
                    let idx = u_dirs
                        .iter()
                        .position(|&ud| ud == back)
                        .expect("symmetric link");
                    (u.index(), idx)
                })
                .collect();
            let mut port_of = [NO_PORT; Direction::ALL.len()];
            for (p, &d) in dirs.iter().enumerate() {
                port_of[d.index()] = p as u8;
            }
            let base = slots;
            slots += dirs.len() * vcs + config.sink_rate;
            nodes.push(NodeState {
                peer,
                base,
                source_queue: VecDeque::new(),
                source_sent: 0,
                source_pkt: None,
                source_route: None,
                port_of,
                dirs,
            });
        }
        // Slot tables: `(port, vc)` per slot, and for link slots the
        // input buffer they feed and, inversely, its single feeder.
        let mut slot_port = Vec::with_capacity(slots);
        let unlinked = LinkDst {
            input: u32::MAX,
            node: u32::MAX,
            bit: 0,
        };
        let mut link_dst = vec![unlinked; slots];
        let mut upstream = vec![(u32::MAX, 0); slots];
        let slot_id = |id: usize| u32::try_from(id).expect("slot ids fit in u32");
        for (v, node) in nodes.iter().enumerate() {
            for (d, &(u, up)) in node.peer.iter().enumerate() {
                for vc in 0..vcs {
                    slot_port.push((d as u8, vc as u8));
                    let s = node.base + d * vcs + vc;
                    let t = nodes[u].base + up * vcs + vc;
                    link_dst[s] = LinkDst {
                        input: slot_id(t),
                        node: slot_id(u),
                        bit: 1 << (up * vcs + vc),
                    };
                    upstream[t] = (slot_id(v), 1 << (d * vcs + vc));
                }
            }
            // `sink_rate <= MAX_SINK_RATE` (validated) fits the byte.
            slot_port.extend((0..config.sink_rate).map(|k| (node.dirs.len() as u8, k as u8)));
        }

        let mut alloc_slot_counts: Vec<usize> =
            nodes.iter().map(|node| 1 + node.dirs.len() * vcs).collect();
        alloc_slot_counts.sort_unstable();
        alloc_slot_counts.dedup();

        let compiled = CompiledRoutes::compile(routing.as_ref(), topology.as_ref());
        // Dense mode keeps every router permanently active; sparse mode
        // starts empty (no flits anywhere yet).
        let words = n.div_ceil(64);
        let mut active = vec![0u64; words];
        if !config.sparse {
            (0..n).for_each(|v| active[v / 64] |= 1 << (v % 64));
        }

        Network {
            topo: topology,
            routing,
            compiled,
            vcs,
            num_sources,
            nodes,
            outputs: OutputRings::new(slots, config.output_buffer_capacity),
            inputs: InputRings::new(slots, config.input_buffer_capacity),
            slot_port,
            link_dst,
            link_rr: vec![0; slots],
            upstream,
            arena: PacketArena::new(),
            arrivals,
            cycle: 0,
            next_packet: 0,
            in_network: 0,
            source_flits: 0,
            total_flits_generated: 0,
            total_flits_consumed: 0,
            idle_cycles: 0,
            measuring: false,
            stats: SimStats::default(),
            link_counters: Vec::new(),
            latency: LatencyTally::default(),
            dir_scratch: Vec::new(),
            route_scratch: Vec::new(),
            alloc_slot_counts,
            active,
            ejecting: vec![0; words],
            node_flits: vec![NodeFlits::default(); n],
            active_node_cycles: 0,
            out_slots: vec![0; n],
            in_slots: vec![0; n],
            blocked: vec![0; n],
            waiters: vec![0; slots],
            release_waiters: vec![0; slots],
            link_blocked: vec![0; n],
            config,
        }
    }

    /// The static description of the network (what a
    /// [`Recorder`](crate::Recorder) keeps at attach time).
    pub(crate) fn shape(&self) -> NetworkShape {
        NetworkShape {
            num_nodes: self.nodes.len(),
            vcs: self.vcs,
            packet_len: self.config.packet_len,
            router_delay: self.config.router_delay,
            warmup_cycles: self.config.warmup_cycles,
            sink_channels: self.config.sink_rate,
            dirs: self.nodes.iter().map(|node| node.dirs.clone()).collect(),
            peer: self.nodes.iter().map(|node| node.peer.clone()).collect(),
        }
    }

    /// The simulated topology.
    pub fn topology(&self) -> &dyn Topology {
        self.topo.as_ref()
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The configuration this simulation runs with.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Number of flits currently inside routers (excluding source
    /// queues).
    pub fn flits_in_network(&self) -> u64 {
        self.in_network
    }

    /// A summary of where flits currently sit inside the network.
    pub fn occupancy(&self) -> Occupancy {
        let mut occ = Occupancy::default();
        let len = self.config.packet_len;
        for (v, node) in self.nodes.iter().enumerate() {
            occ.source_flits += (node.source_queue.len() * len - node.source_sent) as u64;
            let (links, ejects) = (node.base..self.eject_slot(v, 0), self.eject_slots(v));
            for s in links {
                occ.input_flits += self.inputs.len(s) as u64;
                occ.output_flits += self.outputs.len(s) as u64;
            }
            for s in ejects {
                occ.eject_flits += self.outputs.len(s) as u64;
            }
        }
        occ
    }

    /// Slot id of link `(port, vc)` at router `v`.
    #[inline]
    pub(crate) fn link_slot(&self, v: usize, port: usize, vc: usize) -> usize {
        self.nodes[v].base + port * self.vcs + vc
    }

    /// Slot id of ejection channel `k` at router `v`.
    #[inline]
    pub(crate) fn eject_slot(&self, v: usize, k: usize) -> usize {
        self.nodes[v].base + self.nodes[v].dirs.len() * self.vcs + k
    }

    /// Number of slot ids (every router's link and ejection slots).
    #[inline]
    pub(crate) fn num_slots(&self) -> usize {
        self.slot_port.len()
    }

    /// Slot ids of router `v`'s ejection channels.
    #[inline]
    pub(crate) fn eject_slots(&self, v: usize) -> std::ops::Range<usize> {
        let first = self.eject_slot(v, 0);
        first..first + self.config.sink_rate
    }

    /// Lifetime total of flits generated by sources (warmup included).
    pub fn total_flits_generated(&self) -> u64 {
        self.total_flits_generated
    }

    /// Lifetime total of flits consumed by sinks (warmup included).
    pub fn total_flits_consumed(&self) -> u64 {
        self.total_flits_consumed
    }

    /// Total flits waiting in source queues.
    ///
    /// Maintained incrementally alongside
    /// [`flits_in_network`](Self::flits_in_network): generation adds,
    /// injection subtracts, in the same phase as the queue mutation —
    /// so the conservation identity `generated = consumed + backlog +
    /// in-network` holds exactly at every cycle boundary (checked by
    /// the audit layer each audited cycle).
    pub fn source_backlog(&self) -> u64 {
        self.source_flits
    }

    /// Mean fraction of routers touched per cycle since the start of
    /// the run: `Σ active-set size / (cycles × routers)`.
    ///
    /// Fast-forwarded cycles count as zero active routers; a dense run
    /// reports exactly `1.0`. Returns `0.0` before the first cycle.
    pub fn active_router_ratio(&self) -> f64 {
        let denom = self.cycle.saturating_mul(self.nodes.len() as u64);
        if denom == 0 {
            0.0
        } else {
            self.active_node_cycles as f64 / denom as f64
        }
    }

    /// Whether head flits are routed through a precompiled next-hop
    /// table (algorithms with one candidate per node pair, see
    /// [`CompiledRoutes::compile`]) rather than by invoking the routing
    /// algorithm per flit.
    pub fn uses_compiled_routes(&self) -> bool {
        self.compiled.is_some()
    }

    fn run<P: Probe>(&mut self, probe: &mut P) -> Result<SimStats, SimError> {
        let total = self.config.total_cycles();
        while self.cycle < total {
            if self.cycle == self.config.warmup_cycles {
                self.begin_measurement();
            }
            if self.try_fast_forward(probe, total) {
                continue;
            }
            self.step(probe)?;
        }
        let mut stats = self.stats.clone();
        stats.measured_cycles = self.config.measure_cycles;
        stats.num_nodes = self.topo.num_nodes();
        stats.num_sources = self.num_sources;
        stats.backlog_flits = self.source_backlog();
        if self.measuring {
            stats.latency = self.latency.summary();
            stats.link_traversals = self.link_counters.iter().sum();
            let (vcs, counters) = (self.vcs, &self.link_counters);
            stats.per_link = self
                .nodes
                .iter()
                .enumerate()
                .flat_map(|(v, node)| {
                    node.dirs.iter().enumerate().map(move |(d, &direction)| {
                        let first = node.base + d * vcs;
                        LinkLoad {
                            from: NodeId::new(v),
                            direction,
                            flits: counters[first..first + vcs].iter().sum(),
                        }
                    })
                })
                .collect();
        }
        Ok(stats)
    }

    /// Skips the phases of a provably empty stretch: with no flit
    /// anywhere (network or source queues), generation, consumption,
    /// link transfer and switch allocation do nothing in every cycle
    /// before the next scheduled arrival. Each skipped cycle still calls
    /// [`Probe::on_cycle_end`] at its own cycle number, exactly as
    /// [`step`](Self::step) would. Never crosses the warmup boundary,
    /// so measurement starts on time.
    ///
    /// Returns `true` if the clock advanced.
    fn try_fast_forward<P: Probe>(&mut self, probe: &mut P, total: u64) -> bool {
        if !self.config.sparse || self.in_network != 0 || self.source_flits != 0 {
            return false;
        }
        let mut target = self.arrivals.next_cycle().map_or(total, |c| c.min(total));
        if self.cycle < self.config.warmup_cycles {
            target = target.min(self.config.warmup_cycles);
        }
        if target <= self.cycle {
            return false;
        }
        while self.cycle < target {
            probe.on_cycle_end(self);
            self.cycle += 1;
        }
        true
    }

    fn begin_measurement(&mut self) {
        self.stats = SimStats::default();
        let n = self.nodes.len();
        self.stats.per_node_delivered = vec![0; n];
        self.stats.per_node_generated = vec![0; n];
        self.link_counters = vec![0; self.link_dst.len()];
        self.latency = LatencyTally::default();
        self.measuring = true;
    }

    /// Sets router `v`'s bit in the active set; the phases after this
    /// one see it at once.
    #[inline]
    fn activate(&mut self, v: usize) {
        self.active[v / 64] |= 1 << (v % 64);
    }

    /// Whether router `v` holds a flit in any of its queues: source,
    /// input, output or ejection.
    #[inline]
    fn holds_flits(&self, v: usize) -> bool {
        let f = self.node_flits[v];
        f.source | f.eject | self.in_slots[v] | self.out_slots[v] != 0
    }

    /// Clears the active bits of routers that hold no flit any more
    /// (sparse mode only; dense mode keeps everyone).
    #[inline]
    fn retire_idle(&mut self) {
        if !self.config.sparse {
            return;
        }
        for w in 0..self.active.len() {
            for b in set_bits(self.active[w]) {
                if !self.holds_flits(w * 64 + b) {
                    self.active[w] &= !(1 << b);
                }
            }
        }
    }

    fn step<P: Probe>(&mut self, probe: &mut P) -> Result<(), SimError> {
        let mut moved = false;
        self.generate(probe);
        moved |= self.consume(probe);
        moved |= self.transfer_links(probe);
        moved |= self.allocate_switches(probe);
        let active: u64 = self.active.iter().map(|w| u64::from(w.count_ones())).sum();
        self.active_node_cycles += active;
        probe.on_cycle_end(self);
        self.retire_idle();

        if !moved && self.in_network > 0 {
            self.idle_cycles += 1;
            if self.idle_cycles >= self.config.router_delay.max(1) {
                // Before reporting the stall, let the probe inspect the
                // network (the auditor tells deadlock from starvation).
                probe.on_stall(self);
                return Err(SimError::Stalled {
                    cycle: self.cycle,
                    flits_in_flight: self.in_network,
                });
            }
        } else {
            self.idle_cycles = 0;
        }
        self.cycle += 1;
        Ok(())
    }

    /// Phase 1: move the packets the arrival schedule creates this
    /// cycle into their source queues.
    fn generate<P: Probe>(&mut self, probe: &mut P) {
        while let Some((src, dst)) = self.arrivals.pop_due(self.cycle) {
            let v = src.index();
            let pid = PacketId::new(self.next_packet);
            self.next_packet += 1;
            let len = self.config.packet_len;
            probe.on_generate(self.cycle, pid, src, dst, len);
            self.total_flits_generated += len as u64;
            self.source_flits += len as u64;
            if self.measuring {
                self.stats.packets_generated += 1;
                self.stats.flits_generated += len as u64;
                self.stats.per_node_generated[v] += 1;
            }
            self.nodes[v].source_queue.push_back(QueuedPacket {
                id: pid,
                dst,
                created: self.cycle,
            });
            self.node_flits[v].source += len as u32;
            self.activate(v);
        }
    }

    /// Phase 2: sinks drain ejection queues round-robin, up to
    /// `sink_rate` flits per node per cycle.
    fn consume<P: Probe>(&mut self, probe: &mut P) -> bool {
        let mut moved = false;
        let channels = self.config.sink_rate;
        // The sink round-robin pointer used to advance once per node
        // per cycle unconditionally, so it is a pure function of the
        // cycle counter — derived here instead of stored, which keeps
        // idle routers entirely untouched.
        let start = (self.cycle % channels as u64) as usize;
        for w in 0..self.active.len() {
            // Dense-identical skip: a node with no ejected flits pops
            // nothing from any channel, so the sparse core walks the
            // ejecting set. This phase only clears its bits.
            let word = if self.config.sparse {
                self.ejecting[w]
            } else {
                self.active[w]
            };
            for v in set_bits(word).map(|b| w * 64 + b) {
                let first = self.eject_slot(v, 0);
                let mut budget = self.config.sink_rate;
                'outer: for k in 0..channels {
                    let mut q = start + k;
                    if q >= channels {
                        q -= channels;
                    }
                    while budget > 0 {
                        let Some(flit) = self.outputs.pop(first + q) else {
                            break;
                        };
                        self.wake(v, first + q);
                        budget -= 1;
                        moved = true;
                        self.in_network -= 1;
                        self.node_flits[v].eject -= 1;
                        self.total_flits_consumed += 1;
                        if P::ACTIVE {
                            let full = self.arena.materialize(flit);
                            probe.on_consume(self.cycle, v, q, &full);
                        }
                        if self.measuring {
                            self.stats.flits_delivered += 1;
                            self.stats.per_node_delivered[v] += 1;
                        }
                        if flit.kind.is_tail() {
                            // The tail crossed exactly the links the head
                            // did (wormhole), so its own counter is the
                            // packet's hop count; and it is the last flit
                            // of its packet to leave the network, so its
                            // arena slot can be recycled here.
                            let hops = u64::from(flit.hops);
                            let created = self.arena.created(flit.pkt);
                            if self.measuring {
                                self.stats.packets_delivered += 1;
                                self.stats.total_hops += hops;
                                self.latency.record(self.cycle - created);
                            }
                            self.arena.free(flit.pkt);
                        }
                    }
                    if budget == 0 {
                        break 'outer;
                    }
                }
                if self.node_flits[v].eject == 0 {
                    self.ejecting[w] &= !(1 << (v % 64));
                }
            }
        }
        moved
    }

    /// Phase 3: one flit per unidirectional link crosses into the
    /// downstream input buffer, VCs arbitrated round-robin.
    ///
    /// Runs in a single pass with no intermediate move list: per-link
    /// decisions are independent within the phase, because a link
    /// `(v, d)` is the only writer of its downstream input buffers and
    /// the only reader of its upstream output queues — no transfer on
    /// another link can change this link's decision, and links have no
    /// self-loops (`v != peer`). The same independence makes the
    /// active-set scan equivalent to the dense scan: links out of a
    /// skipped router have empty output queues and transfer nothing,
    /// and a link VC parked on a full downstream buffer would find it
    /// still full (only the allocation phase pops input buffers, and
    /// each pop un-parks the buffer's one feeder).
    fn transfer_links<P: Probe>(&mut self, probe: &mut P) -> bool {
        let mut moved = false;
        let eligible = self.cycle + self.config.router_delay;
        let sparse = self.config.sparse;
        let vcs = self.vcs;
        let vc_mask = ((1u64 << vcs) - 1) as u32;
        for w in 0..self.active.len() {
            // A router this phase activates holds one input flit and no
            // output flit, so whether the walk meets it changes nothing.
            for v in set_bits(self.active[w]).map(|b| w * 64 + b) {
                // Dense-identical skip: the sparse core visits only the links
                // with a non-empty, unparked output VC; dense mode takes every
                // VC of every link. The snapshot is safe: bits only clear
                // during this node's turn (pushes happen in the allocation
                // phase), so a stale set bit just re-checks an emptied queue.
                let slot_mask = if sparse {
                    self.out_slots[v] & !self.link_blocked[v]
                } else {
                    ((1u64 << (self.nodes[v].dirs.len() * vcs)) - 1) as u32
                };
                let base = self.nodes[v].base;
                let mut links = slot_mask;
                while links != 0 {
                    let d = usize::from(self.slot_port[base + links.trailing_zeros() as usize].0);
                    links &= !(vc_mask << (d * vcs));
                    let first = base + d * vcs;
                    let start = usize::from(self.link_rr[first]);
                    for k in 0..vcs {
                        let mut vc = start + k;
                        if vc >= vcs {
                            vc -= vcs;
                        }
                        let bit = 1 << (d * vcs + vc);
                        if slot_mask & bit == 0 {
                            continue;
                        }
                        let s = first + vc;
                        if self.outputs.is_empty(s) {
                            continue;
                        }
                        let dst = self.link_dst[s];
                        let (t, peer) = (dst.input as usize, dst.node as usize);
                        if !self.inputs.has_space(t) {
                            if sparse {
                                self.link_blocked[v] |= bit;
                            }
                            continue;
                        }
                        let flit = self.outputs.pop(s).expect("checked above");
                        self.wake(v, s);
                        // `vcs` fits a byte: it is at most the 32 bits of a
                        // router's occupancy word.
                        self.link_rr[first] = if vc + 1 == vcs { 0 } else { vc as u8 + 1 };
                        if P::ACTIVE {
                            let crossed = ArenaFlit {
                                hops: flit.hops + 1,
                                ..flit
                            };
                            let full = self.arena.materialize(crossed);
                            probe.on_link_traverse(self, v, d, vc, &full);
                        }
                        self.inputs.receive(t, flit, eligible);
                        self.in_slots[peer] |= dst.bit;
                        if self.outputs.is_empty(s) {
                            self.out_slots[v] &= !bit;
                        }
                        self.activate(peer);
                        if self.measuring {
                            self.link_counters[s] += 1;
                        }
                        moved = true;
                        break;
                    }
                }
            }
        }
        moved
    }

    /// Phase 4: switch allocation at every active router.
    fn allocate_switches<P: Probe>(&mut self, probe: &mut P) -> bool {
        let mut moved = false;
        let sparse = self.config.sparse;
        // Like the sink pointer, each router's rotating priority used to
        // advance once per cycle unconditionally, so it is cycle-derived:
        // `cycle % slots`, taken here once per distinct slot count
        // rather than once per router.
        let mut rotation = [0u8; MAX_ALLOC_SLOTS + 1];
        for &count in &self.alloc_slot_counts {
            rotation[count] = (self.cycle % count as u64) as u8;
        }
        for w in 0..self.active.len() {
            for v in set_bits(self.active[w]).map(|b| w * 64 + b) {
                let nslots = 1 + self.nodes[v].dirs.len() * self.vcs;
                // Dense-identical slot skips: an empty source queue or
                // input buffer makes its slot a no-op, and a router whose
                // occupied slots are all parked, or that has none, would
                // return from every attempt without touching state. Dense
                // mode tries every slot.
                let occupied = if sparse {
                    let occupied = self.occupied_slots(v);
                    if occupied & !self.blocked[v] == 0 {
                        continue;
                    }
                    occupied
                } else {
                    (1 << nslots) - 1
                };
                moved |= self.allocate_node(v, occupied, rotation[nslots].into(), probe);
            }
        }
        moved
    }

    /// Allocation slots of router `v` holding a flit: bit 0 for the
    /// source queue, bit `1 + d * vcs + vc` for input buffer `(d, vc)`.
    #[inline]
    fn occupied_slots(&self, v: usize) -> u64 {
        (u64::from(self.in_slots[v]) << 1) | u64::from(self.node_flits[v].source > 0)
    }

    /// Runs switch allocation for router `v` over the allocation slots
    /// set in `occupied`: rotating priority over the source queue and
    /// every (input port, VC), starting at slot `start`, one write per
    /// output port per cycle.
    fn allocate_node<P: Probe>(
        &mut self,
        v: usize,
        occupied: u64,
        start: usize,
        probe: &mut P,
    ) -> bool {
        let num_dirs = self.nodes[v].dirs.len();
        // Writes left per output port this cycle: one per link port
        // (crossbar), `sink_rate` for the ejection port (the IP
        // interface is as wide as its consumption rate). A stack array
        // (ports bounded by MAX_PORTS, asserted at assembly) so the
        // per-node-per-cycle bookkeeping never touches the heap.
        let mut used = [1usize; MAX_PORTS];
        used[num_dirs] = self.config.sink_rate;
        let mut moved = false;
        // `occupied` is a snapshot taken before the turn. That is safe:
        // bits only clear during this node's allocation, and a stale set
        // bit just re-runs the cheap empty check. The rotated order
        // `start, .., nslots - 1, 0, .., start - 1` is the set bits at
        // or above `start`, then those below it, each ascending.
        let below = (1 << start) - 1;
        for mut bits in [occupied & !below, occupied & below] {
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // Parked slots are skipped too, reading `blocked` live:
                // a push earlier in this turn (a tail releasing an
                // ejection channel, with `sink_rate > 1`) can wake a
                // slot the dense scan still tries this cycle.
                if self.blocked[v] & (1 << slot) != 0 {
                    continue;
                }
                moved |= if slot == 0 {
                    self.try_inject(v, &mut used, probe)
                } else {
                    self.try_forward(v, slot, &mut used, probe)
                };
            }
        }
        moved
    }

    /// Routes the head flit `flit` of allocation slot `slot` at router
    /// `v`, which arrived on virtual channel `in_vc`, and places it in
    /// the first candidate output queue that accepts it; returns that
    /// queue's slot id. A head routed by the precompiled table has one
    /// candidate and goes through [`place_one`](Self::place_one); an
    /// adaptive algorithm's candidates, in its preference order,
    /// through [`place_first`](Self::place_first).
    #[inline]
    fn place_head(
        &mut self,
        v: usize,
        slot: usize,
        flit: &ArenaFlit,
        in_vc: usize,
        used: &mut [usize],
    ) -> Option<usize> {
        let here = NodeId::new(v);
        let dst = self.arena.dst(flit.pkt);
        if let Some(table) = &self.compiled {
            let hop = table.hop(here, dst);
            let out = if hop.dir == Direction::Local {
                assert!(slot != 0, "packet addressed to its own source");
                self.eject_route(v, flit, used)
            } else {
                let port = usize::from(self.nodes[v].port_of[hop.dir.index()]);
                debug_assert!(port < self.nodes[v].dirs.len(), "compiled absent port");
                self.link_slot(v, port, usize::from(hop.out_vc[in_vc]))
            };
            return self.place_one(v, slot, flit, out, used).then_some(out);
        }
        // Reuse the scratch buffers (taken so the routing call can
        // borrow `self`); head flits retry until they are placed (or
        // parked), so this runs far too often to allocate each time.
        let mut dirs = std::mem::take(&mut self.dir_scratch);
        let mut routes = std::mem::take(&mut self.route_scratch);
        dirs.clear();
        routes.clear();
        self.routing.candidates_into(here, dst, &mut dirs);
        for &dir in &dirs {
            let out = if dir == Direction::Local {
                assert!(slot != 0, "packet addressed to its own source");
                self.eject_route(v, flit, used)
            } else {
                let port = self.nodes[v]
                    .dirs
                    .iter()
                    .position(|&d| d == dir)
                    .unwrap_or_else(|| panic!("routing chose absent direction {dir} at {here}"));
                let vc = self.routing.vc_for_hop(here, dst, dir, in_vc);
                assert!(vc < self.vcs, "routing chose VC {vc} of {}", self.vcs);
                self.link_slot(v, port, vc)
            };
            routes.push(out);
        }
        self.dir_scratch = dirs;
        let taken = self.place_first(v, slot, flit, &routes, used);
        self.route_scratch = routes;
        taken
    }

    /// The ejection channel a head flit bound for router `v`'s sink
    /// claims: the first that can accept it (wormhole ownership: one
    /// packet per channel), or channel 0 to fail on if none can. With
    /// the ejection port's writes spent this cycle, every channel fails
    /// the same transient way, so channel 0 is returned unscanned.
    #[inline]
    fn eject_route(&self, v: usize, flit: &ArenaFlit, used: &[usize]) -> usize {
        let mut channels = self.eject_slots(v);
        let first = channels.start;
        if used[self.nodes[v].dirs.len()] == 0 {
            return first;
        }
        channels
            .find(|&s| self.outputs.can_accept(s, flit))
            .unwrap_or(first)
    }

    /// Places `flit` of allocation slot `slot` in output slot `out`,
    /// its only route: a body or tail flit's wormhole allocation, or a
    /// head's entry in the precompiled table. Returns whether it was
    /// placed.
    ///
    /// In sparse mode a refusal can only repeat until the queue
    /// changes, so the slot is parked on it; a crossbar port already
    /// written this cycle is a transient failure and parks nothing.
    #[inline]
    fn place_one(
        &mut self,
        v: usize,
        slot: usize,
        flit: &ArenaFlit,
        out: usize,
        used: &mut [usize],
    ) -> bool {
        match self.place(v, flit, out, used) {
            Placement::Placed => true,
            Placement::PortBusy => false,
            Placement::Refused => {
                if self.config.sparse {
                    self.park(v, slot, flit, &[out]);
                }
                false
            }
        }
    }

    /// Places the head `flit` of allocation slot `slot` in the first of
    /// the candidate output slots `routes` (an adaptive algorithm's,
    /// in preference order) whose queue accepts it, and returns that
    /// slot id.
    ///
    /// In sparse mode a failure is remembered when it can only repeat:
    /// if every queue refused the flit, the slot is parked on all of
    /// them. A route whose crossbar port was already written this cycle
    /// is a transient failure and parks nothing.
    #[inline]
    fn place_first(
        &mut self,
        v: usize,
        slot: usize,
        flit: &ArenaFlit,
        routes: &[usize],
        used: &mut [usize],
    ) -> Option<usize> {
        let mut transient = false;
        for &out in routes {
            match self.place(v, flit, out, used) {
                Placement::Placed => return Some(out),
                Placement::PortBusy => transient = true,
                Placement::Refused => {}
            }
        }
        if !transient && self.config.sparse {
            self.park(v, slot, flit, routes);
        }
        None
    }

    /// Offers `flit` at router `v` to the output queue of slot `out`:
    /// the one place a flit enters an output queue or ejection channel.
    /// On success it counts the flit at the router, spends one write of
    /// the queue's crossbar port and, for a tail, releases the queue.
    #[inline]
    fn place(&mut self, v: usize, flit: &ArenaFlit, out: usize, used: &mut [usize]) -> Placement {
        let port = usize::from(self.slot_port[out].0);
        if used[port] == 0 {
            return Placement::PortBusy;
        }
        if !self.outputs.try_push(out, *flit) {
            return Placement::Refused;
        }
        if flit.kind.is_tail() {
            self.release(v, out);
        }
        if port == self.nodes[v].dirs.len() {
            self.node_flits[v].eject += 1;
            self.ejecting[v / 64] |= 1 << (v % 64);
        } else {
            self.out_slots[v] |= 1 << (out - self.nodes[v].base);
        }
        used[port] -= 1;
        Placement::Placed
    }

    /// Parks allocation slot `slot` of router `v` on every queue its
    /// failed attempt could have used. A head bound for the sink waits
    /// on all ejection channels, since it takes whichever accepts it
    /// first. A head waits on a queue another packet owns until that
    /// packet's tail is pushed, and on a full unowned queue until it
    /// pops; a body or tail flit waits on its own packet's full queue
    /// until it pops. Waking too often only costs one more failing
    /// attempt; missing a wake would change the results.
    fn park(&mut self, v: usize, slot: usize, flit: &ArenaFlit, routes: &[usize]) {
        let bit = 1 << slot;
        self.blocked[v] |= bit;
        for &out in routes {
            if !flit.kind.is_head() {
                self.waiters[out] |= bit;
                continue;
            }
            let queues = if out >= self.eject_slot(v, 0) {
                self.eject_slots(v)
            } else {
                out..out + 1
            };
            for s in queues {
                if self.outputs.owner(s).is_some() {
                    self.release_waiters[s] |= bit;
                } else {
                    self.waiters[s] |= bit;
                }
            }
        }
    }

    /// Un-parks every allocation slot of router `v` waiting on output
    /// slot `s`, which was just popped.
    #[inline]
    fn wake(&mut self, v: usize, s: usize) {
        let waiting = std::mem::take(&mut self.waiters[s]);
        self.blocked[v] &= !waiting;
    }

    /// Hands on the heads of router `v` waiting for output slot `s` to
    /// be released, now that its owner's tail was pushed: they are
    /// un-parked if the queue still has space, and wait for its next
    /// pop otherwise.
    #[inline]
    fn release(&mut self, v: usize, s: usize) {
        let waiting = std::mem::take(&mut self.release_waiters[s]);
        if self.outputs.len(s) < self.outputs.capacity() {
            self.blocked[v] &= !waiting;
        } else {
            self.waiters[s] |= waiting;
        }
    }

    /// Tries to move the head-of-line flit of the input buffer behind
    /// allocation slot `slot` (`1 + d * vcs + vc`) at node `v` into its
    /// output queue.
    fn try_forward<P: Probe>(
        &mut self,
        v: usize,
        slot: usize,
        used: &mut [usize],
        probe: &mut P,
    ) -> bool {
        let s = self.nodes[v].base + slot - 1;
        // A flit still in the router pipeline is a transient failure:
        // nothing is parked.
        let Some(flit) = self.inputs.front_ready(s, self.cycle) else {
            return false;
        };
        let (d, vc) = self.slot_port[s];
        let placed = if flit.kind.is_head() {
            self.place_head(v, slot, &flit, usize::from(vc), used)
        } else {
            // Body and tail flits follow the packet's wormhole
            // allocation (5/6 of all forwards at the paper's 6-flit
            // packets).
            let r = self
                .inputs
                .route(s)
                .expect("body/tail flit with no wormhole allocation");
            assert_eq!(r.packet, flit.pkt, "stale wormhole allocation");
            self.place_one(v, slot, &flit, r.out, used).then_some(r.out)
        };
        let Some(out) = placed else {
            return false;
        };
        if P::ACTIVE {
            let (port, out_vc) = self.slot_port[out];
            let out_port = (usize::from(port) != self.nodes[v].dirs.len()).then_some(port.into());
            let full = self.arena.materialize(flit);
            probe.on_buffer_exit(
                self.cycle,
                v,
                d.into(),
                vc.into(),
                out_port,
                out_vc.into(),
                &full,
            );
        }
        self.inputs.pop(s);
        // The head sets the slot's wormhole allocation and the tail
        // clears it; body flits only read it, and a single-flit packet
        // never holds one.
        match flit.kind {
            FlitKind::Head => {
                let route = SlotRoute {
                    out,
                    packet: flit.pkt,
                };
                self.inputs.set_route(s, Some(route));
            }
            FlitKind::Tail => self.inputs.set_route(s, None),
            FlitKind::Body | FlitKind::HeadTail => {}
        }
        if self.inputs.len(s) == 0 {
            self.in_slots[v] &= !(1 << (slot - 1));
        }
        // The buffer has space again: un-park its one feeding link VC.
        let (u, bit) = self.upstream[s];
        self.link_blocked[u as usize] &= !bit;
        true
    }

    /// Tries to inject the next flit of the front packet of the source
    /// queue (allocation slot 0). The packet takes its arena slot on its
    /// first attempt.
    fn try_inject<P: Probe>(&mut self, v: usize, used: &mut [usize], probe: &mut P) -> bool {
        let node = &mut self.nodes[v];
        let Some(&queued) = node.source_queue.front() else {
            return false;
        };
        let pkt = *node.source_pkt.get_or_insert_with(|| {
            self.arena
                .alloc(queued.id, NodeId::new(v), queued.dst, queued.created)
        });
        let flit = ArenaFlit {
            pkt,
            kind: FlitKind::at(node.source_sent, self.config.packet_len),
            hops: 0,
        };
        let placed = if flit.kind.is_head() {
            self.place_head(v, 0, &flit, 0, used)
        } else {
            // The packet's injection allocation, as on the forward path.
            let r = self.nodes[v]
                .source_route
                .expect("injecting body/tail with no allocation");
            assert_eq!(r.packet, flit.pkt, "stale injection allocation");
            self.place_one(v, 0, &flit, r.out, used).then_some(r.out)
        };
        let Some(out) = placed else {
            return false;
        };
        if P::ACTIVE {
            let (port, out_vc) = self.slot_port[out];
            let full = self.arena.materialize(flit);
            probe.on_inject(self.cycle, v, port.into(), out_vc.into(), &full);
        }
        let node = &mut self.nodes[v];
        if flit.kind.is_tail() {
            node.source_queue.pop_front();
            node.source_sent = 0;
            node.source_pkt = None;
            node.source_route = None;
        } else {
            node.source_sent += 1;
            // As on the forward path, only the head sets the allocation.
            if flit.kind.is_head() {
                node.source_route = Some(SlotRoute {
                    out,
                    packet: flit.pkt,
                });
            }
        }
        self.node_flits[v].source -= 1;
        self.in_network += 1;
        self.source_flits -= 1;
        if self.measuring {
            self.stats.flits_injected += 1;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceEvent;
    use noc_routing::{MeshXY, RingShortestPath, SpidergonAcrossFirst};
    use noc_topology::{RectMesh, Ring, Spidergon};
    use noc_traffic::{SingleHotspot, UniformRandom};

    fn quick_config(lambda: f64) -> SimConfig {
        SimConfig::builder()
            .injection_rate(lambda)
            .warmup_cycles(200)
            .measure_cycles(2_000)
            .seed(12345)
            .build()
            .unwrap()
    }

    fn spidergon_sim(n: usize, lambda: f64) -> Simulation {
        let topo = Spidergon::new(n).unwrap();
        let routing = SpidergonAcrossFirst::new(&topo);
        let pattern = UniformRandom::new(n).unwrap();
        Simulation::new(
            Box::new(topo),
            Box::new(routing),
            Box::new(pattern),
            quick_config(lambda),
        )
        .unwrap()
    }

    fn spidergon_sim_with(n: usize, config: SimConfig) -> Simulation {
        let topo = Spidergon::new(n).unwrap();
        let routing = SpidergonAcrossFirst::new(&topo);
        let pattern = UniformRandom::new(n).unwrap();
        Simulation::new(Box::new(topo), Box::new(routing), Box::new(pattern), config).unwrap()
    }

    #[test]
    fn node_count_mismatch_is_rejected() {
        let topo = Ring::new(8).unwrap();
        let routing = RingShortestPath::new(&topo);
        let pattern = UniformRandom::new(9).unwrap();
        let err = Simulation::new(
            Box::new(topo),
            Box::new(routing),
            Box::new(pattern),
            quick_config(0.1),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::NodeCountMismatch { .. }));
    }

    #[test]
    fn low_load_uniform_delivers_packets() {
        let mut sim = spidergon_sim(8, 0.05);
        let stats = sim.run().unwrap();
        assert!(stats.packets_delivered > 10, "{stats}");
        assert_eq!(stats.num_nodes, 8);
        assert_eq!(stats.num_sources, 8);
        // At low load everything generated is eventually delivered.
        assert!(stats.acceptance_ratio() > 0.99);
    }

    #[test]
    fn zero_rate_network_stays_silent() {
        let mut sim = spidergon_sim(8, 0.0);
        let stats = sim.run().unwrap();
        assert_eq!(stats.packets_generated, 0);
        assert_eq!(stats.packets_delivered, 0);
        assert_eq!(sim.flits_in_network(), 0);
    }

    #[test]
    fn identical_seeds_give_identical_results() {
        let a = spidergon_sim(10, 0.2).run().unwrap();
        let b = spidergon_sim(10, 0.2).run().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut sim_a = spidergon_sim(10, 0.2);
        let stats_a = sim_a.run().unwrap();
        let topo = Spidergon::new(10).unwrap();
        let routing = SpidergonAcrossFirst::new(&topo);
        let pattern = UniformRandom::new(10).unwrap();
        let mut cfg = SimConfig::builder();
        let cfg = cfg
            .injection_rate(0.2)
            .warmup_cycles(200)
            .measure_cycles(2_000)
            .seed(999)
            .build()
            .unwrap();
        let mut sim_b =
            Simulation::new(Box::new(topo), Box::new(routing), Box::new(pattern), cfg).unwrap();
        let stats_b = sim_b.run().unwrap();
        assert_ne!(stats_a.packets_generated, 0);
        assert_ne!(stats_a, stats_b);
    }

    #[test]
    fn flit_conservation_every_cycle() {
        let mut sim = spidergon_sim(8, 0.3);
        let mut delivered = 0u64;
        let mut generated = 0u64;
        for _ in 0..1_000 {
            let before_backlog = sim.source_backlog();
            let before_net = sim.flits_in_network();
            let packets_before = sim.next_packet;
            sim.step().unwrap();
            let new_packets = sim.next_packet - packets_before;
            generated += new_packets * 6;
            // delivered = generated - backlog - in_network (conservation)
            delivered = generated
                .checked_sub(sim.source_backlog() + sim.flits_in_network())
                .expect("conservation violated");
            let _ = (before_backlog, before_net);
        }
        assert!(delivered > 0);
    }

    #[test]
    fn hotspot_throughput_capped_by_sink_rate() {
        // Paper Figure 6: with one hot-spot the aggregate throughput
        // saturates at the destination's consumption rate (~1
        // flit/cycle) regardless of topology.
        for (label, mut sim) in [
            ("ring", {
                let topo = Ring::new(8).unwrap();
                let routing = RingShortestPath::new(&topo);
                let pattern = SingleHotspot::new(8, NodeId::new(0)).unwrap();
                Simulation::new(
                    Box::new(topo),
                    Box::new(routing),
                    Box::new(pattern),
                    quick_config(0.6),
                )
                .unwrap()
            }),
            ("mesh", {
                let topo = RectMesh::new(2, 4).unwrap();
                let routing = MeshXY::new(&topo);
                let pattern = SingleHotspot::new(8, NodeId::new(0)).unwrap();
                Simulation::new(
                    Box::new(topo),
                    Box::new(routing),
                    Box::new(pattern),
                    quick_config(0.6),
                )
                .unwrap()
            }),
        ] {
            let stats = sim.run().unwrap();
            let tp = stats.throughput_flits_per_cycle();
            assert!(tp <= 1.02, "{label}: throughput {tp} above sink rate");
            assert!(tp > 0.85, "{label}: throughput {tp} far below sink rate");
        }
    }

    #[test]
    fn saturated_network_reports_backlog() {
        let mut sim = spidergon_sim(8, 1.0);
        let stats = sim.run().unwrap();
        assert!(stats.acceptance_ratio() < 1.0, "{stats}");
        assert!(stats.backlog_flits > 0);
    }

    #[test]
    fn mean_hops_close_to_average_distance_at_low_load() {
        let mut sim = spidergon_sim(16, 0.02);
        let stats = sim.run().unwrap();
        let expected = noc_topology::metrics::average_distance(&Spidergon::new(16).unwrap());
        let measured = stats.mean_hops().unwrap();
        assert!(
            (measured - expected).abs() < 0.25,
            "measured {measured} vs analytical {expected}"
        );
    }

    #[test]
    fn latencies_reasonable_at_low_load() {
        let mut sim = spidergon_sim(8, 0.02);
        let stats = sim.run().unwrap();
        let mean = stats.latency.mean().unwrap();
        // Zero-load latency ~ hops + packet_len; spidergon-8 E[D] ~ 1.57.
        assert!(mean > 5.0 && mean < 20.0, "mean latency {mean}");
    }

    #[test]
    fn step_accessors_track_state() {
        let mut sim = spidergon_sim(8, 0.5);
        assert_eq!(sim.cycle(), 0);
        for _ in 0..10 {
            sim.step().unwrap();
        }
        assert_eq!(sim.cycle(), 10);
        assert_eq!(sim.config().packet_len, 6);
    }

    fn variant_config(lambda: f64, sparse: bool) -> SimConfig {
        SimConfig::builder()
            .injection_rate(lambda)
            .warmup_cycles(200)
            .measure_cycles(2_000)
            .seed(777)
            .sparse(sparse)
            .build()
            .unwrap()
    }

    /// A spidergon-`n` uniform run under `config`, recorded in windows
    /// of `window` cycles: its statistics and the recorder.
    fn recorded_spidergon(n: usize, config: SimConfig, window: u64) -> (SimStats, crate::Recorder) {
        let topo = Spidergon::new(n).unwrap();
        let routing = SpidergonAcrossFirst::new(&topo);
        let pattern = UniformRandom::new(n).unwrap();
        let mut sim = Simulation::with_probe(
            Box::new(topo),
            Box::new(routing),
            Box::new(pattern),
            config,
            crate::Recorder::with_window(window),
        )
        .unwrap();
        assert!(sim.uses_compiled_routes());
        let stats = sim.run().unwrap();
        (stats, sim.into_probe())
    }

    /// Asserts that recorded sparse and dense runs agree on the
    /// statistics, every packet's timing and every recorded event and
    /// `window`-cycle time-series row, and that the plain sparse run has
    /// the same statistics. Returns the sparse run's recorder.
    fn assert_sparse_matches_dense(n: usize, config: &SimConfig, window: u64) -> crate::Recorder {
        let mut dense_config = config.clone();
        dense_config.sparse = false;
        let (a, sparse) = recorded_spidergon(n, config.clone(), window);
        let (b, dense) = recorded_spidergon(n, dense_config, window);
        assert_eq!(a, b, "stats diverged under {config:?}");
        assert_eq!(
            sparse.packet_timings(),
            dense.packet_timings(),
            "packet timings diverged under {config:?}"
        );
        assert_eq!(
            sparse.digest(),
            dense.digest(),
            "recorded events diverged under {config:?}"
        );
        let plain = spidergon_sim_with(n, config.clone()).run().unwrap();
        assert_eq!(plain, a, "recording changed the statistics");
        sparse
    }

    #[test]
    fn sparse_matches_dense_bit_for_bit() {
        for lambda in [0.02, 0.3] {
            assert_sparse_matches_dense(
                12,
                &variant_config(lambda, true),
                crate::Recorder::DEFAULT_WINDOW,
            );
        }
    }

    #[test]
    fn active_ratio_small_at_low_load_and_one_when_dense() {
        let mut sparse = spidergon_sim_with(16, variant_config(0.01, true));
        sparse.run().unwrap();
        let ratio = sparse.active_router_ratio();
        assert!(ratio > 0.0 && ratio < 0.5, "active ratio {ratio}");

        let mut dense = spidergon_sim_with(16, variant_config(0.01, false));
        dense.run().unwrap();
        let dense_ratio = dense.active_router_ratio();
        assert!(
            (dense_ratio - 1.0).abs() < 1e-12,
            "dense ratio {dense_ratio}"
        );
    }

    #[test]
    fn active_router_ratio_of_a_multi_word_run_is_pinned() {
        // 130 routers fill three words of the active set. The pin holds
        // the moment at which active routers are counted: after switch
        // allocation, before the routers that emptied this cycle retire.
        let ring = Ring::new(130).unwrap();
        let mut sim = Simulation::new(
            Box::new(ring.clone()),
            Box::new(RingShortestPath::new(&ring)),
            Box::new(UniformRandom::new(130).unwrap()),
            variant_config(0.02, true),
        )
        .unwrap();
        sim.run().unwrap();
        assert_eq!(sim.active_node_cycles, 167_497);
        assert_eq!(sim.active_router_ratio().to_bits(), 0x3fe2_bdad_2280_3c7f);
        // A router's bit is set exactly while it holds a flit: counted
        // in its source queue or ejection channels, or marked in its
        // input-buffer or output-queue occupancy word.
        for v in 0..3 * 64 {
            let set = sim.active[v / 64] & (1 << (v % 64)) != 0;
            let held = sim.node_flits.get(v).is_some_and(|f| {
                f.source > 0 || f.eject > 0 || sim.in_slots[v] != 0 || sim.out_slots[v] != 0
            });
            assert_eq!(set, held, "router {v}");
        }
    }

    #[test]
    fn stalled_slots_park_only_in_sparse_mode() {
        // Past saturation most allocation attempts and link transfers
        // fail on a full or foreign-owned queue: the sparse core parks
        // them, the dense oracle retries them every cycle.
        for sparse in [true, false] {
            let mut sim = spidergon_sim_with(8, variant_config(1.0, sparse));
            let (mut slots, mut links) = (0, 0);
            for _ in 0..500 {
                sim.step().unwrap();
                slots += sim.blocked.iter().filter(|&&b| b != 0).count();
                links += sim.link_blocked.iter().filter(|&&b| b != 0).count();
            }
            if sparse {
                assert!(
                    slots > 0 && links > 0,
                    "parked {slots} slots, {links} links"
                );
            } else {
                assert_eq!((slots, links), (0, 0), "the dense scan never parks");
                assert!(sim.waiters.iter().all(|&w| w == 0));
            }
        }
    }

    #[test]
    fn a_head_behind_a_foreign_worm_waits_for_its_tail() {
        // Router 0's first link VC, three flits deep, is claimed by
        // packet `a`; the head of packet `b`, in allocation slot 1, is
        // refused there and parks.
        let ring = Ring::new(8).unwrap();
        let trace = Trace::new(8, Vec::new()).unwrap();
        let routing = Box::new(RingShortestPath::new(&ring));
        let config = quick_config(0.0);
        let mut sim =
            Simulation::with_trace(Box::new(ring), routing, &trace, config, NullProbe).unwrap();
        let net = &mut sim.net;
        let s = net.link_slot(0, 0, 0);
        let bit = 1 << 1;
        let mut packet = |id| {
            let pkt = net
                .arena
                .alloc(PacketId::new(id), NodeId::new(0), NodeId::new(1), 0);
            move |kind| ArenaFlit { pkt, kind, hops: 0 }
        };
        let (a, b) = (packet(0), packet(1));
        let push = |net: &mut Network, flit| {
            let placed = net.place(0, &flit, s, &mut [1; MAX_PORTS]);
            assert!(matches!(placed, Placement::Placed), "{flit:?}: {placed:?}");
        };
        let pop = |net: &mut Network| {
            net.outputs.pop(s).unwrap();
            net.wake(0, s);
        };
        let park_head = |net: &mut Network| {
            let placed = net.place_one(0, 1, &b(FlitKind::Head), s, &mut [1; MAX_PORTS]);
            assert!(!placed);
        };
        let parked = |net: &Network| {
            (
                net.blocked[0] & bit != 0,
                net.release_waiters[s] & bit != 0,
                net.waiters[s] & bit != 0,
            )
        };

        // The tail is pushed with space left: the head is woken.
        push(net, a(FlitKind::Head));
        park_head(net);
        assert_eq!(parked(net), (true, true, false), "waits for the release");
        for _ in 0..2 {
            push(net, a(FlitKind::Body));
            pop(net);
            assert_eq!(parked(net), (true, true, false), "a body pop frees nothing");
        }
        pop(net);
        push(net, a(FlitKind::Tail));
        assert_eq!(parked(net), (false, false, false), "the tail releases it");

        // The tail fills the queue: the head now waits for a pop.
        pop(net);
        push(net, a(FlitKind::Head));
        park_head(net);
        push(net, a(FlitKind::Body));
        push(net, a(FlitKind::Tail));
        assert_eq!(net.outputs.len(s), 3);
        assert_eq!(
            parked(net),
            (true, false, true),
            "released into a full queue"
        );
        pop(net);
        assert_eq!(parked(net), (false, false, false), "the pop makes room");

        // A full unowned queue: the head waits for a pop from the start.
        while !net.outputs.is_empty(s) {
            pop(net);
        }
        for _ in 0..3 {
            push(net, a(FlitKind::HeadTail));
        }
        park_head(net);
        assert_eq!(parked(net), (true, false, true), "full, not owned");
        pop(net);
        assert_eq!(parked(net), (false, false, false));
    }

    #[test]
    fn a_sink_bound_head_at_a_spent_ejection_port_neither_moves_nor_parks() {
        // Ring-8 router 0 with two ejection channels: the head of a
        // packet for router 0 waits in allocation slot 1.
        let ring = Ring::new(8).unwrap();
        let trace = Trace::new(8, Vec::new()).unwrap();
        let routing = Box::new(RingShortestPath::new(&ring));
        let mut config = quick_config(0.0);
        config.sink_rate = 2;
        let mut sim =
            Simulation::with_trace(Box::new(ring), routing, &trace, config, NullProbe).unwrap();
        let net = &mut sim.net;
        assert!(net.uses_compiled_routes());
        let eject = net.eject_slots(0);
        let port = net.nodes[0].dirs.len();
        let mut head = |id| {
            let pkt = net
                .arena
                .alloc(PacketId::new(id), NodeId::new(1), NodeId::new(0), 0);
            ArenaFlit {
                pkt,
                kind: FlitKind::Head,
                hops: 1,
            }
        };
        let (a, b) = (head(0), head(1));
        let untouched = |net: &Network| {
            net.blocked[0] == 0
                && eject
                    .clone()
                    .all(|s| net.waiters[s] == 0 && net.release_waiters[s] == 0)
        };
        let mut spent = [1; MAX_PORTS];
        spent[port] = 0;

        // Both channels free, port spent: a transient failure.
        assert_eq!(net.place_head(0, 1, &a, 0, &mut spent), None);
        assert!(untouched(net));
        assert!(eject.clone().all(|s| net.outputs.is_empty(s)));

        // Channel 0 claimed by `a`, port spent: still nothing parks,
        // although no scan ran to find channel 1 free.
        let mut budget = [1; MAX_PORTS];
        budget[port] = 2;
        assert_eq!(net.place_head(0, 1, &a, 0, &mut budget), Some(eject.start));
        assert_eq!(net.place_head(0, 2, &b, 0, &mut spent), None);
        assert!(untouched(net));

        // With a write left, the scan finds channel 1.
        assert_eq!(
            net.place_head(0, 2, &b, 0, &mut budget),
            Some(eject.start + 1)
        );
        assert_eq!(budget[port], 0);
        assert!(untouched(net));
    }

    #[test]
    fn the_head_sets_a_wormhole_allocation_and_the_tail_clears_it() {
        // One 6-flit packet from router 0 to router 3 of a ring: follow
        // the allocation of router 0's source and of the router-1 input
        // buffer the worm crosses after every flit that leaves them.
        let ring = Ring::new(8).unwrap();
        let entry = noc_traffic::TraceEntry {
            cycle: 0,
            src: NodeId::new(0),
            dst: NodeId::new(3),
        };
        let trace = Trace::new(8, vec![entry]).unwrap();
        let config = SimConfig::builder()
            .warmup_cycles(0)
            .measure_cycles(100)
            .build()
            .unwrap();
        let mut sim = Simulation::with_trace(
            Box::new(ring.clone()),
            Box::new(RingShortestPath::new(&ring)),
            &trace,
            config,
            crate::Recorder::new(),
        )
        .unwrap();
        // Per flit leaving, in order: its kind, the output slot it
        // entered and the allocation just after it left. A source
        // injects, and an input buffer forwards, at most one flit per
        // cycle, so the state at the end of that cycle is the state
        // right after the move.
        let (mut source, mut input) = (Vec::new(), Vec::new());
        assert_eq!(sim.nodes[0].source_route, None);
        let mut seen = 0;
        while input.len() < 6 {
            assert!(sim.cycle() < 100, "the worm never crossed router 1");
            sim.step().unwrap();
            let events = &sim.probe().events()[seen..];
            seen += events.len();
            for event in events {
                match *event {
                    TraceEvent::Inject {
                        node: 0,
                        port,
                        vc,
                        kind,
                        ..
                    } => source.push((kind, sim.link_slot(0, port, vc), sim.nodes[0].source_route)),
                    TraceEvent::BufferExit {
                        node: 1,
                        in_port,
                        in_vc,
                        out_port: Some(port),
                        out_vc,
                        kind,
                        ..
                    } => input.push((
                        kind,
                        sim.link_slot(1, port, out_vc),
                        sim.inputs.route(sim.link_slot(1, in_port, in_vc)),
                    )),
                    _ => {}
                }
            }
        }
        for moves in [&source, &input] {
            let kinds: Vec<_> = moves.iter().map(|m| m.0).collect();
            let worm: Vec<_> = (0..6).map(|i| FlitKind::at(i, 6)).collect();
            assert_eq!(kinds, worm);
            let (_, out, route) = moves[0];
            let held = route.expect("the head sets the allocation");
            assert_eq!(held.out, out);
            for &(kind, out, route) in &moves[1..5] {
                assert_eq!(out, held.out, "{kind:?} follows the worm");
                assert_eq!(route, Some(held), "a {kind:?} flit leaves it as it was");
            }
            let (_, out, route) = moves[5];
            assert_eq!(out, held.out);
            assert_eq!(route, None, "the tail clears it");
        }
    }

    #[test]
    fn arena_holds_only_packets_in_routers_or_being_injected() {
        // Past saturation the source queues hold most of the traffic;
        // a queued packet is a descriptor there and takes no arena slot
        // until its first injection attempt.
        let mut sim = spidergon_sim(8, 1.0);
        let mut half_injected = 0;
        for _ in 0..2_000 {
            sim.step().unwrap();
            let live = sim.arena.live() as u64;
            let bound = sim.flits_in_network() + sim.num_sources as u64;
            assert!(
                live <= bound,
                "cycle {}: {live} live > {bound}",
                sim.cycle()
            );
            assert_eq!(sim.occupancy().source_flits, sim.source_backlog());
            half_injected += sim.nodes.iter().filter(|n| n.source_sent > 0).count();
        }
        assert!(
            half_injected > 0,
            "no cycle ended with a packet half injected"
        );
        let queued = sim.source_backlog() / sim.config().packet_len as u64;
        assert!(
            queued > 10 * sim.arena.live() as u64,
            "{queued} queued packets, {} live",
            sim.arena.live()
        );
    }

    #[test]
    fn auditor_reports_leaked_arena_slots() {
        let mut sim = Simulation::with_probe(
            Box::new(Spidergon::new(8).unwrap()),
            Box::new(SpidergonAcrossFirst::new(&Spidergon::new(8).unwrap())),
            Box::new(UniformRandom::new(8).unwrap()),
            quick_config(0.0),
            crate::Auditor::new(),
        )
        .unwrap();
        sim.step().unwrap();
        assert!(sim.probe().report().is_clean());
        // An idle network may hold one slot per source; one more is a
        // slot that no flit or source holds.
        for raw in 0..=sim.num_sources as u64 {
            let id = PacketId::new(u64::MAX - raw);
            sim.net.arena.alloc(id, NodeId::new(0), NodeId::new(1), 0);
        }
        sim.step().unwrap();
        let report = sim.probe().report();
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.invariant == crate::Invariant::FlitConservation
                    && v.detail.contains("leaked packet slots")),
            "{report}"
        );
    }

    #[test]
    fn invalid_configs_are_rejected_at_assembly() {
        // A config that skipped the builder is still validated.
        let mut config = quick_config(0.1);
        config.sink_rate = 0;
        let topo = Ring::new(8).unwrap();
        let routing = RingShortestPath::new(&topo);
        let pattern = UniformRandom::new(8).unwrap();
        let err = Simulation::new(Box::new(topo), Box::new(routing), Box::new(pattern), config)
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
        let mut config = quick_config(0.1);
        config.output_buffer_capacity = 0;
        let topo = Ring::new(8).unwrap();
        let routing = RingShortestPath::new(&topo);
        let trace = Trace::new(8, Vec::new()).unwrap();
        let err =
            Simulation::with_trace(Box::new(topo), Box::new(routing), &trace, config, NullProbe)
                .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn packet_timings_include_warmup_deliveries() {
        // One packet, delivered long before the measurement window
        // opens: the recorder keeps it, the statistics do not count it.
        let ring = Ring::new(8).unwrap();
        let entry = noc_traffic::TraceEntry {
            cycle: 0,
            src: NodeId::new(0),
            dst: NodeId::new(2),
        };
        let trace = Trace::new(8, vec![entry]).unwrap();
        let config = SimConfig::builder()
            .warmup_cycles(200)
            .measure_cycles(100)
            .build()
            .unwrap();
        let mut sim = Simulation::with_trace(
            Box::new(ring.clone()),
            Box::new(RingShortestPath::new(&ring)),
            &trace,
            config,
            crate::Recorder::new(),
        )
        .unwrap();
        let stats = sim.run().unwrap();
        assert_eq!(stats.packets_delivered, 0);
        let recorder = sim.into_probe();
        let [timing] = recorder.packet_timings() else {
            panic!("expected one packet, got {:?}", recorder.packet_timings());
        };
        assert!(timing.delivered < 200, "{timing:?}");
        assert_eq!(
            (timing.src, timing.dst, timing.hops),
            (entry.src.index(), entry.dst.index(), 2)
        );
        // The rest of the run is empty and fast-forwarded, yet the
        // recorder still sees every cycle.
        assert_eq!(recorder.observed_cycles(), 300);
    }

    #[test]
    fn fast_forwarded_cycles_keep_recorder_windows() {
        // Zero injection: sparse mode fast-forwards the whole run. At
        // λ = 0.005 the network drains between packets, so skipped
        // stretches close recorder windows that saw deliveries. Dense
        // mode steps every cycle; the windowed throughput series and
        // the recorded events must come out identical anyway.
        for lambda in [0.0, 0.005] {
            let config = variant_config(lambda, true);
            let recorder = assert_sparse_matches_dense(8, &config, 50);
            // The 50-cycle windows divide the 200-cycle warmup: the
            // measured ones are those after the first four.
            let measured = &recorder.windows()[4..];
            assert_eq!(measured.len(), 40);
            assert!(measured.iter().all(|w| w.cycles == 50));
            if lambda > 0.0 {
                assert!(measured.iter().any(|w| w.delivered_flits > 0));
                assert!(measured.iter().any(|w| w.delivered_flits == 0));
            }
        }
    }
}
