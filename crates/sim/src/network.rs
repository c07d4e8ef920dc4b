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
//! # Cycle phases
//!
//! 1. **generate** — drain this cycle's packet-arrival events from the
//!    DES queue into source queues;
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
//! map a slot id to its `(port, vc)`, a link slot to the input slot it
//! feeds, and an input slot to its one feeding link VC.
//!
//! # Sparse active-set core
//!
//! Phases 2–4 iterate an **active-router worklist** instead of all
//! nodes: a router is on the list exactly while it holds at least one
//! flit in any of its queues (source, input, output, ejection —
//! tracked by a per-node flit counter). A flitless router is a proven
//! no-op in every phase — its queues are empty and any lingering
//! wormhole allocation belongs to a packet whose remaining flits are
//! still upstream — so skipping it is bit-exact. The list is kept
//! sorted ascending, so phase side effects (probe events, audit
//! checks, statistics) fire in the same order as a dense `0..n` scan.
//! Round-robin pointers that previously advanced unconditionally every
//! cycle (`eject_rr`, `rr_offset`) are derived from the cycle counter
//! instead of stored, so an idle router needs no per-cycle pointer
//! maintenance either. When the network holds no flits at all,
//! [`Simulation::run`] fast-forwards the clock to the next scheduled
//! arrival.
//!
//! Within an active router the core is **wake-on-change**. Past
//! saturation most attempts fail on a full or foreign-owned queue and
//! would fail again, unchanged, every cycle until that queue changes; a
//! failed attempt changes no state, so skipping the repeats is
//! bit-exact:
//!
//! * an allocation slot (bit 0 the source queue, bit `1 + d * vcs + vc`
//!   an input buffer) whose attempt failed on output-queue state is set
//!   in the router's `blocked` mask, and its bit is added to the
//!   `waiters` mask of every queue the attempt could have used — all
//!   candidates of an adaptive head, every ejection channel for a head
//!   bound for the sink (it takes the first that accepts it). Any push
//!   or pop of such a queue clears its waiters from `blocked`;
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
//! `SimConfig::sparse` disables all of this: the dense scan visits every
//! router and retries every slot every cycle, parks nothing and keeps no
//! skip, so it stays an independent oracle for the differential
//! conformance checks; both modes produce bit-identical results.

use crate::buffer::{InputRings, OutputRings, SlotRoute};
use crate::des::{EventQueue, SimTime};
use crate::flit::{ArenaFlit, FlitKind, PacketArena};
use crate::probe::{NetworkShape, NullProbe, Probe};
use crate::stats::LinkLoad;
use crate::{PacketId, SimConfig, SimError, SimStats};
use noc_routing::{CompiledRoutes, RoutingAlgorithm};
use noc_topology::{Direction, NodeId, Topology};
use noc_traffic::{Trace, TrafficPattern};
use rand::{rngs::SmallRng, SeedableRng};
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
    /// Per link direction: VC round-robin pointer for link arbitration.
    /// Stored (not cycle-derived) because it only advances on actual
    /// transfers.
    link_rr: Vec<usize>,
    /// Flits awaiting injection, whole packets back to back.
    pub(crate) source_queue: VecDeque<ArenaFlit>,
    /// Wormhole allocation of the packet currently being injected.
    source_route: Option<SlotRoute>,
    /// Whether the traffic pattern generates packets here.
    is_source: bool,
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
    /// Precompiled next-hop table, present when the algorithm is
    /// deterministic and [`SimConfig::compiled_routes`] is enabled.
    /// `None` falls back to the dynamic algorithm (adaptive routing).
    compiled: Option<CompiledRoutes>,
    /// `None` in trace-replay mode.
    pattern: Option<Box<dyn TrafficPattern>>,
    pub(crate) config: SimConfig,
    pub(crate) vcs: usize,
    num_sources: usize,
    rng: SmallRng,
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
    /// Link slot id → slot id of the input buffer the link feeds.
    link_peer: Vec<u32>,
    /// Input slot id → `(node, out_slots bit)` of the one link VC
    /// feeding it, whose [`link_blocked`](Self::link_blocked) bit a pop
    /// clears.
    upstream: Vec<(u32, u32)>,
    /// Per-packet descriptor storage; buffers hold 12-byte
    /// [`ArenaFlit`] handles into it.
    pub(crate) arena: PacketArena,
    arrivals: EventQueue<Arrival>,
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
    idle_cycles: u64,
    measuring: bool,
    stats: SimStats,
    deliveries: Vec<Delivery>,
    /// Flits per (node, output dir) during the window.
    link_counters: Vec<Vec<u64>>,
    /// Delivered flits inside the current sampling window.
    window_flits: u64,
    /// Reusable buffer for routing candidate directions (hot path:
    /// filled and drained every head-flit allocation attempt).
    dir_scratch: Vec<Direction>,
    /// Reusable buffer for candidate (port, VC) allocations.
    route_scratch: Vec<SlotRoute>,
    /// `active_mask[v]` ⟺ `v` is in the worklist (on `active_nodes` or
    /// `pending_active`). Invariant at every cycle boundary:
    /// `active_mask[v] ⟺ node_flits[v].total() > 0`. Dense mode pins
    /// every entry `true`.
    active_mask: Vec<bool>,
    /// The active-router worklist, sorted ascending so sparse phase
    /// iteration replays the dense `0..n` event order.
    active_nodes: Vec<usize>,
    /// Routers activated mid-phase (generation, link arrival), merged
    /// into `active_nodes` before the next phase that must see them.
    pending_active: Vec<usize>,
    /// Flits resident at each node, split by buffer class and
    /// maintained incrementally at every flit movement. The total
    /// gates worklist retirement; the per-class fields let each phase
    /// skip a node with one counter load instead of scanning its
    /// queues (an active router rarely participates in all three
    /// phases the same cycle).
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
    /// has been pushed or popped since. Sparse mode only.
    blocked: Vec<u64>,
    /// Per output slot id: the allocation slots of its router parked
    /// on it (bit layout of `blocked`), woken by its next push or pop.
    waiters: Vec<u64>,
    /// Bit `d * vcs + vc` set ⟺ the link VC `(v, d, vc)` found its
    /// downstream input buffer full and that buffer has not popped
    /// since. Sparse mode only.
    link_blocked: Vec<u32>,
}

/// Per-node flit occupancy by buffer class. Kept in one 16-byte struct
/// so a phase's skip check and the retirement total stay on a single
/// cache line per node.
#[derive(Clone, Copy, Default, Debug)]
struct NodeFlits {
    /// Flits waiting in the source (injection) queue.
    source: u32,
    /// Flits held in input buffers.
    input: u32,
    /// Flits held in output VC queues.
    output: u32,
    /// Flits held in ejection queues.
    eject: u32,
}

impl NodeFlits {
    /// Flits at the node across all classes; zero ⟺ skippable.
    fn total(self) -> u32 {
        self.source + self.input + self.output + self.eject
    }
}

/// Upper bound on ports per router: every non-local [`Direction`] plus
/// the ejection port — lets switch allocation keep its per-port write
/// budget in a stack array instead of a per-cycle heap allocation.
const MAX_PORTS: usize = Direction::ALL.len() + 1;

/// A scheduled packet creation: from a stochastic pattern (destination
/// drawn at creation time) or from a trace entry (destination fixed).
#[derive(Clone, Copy, Debug)]
struct Arrival {
    node: usize,
    dst: Option<NodeId>,
}

/// Snapshot of flit occupancy across the network's buffer classes.
///
/// Produced by [`Network::occupancy`]; the sum of the router-side
/// fields equals [`Network::flits_in_network`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
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

/// One delivered packet, recorded when
/// [`SimConfig::record_deliveries`] is enabled.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Delivery {
    /// Cycle at which the tail flit was consumed by the sink.
    pub cycle: u64,
    /// The delivered packet.
    pub packet: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Latency in cycles (creation to tail consumption).
    pub latency: u64,
    /// Hops travelled by the head flit.
    pub hops: u64,
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
    /// covers a different node count than the topology.
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
    /// observe — a probed run yields bit-identical
    /// [`SimStats`](crate::SimStats) to an unprobed run with the same
    /// seed.
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
        let sources = pattern.sources();
        let mut net = Network::assemble(topology, routing, Some(pattern), config, &sources)?;
        net.schedule_initial_arrivals();
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
        let mut net = Network::assemble(topology, routing, None, config, &trace.sources())?;
        for entry in trace.entries() {
            net.arrivals.schedule(
                SimTime::new(entry.cycle as f64),
                Arrival {
                    node: entry.src.index(),
                    dst: Some(entry.dst),
                },
            );
        }
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
    fn assemble(
        topology: Box<dyn Topology>,
        routing: Box<dyn RoutingAlgorithm>,
        pattern: Option<Box<dyn TrafficPattern>>,
        config: SimConfig,
        sources: &[NodeId],
    ) -> Result<Network, SimError> {
        config.validate()?;
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
                link_rr: vec![0; dirs.len()],
                peer,
                base,
                source_queue: VecDeque::new(),
                source_route: None,
                is_source: sources.binary_search(&v).is_ok(),
                port_of,
                dirs,
            });
        }
        // Slot tables: `(port, vc)` per slot, and for link slots the
        // input buffer they feed and, inversely, its single feeder.
        let mut slot_port = Vec::with_capacity(slots);
        let mut link_peer = vec![u32::MAX; slots];
        let mut upstream = vec![(u32::MAX, 0); slots];
        let slot_id = |id: usize| u32::try_from(id).expect("slot ids fit in u32");
        for (v, node) in nodes.iter().enumerate() {
            for (d, &(u, up)) in node.peer.iter().enumerate() {
                for vc in 0..vcs {
                    slot_port.push((d as u8, vc as u8));
                    let s = node.base + d * vcs + vc;
                    let t = nodes[u].base + up * vcs + vc;
                    link_peer[s] = slot_id(t);
                    upstream[t] = (slot_id(v), 1 << (d * vcs + vc));
                }
            }
            // `sink_rate <= MAX_SINK_RATE` (validated) fits the byte.
            slot_port.extend((0..config.sink_rate).map(|k| (node.dirs.len() as u8, k as u8)));
        }

        let compiled = if config.compiled_routes {
            CompiledRoutes::compile(routing.as_ref(), topology.as_ref())
        } else {
            None
        };
        // Dense mode keeps every router permanently on the worklist;
        // sparse mode starts empty (no flits anywhere yet).
        let (active_mask, active_nodes) = if config.sparse {
            (vec![false; n], Vec::new())
        } else {
            (vec![true; n], (0..n).collect())
        };

        Ok(Network {
            topo: topology,
            routing,
            compiled,
            pattern,
            vcs,
            num_sources: sources.len(),
            rng: SmallRng::seed_from_u64(config.seed),
            nodes,
            outputs: OutputRings::new(slots, config.output_buffer_capacity),
            inputs: InputRings::new(slots, config.input_buffer_capacity),
            slot_port,
            link_peer,
            upstream,
            arena: PacketArena::new(),
            arrivals: EventQueue::new(),
            cycle: 0,
            next_packet: 0,
            in_network: 0,
            source_flits: 0,
            total_flits_generated: 0,
            total_flits_consumed: 0,
            idle_cycles: 0,
            measuring: false,
            stats: SimStats::default(),
            deliveries: Vec::new(),
            link_counters: Vec::new(),
            window_flits: 0,
            dir_scratch: Vec::new(),
            route_scratch: Vec::new(),
            active_mask,
            active_nodes,
            pending_active: Vec::new(),
            node_flits: vec![NodeFlits::default(); n],
            active_node_cycles: 0,
            out_slots: vec![0; n],
            in_slots: vec![0; n],
            blocked: vec![0; n],
            waiters: vec![0; slots],
            link_blocked: vec![0; n],
            config,
        })
    }

    fn schedule_initial_arrivals(&mut self) {
        let rate = self.config.packets_per_cycle();
        for v in 0..self.nodes.len() {
            if !self.nodes[v].is_source {
                continue;
            }
            let dt = self
                .config
                .injection_process
                .interarrival(&mut self.rng, rate);
            if dt.is_finite() {
                self.arrivals
                    .schedule(SimTime::new(dt), Arrival { node: v, dst: None });
            }
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
        for (v, node) in self.nodes.iter().enumerate() {
            occ.source_flits += node.source_queue.len() as u64;
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

    /// Slot ids of router `v`'s ejection channels.
    #[inline]
    pub(crate) fn eject_slots(&self, v: usize) -> std::ops::Range<usize> {
        let first = self.eject_slot(v, 0);
        first..first + self.config.sink_rate
    }

    /// Per-packet delivery log (empty unless
    /// [`SimConfig::record_deliveries`] is enabled).
    pub fn deliveries(&self) -> &[Delivery] {
        &self.deliveries
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

    /// Number of routers currently on the active worklist (all of them
    /// in dense mode).
    pub fn active_routers(&self) -> usize {
        self.active_nodes.len()
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
    /// table (deterministic algorithms with
    /// [`SimConfig::compiled_routes`] enabled) rather than by invoking
    /// the routing algorithm per flit.
    pub fn uses_compiled_routes(&self) -> bool {
        self.compiled.is_some()
    }

    fn run<P: Probe>(&mut self, probe: &mut P) -> Result<SimStats, SimError> {
        let total = self.config.total_cycles();
        while self.cycle < total {
            if self.cycle == self.config.warmup_cycles {
                self.begin_measurement();
            }
            if self.try_fast_forward::<P>(total) {
                continue;
            }
            self.step(probe)?;
        }
        let mut stats = self.stats.clone();
        stats.measured_cycles = self.config.measure_cycles;
        stats.num_nodes = self.topo.num_nodes();
        stats.num_sources = self.num_sources;
        stats.backlog_flits = self.source_backlog();
        stats.per_link = self
            .link_counters
            .iter()
            .enumerate()
            .flat_map(|(v, dirs)| {
                let node_dirs = &self.nodes[v].dirs;
                dirs.iter().enumerate().map(move |(d, &flits)| LinkLoad {
                    from: NodeId::new(v),
                    direction: node_dirs[d],
                    flits,
                })
            })
            .collect();
        Ok(stats)
    }

    /// Jumps the clock over a provably empty stretch: no flit anywhere
    /// (network or source queues) means every cycle until the next
    /// scheduled arrival is a no-op, including its statistics — the
    /// only dense side effect, zero-valued throughput samples, is
    /// replayed here. Never crosses the warmup boundary (so
    /// measurement starts on time) and never fires under an active
    /// probe (a recorder or an auditor), which observes every cycle.
    ///
    /// Returns `true` if the clock advanced.
    fn try_fast_forward<P: Probe>(&mut self, total: u64) -> bool {
        if !self.config.sparse || P::ACTIVE {
            return false;
        }
        if self.in_network != 0 || self.source_flits != 0 {
            return false;
        }
        let mut target = match self.arrivals.peek_time() {
            Some(t) => t.cycle().min(total),
            None => total,
        };
        if self.cycle < self.config.warmup_cycles {
            target = target.min(self.config.warmup_cycles);
        }
        if target <= self.cycle {
            return false;
        }
        if self.measuring && self.config.sample_interval > 0 {
            let w = self.config.warmup_cycles;
            let i = self.config.sample_interval;
            // A skipped cycle c emits a sample when (c + 1 - w) is a
            // multiple of i. Nothing is delivered while skipping, but
            // the first boundary may close a window that saw deliveries
            // before the network drained — same formula as the dense
            // path; every later window in the stretch samples zero.
            for _ in ((self.cycle - w) / i)..((target - w) / i) {
                let delivered_now = self.stats.flits_delivered;
                let in_window = delivered_now - self.window_flits;
                self.stats
                    .throughput_samples
                    .push(in_window as f64 / i as f64);
                self.window_flits = delivered_now;
            }
        }
        self.cycle = target;
        true
    }

    fn begin_measurement(&mut self) {
        self.stats = SimStats::default();
        let n = self.nodes.len();
        self.stats.per_node_delivered = vec![0; n];
        self.stats.per_node_generated = vec![0; n];
        self.link_counters = self
            .nodes
            .iter()
            .map(|node| vec![0; node.dirs.len()])
            .collect();
        self.window_flits = 0;
        self.measuring = true;
    }

    /// Puts router `v` on the active worklist if it is not already
    /// there. Activations land on `pending_active` and are merged (in
    /// node order) before the next phase that must see them.
    #[inline]
    fn activate(&mut self, v: usize) {
        if !self.active_mask[v] {
            self.active_mask[v] = true;
            self.pending_active.push(v);
        }
    }

    /// Folds `pending_active` into the sorted worklist.
    #[inline]
    fn merge_pending(&mut self) {
        if self.pending_active.is_empty() {
            return;
        }
        let mut pending = std::mem::take(&mut self.pending_active);
        pending.sort_unstable();
        for v in pending.drain(..) {
            if let Err(pos) = self.active_nodes.binary_search(&v) {
                self.active_nodes.insert(pos, v);
            }
        }
        self.pending_active = pending;
    }

    /// Drops routers whose flit count hit zero from the worklist
    /// (sparse mode only; dense mode keeps everyone).
    #[inline]
    fn retire_idle(&mut self) {
        if !self.config.sparse {
            return;
        }
        let Network {
            active_nodes,
            active_mask,
            node_flits,
            ..
        } = self;
        active_nodes.retain(|&v| {
            if node_flits[v].total() > 0 {
                true
            } else {
                active_mask[v] = false;
                false
            }
        });
    }

    fn step<P: Probe>(&mut self, probe: &mut P) -> Result<(), SimError> {
        let mut moved = false;
        self.generate(probe);
        self.merge_pending();
        moved |= self.consume(probe);
        moved |= self.transfer_links(probe);
        // Link arrivals can enable same-cycle switch allocation at the
        // receiver (zero router delay), so merge before allocating.
        self.merge_pending();
        moved |= self.allocate_switches(probe);
        self.active_node_cycles += self.active_nodes.len() as u64;
        self.end_of_cycle_bookkeeping();
        probe.on_cycle_end(self);
        self.retire_idle();

        if !moved && self.in_network > 0 {
            self.idle_cycles += 1;
            if self.idle_cycles >= self.config.stall_threshold {
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

    /// Phase 1: drain this cycle's arrival events into source queues
    /// and reschedule each source's next arrival.
    fn generate<P: Probe>(&mut self, probe: &mut P) {
        let deadline = SimTime::new((self.cycle + 1) as f64);
        let rate = self.config.packets_per_cycle();
        while let Some((t, arrival)) = self.arrivals.pop_before(deadline) {
            let v = arrival.node;
            let src = NodeId::new(v);
            let dst = match (arrival.dst, &self.pattern) {
                (Some(dst), _) => dst,
                (None, Some(pattern)) => pattern.pick_destination(src, &mut self.rng),
                (None, None) => unreachable!("pattern-less arrival without destination"),
            };
            let pid = PacketId::new(self.next_packet);
            self.next_packet += 1;
            let len = self.config.packet_len;
            let pkt = self.arena.alloc(pid, src, dst, self.cycle);
            probe.on_generate(self.cycle, pid, src, dst, len);
            self.total_flits_generated += len as u64;
            self.source_flits += len as u64;
            if self.measuring {
                self.stats.packets_generated += 1;
                self.stats.flits_generated += len as u64;
                self.stats.per_node_generated[v] += 1;
            }
            let queue = &mut self.nodes[v].source_queue;
            for i in 0..len {
                let kind = match (i, len) {
                    (0, 1) => FlitKind::HeadTail,
                    (0, _) => FlitKind::Head,
                    (i, l) if i + 1 == l => FlitKind::Tail,
                    _ => FlitKind::Body,
                };
                queue.push_back(ArenaFlit { pkt, kind, hops: 0 });
            }
            self.node_flits[v].source += len as u32;
            self.activate(v);
            // Stochastic sources reschedule themselves; trace arrivals
            // were all scheduled up front.
            if arrival.dst.is_none() {
                let dt = self
                    .config
                    .injection_process
                    .interarrival(&mut self.rng, rate);
                if dt.is_finite() {
                    self.arrivals
                        .schedule(t.advanced(dt), Arrival { node: v, dst: None });
                }
            }
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
        let sparse = self.config.sparse;
        let active = std::mem::take(&mut self.active_nodes);
        for &v in &active {
            // Dense-identical skip: a node with no ejected flits pops
            // nothing from any channel.
            if sparse && self.node_flits[v].eject == 0 {
                continue;
            }
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
                            self.stats.latency.record(self.cycle - created);
                        }
                        if self.config.record_deliveries {
                            self.deliveries.push(Delivery {
                                cycle: self.cycle,
                                packet: self.arena.packet_id(flit.pkt),
                                src: self.arena.src(flit.pkt),
                                dst: self.arena.dst(flit.pkt),
                                latency: self.cycle - created,
                                hops,
                            });
                        }
                        self.arena.free(flit.pkt);
                    }
                }
                if budget == 0 {
                    break 'outer;
                }
            }
        }
        self.active_nodes = active;
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
        let active = std::mem::take(&mut self.active_nodes);
        for &v in &active {
            // Snapshot: bits only clear during this node's turn (pushes
            // happen in the allocation phase), so a stale set bit just
            // re-checks an emptied queue. `link_blocked` is all zero in
            // dense mode.
            let slot_mask = self.out_slots[v] & !self.link_blocked[v];
            // Dense-identical skip: every output queue of this node is
            // empty or parked, so none of its links transfers anything.
            if sparse && slot_mask == 0 {
                continue;
            }
            let base = self.nodes[v].base;
            for d in 0..self.nodes[v].dirs.len() {
                if sparse && slot_mask & (vc_mask << (d * vcs)) == 0 {
                    continue;
                }
                let start = self.nodes[v].link_rr[d];
                for k in 0..vcs {
                    let mut vc = start + k;
                    if vc >= vcs {
                        vc -= vcs;
                    }
                    let bit = 1 << (d * vcs + vc);
                    if sparse && slot_mask & bit == 0 {
                        continue;
                    }
                    let s = base + d * vcs + vc;
                    if self.outputs.is_empty(s) {
                        continue;
                    }
                    let t = self.link_peer[s] as usize;
                    if !self.inputs.has_space(t) {
                        if sparse {
                            self.link_blocked[v] |= bit;
                        }
                        continue;
                    }
                    let mut flit = self.outputs.pop(s).expect("checked above");
                    self.wake(v, s);
                    self.nodes[v].link_rr[d] = if vc + 1 == vcs { 0 } else { vc + 1 };
                    flit.hops += 1;
                    if P::ACTIVE {
                        let full = self.arena.materialize(flit);
                        probe.on_link_traverse(self, v, d, vc, &full);
                    }
                    self.inputs.receive(t, flit, eligible);
                    let (peer, peer_port) = self.nodes[v].peer[d];
                    self.in_slots[peer] |= 1 << (peer_port * vcs + vc);
                    if self.outputs.is_empty(s) {
                        self.out_slots[v] &= !bit;
                    }
                    self.node_flits[v].output -= 1;
                    self.node_flits[peer].input += 1;
                    self.activate(peer);
                    if self.measuring {
                        self.stats.link_traversals += 1;
                        self.link_counters[v][d] += 1;
                    }
                    moved = true;
                    break;
                }
            }
        }
        self.active_nodes = active;
        moved
    }

    /// Phase 4: switch allocation at every active router.
    fn allocate_switches<P: Probe>(&mut self, probe: &mut P) -> bool {
        let mut moved = false;
        let sparse = self.config.sparse;
        let active = std::mem::take(&mut self.active_nodes);
        for &v in &active {
            // Dense-identical skip: every occupied slot (source queue,
            // input buffer) is parked, or there is none, so every
            // attempt would return without touching state.
            if sparse && self.occupied_slots(v) & !self.blocked[v] == 0 {
                continue;
            }
            moved |= self.allocate_node(v, probe);
        }
        self.active_nodes = active;
        moved
    }

    /// Allocation slots of router `v` holding a flit: bit 0 for the
    /// source queue, bit `1 + d * vcs + vc` for input buffer `(d, vc)`.
    #[inline]
    fn occupied_slots(&self, v: usize) -> u64 {
        (u64::from(self.in_slots[v]) << 1) | u64::from(self.node_flits[v].source > 0)
    }

    /// Runs switch allocation for one router: rotating priority over
    /// the source queue and every (input port, VC), one write per
    /// output port per cycle.
    fn allocate_node<P: Probe>(&mut self, v: usize, probe: &mut P) -> bool {
        let num_dirs = self.nodes[v].dirs.len();
        let nslots = 1 + num_dirs * self.vcs;
        // Like the sink pointer, the rotating priority used to advance
        // once per node per cycle unconditionally — cycle-derived, so
        // idle routers carry no allocation state at all.
        let start = (self.cycle % nslots as u64) as usize;
        // Writes left per output port this cycle: one per link port
        // (crossbar), `sink_rate` for the ejection port (the IP
        // interface is as wide as its consumption rate). A stack array
        // (ports bounded by MAX_PORTS, asserted at assembly) so the
        // per-node-per-cycle bookkeeping never touches the heap.
        let mut used = [1usize; MAX_PORTS];
        used[num_dirs] = self.config.sink_rate;
        let mut moved = false;
        // Dense-identical slot skips: an empty source queue or input
        // buffer makes its slot a no-op. The snapshot is safe — bits
        // only clear during this node's allocation, and a stale set bit
        // just re-runs the cheap empty check. Dense mode tries every
        // slot.
        let occupied = if self.config.sparse {
            self.occupied_slots(v)
        } else {
            u64::MAX
        };
        for k in 0..nslots {
            let mut slot = start + k;
            if slot >= nslots {
                slot -= nslots;
            }
            // Parked slots are skipped too, reading `blocked` live: a
            // push earlier in this turn (a tail releasing an ejection
            // channel, with `sink_rate > 1`) can wake a slot the dense
            // scan still tries this cycle.
            if (occupied & !self.blocked[v]) & (1 << slot) == 0 {
                continue;
            }
            moved |= if slot == 0 {
                self.try_inject(v, &mut used, probe)
            } else {
                self.try_forward(v, slot, &mut used, probe)
            };
        }
        moved
    }

    /// Computes the candidate output slots for a head flit at node `v`
    /// arriving on virtual channel `in_vc`, in the routing algorithm's
    /// preference order, appending them to `out`. Deterministic
    /// algorithms yield exactly one candidate — served from the
    /// precompiled table when available; adaptive ones several, and the
    /// switch takes the first whose queue can accept the flit.
    #[inline]
    fn head_routes_into(
        &mut self,
        v: usize,
        flit: &ArenaFlit,
        in_vc: usize,
        out: &mut Vec<SlotRoute>,
    ) {
        let here = NodeId::new(v);
        let dst = self.arena.dst(flit.pkt);
        if let Some(table) = &self.compiled {
            let hop = table.hop(here, dst);
            let slot = if hop.dir == Direction::Local {
                self.eject_route(v, flit)
            } else {
                let port = usize::from(self.nodes[v].port_of[hop.dir.index()]);
                debug_assert!(port < self.nodes[v].dirs.len(), "compiled absent port");
                self.link_slot(v, port, usize::from(hop.out_vc[in_vc]))
            };
            out.push(SlotRoute {
                out: slot,
                packet: flit.pkt,
            });
            return;
        }
        // Reuse the direction scratch buffer (taken so the routing call
        // can borrow `self`); head flits retry until they are placed (or
        // parked), so this runs far too often to allocate each time.
        let mut dirs = std::mem::take(&mut self.dir_scratch);
        dirs.clear();
        self.routing.candidates_into(here, dst, &mut dirs);
        for &dir in &dirs {
            let slot = if dir == Direction::Local {
                self.eject_route(v, flit)
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
            out.push(SlotRoute {
                out: slot,
                packet: flit.pkt,
            });
        }
        self.dir_scratch = dirs;
    }

    /// The ejection channel a head flit bound for router `v`'s sink
    /// claims: the first that can accept it (wormhole ownership: one
    /// packet per channel), or channel 0 to fail on if none can.
    fn eject_route(&self, v: usize, flit: &ArenaFlit) -> usize {
        let mut channels = self.eject_slots(v);
        let first = channels.start;
        channels
            .find(|&s| self.outputs.can_accept(s, flit))
            .unwrap_or(first)
    }

    /// Tries each candidate allocation in order and performs the first
    /// enqueue the crossbar and the queue allow; returns the route
    /// taken, if any.
    ///
    /// In sparse mode a failure is remembered when it can only repeat:
    /// if every candidate queue refused the flit on its own state (full,
    /// or owned by another packet), allocation slot `slot` is parked
    /// until one of those queues is pushed or popped. A candidate whose
    /// crossbar port was already used this cycle is a transient failure
    /// and parks nothing.
    #[inline]
    fn try_place(
        &mut self,
        v: usize,
        slot: usize,
        flit: &ArenaFlit,
        routes: &[SlotRoute],
        used: &mut [usize],
    ) -> Option<SlotRoute> {
        let mut transient = false;
        for &route in routes {
            let port = usize::from(self.slot_port[route.out].0);
            if used[port] == 0 {
                transient = true;
                continue;
            }
            if !self.outputs.can_accept(route.out, flit) {
                continue;
            }
            self.outputs.push(route.out, *flit);
            self.wake(v, route.out);
            if port == self.nodes[v].dirs.len() {
                self.node_flits[v].eject += 1;
            } else {
                self.node_flits[v].output += 1;
                self.out_slots[v] |= 1 << (route.out - self.nodes[v].base);
            }
            used[port] -= 1;
            return Some(route);
        }
        if self.config.sparse && !transient {
            self.park(v, slot, flit, routes);
        }
        None
    }

    /// Parks allocation slot `slot` of router `v` on every queue its
    /// failed attempt could have used. A head bound for the sink waits
    /// on all ejection channels, since it takes whichever accepts it
    /// first. Waking too often only costs one more failing attempt;
    /// missing a wake would change the results.
    fn park(&mut self, v: usize, slot: usize, flit: &ArenaFlit, routes: &[SlotRoute]) {
        let bit = 1 << slot;
        self.blocked[v] |= bit;
        for route in routes {
            if flit.kind.is_head() && route.out >= self.eject_slot(v, 0) {
                for s in self.eject_slots(v) {
                    self.waiters[s] |= bit;
                }
            } else {
                self.waiters[route.out] |= bit;
            }
        }
    }

    /// Un-parks every allocation slot of router `v` waiting on output
    /// slot `s`, which was just pushed or popped.
    #[inline]
    fn wake(&mut self, v: usize, s: usize) {
        let waiting = std::mem::take(&mut self.waiters[s]);
        self.blocked[v] &= !waiting;
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
        let route = if flit.kind.is_head() {
            let mut routes = std::mem::take(&mut self.route_scratch);
            routes.clear();
            self.head_routes_into(v, &flit, usize::from(vc), &mut routes);
            let placed = self.try_place(v, slot, &flit, &routes, used);
            self.route_scratch = routes;
            let Some(route) = placed else {
                return false;
            };
            route
        } else {
            // Body and tail flits reuse the packet's wormhole
            // allocation: the candidate list is one known route, so
            // no scratch vector round trip (5/6 of all forwards at the
            // paper's 6-flit packets).
            let r = self
                .inputs
                .route(s)
                .expect("body/tail flit with no wormhole allocation");
            assert_eq!(r.packet, flit.pkt, "stale wormhole allocation");
            let Some(route) = self.try_place(v, slot, &flit, std::slice::from_ref(&r), used) else {
                return false;
            };
            route
        };
        if P::ACTIVE {
            let (port, out_vc) = self.slot_port[route.out];
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
        self.inputs
            .set_route(s, (!flit.kind.is_tail()).then_some(route));
        if self.inputs.len(s) == 0 {
            self.in_slots[v] &= !(1 << (slot - 1));
        }
        self.node_flits[v].input -= 1;
        // The buffer has space again: un-park its one feeding link VC.
        let (u, bit) = self.upstream[s];
        self.link_blocked[u as usize] &= !bit;
        true
    }

    /// Tries to inject the head-of-line flit of the source queue
    /// (allocation slot 0).
    fn try_inject<P: Probe>(&mut self, v: usize, used: &mut [usize], probe: &mut P) -> bool {
        let Some(&flit) = self.nodes[v].source_queue.front() else {
            return false;
        };
        let route = if flit.kind.is_head() {
            let mut routes = std::mem::take(&mut self.route_scratch);
            routes.clear();
            self.head_routes_into(v, &flit, 0, &mut routes);
            let first_eject = self.eject_slot(v, 0);
            assert!(
                routes.iter().all(|r| r.out < first_eject),
                "packet addressed to its own source"
            );
            let placed = self.try_place(v, 0, &flit, &routes, used);
            self.route_scratch = routes;
            let Some(route) = placed else {
                return false;
            };
            route
        } else {
            // Single known route (the packet's injection allocation) —
            // same shortcut as the forward path.
            let r = self.nodes[v]
                .source_route
                .expect("injecting body/tail with no allocation");
            assert_eq!(r.packet, flit.pkt, "stale injection allocation");
            let Some(route) = self.try_place(v, 0, &flit, std::slice::from_ref(&r), used) else {
                return false;
            };
            route
        };
        if P::ACTIVE {
            let (port, out_vc) = self.slot_port[route.out];
            let full = self.arena.materialize(flit);
            probe.on_inject(self.cycle, v, port.into(), out_vc.into(), &full);
        }
        let node = &mut self.nodes[v];
        node.source_queue.pop_front();
        node.source_route = (!flit.kind.is_tail()).then_some(route);
        self.node_flits[v].source -= 1;
        self.in_network += 1;
        self.source_flits -= 1;
        if self.measuring {
            self.stats.flits_injected += 1;
        }
        true
    }

    /// Phase 5: per-cycle statistics updates.
    #[inline]
    fn end_of_cycle_bookkeeping(&mut self) {
        if self.measuring && self.config.sample_interval > 0 {
            let elapsed = self.cycle + 1 - self.config.warmup_cycles;
            if elapsed.is_multiple_of(self.config.sample_interval) {
                let delivered_now = self.stats.flits_delivered;
                let in_window = delivered_now - self.window_flits;
                self.stats
                    .throughput_samples
                    .push(in_window as f64 / self.config.sample_interval as f64);
                self.window_flits = delivered_now;
            }
        }
        if self.measuring {
            // Only active routers can hold source backlog (backlogged
            // flits keep their router on the worklist).
            let max_backlog = self
                .active_nodes
                .iter()
                .map(|&v| u64::from(self.node_flits[v].source))
                .max()
                .unwrap_or(0);
            self.stats.max_source_backlog = self.stats.max_source_backlog.max(max_backlog);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!(stats.max_source_backlog > 0);
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

    fn variant_config(lambda: f64, sparse: bool, compiled: bool) -> SimConfig {
        SimConfig::builder()
            .injection_rate(lambda)
            .warmup_cycles(200)
            .measure_cycles(2_000)
            .seed(777)
            .record_deliveries(true)
            .sparse(sparse)
            .compiled_routes(compiled)
            .build()
            .unwrap()
    }

    #[test]
    fn sparse_matches_dense_bit_for_bit() {
        for lambda in [0.02, 0.3] {
            let mut sparse = spidergon_sim_with(12, variant_config(lambda, true, true));
            let mut dense = spidergon_sim_with(12, variant_config(lambda, false, true));
            let a = sparse.run().unwrap();
            let b = dense.run().unwrap();
            assert_eq!(a, b, "stats diverged at lambda {lambda}");
            assert_eq!(
                sparse.deliveries(),
                dense.deliveries(),
                "deliveries diverged at lambda {lambda}"
            );
            assert!(sparse.uses_compiled_routes());
        }
    }

    #[test]
    fn compiled_routes_match_dynamic_routing() {
        let mut compiled = spidergon_sim_with(12, variant_config(0.2, true, true));
        let mut dynamic = spidergon_sim_with(12, variant_config(0.2, true, false));
        assert!(compiled.uses_compiled_routes());
        assert!(!dynamic.uses_compiled_routes());
        let a = compiled.run().unwrap();
        let b = dynamic.run().unwrap();
        assert_eq!(a, b);
        assert_eq!(compiled.deliveries(), dynamic.deliveries());
    }

    #[test]
    fn active_ratio_small_at_low_load_and_one_when_dense() {
        let mut sparse = spidergon_sim_with(16, variant_config(0.01, true, true));
        sparse.run().unwrap();
        let ratio = sparse.active_router_ratio();
        assert!(ratio > 0.0 && ratio < 0.5, "active ratio {ratio}");

        let mut dense = spidergon_sim_with(16, variant_config(0.01, false, true));
        dense.run().unwrap();
        let dense_ratio = dense.active_router_ratio();
        assert!(
            (dense_ratio - 1.0).abs() < 1e-12,
            "dense ratio {dense_ratio}"
        );
    }

    #[test]
    fn stalled_slots_park_only_in_sparse_mode() {
        // Past saturation most allocation attempts and link transfers
        // fail on a full or foreign-owned queue: the sparse core parks
        // them, the dense oracle retries them every cycle.
        for sparse in [true, false] {
            let mut sim = spidergon_sim_with(8, variant_config(1.0, sparse, true));
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
    fn fast_forward_replays_zero_throughput_samples() {
        // Zero injection: sparse mode fast-forwards the whole run,
        // dense mode steps every cycle; the sampled throughput series
        // must come out identical anyway.
        let sparse_stats = spidergon_sim_with(8, variant_config(0.0, true, true))
            .run()
            .unwrap();
        let dense_stats = spidergon_sim_with(8, variant_config(0.0, false, true))
            .run()
            .unwrap();
        assert_eq!(sparse_stats, dense_stats);
    }
}
