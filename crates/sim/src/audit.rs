//! Runtime invariant auditor for the wormhole simulation.
//!
//! The paper's throughput/latency figures are only as trustworthy as
//! the simulator's bookkeeping: a switch-allocation bug that drops or
//! duplicates a flit shifts every curve without failing a single
//! assertion. The [`Auditor`] is a [`Probe`]: attached to a simulation
//! with [`Simulation::with_probe`](crate::Simulation::with_probe), it
//! cross-checks, while the simulation runs:
//!
//! * **Flit conservation** — `generated = consumed + source backlog +
//!   in network`, re-derived from the buffers every audited cycle and
//!   compared against the simulator's incremental counters;
//! * **Buffer capacity** — every input buffer, output VC queue and
//!   ejection queue holds at most its capacity (the signal-based flow
//!   control credit never goes negative);
//! * **Wormhole ordering** — flits of different packets never
//!   interleave within a VC (on links and inside queues), queue
//!   ownership matches the queued flits, and packets reassemble at
//!   their destination head-first, in order, with the full flit count
//!   and equal per-flit hop counts;
//! * **Route legality** — every link a head flit crosses is one the
//!   [`RoutingAlgorithm`] could have produced
//!   ([`RoutingAlgorithm::candidates`]), hops make strict progress
//!   towards the destination when the algorithm routes minimally
//!   (checked against an independent BFS distance matrix), and no flit
//!   exceeds the `4·N + 4` hop budget of
//!   [`noc_routing::validate::walk_route`];
//! * **Progress** — when the stall watchdog fires, the wait-for graph
//!   of blocked virtual channels is inspected to distinguish a true
//!   circular wait (deadlock, with a witness cycle) from starvation;
//!   saturation alone never trips the watchdog because flits keep
//!   moving.
//!
//! On attach the auditor also runs a **preflight** cross-check of the
//! routing algorithm through [`noc_routing::validate`] and the channel
//! dependency graph ([`noc_routing::cdg`]), so a routing function that
//! cannot possibly be correct is flagged before the first cycle.
//!
//! Violations are reported as structured [`AuditViolation`] values in
//! an [`AuditReport`] — never panics — so sweeps can aggregate audit
//! findings across workers deterministically. The auditor only *reads*
//! simulation state: an audited run produces bit-identical
//! [`SimStats`](crate::SimStats) to an unaudited run of the same seed
//! (asserted by the conformance harness in `noc-core`).
//!
//! The route-legality check deliberately consults
//! [`RoutingAlgorithm::candidates`], not the
//! [`candidates_into`](RoutingAlgorithm::candidates_into) fast path the
//! switch allocator uses — the two are required to agree, so a
//! miscompiled or hand-"optimized" fast path is caught by the slow one.

use crate::network::Network;
use crate::probe::Probe;
use crate::{Flit, PacketId};
use core::fmt;
use noc_routing::cdg::CdgAnalysis;
use noc_routing::{validate, RoutingAlgorithm};
use noc_topology::graph::DistanceMatrix;
use noc_topology::{Direction, NodeId, Topology};
use std::collections::HashMap;

/// Hard cap on recorded violations; a broken invariant usually fires
/// every cycle, and the first few occurrences carry all the signal.
const MAX_VIOLATIONS: usize = 64;

/// Node-count ceiling for the preflight route/CDG validation and the
/// BFS distance oracle (both are O(N²) or worse; beyond this the
/// auditor still checks conservation, buffers, wormhole order and
/// candidate membership, but skips the all-pairs analyses).
const PREFLIGHT_MAX_NODES: usize = 512;

/// The invariant classes the auditor checks.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Invariant {
    /// `generated = consumed + source backlog + in network`, and the
    /// incremental counters agree with the buffer-derived occupancy.
    FlitConservation,
    /// Every buffer holds at most its capacity.
    BufferCapacity,
    /// Flits of different packets never interleave within a VC and
    /// packets reassemble in order with all their flits.
    WormholeOrder,
    /// Every hop taken is one the routing algorithm could have
    /// produced, and makes progress towards the destination.
    RouteLegality,
    /// The network keeps making progress: a fired stall watchdog with a
    /// circular wait among blocked VCs is a deadlock.
    Progress,
}

impl Invariant {
    /// Stable machine-readable name of the invariant.
    pub const fn name(self) -> &'static str {
        match self {
            Invariant::FlitConservation => "flit-conservation",
            Invariant::BufferCapacity => "buffer-capacity",
            Invariant::WormholeOrder => "wormhole-order",
            Invariant::RouteLegality => "route-legality",
            Invariant::Progress => "progress",
        }
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which buffer class of the node model a violation points at.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum BufferClass {
    /// The NI source (injection) queue.
    Source,
    /// An input buffer of a link port.
    Input,
    /// An output VC queue of a link port.
    Output,
    /// A local ejection queue towards the IP sink.
    Ejection,
    /// The link itself (wormhole ordering on the wire).
    Link,
}

impl fmt::Display for BufferClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BufferClass::Source => "source",
            BufferClass::Input => "input",
            BufferClass::Output => "output",
            BufferClass::Ejection => "eject",
            BufferClass::Link => "link",
        })
    }
}

/// Identifies one buffer (or link) of the node model.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BufferRef {
    /// The node the buffer belongs to.
    pub node: NodeId,
    /// Buffer class within the node model.
    pub class: BufferClass,
    /// Link direction, where the class has one.
    pub direction: Option<Direction>,
    /// Virtual channel (or ejection-channel) index.
    pub vc: usize,
}

impl fmt::Display for BufferRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.direction {
            Some(d) => write!(f, "{}:{}[{d}].vc{}", self.node, self.class, self.vc),
            None => write!(f, "{}:{}.vc{}", self.node, self.class, self.vc),
        }
    }
}

/// One invariant violation, with enough context to localize the bug:
/// which invariant, at which cycle, at which node and buffer, and which
/// packet's flits were involved.
#[derive(Clone, PartialEq, Eq, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct AuditViolation {
    /// The invariant that was violated.
    pub invariant: Invariant,
    /// Cycle at which the violation was detected (0 for preflight
    /// findings, recorded before the first cycle runs).
    pub cycle: u64,
    /// Node at which the violation was observed, if localized.
    pub node: Option<NodeId>,
    /// Buffer or link involved, if localized.
    pub buffer: Option<BufferRef>,
    /// Packet whose flits were involved, if any.
    pub packet: Option<PacketId>,
    /// Human-readable description with the offending values.
    pub detail: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] cycle {}", self.invariant, self.cycle)?;
        if let Some(node) = self.node {
            write!(f, " at {node}")?;
        }
        if let Some(buf) = self.buffer {
            write!(f, " ({buf})")?;
        }
        if let Some(p) = self.packet {
            write!(f, " {p}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Outcome of the wait-for-graph inspection run when the stall watchdog
/// fires: was the stall a true deadlock or mere starvation?
#[derive(Clone, PartialEq, Eq, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum StallDiagnosis {
    /// A circular wait among blocked virtual channels: the witness
    /// cycle, as the chain of buffers each waiting on the next.
    Deadlock {
        /// The buffers forming the circular wait, in chain order.
        cycle: Vec<BufferRef>,
    },
    /// No circular wait was found among the blocked VCs — the stall is
    /// starvation or an arbitration bug, not a wormhole deadlock.
    NoCircularWait,
}

/// Aggregated findings of one audited simulation run.
///
/// Obtained from [`Auditor::report`] or [`Auditor::into_report`].
/// Reports are plain data (`PartialEq`, serde) so replicated sweeps can
/// compare and aggregate them deterministically across workers.
#[derive(Clone, PartialEq, Debug, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct AuditReport {
    /// Violations found, in detection order (capped; see `truncated`).
    pub violations: Vec<AuditViolation>,
    /// Individual invariant evaluations performed.
    pub checks: u64,
    /// Cycles at which the per-cycle sweep ran.
    pub cycles_audited: u64,
    /// Per-flit events observed (link crossings and consumptions).
    pub flit_events: u64,
    /// `true` if more violations occurred than were recorded.
    pub truncated: bool,
    /// Whether the preflight route/CDG validation ran (skipped above
    /// a node-count ceiling).
    pub preflight_ran: bool,
    /// Stall diagnosis, present only if the watchdog fired.
    pub stall: Option<StallDiagnosis>,
}

impl AuditReport {
    /// `true` if no violation was observed (or dropped).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && !self.truncated
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "audit: {} violation(s){} over {} cycle(s), {} check(s), {} flit event(s)",
            self.violations.len(),
            if self.truncated { "+ (truncated)" } else { "" },
            self.cycles_audited,
            self.checks,
            self.flit_events,
        )?;
        match &self.stall {
            Some(StallDiagnosis::Deadlock { cycle }) => {
                write!(f, "; DEADLOCK via {} blocked channel(s)", cycle.len())?;
            }
            Some(StallDiagnosis::NoCircularWait) => {
                write!(f, "; stalled without circular wait")?;
            }
            None => {}
        }
        for v in &self.violations {
            write!(f, "\n  {v}")?;
        }
        Ok(())
    }
}

/// Per-packet reassembly tracking at the sinks.
struct PacketTrack {
    /// Flits of the packet consumed so far.
    consumed: usize,
    /// Hop count of the first consumed flit; all flits of a wormhole
    /// packet cross the same links, so the rest must match.
    hops: u64,
}

/// The runtime invariant auditor: a [`Probe`] that reads the network at
/// every hook and records what it finds in an [`AuditReport`].
///
/// ```
/// use noc_routing::RingShortestPath;
/// use noc_sim::{Auditor, SimConfig, Simulation};
/// use noc_topology::Ring;
/// use noc_traffic::UniformRandom;
///
/// let ring = Ring::new(8)?;
/// let routing = Box::new(RingShortestPath::new(&ring));
/// let traffic = Box::new(UniformRandom::new(8)?);
/// let config = SimConfig::default();
/// let mut sim = Simulation::with_probe(Box::new(ring), routing, traffic, config, Auditor::new())?;
/// sim.run()?;
/// assert!(sim.into_probe().into_report().is_clean());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Auditor {
    interval: u64,
    packet_len: usize,
    hop_budget: u64,
    /// Progress oracle enabled: preflight proved the algorithm minimal,
    /// so every hop must reduce the BFS distance by exactly one.
    minimal: bool,
    dist: Option<DistanceMatrix>,
    /// Packet currently holding each unidirectional link VC, indexed
    /// `[node][dir][vc]` — tracks wormhole ownership *on the wire*.
    link_owner: Vec<Vec<Vec<Option<PacketId>>>>,
    packets: HashMap<PacketId, PacketTrack>,
    report: AuditReport,
}

impl fmt::Debug for Auditor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Auditor")
            .field("interval", &self.interval)
            .field("minimal", &self.minimal)
            .field("report", &self.report)
            .finish_non_exhaustive()
    }
}

impl Default for Auditor {
    fn default() -> Self {
        Auditor::new()
    }
}

impl Auditor {
    /// An auditor sweeping the whole network every cycle.
    pub fn new() -> Self {
        Auditor::with_interval(1)
    }

    /// An auditor whose whole-network sweep (conservation, buffer
    /// bounds, queue structure) runs every `interval`-th cycle, trading
    /// coverage for speed. Per-flit checks (route legality, wormhole
    /// ordering) still run on every event.
    ///
    /// # Panics
    ///
    /// Panics if `interval == 0`.
    pub fn with_interval(interval: u64) -> Self {
        assert!(interval > 0, "audit interval must be positive");
        Auditor {
            interval,
            packet_len: 0,
            hop_budget: 0,
            minimal: false,
            dist: None,
            link_owner: Vec::new(),
            packets: HashMap::new(),
            report: AuditReport::default(),
        }
    }

    /// Cross-checks the routing algorithm against
    /// [`noc_routing::validate`] and the CDG before the first cycle.
    fn preflight(&mut self, topo: &dyn Topology, routing: &dyn RoutingAlgorithm) {
        self.dist = Some(topo.graph().all_pairs_distances());
        self.report.preflight_ran = true;
        self.report.checks += 1;
        match validate::validate_all_routes(routing, topo) {
            Ok(rep) => {
                // Deterministic walks terminate; check deadlock freedom
                // of the resulting channel dependency graph.
                self.report.checks += 1;
                let cdg = CdgAnalysis::analyze(routing, topo);
                if let Some(cycle) = cdg.cycle() {
                    let witness: Vec<String> = cycle.iter().map(|c| c.to_string()).collect();
                    self.push(AuditViolation {
                        invariant: Invariant::Progress,
                        cycle: 0,
                        node: None,
                        buffer: None,
                        packet: None,
                        detail: format!(
                            "preflight: channel dependency graph is cyclic ({})",
                            witness.join(" -> ")
                        ),
                    });
                }
                if rep.non_minimal == 0 {
                    // next_hop routes minimally; if every adaptive
                    // candidate also makes strict progress, enable the
                    // per-hop distance oracle.
                    self.report.checks += 1;
                    match validate::validate_all_candidates(routing, topo) {
                        Ok(()) => self.minimal = true,
                        Err(e) => self.push(AuditViolation {
                            invariant: Invariant::RouteLegality,
                            cycle: 0,
                            node: None,
                            buffer: None,
                            packet: None,
                            detail: format!("preflight: candidate validation failed: {e}"),
                        }),
                    }
                }
            }
            Err(e) => self.push(AuditViolation {
                invariant: Invariant::RouteLegality,
                cycle: 0,
                node: None,
                buffer: None,
                packet: None,
                detail: format!("preflight: route validation failed: {e}"),
            }),
        }
    }

    /// The findings so far.
    pub fn report(&self) -> &AuditReport {
        &self.report
    }

    /// The final findings.
    pub fn into_report(self) -> AuditReport {
        self.report
    }

    fn push(&mut self, violation: AuditViolation) {
        if self.report.violations.len() >= MAX_VIOLATIONS {
            self.report.truncated = true;
            return;
        }
        self.report.violations.push(violation);
    }

    /// Route legality of one head-flit hop: membership in the routing
    /// algorithm's candidate set, and strict progress under the BFS
    /// distance oracle when the algorithm is minimal.
    fn check_hop_legality(
        &mut self,
        net: &Network,
        v: usize,
        peer: usize,
        dir: Direction,
        vc: usize,
        flit: &Flit,
    ) {
        let here = NodeId::new(v);
        self.report.checks += 1;
        let legal = net.routing.candidates(here, flit.dst);
        if !legal.contains(&dir) {
            self.push(AuditViolation {
                invariant: Invariant::RouteLegality,
                cycle: net.cycle(),
                node: Some(here),
                buffer: Some(BufferRef {
                    node: here,
                    class: BufferClass::Link,
                    direction: Some(dir),
                    vc,
                }),
                packet: Some(flit.packet),
                detail: format!(
                    "hop {here} --{dir}--> n{peer} for {flit} is not among the \
                     routing candidates {legal:?}"
                ),
            });
            return;
        }
        if !self.minimal {
            return;
        }
        if let Some(dist) = &self.dist {
            self.report.checks += 1;
            let from = dist.distance(v, flit.dst.index());
            let to = dist.distance(peer, flit.dst.index());
            if to + 1 != from {
                self.push(AuditViolation {
                    invariant: Invariant::RouteLegality,
                    cycle: net.cycle(),
                    node: Some(here),
                    buffer: Some(BufferRef {
                        node: here,
                        class: BufferClass::Link,
                        direction: Some(dir),
                        vc,
                    }),
                    packet: Some(flit.packet),
                    detail: format!(
                        "hop {here} --{dir}--> n{peer} for {flit} is non-minimal \
                         (distance {from} -> {to}) under a minimal algorithm"
                    ),
                });
            }
        }
    }

    /// Capacity and wormhole-structure checks for every buffer of one
    /// node.
    fn check_node_buffers(&mut self, net: &Network, v: usize, cycle: u64) {
        let node = &net.nodes[v];
        let id = NodeId::new(v);
        for d in 0..node.dirs.len() {
            let dir = node.dirs[d];
            for c in 0..net.vcs {
                let s = net.link_slot(v, d, c);
                let r = BufferRef {
                    node: id,
                    class: BufferClass::Input,
                    direction: Some(dir),
                    vc: c,
                };
                self.report.checks += 1;
                let (len, cap) = (net.inputs.len(s), net.inputs.capacity());
                if len > cap {
                    self.push_overflow(cycle, r, len, cap);
                }
                self.check_queue_structure(
                    cycle,
                    r,
                    net.inputs.iter(s).map(|&f| net.arena.materialize(f)),
                    None,
                );
            }
            for c in 0..net.vcs {
                let r = BufferRef {
                    node: id,
                    class: BufferClass::Output,
                    direction: Some(dir),
                    vc: c,
                };
                self.check_output(net, cycle, r, net.link_slot(v, d, c));
            }
        }
        for (c, s) in net.eject_slots(v).enumerate() {
            let r = BufferRef {
                node: id,
                class: BufferClass::Ejection,
                direction: None,
                vc: c,
            };
            self.check_output(net, cycle, r, s);
        }
    }

    /// Capacity and wormhole-structure checks for output slot `s`.
    fn check_output(&mut self, net: &Network, cycle: u64, r: BufferRef, s: usize) {
        self.report.checks += 1;
        let (len, cap) = (net.outputs.len(s), net.outputs.capacity());
        if len > cap {
            self.push_overflow(cycle, r, len, cap);
        }
        self.check_queue_structure(
            cycle,
            r,
            net.outputs.iter(s).map(|&f| net.arena.materialize(f)),
            Some(net.outputs.owner(s).map(|p| net.arena.packet_id(p))),
        );
    }

    fn push_overflow(&mut self, cycle: u64, buffer: BufferRef, len: usize, capacity: usize) {
        self.push(AuditViolation {
            invariant: Invariant::BufferCapacity,
            cycle,
            node: Some(buffer.node),
            buffer: Some(buffer),
            packet: None,
            detail: format!("buffer holds {len} flit(s), capacity {capacity}"),
        });
    }

    /// Wormhole structure of one queue: consecutive flits either belong
    /// to the same packet (head..tail order) or a fresh head follows a
    /// tail; for owned queues the declared owner must match the flits.
    fn check_queue_structure(
        &mut self,
        cycle: u64,
        buffer: BufferRef,
        flits: impl Iterator<Item = Flit>,
        declared_owner: Option<Option<PacketId>>,
    ) {
        self.report.checks += 1;
        let mut last: Option<Flit> = None;
        for flit in flits {
            if let Some(prev) = last {
                let ok = if flit.kind.is_head() {
                    prev.kind.is_tail()
                } else {
                    flit.packet == prev.packet && !prev.kind.is_tail()
                };
                if !ok {
                    self.push(AuditViolation {
                        invariant: Invariant::WormholeOrder,
                        cycle,
                        node: Some(buffer.node),
                        buffer: Some(buffer),
                        packet: Some(flit.packet),
                        detail: format!("{flit} queued directly after {prev}"),
                    });
                }
            }
            last = Some(flit);
        }
        if let (Some(owner), Some(tail)) = (declared_owner, last) {
            let expect = if tail.kind.is_tail() {
                None
            } else {
                Some(tail.packet)
            };
            if owner != expect {
                self.push(AuditViolation {
                    invariant: Invariant::WormholeOrder,
                    cycle,
                    node: Some(buffer.node),
                    buffer: Some(buffer),
                    packet: expect.or(owner),
                    detail: format!(
                        "queue owner {owner:?} inconsistent with last queued flit {tail}"
                    ),
                });
            }
        }
    }
}

impl Probe for Auditor {
    const ACTIVE: bool = true;

    /// Sizes the per-link wormhole tracking and runs the preflight
    /// routing validation.
    fn on_attach(&mut self, net: &Network) {
        let n = net.nodes.len();
        self.packet_len = net.config.packet_len;
        self.hop_budget = (4 * n + 4) as u64;
        self.link_owner = net
            .nodes
            .iter()
            .map(|node| vec![vec![None; net.vcs]; node.dirs.len()])
            .collect();
        if n <= PREFLIGHT_MAX_NODES {
            self.preflight(net.topo.as_ref(), net.routing.as_ref());
        }
    }

    /// Observes one flit crossing the link `(v, dirs[d])` on `vc`.
    /// `flit` is the flit *after* its hop counter was incremented.
    fn on_link_traverse(&mut self, net: &Network, v: usize, d: usize, vc: usize, flit: &Flit) {
        self.report.flit_events += 1;
        self.report.checks += 2;
        let dir = net.nodes[v].dirs[d];
        let (peer, _) = net.nodes[v].peer[d];
        let link = BufferRef {
            node: NodeId::new(v),
            class: BufferClass::Link,
            direction: Some(dir),
            vc,
        };
        // Wormhole ownership on the wire: a head claims the link VC
        // until the matching tail; no foreign flit may interleave.
        let owner = self.link_owner[v][d][vc];
        if flit.kind.is_head() {
            if let Some(prev) = owner {
                self.push(AuditViolation {
                    invariant: Invariant::WormholeOrder,
                    cycle: net.cycle(),
                    node: Some(NodeId::new(v)),
                    buffer: Some(link),
                    packet: Some(flit.packet),
                    detail: format!("head {flit} crossed link still owned by {prev}"),
                });
            }
            self.link_owner[v][d][vc] = if flit.kind.is_tail() {
                None
            } else {
                Some(flit.packet)
            };
        } else {
            if owner != Some(flit.packet) {
                self.push(AuditViolation {
                    invariant: Invariant::WormholeOrder,
                    cycle: net.cycle(),
                    node: Some(NodeId::new(v)),
                    buffer: Some(link),
                    packet: Some(flit.packet),
                    detail: format!(
                        "{flit} crossed link owned by {} (interleaved wormholes)",
                        owner.map_or_else(|| "nobody".to_owned(), |p| p.to_string()),
                    ),
                });
            }
            if flit.kind.is_tail() {
                self.link_owner[v][d][vc] = None;
            }
        }
        if flit.kind.is_head() {
            self.check_hop_legality(net, v, peer, dir, vc, flit);
        }
        if flit.hops > self.hop_budget {
            self.push(AuditViolation {
                invariant: Invariant::RouteLegality,
                cycle: net.cycle(),
                node: Some(NodeId::new(v)),
                buffer: Some(link),
                packet: Some(flit.packet),
                detail: format!(
                    "{flit} exceeded the {}-hop budget ({} hops): routing livelock",
                    self.hop_budget, flit.hops
                ),
            });
        }
    }

    /// Observes one flit consumed by the sink at node `v`.
    fn on_consume(&mut self, cycle: u64, v: usize, _channel: usize, flit: &Flit) {
        self.report.flit_events += 1;
        self.report.checks += 2;
        if flit.dst.index() != v {
            self.push(AuditViolation {
                invariant: Invariant::RouteLegality,
                cycle,
                node: Some(NodeId::new(v)),
                buffer: None,
                packet: Some(flit.packet),
                detail: format!("{flit} consumed at n{v}, not its destination {}", flit.dst),
            });
        }
        let track = self.packets.entry(flit.packet).or_insert(PacketTrack {
            consumed: 0,
            hops: flit.hops,
        });
        let mut bad: Option<String> = None;
        if flit.kind.is_head() && track.consumed > 0 {
            bad = Some(format!(
                "head {flit} consumed after {} earlier flit(s)",
                track.consumed
            ));
        } else if !flit.kind.is_head() && track.consumed == 0 {
            bad = Some(format!("{flit} consumed before its head"));
        } else if track.hops != flit.hops {
            bad = Some(format!(
                "{flit} crossed {} link(s) but its head crossed {} (divergent wormhole path)",
                flit.hops, track.hops
            ));
        }
        track.consumed += 1;
        let consumed = track.consumed;
        if flit.kind.is_tail() {
            self.packets.remove(&flit.packet);
            if bad.is_none() && consumed != self.packet_len {
                bad = Some(format!(
                    "packet reassembled with {consumed} of {} flit(s)",
                    self.packet_len
                ));
            }
        } else if bad.is_none() && consumed >= self.packet_len {
            bad = Some(format!(
                "{flit} is flit #{consumed} of a {}-flit packet with no tail yet",
                self.packet_len
            ));
        }
        if let Some(detail) = bad {
            self.push(AuditViolation {
                invariant: Invariant::WormholeOrder,
                cycle,
                node: Some(NodeId::new(v)),
                buffer: None,
                packet: Some(flit.packet),
                detail,
            });
        }
    }

    /// Per-cycle sweep (every `interval` cycles): conservation
    /// identity, counter consistency, buffer bounds and queue
    /// structure.
    fn on_cycle_end(&mut self, net: &Network) {
        if !net.cycle().is_multiple_of(self.interval) {
            return;
        }
        let cycle = net.cycle();
        self.report.cycles_audited += 1;
        self.report.checks += 3;
        let occ = net.occupancy();
        let generated = net.total_flits_generated();
        let consumed = net.total_flits_consumed();
        let accounted = consumed + occ.source_flits + occ.in_network();
        if generated != accounted {
            self.push(AuditViolation {
                invariant: Invariant::FlitConservation,
                cycle,
                node: None,
                buffer: None,
                packet: None,
                detail: format!(
                    "generated {generated} != consumed {consumed} + backlog {} + \
                     in-network {} (flits lost or duplicated)",
                    occ.source_flits,
                    occ.in_network()
                ),
            });
        }
        if net.flits_in_network() != occ.in_network() {
            self.push(AuditViolation {
                invariant: Invariant::FlitConservation,
                cycle,
                node: None,
                buffer: None,
                packet: None,
                detail: format!(
                    "in-network counter {} drifted from buffer-derived occupancy {}",
                    net.flits_in_network(),
                    occ.in_network()
                ),
            });
        }
        if net.source_backlog() != occ.source_flits {
            self.push(AuditViolation {
                invariant: Invariant::FlitConservation,
                cycle,
                node: None,
                buffer: None,
                packet: None,
                detail: format!(
                    "source-backlog counter {} drifted from derived backlog {}",
                    net.source_backlog(),
                    occ.source_flits
                ),
            });
        }
        for v in 0..net.nodes.len() {
            self.check_node_buffers(net, v, cycle);
        }
    }

    /// Called when the stall watchdog fires: inspects the wait-for
    /// graph of blocked VCs to tell deadlock from starvation.
    fn on_stall(&mut self, net: &Network) {
        self.report.checks += 1;
        match find_circular_wait(net) {
            Some(chain) => {
                let witness: Vec<String> = chain.iter().map(|b| b.to_string()).collect();
                self.push(AuditViolation {
                    invariant: Invariant::Progress,
                    cycle: net.cycle(),
                    node: chain.first().map(|b| b.node),
                    buffer: chain.first().copied(),
                    packet: None,
                    detail: format!("deadlock: circular wait {}", witness.join(" -> ")),
                });
                self.report.stall = Some(StallDiagnosis::Deadlock { cycle: chain });
            }
            None => {
                self.push(AuditViolation {
                    invariant: Invariant::Progress,
                    cycle: net.cycle(),
                    node: None,
                    buffer: None,
                    packet: None,
                    detail: "watchdog fired but no circular wait exists among blocked VCs \
                             (starvation or arbitration bug, not wormhole deadlock)"
                        .to_owned(),
                });
                self.report.stall = Some(StallDiagnosis::NoCircularWait);
            }
        }
    }
}

/// Builds the wait-for graph over blocked VC resources and returns a
/// witness cycle, if one exists.
///
/// Resources are input buffers and output VC queues. Edges:
///
/// * a nonempty output queue waits for space in the downstream input
///   buffer of its link;
/// * a nonempty input buffer whose front flit cannot enter any of its
///   legal output queues waits on those queues (all routing candidates
///   for a head flit; the wormhole allocation for body/tail flits).
///
/// Ejection queues are sinks (the IP drains them every cycle) and
/// source queues hold no network resource, so neither can close a
/// cycle.
fn find_circular_wait(net: &Network) -> Option<Vec<BufferRef>> {
    let vcs = net.vcs;
    let n = net.nodes.len();
    // Resource ids: per node, `dirs.len() * vcs` input slots followed by
    // `dirs.len() * vcs` output slots.
    let mut base = vec![0usize; n + 1];
    for v in 0..n {
        base[v + 1] = base[v] + 2 * net.nodes[v].dirs.len() * vcs;
    }
    let total = base[n];
    let input_id = |v: usize, d: usize, c: usize| base[v] + d * vcs + c;
    let output_id =
        |v: usize, d: usize, c: usize| base[v] + net.nodes[v].dirs.len() * vcs + d * vcs + c;
    let mut refs: Vec<Option<BufferRef>> = vec![None; total];
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); total];
    for (v, node) in net.nodes.iter().enumerate() {
        for d in 0..node.dirs.len() {
            let dir = node.dirs[d];
            for c in 0..vcs {
                refs[input_id(v, d, c)] = Some(BufferRef {
                    node: NodeId::new(v),
                    class: BufferClass::Input,
                    direction: Some(dir),
                    vc: c,
                });
                refs[output_id(v, d, c)] = Some(BufferRef {
                    node: NodeId::new(v),
                    class: BufferClass::Output,
                    direction: Some(dir),
                    vc: c,
                });
                let s = net.link_slot(v, d, c);
                // Output queue -> downstream input buffer.
                if !net.outputs.is_empty(s) {
                    let (u, up) = node.peer[d];
                    if !net.inputs.has_space(net.link_slot(u, up, c)) {
                        adj[output_id(v, d, c)].push(input_id(u, up, c));
                    }
                }
                // Input buffer -> blocked output queue(s) at this node.
                let Some(&flit) = net.inputs.iter(s).next() else {
                    continue;
                };
                if flit.kind.is_head() {
                    let dst = net.arena.dst(flit.pkt);
                    for cand in net.routing.candidates(NodeId::new(v), dst) {
                        if cand == Direction::Local {
                            continue; // ejection queues always drain
                        }
                        let Some(p) = node.dirs.iter().position(|&x| x == cand) else {
                            continue; // illegal hop, flagged elsewhere
                        };
                        let out_vc = net.routing.vc_for_hop(NodeId::new(v), dst, cand, c);
                        if out_vc < vcs
                            && !net.outputs.can_accept(net.link_slot(v, p, out_vc), &flit)
                        {
                            adj[input_id(v, d, c)].push(output_id(v, p, out_vc));
                        }
                    }
                } else if let Some(route) = net.inputs.route(s) {
                    // Ejection channels (the slots after the link slots)
                    // always drain; a link slot's offset from the node's
                    // base is its `port * vcs + vc`.
                    let local = route.out - node.base;
                    if route.out < net.eject_slot(v, 0) && !net.outputs.can_accept(route.out, &flit)
                    {
                        adj[input_id(v, d, c)].push(output_id(v, local / vcs, local % vcs));
                    }
                }
            }
        }
    }
    let cycle_ids = find_cycle(&adj)?;
    Some(cycle_ids.iter().filter_map(|&id| refs[id]).collect())
}

/// Iterative DFS cycle detection; returns the node ids forming the
/// first cycle found, in chain order.
fn find_cycle(adj: &[Vec<usize>]) -> Option<Vec<usize>> {
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; adj.len()];
    for start in 0..adj.len() {
        if color[start] != WHITE {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        let mut path = vec![start];
        color[start] = GRAY;
        while let Some(frame) = stack.last_mut() {
            let (u, edge) = (frame.0, frame.1);
            if edge < adj[u].len() {
                frame.1 += 1;
                let w = adj[u][edge];
                if color[w] == WHITE {
                    color[w] = GRAY;
                    stack.push((w, 0));
                    path.push(w);
                } else if color[w] == GRAY {
                    let pos = path.iter().position(|&x| x == w)?;
                    return Some(path[pos..].to_vec());
                }
            } else {
                color[u] = BLACK;
                stack.pop();
                path.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invariant_names_are_stable() {
        assert_eq!(Invariant::FlitConservation.name(), "flit-conservation");
        assert_eq!(Invariant::RouteLegality.to_string(), "route-legality");
    }

    #[test]
    fn buffer_ref_display() {
        let r = BufferRef {
            node: NodeId::new(3),
            class: BufferClass::Output,
            direction: Some(Direction::Clockwise),
            vc: 1,
        };
        assert_eq!(r.to_string(), "n3:output[cw].vc1");
        let e = BufferRef {
            node: NodeId::new(0),
            class: BufferClass::Ejection,
            direction: None,
            vc: 0,
        };
        assert_eq!(e.to_string(), "n0:eject.vc0");
    }

    #[test]
    fn report_display_and_cleanliness() {
        let mut report = AuditReport::default();
        assert!(report.is_clean());
        report.violations.push(AuditViolation {
            invariant: Invariant::FlitConservation,
            cycle: 42,
            node: None,
            buffer: None,
            packet: None,
            detail: "x".to_owned(),
        });
        assert!(!report.is_clean());
        let text = report.to_string();
        assert!(text.contains("flit-conservation"), "{text}");
        assert!(text.contains("cycle 42"), "{text}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let _ = Auditor::with_interval(0);
    }

    #[test]
    fn find_cycle_detects_and_clears() {
        // 0 -> 1 -> 2 -> 0 plus a tail 3 -> 0.
        let adj = vec![vec![1], vec![2], vec![0], vec![0]];
        let cycle = find_cycle(&adj).unwrap();
        assert_eq!(cycle.len(), 3);
        // A DAG has none.
        let dag = vec![vec![1, 2], vec![2], vec![]];
        assert!(find_cycle(&dag).is_none());
    }
}
