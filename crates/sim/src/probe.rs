//! Observability probes: flit-lifecycle tracing, windowed time-series
//! and per-packet latency decomposition.
//!
//! The simulator hot path is instrumented through the sealed [`Probe`]
//! trait, the one observation path of the simulator.
//! [`Simulation`](crate::Simulation) is generic over its probe
//! (`Simulation<P: Probe = NullProbe>`), so the default build
//! monomorphizes every hook into an empty inlined call — the unprobed
//! simulator pays nothing (the repository benchmark's traced run
//! reports a recorder's cost as `probe.recorder_over_null.*`). Besides
//! [`NullProbe`] there are two probes: the runtime invariant
//! [`Auditor`](crate::Auditor) ([`crate::audit`]) and the [`Recorder`].
//! Attaching a [`Recorder`] via
//! [`Simulation::with_probe`](crate::Simulation::with_probe) captures:
//!
//! * **flit-lifecycle events** — generate, inject, per-hop buffer
//!   enter/exit, link traverse, deliver — with cycle stamps,
//!   exportable as JSONL ([`Recorder::to_jsonl`]);
//! * **windowed time-series** — injection/acceptance rate, in-network
//!   occupancy, link utilization and peak buffer depth per window
//!   ([`Recorder::timeseries_csv`]), so warmup transients and
//!   saturation onset are visible instead of averaged away;
//! * **latency decomposition** — each delivered packet's latency split
//!   exactly into source-queuing, router-blocking and transfer
//!   components ([`Recorder::breakdown`], [`Recorder::packet_timings`]).
//!
//! A probe only *observes*: it receives copies of the data the
//! simulator is moving, and some hooks a read-only view of the
//! [`Network`]; it never touches the RNG, the statistics or any buffer,
//! so a recorded run produces bit-identical
//! [`SimStats`](crate::SimStats) to an unrecorded one with the same
//! seed (asserted in `tests/probe.rs`). Because a run is
//! seed-deterministic, recorder exports are byte-identical regardless
//! of how many worker threads the surrounding experiment engine uses.
//!
//! # Latency decomposition
//!
//! For a packet created at cycle `g`, whose tail flit is injected
//! (leaves the source queue) at cycle `i` and consumed at cycle `c`
//! after `h` link crossings, with router pipeline delay `d`:
//!
//! * `source_queuing = i - g` — time spent waiting in the NI source
//!   queue;
//! * `transfer = h * (1 + d) + 1` — the contention-free minimum for the
//!   remaining path: each hop costs one link cycle plus `d` pipeline
//!   cycles, and the final sink consumption costs one more cycle;
//! * `router_blocking = (c - g) - source_queuing - transfer` — every
//!   cycle lost to switch contention, busy links and backpressure.
//!
//! The components sum to the end-to-end latency `c - g` *exactly*, and
//! `router_blocking` is provably non-negative: the earliest possible
//! tail consumption after injection is `i + h*(1+d) + 1` (first link
//! crossing no earlier than `i + 1`, each later hop at least `1 + d`
//! cycles after the previous one, final ejection `d + 1` cycles after
//! the last crossing).

use crate::audit::BufferClass;
use crate::network::Network;
use crate::stats::LatencyStats;
use crate::Flit;
use crate::PacketId;
use core::fmt::Write as _;
use noc_topology::{Direction, NodeId};
use std::collections::HashMap;

/// Seals [`Probe`]: the simulator's hook contract is an internal
/// interface, implemented only by the probes of this crate.
mod sealed {
    pub trait Sealed {}
    impl Sealed for super::NullProbe {}
    impl Sealed for super::Recorder {}
    impl Sealed for crate::Auditor {}
}

/// Static description of the assembled network, captured by a
/// [`Recorder`] when it is attached ([`Probe::on_attach`]).
#[derive(Clone, Debug, Default)]
pub struct NetworkShape {
    /// Number of routers.
    pub num_nodes: usize,
    /// Virtual channels per link.
    pub vcs: usize,
    /// Flits per packet.
    pub packet_len: usize,
    /// Router pipeline delay in cycles (see `SimConfig::router_delay`).
    pub router_delay: u64,
    /// Cycles of warmup before measurement starts.
    pub warmup_cycles: u64,
    /// Ejection channels per node (`SimConfig::sink_rate`).
    pub sink_channels: usize,
    /// Link directions per node, in the simulator's canonical port
    /// order (`dirs[node][port]`).
    pub dirs: Vec<Vec<Direction>>,
    /// Per node and port: (peer node, peer input-port index).
    pub peer: Vec<Vec<(usize, usize)>>,
}

impl NetworkShape {
    /// Total number of unidirectional links.
    pub fn num_links(&self) -> usize {
        self.dirs.iter().map(Vec::len).sum()
    }
}

/// Simulator observation hooks, called from the cycle phases.
///
/// All hooks default to empty `#[inline]` bodies so the
/// [`NullProbe`]-instantiated simulator compiles them away. Hooks
/// receive plain copies of event data; the attach, link-traverse,
/// cycle-end and stall hooks also get a read-only view of the
/// [`Network`] as it stands at that moment. A probe can record and
/// cross-check, but cannot perturb.
///
/// This trait is sealed; outside this crate it can be named and used
/// as a bound but not implemented.
pub trait Probe: sealed::Sealed + core::fmt::Debug {
    /// `true` for probes that observe events ([`Recorder`],
    /// [`Auditor`](crate::Auditor)), `false` for [`NullProbe`]. The
    /// simulator uses this monomorphization-time constant to skip
    /// materializing event payloads on the hot path and to disable the
    /// sparse core's empty-network fast-forward, which would elide the
    /// per-cycle [`on_cycle_end`](Probe::on_cycle_end) calls an active
    /// probe depends on.
    const ACTIVE: bool;

    /// Called once, after assembly and before the first cycle.
    #[inline]
    fn on_attach(&mut self, net: &Network) {
        let _ = net;
    }

    /// A packet of `len` flits was created at `src` and appended to its
    /// source queue (phase 1).
    #[inline]
    fn on_generate(&mut self, cycle: u64, packet: PacketId, src: NodeId, dst: NodeId, len: usize) {
        let _ = (cycle, packet, src, dst, len);
    }

    /// A flit left the source queue of `node` into output queue
    /// `(out_port, out_vc)` (phase 4; the injection port is never the
    /// ejection port).
    #[inline]
    fn on_inject(&mut self, cycle: u64, node: usize, out_port: usize, out_vc: usize, flit: &Flit) {
        let _ = (cycle, node, out_port, out_vc, flit);
    }

    /// A flit left input buffer `(in_port, in_vc)` of `node` through
    /// the crossbar into output queue `(out_port, out_vc)`, or into
    /// ejection channel `out_vc` when `out_port` is `None` (phase 4).
    #[expect(
        clippy::too_many_arguments,
        reason = "the hook mirrors the crossbar's full (in, out) coordinates"
    )]
    #[inline]
    fn on_buffer_exit(
        &mut self,
        cycle: u64,
        node: usize,
        in_port: usize,
        in_vc: usize,
        out_port: Option<usize>,
        out_vc: usize,
        flit: &Flit,
    ) {
        let _ = (cycle, node, in_port, in_vc, out_port, out_vc, flit);
    }

    /// A flit crossed the link out of `(from, port)` on `vc` at cycle
    /// [`net.cycle()`](Network::cycle) and is about to enter the
    /// downstream input buffer (phase 3). `flit.hops` already counts
    /// this crossing; the receiving side follows from
    /// [`NetworkShape::peer`].
    #[inline]
    fn on_link_traverse(
        &mut self,
        net: &Network,
        from: usize,
        port: usize,
        vc: usize,
        flit: &Flit,
    ) {
        let _ = (net, from, port, vc, flit);
    }

    /// The sink at `node` consumed a flit from ejection channel
    /// `channel` (phase 2). Tail flits complete their packet.
    #[inline]
    fn on_consume(&mut self, cycle: u64, node: usize, channel: usize, flit: &Flit) {
        let _ = (cycle, node, channel, flit);
    }

    /// All phases of cycle [`net.cycle()`](Network::cycle) have run.
    #[inline]
    fn on_cycle_end(&mut self, net: &Network) {
        let _ = net;
    }

    /// The stall watchdog fired ([`SimError::Stalled`](crate::SimError)
    /// follows): no flit moved for `stall_threshold` cycles while flits
    /// were in flight.
    #[inline]
    fn on_stall(&mut self, net: &Network) {
        let _ = net;
    }
}

/// The do-nothing probe: the default `Simulation` type parameter.
///
/// Every hook keeps its empty trait default, so after monomorphization
/// the unprobed simulator contains no probe code at all.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct NullProbe;

impl Probe for NullProbe {
    const ACTIVE: bool = false;
}

/// One recorded flit-lifecycle event.
///
/// Events carry raw indices (not [`NodeId`]) plus cycle stamps; the
/// JSONL rendering ([`Recorder::to_jsonl`]) is integer-only and
/// therefore byte-deterministic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceEvent {
    /// Packet creation at its source NI (phase 1).
    Generate {
        /// Cycle stamp.
        cycle: u64,
        /// Raw packet id.
        packet: u64,
        /// Source node index.
        src: usize,
        /// Destination node index.
        dst: usize,
        /// Packet length in flits.
        len: usize,
    },
    /// Flit moved from source queue to an output queue (phase 4).
    Inject {
        /// Cycle stamp.
        cycle: u64,
        /// Injecting node.
        node: usize,
        /// Output port claimed.
        port: usize,
        /// Output VC claimed.
        vc: usize,
        /// Raw packet id.
        packet: u64,
        /// Flit kind.
        kind: crate::FlitKind,
    },
    /// Flit moved from an input buffer through the crossbar (phase 4).
    BufferExit {
        /// Cycle stamp.
        cycle: u64,
        /// Router where the move happened.
        node: usize,
        /// Input port the flit left.
        in_port: usize,
        /// Input VC the flit left.
        in_vc: usize,
        /// Output port entered; `None` = ejection channel `out_vc`.
        out_port: Option<usize>,
        /// Output VC (or ejection channel) entered.
        out_vc: usize,
        /// Raw packet id.
        packet: u64,
        /// Flit kind.
        kind: crate::FlitKind,
    },
    /// Flit crossed a link into the downstream input buffer (phase 3).
    LinkTraverse {
        /// Cycle stamp.
        cycle: u64,
        /// Upstream node.
        from: usize,
        /// Upstream output port.
        port: usize,
        /// Virtual channel used.
        vc: usize,
        /// Downstream node.
        to: usize,
        /// Downstream input port.
        to_port: usize,
        /// Raw packet id.
        packet: u64,
        /// Flit kind.
        kind: crate::FlitKind,
        /// Link crossings including this one.
        hops: u64,
    },
    /// Sink consumed a flit (phase 2).
    Deliver {
        /// Cycle stamp.
        cycle: u64,
        /// Consuming node.
        node: usize,
        /// Ejection channel drained.
        channel: usize,
        /// Raw packet id.
        packet: u64,
        /// Flit kind.
        kind: crate::FlitKind,
    },
    /// Tail consumption completed a packet: end-to-end latency and its
    /// exact decomposition.
    PacketDelivered {
        /// Cycle stamp (tail consumption).
        cycle: u64,
        /// Raw packet id.
        packet: u64,
        /// Source node index.
        src: usize,
        /// Destination node index.
        dst: usize,
        /// Link crossings per flit.
        hops: u64,
        /// End-to-end latency in cycles.
        latency: u64,
        /// Cycles the tail waited in the source queue.
        source_queuing: u64,
        /// Cycles lost to contention inside the network.
        router_blocking: u64,
        /// Contention-free transfer cycles (`hops * (1 + router_delay) + 1`).
        transfer: u64,
    },
}

impl TraceEvent {
    /// The event's cycle stamp.
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::Generate { cycle, .. }
            | TraceEvent::Inject { cycle, .. }
            | TraceEvent::BufferExit { cycle, .. }
            | TraceEvent::LinkTraverse { cycle, .. }
            | TraceEvent::Deliver { cycle, .. }
            | TraceEvent::PacketDelivered { cycle, .. } => cycle,
        }
    }

    /// Appends the event as one JSON object line (no trailing newline).
    fn write_jsonl(&self, out: &mut String) {
        let kind_str = |k: crate::FlitKind| match k {
            crate::FlitKind::Head => "H",
            crate::FlitKind::Body => "B",
            crate::FlitKind::Tail => "T",
            crate::FlitKind::HeadTail => "HT",
        };
        // All values are integers or fixed ASCII tags, so the output is
        // byte-deterministic with no float formatting involved.
        match *self {
            TraceEvent::Generate {
                cycle,
                packet,
                src,
                dst,
                len,
            } => {
                let _ = write!(
                    out,
                    r#"{{"event":"generate","cycle":{cycle},"packet":{packet},"src":{src},"dst":{dst},"len":{len}}}"#
                );
            }
            TraceEvent::Inject {
                cycle,
                node,
                port,
                vc,
                packet,
                kind,
            } => {
                let _ = write!(
                    out,
                    r#"{{"event":"inject","cycle":{cycle},"node":{node},"port":{port},"vc":{vc},"packet":{packet},"kind":"{}"}}"#,
                    kind_str(kind)
                );
            }
            TraceEvent::BufferExit {
                cycle,
                node,
                in_port,
                in_vc,
                out_port,
                out_vc,
                packet,
                kind,
            } => {
                let _ = match out_port {
                    Some(p) => write!(
                        out,
                        r#"{{"event":"buffer_exit","cycle":{cycle},"node":{node},"in_port":{in_port},"in_vc":{in_vc},"out_port":{p},"out_vc":{out_vc},"packet":{packet},"kind":"{}"}}"#,
                        kind_str(kind)
                    ),
                    None => write!(
                        out,
                        r#"{{"event":"buffer_exit","cycle":{cycle},"node":{node},"in_port":{in_port},"in_vc":{in_vc},"eject_channel":{out_vc},"packet":{packet},"kind":"{}"}}"#,
                        kind_str(kind)
                    ),
                };
            }
            TraceEvent::LinkTraverse {
                cycle,
                from,
                port,
                vc,
                to,
                to_port,
                packet,
                kind,
                hops,
            } => {
                let _ = write!(
                    out,
                    r#"{{"event":"link_traverse","cycle":{cycle},"from":{from},"port":{port},"vc":{vc},"to":{to},"to_port":{to_port},"packet":{packet},"kind":"{}","hops":{hops}}}"#,
                    kind_str(kind)
                );
            }
            TraceEvent::Deliver {
                cycle,
                node,
                channel,
                packet,
                kind,
            } => {
                let _ = write!(
                    out,
                    r#"{{"event":"deliver","cycle":{cycle},"node":{node},"channel":{channel},"packet":{packet},"kind":"{}"}}"#,
                    kind_str(kind)
                );
            }
            TraceEvent::PacketDelivered {
                cycle,
                packet,
                src,
                dst,
                hops,
                latency,
                source_queuing,
                router_blocking,
                transfer,
            } => {
                let _ = write!(
                    out,
                    r#"{{"event":"packet_delivered","cycle":{cycle},"packet":{packet},"src":{src},"dst":{dst},"hops":{hops},"latency":{latency},"source_queuing":{source_queuing},"router_blocking":{router_blocking},"transfer":{transfer}}}"#
                );
            }
        }
    }
}

/// One completed packet's timing record.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PacketTiming {
    /// Raw packet id.
    pub packet: u64,
    /// Source node index.
    pub src: usize,
    /// Destination node index.
    pub dst: usize,
    /// Creation cycle.
    pub created: u64,
    /// Tail-consumption cycle.
    pub delivered: u64,
    /// Link crossings per flit.
    pub hops: u64,
    /// Source-queuing component (cycles).
    pub source_queuing: u64,
    /// Router-blocking component (cycles).
    pub router_blocking: u64,
    /// Contention-free transfer component (cycles).
    pub transfer: u64,
}

impl PacketTiming {
    /// End-to-end latency; always equals the sum of the three
    /// components.
    pub fn latency(&self) -> u64 {
        self.delivered - self.created
    }
}

/// Per-component latency histograms over all delivered packets.
#[derive(Clone, PartialEq, Default, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LatencyBreakdown {
    /// Source-queuing component.
    pub source_queuing: LatencyStats,
    /// Router-blocking component.
    pub router_blocking: LatencyStats,
    /// Transfer component.
    pub transfer: LatencyStats,
    /// End-to-end latency (sum of the three components per packet).
    pub total: LatencyStats,
}

/// One window of the recorded time-series. All fields are raw integer
/// counts; rates are derived at export time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct WindowSample {
    /// First cycle of the window.
    pub start: u64,
    /// Cycles covered (shorter than the window length only for the
    /// final partial window).
    pub cycles: u64,
    /// Flits created by sources during the window.
    pub generated_flits: u64,
    /// Flits injected (source queue → router) during the window.
    pub injected_flits: u64,
    /// Flits consumed by sinks during the window.
    pub delivered_flits: u64,
    /// Packets completed (tail consumed) during the window.
    pub delivered_packets: u64,
    /// Link crossings during the window.
    pub link_traversals: u64,
    /// Flits inside routers at the end of the window.
    pub occupancy_end: u64,
    /// Largest router-buffer depth (input, output or ejection) observed
    /// during the window.
    pub peak_buffer_depth: usize,
}

/// Peak occupancy of one buffer over the whole recorded run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BufferPeak {
    /// Which buffer class (source / input / output / ejection).
    pub class: BufferClass,
    /// Node the buffer belongs to.
    pub node: usize,
    /// Port index (0 for source queues; ejection channel for ejection
    /// queues).
    pub port: usize,
    /// Virtual channel (0 for source and ejection queues).
    pub vc: usize,
    /// Maximum flits observed in the buffer.
    pub peak: usize,
}

/// Counters accumulated inside the currently open window.
#[derive(Clone, Copy, Default, Debug)]
struct WindowAccum {
    generated_flits: u64,
    injected_flits: u64,
    delivered_flits: u64,
    delivered_packets: u64,
    link_traversals: u64,
    peak_buffer_depth: usize,
}

/// Per-buffer depth counters with running peaks, indexed like the
/// simulator's buffer arrays.
#[derive(Clone, Default, Debug)]
struct DepthTracker {
    /// `[node][port][vc]` current depth.
    input: Vec<Vec<Vec<usize>>>,
    /// `[node][port][vc]` current depth.
    output: Vec<Vec<Vec<usize>>>,
    /// `[node][channel]` current depth.
    eject: Vec<Vec<usize>>,
    /// `[node]` current source-queue depth.
    source: Vec<usize>,
    input_peak: Vec<Vec<Vec<usize>>>,
    output_peak: Vec<Vec<Vec<usize>>>,
    eject_peak: Vec<Vec<usize>>,
    source_peak: Vec<usize>,
}

impl DepthTracker {
    fn for_shape(shape: &NetworkShape) -> Self {
        let per_node: Vec<Vec<Vec<usize>>> = shape
            .dirs
            .iter()
            .map(|dirs| vec![vec![0; shape.vcs]; dirs.len()])
            .collect();
        let eject = vec![vec![0; shape.sink_channels]; shape.num_nodes];
        DepthTracker {
            input: per_node.clone(),
            output: per_node.clone(),
            eject: eject.clone(),
            source: vec![0; shape.num_nodes],
            input_peak: per_node.clone(),
            output_peak: per_node,
            eject_peak: eject,
            source_peak: vec![0; shape.num_nodes],
        }
    }
}

/// The recording probe: captures lifecycle events, time-series windows,
/// buffer peaks and the per-packet latency decomposition.
///
/// Construct with [`Recorder::new`] (100-cycle windows) or
/// [`Recorder::with_window`], pass to
/// [`Simulation::with_probe`](crate::Simulation::with_probe), run, then
/// read the captured data back (e.g. via
/// [`Simulation::into_probe`](crate::Simulation::into_probe)).
#[derive(Clone, Debug)]
pub struct Recorder {
    shape: NetworkShape,
    window: u64,
    events: Vec<TraceEvent>,
    /// Tail-flit injection cycle per in-flight packet (raw id), removed
    /// at tail consumption. Access is keyed only — iteration order
    /// never matters, so the map cannot perturb determinism.
    tail_injected: HashMap<u64, u64>,
    timings: Vec<PacketTiming>,
    breakdown: LatencyBreakdown,
    windows: Vec<WindowSample>,
    current: WindowAccum,
    window_start: u64,
    cycles_in_window: u64,
    observed_cycles: u64,
    /// Flits currently inside routers (injected − consumed).
    occupancy: u64,
    /// Link crossings per `[node][port]` over the whole run.
    link_flits: Vec<Vec<u64>>,
    depths: DepthTracker,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// Default time-series window length in cycles.
    pub const DEFAULT_WINDOW: u64 = 100;

    /// A recorder with the default window length.
    pub fn new() -> Self {
        Recorder::with_window(Self::DEFAULT_WINDOW)
    }

    /// A recorder sampling time-series every `window` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn with_window(window: u64) -> Self {
        assert!(window > 0, "time-series window must be positive");
        Recorder {
            shape: NetworkShape::default(),
            window,
            events: Vec::new(),
            tail_injected: HashMap::new(),
            timings: Vec::new(),
            breakdown: LatencyBreakdown::default(),
            windows: Vec::new(),
            current: WindowAccum::default(),
            window_start: 0,
            cycles_in_window: 0,
            observed_cycles: 0,
            occupancy: 0,
            link_flits: Vec::new(),
            depths: DepthTracker::default(),
        }
    }

    /// The network description captured at attach time.
    pub fn shape(&self) -> &NetworkShape {
        &self.shape
    }

    /// All recorded events, in simulation order (cycle-major, then
    /// phase order: deliveries, link traversals, injections/crossbar
    /// moves — packet generation stamps lead each cycle).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Timing records of all completed packets, in delivery order.
    pub fn packet_timings(&self) -> &[PacketTiming] {
        &self.timings
    }

    /// Latency-component histograms over all completed packets.
    pub fn breakdown(&self) -> &LatencyBreakdown {
        &self.breakdown
    }

    /// Completed time-series windows (the still-open partial window is
    /// appended by [`timeseries_csv`](Self::timeseries_csv) only).
    pub fn windows(&self) -> &[WindowSample] {
        &self.windows
    }

    /// Cycles observed so far ([`Probe::on_cycle_end`] count).
    pub fn observed_cycles(&self) -> u64 {
        self.observed_cycles
    }

    /// Link crossings per `[node][port]` over the whole run.
    pub fn link_flits(&self) -> &[Vec<u64>] {
        &self.link_flits
    }

    /// Peak depth of every buffer over the run, in a fixed scan order
    /// (source, then per node: inputs, outputs, ejections).
    pub fn buffer_peaks(&self) -> Vec<BufferPeak> {
        let mut peaks = Vec::new();
        for (v, &peak) in self.depths.source_peak.iter().enumerate() {
            peaks.push(BufferPeak {
                class: BufferClass::Source,
                node: v,
                port: 0,
                vc: 0,
                peak,
            });
        }
        for (v, ports) in self.depths.input_peak.iter().enumerate() {
            for (p, vcs) in ports.iter().enumerate() {
                for (vc, &peak) in vcs.iter().enumerate() {
                    peaks.push(BufferPeak {
                        class: BufferClass::Input,
                        node: v,
                        port: p,
                        vc,
                        peak,
                    });
                }
            }
        }
        for (v, ports) in self.depths.output_peak.iter().enumerate() {
            for (p, vcs) in ports.iter().enumerate() {
                for (vc, &peak) in vcs.iter().enumerate() {
                    peaks.push(BufferPeak {
                        class: BufferClass::Output,
                        node: v,
                        port: p,
                        vc,
                        peak,
                    });
                }
            }
        }
        for (v, channels) in self.depths.eject_peak.iter().enumerate() {
            for (q, &peak) in channels.iter().enumerate() {
                peaks.push(BufferPeak {
                    class: BufferClass::Ejection,
                    node: v,
                    port: q,
                    vc: 0,
                    peak,
                });
            }
        }
        peaks
    }

    /// Renders all events as JSON Lines: one object per event, every
    /// object carrying `"event"` and `"cycle"` keys. Integer-only
    /// values make the output byte-deterministic.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96);
        for ev in &self.events {
            ev.write_jsonl(&mut out);
            out.push('\n');
        }
        out
    }

    /// Renders the time-series as CSV, one row per window (including
    /// the final partial window, if any). Derived-rate columns are
    /// computed from the integer counts with fixed 6-decimal
    /// formatting, keeping the bytes deterministic.
    pub fn timeseries_csv(&self) -> String {
        let mut out = String::from(
            "start,cycles,generated_flits,injected_flits,delivered_flits,\
             delivered_packets,link_traversals,injection_rate,acceptance_rate,\
             occupancy,link_utilization,peak_buffer_depth\n",
        );
        let links = self.shape.num_links().max(1) as f64;
        let mut write_row = |w: &WindowSample| {
            let cycles = w.cycles.max(1) as f64;
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{:.6},{:.6},{},{:.6},{}",
                w.start,
                w.cycles,
                w.generated_flits,
                w.injected_flits,
                w.delivered_flits,
                w.delivered_packets,
                w.link_traversals,
                w.injected_flits as f64 / cycles,
                w.delivered_flits as f64 / cycles,
                w.occupancy_end,
                w.link_traversals as f64 / (links * cycles),
                w.peak_buffer_depth,
            );
        };
        for w in &self.windows {
            write_row(w);
        }
        if self.cycles_in_window > 0 {
            write_row(&self.sample_from(self.current, self.cycles_in_window));
        }
        out
    }

    /// Renders whole-run per-link load as CSV
    /// (`node,direction,flits,utilization`), one row per unidirectional
    /// link in canonical port order. Utilization is flits per observed
    /// cycle (warmup included).
    pub fn links_csv(&self) -> String {
        let mut out = String::from("node,direction,flits,utilization\n");
        let cycles = self.observed_cycles.max(1) as f64;
        for (v, ports) in self.link_flits.iter().enumerate() {
            for (p, &flits) in ports.iter().enumerate() {
                let dir = self.shape.dirs[v][p];
                let _ = writeln!(out, "{v},{dir},{flits},{:.6}", flits as f64 / cycles);
            }
        }
        out
    }

    /// A 64-bit FNV-1a digest over the three exports (JSONL,
    /// time-series CSV, links CSV). Two runs with identical recorded
    /// behaviour produce identical digests, regardless of worker-thread
    /// count in the surrounding experiment engine.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = OFFSET;
        for part in [self.to_jsonl(), self.timeseries_csv(), self.links_csv()] {
            for byte in part.as_bytes() {
                hash ^= u64::from(*byte);
                hash = hash.wrapping_mul(PRIME);
            }
        }
        hash
    }

    fn sample_from(&self, acc: WindowAccum, cycles: u64) -> WindowSample {
        WindowSample {
            start: self.window_start,
            cycles,
            generated_flits: acc.generated_flits,
            injected_flits: acc.injected_flits,
            delivered_flits: acc.delivered_flits,
            delivered_packets: acc.delivered_packets,
            link_traversals: acc.link_traversals,
            occupancy_end: self.occupancy,
            peak_buffer_depth: acc.peak_buffer_depth,
        }
    }

    /// Folds a router-side depth update into the window peak.
    fn note_depth(&mut self, depth: usize) {
        if depth > self.current.peak_buffer_depth {
            self.current.peak_buffer_depth = depth;
        }
    }
}

impl Probe for Recorder {
    const ACTIVE: bool = true;

    fn on_attach(&mut self, net: &Network) {
        let shape = net.shape();
        self.link_flits = shape.dirs.iter().map(|dirs| vec![0; dirs.len()]).collect();
        self.depths = DepthTracker::for_shape(&shape);
        self.shape = shape;
    }

    fn on_generate(&mut self, cycle: u64, packet: PacketId, src: NodeId, dst: NodeId, len: usize) {
        self.events.push(TraceEvent::Generate {
            cycle,
            packet: packet.raw(),
            src: src.index(),
            dst: dst.index(),
            len,
        });
        self.current.generated_flits += len as u64;
        let d = &mut self.depths.source[src.index()];
        *d += len;
        let d = *d;
        let peak = &mut self.depths.source_peak[src.index()];
        if d > *peak {
            *peak = d;
        }
    }

    fn on_inject(&mut self, cycle: u64, node: usize, out_port: usize, out_vc: usize, flit: &Flit) {
        self.events.push(TraceEvent::Inject {
            cycle,
            node,
            port: out_port,
            vc: out_vc,
            packet: flit.packet.raw(),
            kind: flit.kind,
        });
        self.current.injected_flits += 1;
        self.occupancy += 1;
        self.depths.source[node] -= 1;
        if flit.kind.is_tail() {
            self.tail_injected.insert(flit.packet.raw(), cycle);
        }
        let d = &mut self.depths.output[node][out_port][out_vc];
        *d += 1;
        let d = *d;
        let peak = &mut self.depths.output_peak[node][out_port][out_vc];
        if d > *peak {
            *peak = d;
        }
        self.note_depth(d);
    }

    fn on_buffer_exit(
        &mut self,
        cycle: u64,
        node: usize,
        in_port: usize,
        in_vc: usize,
        out_port: Option<usize>,
        out_vc: usize,
        flit: &Flit,
    ) {
        self.events.push(TraceEvent::BufferExit {
            cycle,
            node,
            in_port,
            in_vc,
            out_port,
            out_vc,
            packet: flit.packet.raw(),
            kind: flit.kind,
        });
        self.depths.input[node][in_port][in_vc] -= 1;
        let d = match out_port {
            Some(p) => {
                let d = &mut self.depths.output[node][p][out_vc];
                *d += 1;
                let d = *d;
                let peak = &mut self.depths.output_peak[node][p][out_vc];
                if d > *peak {
                    *peak = d;
                }
                d
            }
            None => {
                let d = &mut self.depths.eject[node][out_vc];
                *d += 1;
                let d = *d;
                let peak = &mut self.depths.eject_peak[node][out_vc];
                if d > *peak {
                    *peak = d;
                }
                d
            }
        };
        self.note_depth(d);
    }

    fn on_link_traverse(
        &mut self,
        net: &Network,
        from: usize,
        port: usize,
        vc: usize,
        flit: &Flit,
    ) {
        let (to, to_port) = self.shape.peer[from][port];
        self.events.push(TraceEvent::LinkTraverse {
            cycle: net.cycle(),
            from,
            port,
            vc,
            to,
            to_port,
            packet: flit.packet.raw(),
            kind: flit.kind,
            hops: flit.hops,
        });
        self.current.link_traversals += 1;
        self.link_flits[from][port] += 1;
        self.depths.output[from][port][vc] -= 1;
        let d = &mut self.depths.input[to][to_port][vc];
        *d += 1;
        let d = *d;
        let peak = &mut self.depths.input_peak[to][to_port][vc];
        if d > *peak {
            *peak = d;
        }
        self.note_depth(d);
    }

    fn on_consume(&mut self, cycle: u64, node: usize, channel: usize, flit: &Flit) {
        self.events.push(TraceEvent::Deliver {
            cycle,
            node,
            channel,
            packet: flit.packet.raw(),
            kind: flit.kind,
        });
        self.current.delivered_flits += 1;
        self.occupancy -= 1;
        self.depths.eject[node][channel] -= 1;
        if flit.kind.is_tail() {
            self.current.delivered_packets += 1;
            let total = cycle - flit.created;
            // The tail is always injected before it can be consumed, so
            // the lookup hits; fall back to the creation cycle (zero
            // queuing) rather than panicking inside the hot loop.
            let injected = self
                .tail_injected
                .remove(&flit.packet.raw())
                .unwrap_or(flit.created);
            let source_queuing = injected - flit.created;
            let transfer = flit.hops * (1 + self.shape.router_delay) + 1;
            // Non-negative by the timing argument in the module docs;
            // `expect` (not saturation) keeps the decomposition honest:
            // components must sum to the total exactly.
            let router_blocking = (total - source_queuing)
                .checked_sub(transfer)
                .expect("transfer component exceeded post-injection latency");
            self.breakdown.source_queuing.record(source_queuing);
            self.breakdown.router_blocking.record(router_blocking);
            self.breakdown.transfer.record(transfer);
            self.breakdown.total.record(total);
            self.timings.push(PacketTiming {
                packet: flit.packet.raw(),
                src: flit.src.index(),
                dst: flit.dst.index(),
                created: flit.created,
                delivered: cycle,
                hops: flit.hops,
                source_queuing,
                router_blocking,
                transfer,
            });
            self.events.push(TraceEvent::PacketDelivered {
                cycle,
                packet: flit.packet.raw(),
                src: flit.src.index(),
                dst: flit.dst.index(),
                hops: flit.hops,
                latency: total,
                source_queuing,
                router_blocking,
                transfer,
            });
        }
    }

    fn on_cycle_end(&mut self, _net: &Network) {
        self.observed_cycles += 1;
        self.cycles_in_window += 1;
        if self.cycles_in_window == self.window {
            let sample = self.sample_from(self.current, self.cycles_in_window);
            self.windows.push(sample);
            self.window_start += self.window;
            self.cycles_in_window = 0;
            self.current = WindowAccum::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlitKind, SimConfig, Simulation};
    use noc_routing::MeshXY;
    use noc_topology::RectMesh;
    use noc_traffic::UniformRandom;

    /// A silent two-router network (a 2x1 mesh, one link each way, one
    /// VC) whose clock the tests advance by stepping it.
    fn two_node_net() -> Simulation {
        let mesh = RectMesh::new(2, 1).unwrap();
        let routing = MeshXY::new(&mesh);
        let pattern = UniformRandom::new(2).unwrap();
        let config = SimConfig::builder().injection_rate(0.0).build().unwrap();
        Simulation::new(Box::new(mesh), Box::new(routing), Box::new(pattern), config).unwrap()
    }

    /// Closes the current cycle on both the recorder and the network.
    fn end_cycle(rec: &mut Recorder, net: &mut Simulation) {
        rec.on_cycle_end(net);
        net.step().unwrap();
    }

    fn flit(kind: FlitKind, hops: u64) -> Flit {
        Flit {
            packet: PacketId::new(0),
            kind,
            src: NodeId::new(0),
            dst: NodeId::new(1),
            created: 0,
            hops,
        }
    }

    /// Walks one 2-flit packet through a minimal 2-node network and
    /// checks events, decomposition, windows and depth peaks.
    #[test]
    fn recorder_tracks_minimal_packet() {
        let mut net = two_node_net();
        let mut rec = Recorder::with_window(4);
        rec.on_attach(&net);
        assert_eq!(rec.shape().num_links(), 2);

        rec.on_generate(0, PacketId::new(0), NodeId::new(0), NodeId::new(1), 2);
        // Cycle 0: head injected; cycle 1: head crosses, tail injected.
        rec.on_inject(0, 0, 0, 0, &flit(FlitKind::Head, 0));
        end_cycle(&mut rec, &mut net);
        rec.on_link_traverse(&net, 0, 0, 0, &flit(FlitKind::Head, 1));
        rec.on_inject(1, 0, 0, 0, &flit(FlitKind::Tail, 0));
        end_cycle(&mut rec, &mut net);
        // Cycle 2: head exits input into ejection, tail crosses.
        rec.on_buffer_exit(2, 1, 0, 0, None, 0, &flit(FlitKind::Head, 1));
        rec.on_link_traverse(&net, 0, 0, 0, &flit(FlitKind::Tail, 1));
        end_cycle(&mut rec, &mut net);
        // Cycle 3: head consumed, tail exits into ejection.
        rec.on_consume(3, 1, 0, &flit(FlitKind::Head, 1));
        rec.on_buffer_exit(3, 1, 0, 0, None, 0, &flit(FlitKind::Tail, 1));
        end_cycle(&mut rec, &mut net);
        // Cycle 4: tail consumed -> packet completes.
        rec.on_consume(4, 1, 0, &flit(FlitKind::Tail, 1));
        end_cycle(&mut rec, &mut net);
        assert_eq!(
            rec.events()[2].cycle(),
            1,
            "link crossings read the view's clock"
        );

        let t = rec.packet_timings();
        assert_eq!(t.len(), 1);
        // Tail injected at 1 -> queuing 1; 1 hop, d=0 -> transfer 2;
        // delivered at 4 -> total 4, blocking 1.
        assert_eq!(t[0].source_queuing, 1);
        assert_eq!(t[0].transfer, 2);
        assert_eq!(t[0].router_blocking, 1);
        assert_eq!(
            t[0].source_queuing + t[0].router_blocking + t[0].transfer,
            t[0].latency()
        );
        assert_eq!(rec.breakdown().total.count(), 1);
        assert_eq!(rec.observed_cycles(), 5);
        assert_eq!(rec.occupancy, 0);

        // One full window (cycles 0..4) plus a partial one in progress.
        assert_eq!(rec.windows().len(), 1);
        let w = rec.windows()[0];
        assert_eq!(
            (w.generated_flits, w.injected_flits, w.delivered_flits),
            (2, 2, 1)
        );
        assert_eq!(w.delivered_packets, 0);
        assert_eq!(w.link_traversals, 2);
        assert_eq!(w.peak_buffer_depth, 1);

        // Every buffer is empty again; peaks reflect transit.
        let peaks = rec.buffer_peaks();
        assert!(peaks
            .iter()
            .any(|p| p.class == BufferClass::Source && p.node == 0 && p.peak == 2));
        assert!(peaks
            .iter()
            .any(|p| p.class == BufferClass::Ejection && p.node == 1 && p.peak == 1));
    }

    #[test]
    fn jsonl_lines_carry_event_and_cycle() {
        let mut rec = Recorder::new();
        rec.on_attach(&two_node_net());
        rec.on_generate(7, PacketId::new(3), NodeId::new(0), NodeId::new(1), 6);
        rec.on_inject(8, 0, 0, 0, &flit(FlitKind::Head, 0));
        let jsonl = rec.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            r#"{"event":"generate","cycle":7,"packet":3,"src":0,"dst":1,"len":6}"#
        );
        assert_eq!(
            lines[1],
            r#"{"event":"inject","cycle":8,"node":0,"port":0,"vc":0,"packet":0,"kind":"H"}"#
        );
        assert_eq!(rec.events()[0].cycle(), 7);
    }

    #[test]
    fn csv_exports_have_stable_headers() {
        let rec = Recorder::new();
        assert!(rec
            .timeseries_csv()
            .starts_with("start,cycles,generated_flits"));
        assert!(rec
            .links_csv()
            .starts_with("node,direction,flits,utilization"));
    }

    #[test]
    fn digest_is_deterministic_and_content_sensitive() {
        let build = |n: u64| {
            let mut net = two_node_net();
            let mut rec = Recorder::new();
            rec.on_attach(&net);
            for c in 0..n {
                rec.on_generate(c, PacketId::new(c), NodeId::new(0), NodeId::new(1), 2);
                end_cycle(&mut rec, &mut net);
            }
            rec
        };
        assert_eq!(build(5).digest(), build(5).digest());
        assert_ne!(build(5).digest(), build(6).digest());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_rejected() {
        let _ = Recorder::with_window(0);
    }

    #[test]
    fn null_probe_is_trivially_callable() {
        let net = two_node_net();
        let mut p = NullProbe;
        p.on_attach(&net);
        p.on_generate(0, PacketId::new(0), NodeId::new(0), NodeId::new(1), 6);
        p.on_cycle_end(&net);
        p.on_stall(&net);
    }
}
