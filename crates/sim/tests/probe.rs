//! Integration tests of the observability layer ([`noc_sim::probe`])
//! against full simulation runs: decomposition exactness,
//! non-perturbation, event-stream consistency and export determinism.

use noc_routing::{MeshXY, RingShortestPath, RoutingAlgorithm, SpidergonAcrossFirst};
use noc_sim::{Recorder, SimConfig, SimStats, Simulation, TraceEvent};
use noc_topology::{NodeId, RectMesh, Ring, Spidergon, Topology};
use noc_traffic::{
    InjectionProcess, SingleHotspot, Trace, TraceEntry, TrafficPattern, UniformRandom,
};
use std::collections::HashMap;

fn config(lambda: f64, router_delay: u64) -> SimConfig {
    SimConfig::builder()
        .injection_rate(lambda)
        .warmup_cycles(200)
        .measure_cycles(2_000)
        .router_delay(router_delay)
        .seed(2006)
        .build()
        .unwrap()
}

fn recorded_run(n: usize, lambda: f64, router_delay: u64, hotspot: bool) -> (SimStats, Recorder) {
    let topo = Spidergon::new(n).unwrap();
    let routing = SpidergonAcrossFirst::new(&topo);
    let pattern: Box<dyn TrafficPattern> = if hotspot {
        Box::new(SingleHotspot::new(n, NodeId::new(0)).unwrap())
    } else {
        Box::new(UniformRandom::new(n).unwrap())
    };
    let mut sim = Simulation::with_probe(
        Box::new(topo),
        Box::new(routing),
        pattern,
        config(lambda, router_delay),
        Recorder::new(),
    )
    .unwrap();
    let stats = sim.run().unwrap();
    (stats, sim.into_probe())
}

/// The acceptance criterion: for every delivered packet the three
/// decomposition components sum to the end-to-end latency *exactly*,
/// with a non-negative blocking term and the analytic transfer term.
#[test]
fn decomposition_components_sum_exactly() {
    for (router_delay, lambda, hotspot) in [(0, 0.3, false), (0, 0.4, true), (2, 0.2, false)] {
        let (_, rec) = recorded_run(16, lambda, router_delay, hotspot);
        assert!(
            rec.packet_timings().len() > 100,
            "workload too small to be meaningful"
        );
        for t in rec.packet_timings() {
            assert_eq!(
                t.source_queuing + t.router_blocking + t.transfer,
                t.latency(),
                "decomposition must be exact for packet {}",
                t.packet
            );
            assert_eq!(t.transfer, t.hops * (1 + router_delay) + 1);
        }
    }
}

/// Attaching a recorder must not perturb the simulation: identical
/// seed, identical `SimStats`, bit for bit.
#[test]
fn recorder_does_not_perturb_the_run() {
    let topo = Spidergon::new(16).unwrap();
    let routing = SpidergonAcrossFirst::new(&topo);
    let pattern = UniformRandom::new(16).unwrap();
    let mut plain = Simulation::new(
        Box::new(Spidergon::new(16).unwrap()),
        Box::new(SpidergonAcrossFirst::new(&topo)),
        Box::new(UniformRandom::new(16).unwrap()),
        config(0.3, 0),
    )
    .unwrap();
    let mut probed = Simulation::with_probe(
        Box::new(topo),
        Box::new(routing),
        Box::new(pattern),
        config(0.3, 0),
        Recorder::new(),
    )
    .unwrap();
    let a = plain.run().unwrap();
    let b = probed.run().unwrap();
    assert_eq!(a, b, "probe must only observe, never perturb");
}

/// The recorder's own totals agree with the simulator's lifetime
/// counters (warmup included): every generated flit is seen once, every
/// consumed flit is seen once, and the decomposition histograms cover
/// exactly the delivered packets.
#[test]
fn recorder_totals_match_simulator_counters() {
    let topo = Spidergon::new(16).unwrap();
    let routing = SpidergonAcrossFirst::new(&topo);
    let pattern = UniformRandom::new(16).unwrap();
    let mut sim = Simulation::with_probe(
        Box::new(topo),
        Box::new(routing),
        Box::new(pattern),
        config(0.3, 0),
        Recorder::new(),
    )
    .unwrap();
    let _ = sim.run().unwrap();
    let generated = sim.total_flits_generated();
    let consumed = sim.total_flits_consumed();
    let cycles = sim.cycle();
    let rec = sim.into_probe();

    let mut gen_flits = 0u64;
    let mut consumed_flits = 0u64;
    let mut injected = 0u64;
    let mut completed = 0u64;
    for ev in rec.events() {
        match *ev {
            TraceEvent::Generate { len, .. } => gen_flits += len as u64,
            TraceEvent::Deliver { .. } => consumed_flits += 1,
            TraceEvent::Inject { .. } => injected += 1,
            TraceEvent::PacketDelivered { .. } => completed += 1,
            _ => {}
        }
    }
    assert_eq!(gen_flits, generated);
    assert_eq!(consumed_flits, consumed);
    assert!(injected >= consumed_flits);
    assert_eq!(completed as usize, rec.packet_timings().len());
    assert_eq!(rec.breakdown().total.count(), completed);
    assert_eq!(rec.observed_cycles(), cycles);

    // Windowed series: integer counters partition the run.
    let windowed: u64 = rec.windows().iter().map(|w| w.delivered_flits).sum();
    assert!(windowed <= consumed);
    assert!(rec.windows().len() as u64 <= cycles / 100 + 1);
}

/// Per-packet lifecycle ordering: generation before injection, hops in
/// increasing cycle order, delivery last; a packet's flit count is
/// conserved through every stage.
#[test]
fn lifecycle_events_are_ordered_per_packet() {
    let (_, rec) = recorded_run(8, 0.2, 0, false);
    let mut generated_at: HashMap<u64, u64> = HashMap::new();
    let mut first_inject: HashMap<u64, u64> = HashMap::new();
    let mut last_traverse: HashMap<u64, u64> = HashMap::new();
    for ev in rec.events() {
        match *ev {
            TraceEvent::Generate { cycle, packet, .. } => {
                generated_at.insert(packet, cycle);
            }
            TraceEvent::Inject { cycle, packet, .. } => {
                first_inject.entry(packet).or_insert(cycle);
            }
            TraceEvent::LinkTraverse { cycle, packet, .. } => {
                let e = last_traverse.entry(packet).or_insert(cycle);
                assert!(*e <= cycle, "hop cycles must be non-decreasing");
                *e = cycle;
            }
            TraceEvent::PacketDelivered {
                cycle,
                packet,
                latency,
                ..
            } => {
                let born = generated_at[&packet];
                assert_eq!(cycle - born, latency);
                assert!(first_inject[&packet] >= born);
                assert!(last_traverse[&packet] < cycle);
            }
            _ => {}
        }
    }
    assert!(!generated_at.is_empty());
}

/// Exports are deterministic: two identical runs produce byte-identical
/// JSONL/CSV and therefore equal digests; a different seed differs.
#[test]
fn exports_are_deterministic() {
    let (_, a) = recorded_run(16, 0.2, 0, true);
    let (_, b) = recorded_run(16, 0.2, 0, true);
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a.to_jsonl(), b.to_jsonl());
    assert_eq!(a.timeseries_csv(), b.timeseries_csv());
    assert_eq!(a.links_csv(), b.links_csv());
}

/// Every JSONL line is a standalone JSON object carrying at least the
/// `event` and `cycle` keys (the schema the CI smoke step asserts).
#[test]
fn jsonl_lines_are_valid_json_with_schema() {
    /// The common envelope of every event line; other keys vary per
    /// event type and are ignored by the lenient `default` mode.
    #[derive(Default, serde::Deserialize)]
    #[serde(default)]
    struct Envelope {
        event: String,
        cycle: Option<u64>,
    }

    let (_, rec) = recorded_run(8, 0.1, 0, false);
    let jsonl = rec.to_jsonl();
    assert!(!jsonl.is_empty());
    const KNOWN: [&str; 6] = [
        "generate",
        "inject",
        "buffer_exit",
        "link_traverse",
        "deliver",
        "packet_delivered",
    ];
    for line in jsonl.lines() {
        let env: Envelope = serde_json::from_str(line).expect("every line parses as JSON");
        assert!(KNOWN.contains(&env.event.as_str()), "{line}");
        assert!(env.cycle.is_some(), "{line}");
    }
}

/// Link-load CSV covers every unidirectional link and agrees with the
/// recorder's raw counters; buffer peaks respect configured capacities.
#[test]
fn link_csv_and_buffer_peaks_are_consistent() {
    let (_, rec) = recorded_run(16, 0.3, 0, true);
    let csv = rec.links_csv();
    // Header plus one row per link.
    assert_eq!(csv.lines().count(), 1 + rec.shape().num_links());
    let total_from_csv: u64 = csv
        .lines()
        .skip(1)
        .map(|l| l.split(',').nth(2).unwrap().parse::<u64>().unwrap())
        .sum();
    let total_raw: u64 = rec.link_flits().iter().flatten().sum();
    assert_eq!(total_from_csv, total_raw);
    assert!(total_raw > 0);

    let peaks = rec.buffer_peaks();
    assert!(!peaks.is_empty());
    for p in &peaks {
        let cap = match p.class {
            noc_sim::BufferClass::Input => 1,
            noc_sim::BufferClass::Output | noc_sim::BufferClass::Ejection => 3,
            // Source queues are unbounded; links carry no standing depth.
            noc_sim::BufferClass::Source | noc_sim::BufferClass::Link => usize::MAX,
        };
        assert!(
            p.peak <= cap,
            "{:?} buffer at node {} exceeded capacity: {}",
            p.class,
            p.node,
            p.peak
        );
    }
}

/// The network of a pinned run: topology, routing and traffic pattern.
type PinnedNet = (
    Box<dyn Topology>,
    Box<dyn RoutingAlgorithm>,
    Box<dyn TrafficPattern>,
);

/// Spidergon-16 with across-first routing under uniform traffic.
fn spidergon16_uniform() -> PinnedNet {
    let topo = Spidergon::new(16).unwrap();
    let routing = SpidergonAcrossFirst::new(&topo);
    (
        Box::new(topo),
        Box::new(routing),
        Box::new(UniformRandom::new(16).unwrap()),
    )
}

/// A recorded run of `net` (200 + 800 cycles, seed 2006) under
/// `process` at `lambda` with `sink_rate` ejection channels per node:
/// its statistics and flit-event digest.
fn pinned_run(
    (topo, routing, pattern): PinnedNet,
    process: InjectionProcess,
    lambda: f64,
    sink_rate: usize,
) -> (SimStats, u64) {
    let config = SimConfig::builder()
        .injection_rate(lambda)
        .injection_process(process)
        .sink_rate(sink_rate)
        .warmup_cycles(200)
        .measure_cycles(800)
        .seed(2006)
        .build()
        .unwrap();
    let mut sim = Simulation::with_probe(topo, routing, pattern, config, Recorder::new()).unwrap();
    let stats = sim.run().unwrap();
    (stats, sim.into_probe().digest())
}

/// Pins every buffer's peak depth over a saturated spidergon-16
/// hot-spot run with two sink channels and a one-cycle router pipeline.
/// The digest covers only the exports, which record no peaks, so this
/// holds the recorder's depth bookkeeping for every buffer class.
#[test]
fn buffer_peaks_are_pinned() {
    let topo = Spidergon::new(16).unwrap();
    let routing = SpidergonAcrossFirst::new(&topo);
    let pattern = SingleHotspot::new(16, NodeId::new(0)).unwrap();
    let config = SimConfig::builder()
        .injection_rate(0.6)
        .sink_rate(2)
        .router_delay(1)
        .warmup_cycles(200)
        .measure_cycles(800)
        .seed(2006)
        .build()
        .unwrap();
    let mut sim = Simulation::with_probe(
        Box::new(topo),
        Box::new(routing),
        Box::new(pattern),
        config,
        Recorder::new(),
    )
    .unwrap();
    let stats = sim.run().unwrap();
    assert!(stats.backlog_flits > 0, "must be past saturation");
    let peaks = sim.into_probe().buffer_peaks();
    // 16 sources, 16 × 3 ports × 2 VCs inputs and outputs, 16 × 2
    // ejection channels.
    assert_eq!(peaks.len(), 16 + 2 * 96 + 32);
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for p in &peaks {
        for byte in format!("{p:?}").bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!(
        hash, 0x4668_07b4_5481_b5fc,
        "buffer peaks changed: hash {hash:#018x}"
    );
}

/// A recorded 3×3-mesh trace replay over the same window: four entries
/// per listed cycle, their sources out of node order, so packet ids
/// follow the trace's order within a cycle.
fn pinned_trace_run() -> (SimStats, u64) {
    let mesh = RectMesh::new(3, 3).unwrap();
    let routing = MeshXY::new(&mesh);
    let entries = (0..120u64)
        .map(|i| {
            let src = (i * 5 % 9) as usize;
            TraceEntry {
                cycle: i / 4 * 25,
                src: NodeId::new(src),
                dst: NodeId::new((src + 1 + (i % 8) as usize) % 9),
            }
        })
        .collect();
    let trace = Trace::new(9, entries).unwrap();
    let config = SimConfig::builder()
        .warmup_cycles(200)
        .measure_cycles(800)
        .seed(2006)
        .build()
        .unwrap();
    let mut sim = Simulation::with_trace(
        Box::new(mesh),
        Box::new(routing),
        &trace,
        config,
        Recorder::new(),
    )
    .unwrap();
    let stats = sim.run().unwrap();
    (stats, sim.into_probe().digest())
}

/// A recorded ring-8 uniform run at λ = 0.005 (200 + 2000 cycles, seed
/// 5): its statistics, its flit-event digest and the number of cycles
/// that end with no flit anywhere, counted on a stepped run.
fn pinned_drain_run() -> (SimStats, u64, u64) {
    let ring = Ring::new(8).unwrap();
    let config = SimConfig::builder()
        .injection_rate(0.005)
        .warmup_cycles(200)
        .measure_cycles(2_000)
        .seed(5)
        .build()
        .unwrap();
    let build = |probe| {
        Simulation::with_probe(
            Box::new(ring.clone()),
            Box::new(RingShortestPath::new(&ring)),
            Box::new(UniformRandom::new(8).unwrap()),
            config.clone(),
            probe,
        )
        .unwrap()
    };
    let mut stepped = build(Recorder::new());
    let mut empty = 0;
    while stepped.cycle() < config.total_cycles() {
        stepped.step().unwrap();
        if stepped.flits_in_network() + stepped.source_backlog() == 0 {
            empty += 1;
        }
    }
    let mut sim = build(Recorder::new());
    let stats = sim.run().unwrap();
    (stats, sim.into_probe().digest(), empty)
}

/// Pins the flit-event order of runs under every arrival kind. The
/// golden files pin only `SimStats`, so a kernel change that reorders
/// generate, inject or forward events while keeping the statistics
/// equal would pass them; the recorder's digest covers every event with
/// its cycle, node, port, VC and packet. Bernoulli and CBR arrival
/// times tie, and so do same-cycle trace entries: simultaneous arrivals
/// must fire in the order they were scheduled, which fixes packet ids
/// and the RNG draws of each destination. Past saturation (λ = 0.6)
/// the source queues hold most of the traffic, so those runs exercise
/// long backlogs and half-injected packets.
///
/// Switch allocation rotates over a router's allocation slots (the
/// source queue plus one per input VC), so the topology rows pin it at
/// every slot count the paper's networks have: 7 on spidergon-16, 5 on
/// ring-16, and 3, 4 and 5 on the 4×4 mesh's corner, edge and inner
/// routers. The two-channel hot-spot row parks heads on every ejection
/// channel of the hot node. The low-load ring-8 row is empty in most of
/// its cycles, which a sparse run skips: its digest holds only if every
/// skipped cycle still reaches the recorder.
#[test]
fn flit_event_digests_are_pinned() {
    use InjectionProcess::{Bernoulli, Cbr, Poisson};
    for (process, lambda, pinned) in [
        (Poisson, 0.6, 0x16f1_7116_08c0_2670),
        (Bernoulli, 0.6, 0xac9a_4cd8_68c1_1f9f),
        (Bernoulli, 0.2, 0xbc61_ecf9_25e4_5fad),
        (Cbr, 0.6, 0x0600_c0a9_e732_0a54),
    ] {
        let (stats, digest) = pinned_run(spidergon16_uniform(), process, lambda, 1);
        let what = format!("{process:?} λ = {lambda}");
        if lambda > 0.5 {
            assert!(stats.backlog_flits > 0, "{what}: must be past saturation");
        }
        assert_eq!(
            digest, pinned,
            "{what}: flit-event order changed: digest {digest:#018x}"
        );
    }
    let ring = Ring::new(16).unwrap();
    let mesh = RectMesh::new(4, 4).unwrap();
    let spidergon = Spidergon::new(16).unwrap();
    let rows: [(&str, PinnedNet, usize, u64); 3] = [
        (
            "ring-16 uniform",
            (
                Box::new(ring.clone()),
                Box::new(RingShortestPath::new(&ring)),
                Box::new(UniformRandom::new(16).unwrap()),
            ),
            1,
            0xe6e0_fca4_4d0e_e383,
        ),
        (
            "4x4 mesh uniform",
            (
                Box::new(mesh.clone()),
                Box::new(MeshXY::new(&mesh)),
                Box::new(UniformRandom::new(16).unwrap()),
            ),
            1,
            0xf224_4ea8_ef21_02f0,
        ),
        (
            "spidergon-16 hot-spot, two sink channels",
            (
                Box::new(spidergon.clone()),
                Box::new(SpidergonAcrossFirst::new(&spidergon)),
                Box::new(SingleHotspot::new(16, NodeId::new(0)).unwrap()),
            ),
            2,
            0x4319_a753_382c_4274,
        ),
    ];
    for (what, net, sink_rate, pinned) in rows {
        let (stats, digest) = pinned_run(net, Poisson, 0.6, sink_rate);
        assert!(stats.backlog_flits > 0, "{what}: must be past saturation");
        assert_eq!(
            digest, pinned,
            "{what}: flit-event order changed: digest {digest:#018x}"
        );
    }
    let (stats, digest) = pinned_trace_run();
    assert_eq!(stats.packets_generated, 88, "entries from the warmup on");
    assert_eq!(
        digest, 0x3315_c009_fe5f_c530,
        "trace replay: flit-event order changed: digest {digest:#018x}"
    );
    let (stats, digest, empty) = pinned_drain_run();
    assert!(stats.packets_delivered > 0, "{stats}");
    assert!(empty > 1_100, "only {empty} of 2200 cycles empty");
    assert_eq!(
        digest, 0xf7b0_3fe8_28c9_b0cb,
        "ring-8 λ = 0.005: flit-event order changed: digest {digest:#018x}"
    );
}
