//! Tests for the extension features: trace replay, the delivery log,
//! torus simulation and adaptive (West-First) routing.

use noc_routing::{MeshXY, RoutingAlgorithm, TorusXY, WestFirst};
use noc_sim::{NullProbe, SimConfig, SimError, Simulation};
use noc_topology::{NodeId, RectMesh, Torus};
use noc_traffic::{SingleHotspot, Trace, TraceEntry, UniformRandom};

fn config(lambda: f64) -> SimConfig {
    SimConfig::builder()
        .injection_rate(lambda)
        .warmup_cycles(200)
        .measure_cycles(3_000)
        .seed(77)
        .build()
        .unwrap()
}

#[test]
fn trace_replay_delivers_every_packet_once() {
    let mesh = RectMesh::new(3, 3).unwrap();
    let routing = MeshXY::new(&mesh);
    let entries: Vec<TraceEntry> = (0..50u64)
        .map(|i| TraceEntry {
            cycle: i * 3,
            src: NodeId::new((i % 8) as usize),
            dst: NodeId::new(8),
        })
        .collect();
    let trace = Trace::new(9, entries).unwrap();
    let cfg = SimConfig::builder()
        .warmup_cycles(0)
        .measure_cycles(1_000)
        .record_deliveries(true)
        .build()
        .unwrap();
    let mut sim =
        Simulation::with_trace(Box::new(mesh), Box::new(routing), &trace, cfg, NullProbe).unwrap();
    let stats = sim.run().unwrap();
    assert_eq!(stats.packets_generated, 50);
    assert_eq!(stats.packets_delivered, 50);
    assert_eq!(sim.deliveries().len(), 50);
    // Every delivery addressed the hot node.
    assert!(sim.deliveries().iter().all(|d| d.dst == NodeId::new(8)));
    // Latencies and hops are plausible.
    assert!(sim.deliveries().iter().all(|d| d.hops >= 1 && d.hops <= 4));
    assert!(sim.deliveries().iter().all(|d| d.latency >= d.hops));
}

#[test]
fn trace_mode_ignores_the_stochastic_rate() {
    let mesh = RectMesh::new(3, 3).unwrap();
    let routing = MeshXY::new(&mesh);
    let trace = Trace::new(
        9,
        vec![TraceEntry {
            cycle: 0,
            src: NodeId::new(0),
            dst: NodeId::new(4),
        }],
    )
    .unwrap();
    // Huge lambda: must not matter in replay mode.
    let cfg = SimConfig::builder()
        .injection_rate(5.0)
        .warmup_cycles(0)
        .measure_cycles(500)
        .build()
        .unwrap();
    let mut sim =
        Simulation::with_trace(Box::new(mesh), Box::new(routing), &trace, cfg, NullProbe).unwrap();
    let stats = sim.run().unwrap();
    assert_eq!(stats.packets_generated, 1);
    assert_eq!(stats.packets_delivered, 1);
}

#[test]
fn trace_node_count_mismatch_rejected() {
    let mesh = RectMesh::new(3, 3).unwrap();
    let routing = MeshXY::new(&mesh);
    let trace = Trace::new(
        16,
        vec![TraceEntry {
            cycle: 0,
            src: NodeId::new(10),
            dst: NodeId::new(12),
        }],
    )
    .unwrap();
    let err = Simulation::with_trace(
        Box::new(mesh),
        Box::new(routing),
        &trace,
        config(0.1),
        NullProbe,
    )
    .unwrap_err();
    assert!(matches!(err, SimError::InvalidTrace { .. }));
}

#[test]
fn pipeline_trace_keeps_per_pair_fifo_order() {
    // Wormhole with deterministic routing delivers packets of the same
    // (src, dst) pair in injection order.
    let mesh = RectMesh::new(4, 4).unwrap();
    let routing = MeshXY::new(&mesh);
    let stages: Vec<NodeId> = [0usize, 3, 15, 12]
        .iter()
        .map(|&i| NodeId::new(i))
        .collect();
    let trace = Trace::pipeline(16, &stages, 40, 2).unwrap();
    let cfg = SimConfig::builder()
        .warmup_cycles(0)
        .measure_cycles(2_000)
        .record_deliveries(true)
        .build()
        .unwrap();
    let mut sim =
        Simulation::with_trace(Box::new(mesh), Box::new(routing), &trace, cfg, NullProbe).unwrap();
    let stats = sim.run().unwrap();
    assert_eq!(stats.packets_delivered as usize, trace.len());
    // Per (src, dst) pair: delivery order == packet-id order.
    use std::collections::HashMap;
    let mut last: HashMap<(NodeId, NodeId), u64> = HashMap::new();
    for d in sim.deliveries() {
        if let Some(&prev) = last.get(&(d.src, d.dst)) {
            assert!(
                d.packet.raw() > prev,
                "out-of-order delivery for {}->{}",
                d.src,
                d.dst
            );
        }
        last.insert((d.src, d.dst), d.packet.raw());
    }
}

#[test]
fn delivery_log_off_by_default() {
    let mesh = RectMesh::new(3, 3).unwrap();
    let routing = MeshXY::new(&mesh);
    let pattern = UniformRandom::new(9).unwrap();
    let mut sim = Simulation::new(
        Box::new(mesh),
        Box::new(routing),
        Box::new(pattern),
        config(0.1),
    )
    .unwrap();
    let stats = sim.run().unwrap();
    assert!(stats.packets_delivered > 0);
    assert!(sim.deliveries().is_empty());
}

#[test]
fn torus_simulates_and_beats_mesh_under_uniform_load() {
    let run_torus = |lambda: f64| {
        let torus = Torus::new(4, 4).unwrap();
        let routing = TorusXY::new(&torus);
        let pattern = UniformRandom::new(16).unwrap();
        Simulation::new(
            Box::new(torus),
            Box::new(routing),
            Box::new(pattern),
            config(lambda),
        )
        .unwrap()
        .run()
        .unwrap()
    };
    let run_mesh = |lambda: f64| {
        let mesh = RectMesh::new(4, 4).unwrap();
        let routing = MeshXY::new(&mesh);
        let pattern = UniformRandom::new(16).unwrap();
        Simulation::new(
            Box::new(mesh),
            Box::new(routing),
            Box::new(pattern),
            config(lambda),
        )
        .unwrap()
        .run()
        .unwrap()
    };
    // Low load: identical accepted throughput, lower torus latency
    // (shorter average distance).
    let (t_low, m_low) = (run_torus(0.1), run_mesh(0.1));
    assert!(t_low.latency.mean().unwrap() < m_low.latency.mean().unwrap());
    // High load: torus sustains at least the mesh's throughput.
    let (t_hi, m_hi) = (run_torus(0.7), run_mesh(0.7));
    assert!(
        t_hi.throughput_flits_per_cycle() >= 0.95 * m_hi.throughput_flits_per_cycle(),
        "torus {} vs mesh {}",
        t_hi.throughput_flits_per_cycle(),
        m_hi.throughput_flits_per_cycle()
    );
}

#[test]
fn torus_under_heavy_load_does_not_deadlock() {
    let torus = Torus::new(4, 4).unwrap();
    let routing = TorusXY::new(&torus);
    let pattern = UniformRandom::new(16).unwrap();
    let cfg = SimConfig::builder()
        .injection_rate(1.0)
        .warmup_cycles(0)
        .measure_cycles(20_000)
        .stall_threshold(2_000)
        .seed(5)
        .build()
        .unwrap();
    let mut sim =
        Simulation::new(Box::new(torus), Box::new(routing), Box::new(pattern), cfg).unwrap();
    let stats = sim.run().unwrap();
    assert!(stats.packets_delivered > 1_000);
}

#[test]
fn west_first_adaptive_runs_and_matches_xy_at_low_load() {
    let mesh_spec = || RectMesh::new(4, 4).unwrap();
    let run = |routing: Box<dyn RoutingAlgorithm>, lambda: f64| {
        Simulation::new(
            Box::new(mesh_spec()),
            routing,
            Box::new(UniformRandom::new(16).unwrap()),
            config(lambda),
        )
        .unwrap()
        .run()
        .unwrap()
    };
    let xy = run(Box::new(MeshXY::new(&mesh_spec())), 0.1);
    let wf = run(Box::new(WestFirst::new(&mesh_spec())), 0.1);
    // Same topology, same minimal hop counts at low load.
    assert!((xy.mean_hops().unwrap() - wf.mean_hops().unwrap()).abs() < 0.1);
    assert!((xy.throughput_flits_per_cycle() - wf.throughput_flits_per_cycle()).abs() < 0.05);
}

#[test]
fn west_first_survives_heavy_congestion_without_deadlock() {
    let mesh = RectMesh::new(4, 4).unwrap();
    let routing = WestFirst::new(&mesh);
    let pattern = SingleHotspot::new(16, NodeId::new(15)).unwrap();
    let cfg = SimConfig::builder()
        .injection_rate(0.8)
        .warmup_cycles(0)
        .measure_cycles(20_000)
        .stall_threshold(2_000)
        .seed(6)
        .build()
        .unwrap();
    let mut sim =
        Simulation::new(Box::new(mesh), Box::new(routing), Box::new(pattern), cfg).unwrap();
    let stats = sim.run().unwrap();
    // Hot-spot ceiling holds for the adaptive router too.
    let tp = stats.throughput_flits_per_cycle();
    assert!(tp > 0.85 && tp < 1.05, "throughput {tp}");
}

#[test]
fn router_delay_adds_per_hop_latency() {
    let run = |delay: u64| {
        let mesh = RectMesh::new(4, 4).unwrap();
        let routing = MeshXY::new(&mesh);
        let cfg = SimConfig::builder()
            .injection_rate(0.02) // near zero load
            .router_delay(delay)
            .warmup_cycles(300)
            .measure_cycles(6_000)
            .seed(3)
            .build()
            .unwrap();
        Simulation::new(
            Box::new(mesh),
            Box::new(routing),
            Box::new(UniformRandom::new(16).unwrap()),
            cfg,
        )
        .unwrap()
        .run()
        .unwrap()
    };
    let base = run(0);
    let piped = run(3);
    // With one-flit input buffers the pipeline delay gates every flit
    // of the packet at every hop: a link can hand over a flit only
    // each `1 + delay` cycles, so the whole zero-load latency scales
    // by about `1 + delay` (no stage overlap in the paper's node).
    let ratio = piped.latency.mean().unwrap() / base.latency.mean().unwrap();
    assert!(
        (ratio - 4.0).abs() < 0.8,
        "latency ratio {ratio}, expected ~4 for delay 3"
    );
    // Accepted throughput at (very) low load is unaffected.
    assert!((base.throughput_flits_per_cycle() - piped.throughput_flits_per_cycle()).abs() < 0.02);
}

#[test]
fn across_first_vs_across_last_shift_hotspot_pressure() {
    use noc_routing::{SpidergonAcrossFirst, SpidergonAcrossLast};
    use noc_topology::{Direction, Spidergon};

    let n = 16;
    let run = |last: bool| {
        let topo = Spidergon::new(n).unwrap();
        let routing: Box<dyn RoutingAlgorithm> = if last {
            Box::new(SpidergonAcrossLast::new(&topo))
        } else {
            Box::new(SpidergonAcrossFirst::new(&topo))
        };
        let pattern = SingleHotspot::new(n, NodeId::new(0)).unwrap();
        // Below saturation (15 * 0.05 = 0.75 < 1 flit/cycle) so link
        // flows reflect routing demand, not sink arbitration.
        Simulation::new(Box::new(topo), routing, Box::new(pattern), config(0.05))
            .unwrap()
            .run()
            .unwrap()
    };
    let first = run(false);
    let last = run(true);
    // Same ceiling (the sink), same minimal distances.
    assert!((first.throughput_flits_per_cycle() - last.throughput_flits_per_cycle()).abs() < 0.05);
    assert!((first.mean_hops().unwrap() - last.mean_hops().unwrap()).abs() < 0.3);
    // Across-Last funnels the whole far half through the single across
    // link n/2 -> 0 into the target; Across-First spreads across-link
    // usage over all the far sources' own links. Compare that link's
    // load under the two schemes.
    let across_load = |stats: &noc_sim::SimStats| {
        stats
            .per_link
            .iter()
            .find(|l| l.from == NodeId::new(n / 2) && l.direction == Direction::Across)
            .map(|l| l.flits)
            .unwrap_or(0)
    };
    let (af, al) = (across_load(&first), across_load(&last));
    assert!(
        al > 3 * af.max(1),
        "across-last should concentrate the 8->0 across link: {af} vs {al}"
    );
}

#[test]
fn mixed_hotspot_interpolates_between_paper_scenarios() {
    use noc_topology::Spidergon;
    use noc_traffic::MixedHotspot;

    let n = 16;
    let run = |fraction: f64| {
        let topo = Spidergon::new(n).unwrap();
        let routing = noc_routing::SpidergonAcrossFirst::new(&topo);
        let pattern = MixedHotspot::new(n, NodeId::new(0), fraction).unwrap();
        Simulation::new(
            Box::new(topo),
            Box::new(routing),
            Box::new(pattern),
            config(0.25),
        )
        .unwrap()
        .run()
        .unwrap()
    };
    let uniform = run(0.0);
    let mixed = run(0.5);
    let pure = run(1.0);
    // Throughput decreases monotonically toward the 1 flit/cycle
    // hot-spot ceiling as the hot fraction rises.
    let (a, b, c) = (
        uniform.throughput_flits_per_cycle(),
        mixed.throughput_flits_per_cycle(),
        pure.throughput_flits_per_cycle(),
    );
    assert!(a > b && b > c, "{a} > {b} > {c} violated");
    // Pure fraction: ceiling = sink rate + the hot node's own uniform
    // share (it keeps sending at lambda = 0.25).
    assert!(c < 1.35, "ceiling {c}");
    // Sink-load imbalance rises with the hot fraction.
    assert!(uniform.sink_load_imbalance().unwrap() < mixed.sink_load_imbalance().unwrap());
    assert!(mixed.sink_load_imbalance().unwrap() < pure.sink_load_imbalance().unwrap());
}
