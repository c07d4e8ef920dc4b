//! Cross-module behavioral tests of the simulator: conservation,
//! determinism, saturation behavior, and deadlock failure injection.

use noc_routing::{MeshXY, RingShortestPath, RoutingAlgorithm, SpidergonAcrossFirst, WestFirst};
use noc_sim::{Recorder, SimConfig, SimError, Simulation, TraceEvent};
use noc_topology::{Direction, NodeId, RectMesh, Ring, Spidergon, Topology};
use noc_traffic::{DoubleHotspot, SingleHotspot, TrafficPattern, UniformRandom};

fn config(lambda: f64, seed: u64) -> SimConfig {
    SimConfig::builder()
        .injection_rate(lambda)
        .warmup_cycles(300)
        .measure_cycles(3_000)
        .seed(seed)
        .build()
        .unwrap()
}

fn build(
    topo: Box<dyn Topology>,
    routing: Box<dyn RoutingAlgorithm>,
    pattern: Box<dyn TrafficPattern>,
    cfg: SimConfig,
) -> Simulation {
    Simulation::new(topo, routing, pattern, cfg).unwrap()
}

fn ring_uniform(n: usize, lambda: f64, seed: u64) -> Simulation {
    let topo = Ring::new(n).unwrap();
    let routing = RingShortestPath::new(&topo);
    build(
        Box::new(topo),
        Box::new(routing),
        Box::new(UniformRandom::new(n).unwrap()),
        config(lambda, seed),
    )
}

fn spidergon_uniform(n: usize, lambda: f64, seed: u64) -> Simulation {
    let topo = Spidergon::new(n).unwrap();
    let routing = SpidergonAcrossFirst::new(&topo);
    build(
        Box::new(topo),
        Box::new(routing),
        Box::new(UniformRandom::new(n).unwrap()),
        config(lambda, seed),
    )
}

fn mesh_uniform(cols: usize, rows: usize, lambda: f64, seed: u64) -> Simulation {
    let topo = RectMesh::new(cols, rows).unwrap();
    let routing = MeshXY::new(&topo);
    build(
        Box::new(topo),
        Box::new(routing),
        Box::new(UniformRandom::new(cols * rows).unwrap()),
        config(lambda, seed),
    )
}

#[test]
fn all_topologies_deliver_under_light_uniform_load() {
    for (label, mut sim) in [
        ("ring", ring_uniform(12, 0.05, 1)),
        ("spidergon", spidergon_uniform(12, 0.05, 1)),
        ("mesh", mesh_uniform(3, 4, 0.05, 1)),
    ] {
        let stats = sim.run().unwrap();
        assert!(stats.packets_delivered > 20, "{label}: {stats}");
        assert!(stats.acceptance_ratio() > 0.99, "{label}");
    }
}

#[test]
fn generated_equals_delivered_plus_in_flight_plus_backlog() {
    // Strict flit conservation at every 100-cycle checkpoint:
    // generated = consumed + in-network + source backlog, exactly.
    let mut sim = spidergon_uniform(10, 0.4, 7);
    for _ in 0..50 {
        for _ in 0..100 {
            sim.step().unwrap();
        }
        assert_eq!(
            sim.total_flits_generated(),
            sim.total_flits_consumed() + sim.flits_in_network() + sim.source_backlog(),
            "conservation violated at cycle {}",
            sim.cycle()
        );
    }
    assert!(sim.total_flits_consumed() > 0);
}

#[test]
fn determinism_across_identical_runs() {
    let a = spidergon_uniform(14, 0.25, 99).run().unwrap();
    let b = spidergon_uniform(14, 0.25, 99).run().unwrap();
    assert_eq!(a, b);
}

#[test]
fn latency_grows_with_load() {
    let low = spidergon_uniform(12, 0.05, 5).run().unwrap();
    let high = spidergon_uniform(12, 0.45, 5).run().unwrap();
    let (l, h) = (low.latency.mean().unwrap(), high.latency.mean().unwrap());
    assert!(h > l, "latency must grow with load: {l} vs {h}");
}

#[test]
fn throughput_tracks_offered_load_below_saturation() {
    for lambda in [0.05, 0.1, 0.15] {
        let stats = spidergon_uniform(12, lambda, 3).run().unwrap();
        let offered = lambda * 12.0;
        let tp = stats.throughput_flits_per_cycle();
        assert!(
            (tp - offered).abs() / offered < 0.15,
            "lambda={lambda}: throughput {tp} vs offered {offered}"
        );
    }
}

#[test]
fn ring_saturates_before_spidergon() {
    // Paper Figure 10: Ring is the first topology to saturate under
    // homogeneous traffic.
    let lambda = 0.5;
    let ring = ring_uniform(16, lambda, 11).run().unwrap();
    let spidergon = spidergon_uniform(16, lambda, 11).run().unwrap();
    assert!(
        spidergon.throughput_flits_per_cycle() > ring.throughput_flits_per_cycle(),
        "spidergon {} !> ring {}",
        spidergon.throughput_flits_per_cycle(),
        ring.throughput_flits_per_cycle()
    );
}

#[test]
fn hotspot_latency_explodes_past_sink_saturation() {
    // Sources saturate the single sink when N_sources * lambda > 1.
    let n = 8;
    let make = |lambda: f64| {
        let topo = Spidergon::new(n).unwrap();
        let routing = SpidergonAcrossFirst::new(&topo);
        build(
            Box::new(topo),
            Box::new(routing),
            Box::new(SingleHotspot::new(n, NodeId::new(0)).unwrap()),
            config(lambda, 2),
        )
    };
    let below = make(0.08).run().unwrap(); // 7 * 0.08 = 0.56 < 1
    let above = make(0.3).run().unwrap(); // 7 * 0.3 = 2.1 > 1
    assert!(above.latency.mean().unwrap() > 3.0 * below.latency.mean().unwrap());
    assert!(above.acceptance_ratio() < 0.9);
}

/// Ring shortest-path routing with the dateline VC switch disabled:
/// the channel dependency cycle is real, so wormhole traffic must
/// deadlock — and the watchdog must catch it.
#[derive(Debug)]
struct SingleVcRing(RingShortestPath);

impl RoutingAlgorithm for SingleVcRing {
    fn next_hop(&self, current: NodeId, dest: NodeId) -> Direction {
        self.0.next_hop(current, dest)
    }
    fn num_vcs_required(&self) -> usize {
        1
    }
    fn vc_for_hop(&self, _c: NodeId, _dest: NodeId, _d: Direction, _vc: usize) -> usize {
        0
    }
    fn label(&self) -> String {
        "ring-single-vc".into()
    }
}

#[test]
fn deadlock_watchdog_fires_without_dateline_vcs() {
    let n = 8;
    let topo = Ring::new(n).unwrap();
    let routing = SingleVcRing(RingShortestPath::new(&topo));
    let cfg = SimConfig::builder()
        .injection_rate(0.9)
        .warmup_cycles(0)
        .measure_cycles(60_000)
        .seed(4242)
        .build()
        .unwrap();
    let mut sim = Simulation::new(
        Box::new(topo),
        Box::new(routing),
        Box::new(UniformRandom::new(n).unwrap()),
        cfg,
    )
    .unwrap();
    match sim.run() {
        Err(SimError::Stalled {
            flits_in_flight, ..
        }) => {
            assert!(flits_in_flight > 0);
        }
        Ok(stats) => panic!("expected deadlock, but run completed: {stats}"),
        Err(other) => panic!("unexpected error: {other}"),
    }
}

#[test]
fn dateline_vcs_prevent_the_same_deadlock() {
    // Identical setup, proper 2-VC dateline routing: must complete.
    let n = 8;
    let topo = Ring::new(n).unwrap();
    let routing = RingShortestPath::new(&topo);
    let cfg = SimConfig::builder()
        .injection_rate(0.9)
        .warmup_cycles(0)
        .measure_cycles(60_000)
        .seed(4242)
        .build()
        .unwrap();
    let mut sim = Simulation::new(
        Box::new(topo),
        Box::new(routing),
        Box::new(UniformRandom::new(n).unwrap()),
        cfg,
    )
    .unwrap();
    let stats = sim.run().unwrap();
    assert!(stats.packets_delivered > 1_000);
}

#[test]
fn deadlock_is_declared_max_router_delay_one_cycles_after_the_last_move() {
    // Once `max(router_delay, 1)` cycles pass with no move, every flit
    // in the network is eligible and stuck, so the watchdog fires right
    // then: one idle cycle later at delays 0 and 1, `router_delay`
    // cycles later beyond.
    for router_delay in 0..=3u64 {
        let n = 8;
        let topo = Ring::new(n).unwrap();
        let routing = SingleVcRing(RingShortestPath::new(&topo));
        let cfg = SimConfig::builder()
            .injection_rate(0.9)
            .router_delay(router_delay)
            .warmup_cycles(0)
            .measure_cycles(60_000)
            .seed(4242)
            .build()
            .unwrap();
        let mut sim = Simulation::with_probe(
            Box::new(topo),
            Box::new(routing),
            Box::new(UniformRandom::new(n).unwrap()),
            cfg,
            Recorder::new(),
        )
        .unwrap();
        let stalled_at = match sim.run() {
            Err(SimError::Stalled { cycle, .. }) => cycle,
            other => panic!("router_delay {router_delay}: expected a stall, got {other:?}"),
        };
        let last_move = sim
            .probe()
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::Inject { .. }
                        | TraceEvent::BufferExit { .. }
                        | TraceEvent::LinkTraverse { .. }
                        | TraceEvent::Deliver { .. }
                )
            })
            .map(TraceEvent::cycle)
            .max()
            .expect("flits moved before the deadlock");
        assert_eq!(
            stalled_at,
            last_move + router_delay.max(1),
            "router_delay {router_delay}: last move at cycle {last_move}"
        );
    }
}

#[test]
fn doubling_sink_rate_doubles_hotspot_ceiling() {
    let n = 8;
    let make = |sink_rate: usize| {
        let topo = Spidergon::new(n).unwrap();
        let routing = SpidergonAcrossFirst::new(&topo);
        let cfg = SimConfig::builder()
            .injection_rate(0.6)
            .sink_rate(sink_rate)
            .warmup_cycles(300)
            .measure_cycles(3_000)
            .seed(8)
            .build()
            .unwrap();
        Simulation::new(
            Box::new(topo),
            Box::new(routing),
            Box::new(SingleHotspot::new(n, NodeId::new(0)).unwrap()),
            cfg,
        )
        .unwrap()
    };
    let single = make(1).run().unwrap().throughput_flits_per_cycle();
    let double = make(2).run().unwrap().throughput_flits_per_cycle();
    assert!(single < 1.05);
    assert!(
        double > 1.3,
        "sink_rate 2 should lift the ceiling: {double}"
    );
}

#[test]
fn bigger_output_buffers_do_not_change_hotspot_ceiling() {
    // Paper: "small buffer tuning have some marginal impact on the peak
    // performances" — the hot-spot ceiling is the sink, not buffering.
    let n = 8;
    let make = |buf: usize| {
        let topo = Spidergon::new(n).unwrap();
        let routing = SpidergonAcrossFirst::new(&topo);
        let cfg = SimConfig::builder()
            .injection_rate(0.6)
            .output_buffer_capacity(buf)
            .warmup_cycles(300)
            .measure_cycles(3_000)
            .seed(8)
            .build()
            .unwrap();
        Simulation::new(
            Box::new(topo),
            Box::new(routing),
            Box::new(SingleHotspot::new(n, NodeId::new(0)).unwrap()),
            cfg,
        )
        .unwrap()
    };
    let small = make(3).run().unwrap().throughput_flits_per_cycle();
    let large = make(12).run().unwrap().throughput_flits_per_cycle();
    assert!((small - large).abs() < 0.08, "{small} vs {large}");
}

#[test]
fn per_node_load_maps_expose_the_hot_spot() {
    let n = 8;
    let topo = Spidergon::new(n).unwrap();
    let routing = SpidergonAcrossFirst::new(&topo);
    let pattern = SingleHotspot::new(n, NodeId::new(3)).unwrap();
    let mut sim = build(
        Box::new(topo),
        Box::new(routing),
        Box::new(pattern),
        config(0.2, 9),
    );
    let stats = sim.run().unwrap();
    // All consumption happens at the hot spot.
    let (busiest, flits) = stats.busiest_sink().unwrap();
    assert_eq!(busiest, 3);
    assert_eq!(flits, stats.flits_delivered);
    assert!(stats.sink_load_imbalance().unwrap() > 2.0);
    // The target generates nothing; everyone else does.
    assert_eq!(stats.per_node_generated[3], 0);
    assert!(stats
        .per_node_generated
        .iter()
        .enumerate()
        .all(|(i, &p)| i == 3 || p > 0));
}

#[test]
fn uniform_traffic_balances_sink_load() {
    let stats = spidergon_uniform(12, 0.2, 4).run().unwrap();
    assert!(
        stats.sink_load_imbalance().unwrap() < 0.25,
        "uniform CV {}",
        stats.sink_load_imbalance().unwrap()
    );
}

#[test]
fn occupancy_snapshot_matches_counters() {
    let mut sim = spidergon_uniform(10, 0.4, 13);
    for _ in 0..500 {
        sim.step().unwrap();
        let occ = sim.occupancy();
        assert_eq!(occ.in_network(), sim.flits_in_network());
        assert_eq!(occ.source_flits, sim.source_backlog());
    }
    assert!(sim.occupancy().in_network() > 0);
}

#[test]
fn link_heat_map_identifies_hotspot_feeders() {
    // Single hot-spot at node 0 on a ring: the two links entering node
    // 0 (clockwise from N-1, counterclockwise from 1) must be the
    // hottest in the network.
    let n = 8;
    let topo = Ring::new(n).unwrap();
    let routing = RingShortestPath::new(&topo);
    let pattern = SingleHotspot::new(n, NodeId::new(0)).unwrap();
    let mut sim = build(
        Box::new(topo),
        Box::new(routing),
        Box::new(pattern),
        config(0.3, 17),
    );
    let stats = sim.run().unwrap();
    assert_eq!(stats.per_link.len(), 2 * n);
    let hottest = stats.hottest_link().unwrap();
    let feeds_target = (hottest.from == NodeId::new(n - 1)
        && hottest.direction == Direction::Clockwise)
        || (hottest.from == NodeId::new(1) && hottest.direction == Direction::CounterClockwise);
    assert!(
        feeds_target,
        "hottest link {hottest:?} does not feed node 0"
    );
    // Conservation: per-link total equals the aggregate counter.
    let total: u64 = stats.per_link.iter().map(|l| l.flits).sum();
    assert_eq!(total, stats.link_traversals);
}

/// A 16-node network: ring, spidergon, XY mesh or West-First mesh.
fn network_16(family: &str) -> (Box<dyn Topology>, Box<dyn RoutingAlgorithm>) {
    match family {
        "ring" => {
            let t = Ring::new(16).unwrap();
            let r = RingShortestPath::new(&t);
            (Box::new(t), Box::new(r))
        }
        "spidergon" => {
            let t = Spidergon::new(16).unwrap();
            let r = SpidergonAcrossFirst::new(&t);
            (Box::new(t), Box::new(r))
        }
        "mesh" => {
            let t = RectMesh::new(4, 4).unwrap();
            let r = MeshXY::new(&t);
            (Box::new(t), Box::new(r))
        }
        "west-first mesh" => {
            let t = RectMesh::new(4, 4).unwrap();
            let r = WestFirst::new(&t);
            (Box::new(t), Box::new(r))
        }
        _ => unreachable!("no family {family}"),
    }
}

#[test]
fn link_traversals_equal_the_per_link_sum_in_every_family() {
    // The aggregate is summed from the per-link counters at the end of
    // a run; it must equal the per-link loads for every family, for
    // table-routed XY and adaptive West-First meshes, under uniform and
    // double hot-spot traffic, below and past saturation, in both cores.
    let n = 16;
    for label in ["ring", "spidergon", "mesh", "west-first mesh"] {
        for hotspots in [false, true] {
            for lambda in [0.05, 0.6] {
                for sparse in [true, false] {
                    let (topo, routing) = network_16(label);
                    let pattern: Box<dyn TrafficPattern> = if hotspots {
                        Box::new(
                            DoubleHotspot::new(n, [NodeId::new(0), NodeId::new(n / 2)]).unwrap(),
                        )
                    } else {
                        Box::new(UniformRandom::new(n).unwrap())
                    };
                    let cfg = SimConfig::builder()
                        .injection_rate(lambda)
                        .warmup_cycles(200)
                        .measure_cycles(1_000)
                        .seed(29)
                        .sparse(sparse)
                        .build()
                        .unwrap();
                    let stats = build(topo, routing, pattern, cfg).run().unwrap();
                    let total: u64 = stats.per_link.iter().map(|l| l.flits).sum();
                    let case =
                        format!("{label}, hot-spots {hotspots}, λ {lambda}, sparse {sparse}");
                    assert!(stats.link_traversals > 0, "{case}");
                    assert_eq!(stats.link_traversals, total, "{case}");
                }
            }
        }
    }
}

/// The throughput series of a recorded run: delivered flits per cycle
/// of each completed window after the first `skip` (the warmup ones).
fn windowed_throughput(recorder: &Recorder, skip: usize) -> Vec<f64> {
    recorder.windows()[skip..]
        .iter()
        .map(|w| w.delivered_flits as f64 / w.cycles as f64)
        .collect()
}

#[test]
fn throughput_time_series_has_tight_ci_below_saturation() {
    let n = 8;
    let topo = Spidergon::new(n).unwrap();
    let routing = SpidergonAcrossFirst::new(&topo);
    let cfg = SimConfig::builder()
        .injection_rate(0.1)
        .warmup_cycles(500)
        .measure_cycles(8_000)
        .seed(23)
        .build()
        .unwrap();
    let mut sim = Simulation::with_probe(
        Box::new(topo),
        Box::new(routing),
        Box::new(UniformRandom::new(n).unwrap()),
        cfg,
        Recorder::with_window(500),
    )
    .unwrap();
    let stats = sim.run().unwrap();
    // The 500-cycle windows divide the warmup: all but the first are
    // measured.
    let samples = windowed_throughput(sim.probe(), 1);
    assert_eq!(samples.len(), 16);
    let (mean, half_width) = noc_sim::confidence_interval(&samples, 1.96);
    // CI brackets the overall throughput and is reasonably tight.
    let overall = stats.throughput_flits_per_cycle();
    assert!((mean - overall).abs() < 1e-9, "{mean} vs {overall}");
    assert!(
        half_width < 0.15 * mean,
        "CI too wide: {mean} +/- {half_width}"
    );
}

#[test]
fn mser_detects_cold_start_warmup_on_a_real_run() {
    // Run with NO configured warmup, recorded in windows: the MSER rule
    // must cut a nonzero cold-start prefix at high load, and the
    // post-truncation mean must sit at the saturated throughput.
    let n = 16;
    let topo = Spidergon::new(n).unwrap();
    let routing = SpidergonAcrossFirst::new(&topo);
    // The sampling window must be short enough that the first window is
    // dominated by the cold start (empty network, nothing delivered yet)
    // rather than by sampling noise: with ~10-20 cycles of fill time, a
    // 20-cycle first window is mostly cold, while a 50-cycle one leaves
    // the below-mean deficit smaller than the per-window noise.
    let cfg = SimConfig::builder()
        .injection_rate(0.6)
        .warmup_cycles(0)
        .measure_cycles(20_000)
        .seed(41)
        .build()
        .unwrap();
    let mut sim = Simulation::with_probe(
        Box::new(topo),
        Box::new(routing),
        Box::new(UniformRandom::new(n).unwrap()),
        cfg,
        Recorder::with_window(20),
    )
    .unwrap();
    let stats = sim.run().unwrap();
    let samples = windowed_throughput(sim.probe(), 0);
    // The raw series shows the cold start: the first sample (network
    // filling up) is below the steady-state mean.
    let all_mean = stats.throughput_flits_per_cycle();
    assert!(
        samples[0] < all_mean,
        "first window {} should be below the mean {all_mean}",
        samples[0]
    );
    let cut = noc_sim::mser_truncation(&samples);
    assert!(cut <= samples.len() / 2);
    let tail = &samples[cut..];
    let tail_mean: f64 = tail.iter().sum::<f64>() / tail.len() as f64;
    assert!(
        tail_mean >= all_mean - 1e-9,
        "truncation should not lower the mean: {tail_mean} vs {all_mean}"
    );
}
