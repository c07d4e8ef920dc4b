//! Property-based tests of the simulator: conservation, determinism and
//! sanity bounds hold for arbitrary configurations and topologies.

use noc_routing::{MeshXY, RingShortestPath, RoutingAlgorithm, SpidergonAcrossFirst, TorusXY};
use noc_sim::{NullProbe, SimConfig, Simulation};
use noc_topology::{RectMesh, Ring, Spidergon, Topology, Torus};
use noc_traffic::{InjectionProcess, UniformRandom};
use proptest::prelude::*;

/// Builds a (topology, routing) pair from a family selector and a size
/// knob, both arbitrary.
fn build_pair(pick: u8, size: usize) -> (Box<dyn Topology>, Box<dyn RoutingAlgorithm>) {
    match pick % 4 {
        0 => {
            let n = size.clamp(3, 24);
            let t = Ring::new(n).unwrap();
            let r = RingShortestPath::new(&t);
            (Box::new(t), Box::new(r))
        }
        1 => {
            let n = (size.clamp(2, 12)) * 2;
            let t = Spidergon::new(n).unwrap();
            let r = SpidergonAcrossFirst::new(&t);
            (Box::new(t), Box::new(r))
        }
        2 => {
            let m = (size % 4) + 2;
            let n = (size % 3) + 2;
            let t = RectMesh::new(m, n).unwrap();
            let r = MeshXY::new(&t);
            (Box::new(t), Box::new(r))
        }
        _ => {
            let m = (size % 3) + 3;
            let n = (size % 2) + 3;
            let t = Torus::new(m, n).unwrap();
            let r = TorusXY::new(&t);
            (Box::new(t), Box::new(r))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn flit_conservation_holds_everywhere(
        pick in 0u8..4,
        size in 3usize..12,
        lambda in 0.0f64..0.8,
        seed in 0u64..1_000,
        packet_len in 1usize..10,
    ) {
        let (topo, routing) = build_pair(pick, size);
        let n = topo.num_nodes();
        let cfg = SimConfig::builder()
            .injection_rate(lambda)
            .packet_len(packet_len)
            .warmup_cycles(50)
            .measure_cycles(400)
            .seed(seed)
            .build()
            .unwrap();
        let mut sim = Simulation::new(
            topo,
            routing,
            Box::new(UniformRandom::new(n).unwrap()),
            cfg,
        )
        .unwrap();
        for _ in 0..450 {
            sim.step().unwrap();
            prop_assert_eq!(
                sim.total_flits_generated(),
                sim.total_flits_consumed() + sim.flits_in_network() + sim.source_backlog()
            );
        }
    }

    #[test]
    fn throughput_never_exceeds_offered_or_capacity(
        pick in 0u8..4,
        size in 3usize..10,
        lambda in 0.01f64..1.0,
        seed in 0u64..100,
    ) {
        let (topo, routing) = build_pair(pick, size);
        let n = topo.num_nodes();
        let cfg = SimConfig::builder()
            .injection_rate(lambda)
            .warmup_cycles(100)
            .measure_cycles(1_000)
            .seed(seed)
            .build()
            .unwrap();
        let mut sim = Simulation::new(
            topo,
            routing,
            Box::new(UniformRandom::new(n).unwrap()),
            cfg,
        )
        .unwrap();
        let stats = sim.run().unwrap();
        // Cannot consume more than each sink's capacity.
        prop_assert!(stats.throughput_flits_per_cycle() <= n as f64);
        // Cannot beat the offered load by more than stochastic slack
        // (warmup backlog draining allows a small overshoot).
        prop_assert!(
            stats.throughput_flits_per_cycle() <= lambda * n as f64 * 1.25 + 0.5,
            "throughput {} vs offered {}",
            stats.throughput_flits_per_cycle(),
            lambda * n as f64
        );
        // Latency, if measured, is at least packet_len (serialization).
        if let Some(mean) = stats.latency.mean() {
            prop_assert!(mean >= 2.0);
        }
    }

    #[test]
    fn determinism_for_any_seed(
        pick in 0u8..4,
        size in 3usize..10,
        lambda in 0.05f64..0.5,
        seed in 0u64..500,
    ) {
        let run = || {
            let (topo, routing) = build_pair(pick, size);
            let n = topo.num_nodes();
            let cfg = SimConfig::builder()
                .injection_rate(lambda)
                .warmup_cycles(50)
                .measure_cycles(500)
                .seed(seed)
                .build()
                .unwrap();
            Simulation::new(
                topo,
                routing,
                Box::new(UniformRandom::new(n).unwrap()),
                cfg,
            )
            .unwrap()
            .run()
            .unwrap()
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn all_injection_processes_deliver(
        process_pick in 0u8..3,
        lambda in 0.05f64..0.4,
        seed in 0u64..100,
    ) {
        let process = match process_pick {
            0 => InjectionProcess::Poisson,
            1 => InjectionProcess::Bernoulli,
            _ => InjectionProcess::Cbr,
        };
        let topo = Spidergon::new(8).unwrap();
        let routing = SpidergonAcrossFirst::new(&topo);
        let cfg = SimConfig::builder()
            .injection_rate(lambda)
            .injection_process(process)
            .warmup_cycles(100)
            .measure_cycles(2_000)
            .seed(seed)
            .build()
            .unwrap();
        let mut sim = Simulation::new(
            Box::new(topo),
            Box::new(routing),
            Box::new(UniformRandom::new(8).unwrap()),
            cfg,
        )
        .unwrap();
        let stats = sim.run().unwrap();
        prop_assert!(stats.packets_delivered > 0, "{process}: nothing delivered");
        // Offered load tracks lambda for all processes (within noise).
        let offered = stats.offered_load() / 8.0;
        prop_assert!(
            (offered - lambda).abs() / lambda < 0.25,
            "{process}: offered {offered} vs lambda {lambda}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn trace_replay_conserves_packets(
        entries in proptest::collection::vec((0u64..300, 0usize..9, 0usize..9), 1..60),
        seed in 0u64..50,
    ) {
        use noc_traffic::{Trace, TraceEntry};
        use noc_topology::NodeId;
        let filtered: Vec<TraceEntry> = entries
            .into_iter()
            .filter(|&(_, s, d)| s != d)
            .map(|(cycle, src, dst)| TraceEntry {
                cycle,
                src: NodeId::new(src),
                dst: NodeId::new(dst),
            })
            .collect();
        prop_assume!(!filtered.is_empty());
        let count = filtered.len() as u64;
        let trace = Trace::new(9, filtered).unwrap();
        let topo = RectMesh::new(3, 3).unwrap();
        let routing = MeshXY::new(&topo);
        let cfg = SimConfig::builder()
            .warmup_cycles(0)
            .measure_cycles(2_000)
            .seed(seed)
            .build()
            .unwrap();
        let mut sim =
            Simulation::with_trace(Box::new(topo), Box::new(routing), &trace, cfg, NullProbe).unwrap();
        let stats = sim.run().unwrap();
        prop_assert_eq!(stats.packets_generated, count);
        prop_assert_eq!(stats.packets_delivered, count);
        prop_assert_eq!(sim.flits_in_network(), 0);
        prop_assert_eq!(sim.source_backlog(), 0);
    }
}
