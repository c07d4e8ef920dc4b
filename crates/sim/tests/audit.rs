//! Integration tests for the runtime invariant auditor: clean
//! simulations audit clean (with bit-identical statistics), and
//! deliberately broken components — a misrouting fast path, a routing
//! scheme without the dateline VC — are caught with structured,
//! correctly-localized violations.

use noc_routing::{MeshXY, RingShortestPath, RoutingAlgorithm, SpidergonAcrossFirst};
use noc_sim::{
    Auditor, Invariant, NullProbe, Probe, SimConfig, SimError, Simulation, StallDiagnosis,
};
use noc_topology::{Direction, NodeId, RectMesh, Ring, Spidergon, Topology};
use noc_traffic::{Trace, TraceEntry, UniformRandom};

fn config(lambda: f64) -> SimConfig {
    SimConfig::builder()
        .injection_rate(lambda)
        .warmup_cycles(200)
        .measure_cycles(2_000)
        .seed(20060306)
        .build()
        .unwrap()
}

fn build<P: Probe>(n: usize, kind: &str, cfg: SimConfig, probe: P) -> Simulation<P> {
    let pattern = Box::new(UniformRandom::new(n).unwrap());
    match kind {
        "ring" => {
            let topo = Ring::new(n).unwrap();
            let routing = RingShortestPath::new(&topo);
            Simulation::with_probe(Box::new(topo), Box::new(routing), pattern, cfg, probe)
        }
        "spidergon" => {
            let topo = Spidergon::new(n).unwrap();
            let routing = SpidergonAcrossFirst::new(&topo);
            Simulation::with_probe(Box::new(topo), Box::new(routing), pattern, cfg, probe)
        }
        "mesh" => {
            let topo = RectMesh::new(4, n / 4).unwrap();
            let routing = MeshXY::new(&topo);
            Simulation::with_probe(Box::new(topo), Box::new(routing), pattern, cfg, probe)
        }
        other => panic!("unknown topology {other}"),
    }
    .unwrap()
}

#[test]
fn audited_runs_are_clean_across_topology_triple() {
    for kind in ["ring", "spidergon", "mesh"] {
        for lambda in [0.2, 1.0] {
            let mut sim = build(16, kind, config(lambda), Auditor::new());
            sim.run().unwrap_or_else(|e| panic!("{kind}@{lambda}: {e}"));
            let report = sim.into_probe().into_report();
            assert!(
                report.is_clean(),
                "{kind}@{lambda} audit found violations:\n{report}"
            );
            assert!(report.preflight_ran, "{kind}: preflight skipped");
            assert!(report.cycles_audited >= 2_200, "{kind}: {report}");
            assert!(report.checks > 0 && report.flit_events > 0);
        }
    }
}

#[test]
fn audited_stats_bit_identical_to_unaudited() {
    for kind in ["ring", "spidergon", "mesh"] {
        let plain = build(16, kind, config(0.3), NullProbe).run().unwrap();
        let audited = build(16, kind, config(0.3), Auditor::new()).run().unwrap();
        assert_eq!(plain, audited, "{kind}: auditing changed the statistics");
    }
}

#[test]
fn audited_run_sweeps_every_cycle_while_the_network_drains() {
    // At this load the network is empty most of the time, so the plain
    // sparse run fast-forwards; the auditor (an active probe) must
    // still see every cycle, and change nothing.
    let cfg = SimConfig::builder()
        .injection_rate(0.005)
        .warmup_cycles(200)
        .measure_cycles(2_000)
        .seed(5)
        .build()
        .unwrap();
    let total = cfg.total_cycles();
    let mut stepped = build(8, "ring", cfg.clone(), NullProbe);
    let idle = (0..total)
        .filter(|_| {
            stepped.step().unwrap();
            stepped.flits_in_network() + stepped.source_backlog() == 0
        })
        .count() as u64;
    assert!(idle > total / 2, "only {idle} of {total} cycles drained");

    let plain = build(8, "ring", cfg.clone(), NullProbe).run().unwrap();
    let mut audited = build(8, "ring", cfg, Auditor::new());
    assert_eq!(
        audited.run().unwrap(),
        plain,
        "auditing changed the statistics"
    );
    let report = audited.into_probe().into_report();
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.cycles_audited, total, "{report}");
}

/// A routing algorithm whose *fast path* (`candidates_into`, the method
/// the simulator compiles its route table from) disagrees with its
/// reference methods — the class of bug a hand-optimized hot path
/// introduces.
/// At node 0 towards node 2 it routes South instead of MeshXY's East.
#[derive(Debug)]
struct BrokenFastPath {
    inner: MeshXY,
}

impl RoutingAlgorithm for BrokenFastPath {
    fn next_hop(&self, current: NodeId, dest: NodeId) -> Direction {
        self.inner.next_hop(current, dest)
    }

    fn num_vcs_required(&self) -> usize {
        self.inner.num_vcs_required()
    }

    fn vc_for_hop(&self, current: NodeId, dest: NodeId, dir: Direction, vc: usize) -> usize {
        self.inner.vc_for_hop(current, dest, dir, vc)
    }

    fn candidates_into(&self, current: NodeId, dest: NodeId, out: &mut Vec<Direction>) {
        if current == NodeId::new(0) && dest == NodeId::new(2) {
            out.push(Direction::South); // the deliberate mutant
        } else {
            self.inner.candidates_into(current, dest, out);
        }
    }

    fn label(&self) -> String {
        "broken-fast-path".to_owned()
    }
}

#[test]
fn mutant_fast_path_caught_with_route_legality_violation() {
    // One traced packet 0 -> 2 on a 3x3 mesh. The mutant sends it
    // 0 -> 3 (South); XY recovers via 3 -> 4 -> 5 -> 2, so the run
    // completes — only the auditor notices the illegal first hop.
    let topo = RectMesh::new(3, 3).unwrap();
    let routing = BrokenFastPath {
        inner: MeshXY::new(&topo),
    };
    let trace = Trace::new(
        topo.num_nodes(),
        vec![TraceEntry {
            cycle: 0,
            src: NodeId::new(0),
            dst: NodeId::new(2),
        }],
    )
    .unwrap();
    let cfg = SimConfig::builder()
        .warmup_cycles(0)
        .measure_cycles(200)
        .build()
        .unwrap();
    let mut sim = Simulation::with_trace(
        Box::new(topo),
        Box::new(routing),
        &trace,
        cfg,
        Auditor::new(),
    )
    .unwrap();
    let stats = sim.run().unwrap();
    assert_eq!(stats.packets_delivered, 1, "packet still arrives");
    let report = sim.into_probe().into_report();
    assert!(!report.is_clean());
    let route_violations: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.invariant == Invariant::RouteLegality)
        .collect();
    assert!(!route_violations.is_empty(), "mutant not caught:\n{report}");
    // The violation names the offending hop: node 0, direction south,
    // the traced packet.
    let v = route_violations[0];
    assert_eq!(v.node, Some(NodeId::new(0)), "{v}");
    assert_eq!(v.packet, Some(noc_sim::PacketId::new(0)), "{v}");
    let buffer = v.buffer.expect("hop violation names the link");
    assert_eq!(buffer.direction, Some(Direction::South), "{v}");
    assert!(v.detail.contains("south"), "{v}");
}

/// Collapses a routing algorithm to a single virtual channel, removing
/// the dateline deadlock avoidance the paper's ring-like topologies
/// rely on.
#[derive(Debug)]
struct SingleVc {
    inner: RingShortestPath,
}

impl RoutingAlgorithm for SingleVc {
    fn next_hop(&self, current: NodeId, dest: NodeId) -> Direction {
        self.inner.next_hop(current, dest)
    }

    fn num_vcs_required(&self) -> usize {
        1
    }

    fn vc_for_hop(&self, _: NodeId, _: NodeId, _: Direction, _: usize) -> usize {
        0
    }

    fn label(&self) -> String {
        "ring-single-vc".to_owned()
    }
}

#[test]
fn single_vc_ring_deadlock_is_diagnosed() {
    let topo = Ring::new(8).unwrap();
    let routing = SingleVc {
        inner: RingShortestPath::new(&topo),
    };
    let pattern = UniformRandom::new(8).unwrap();
    let cfg = SimConfig::builder()
        .injection_rate(1.0)
        .warmup_cycles(0)
        .measure_cycles(50_000)
        .seed(11)
        .build()
        .unwrap();
    let mut sim = Simulation::with_probe(
        Box::new(topo),
        Box::new(routing),
        Box::new(pattern),
        cfg,
        Auditor::new(),
    )
    .unwrap();
    let err = sim.run().expect_err("single-VC ring at saturation wedges");
    assert!(matches!(err, SimError::Stalled { .. }), "{err}");
    let report = sim.into_probe().into_report();
    // Preflight already warned: the CDG with one VC is cyclic.
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::Progress && v.cycle == 0),
        "no preflight CDG warning:\n{report}"
    );
    // And the watchdog stall is diagnosed as a true circular wait with
    // a witness chain of blocked channels.
    match &report.stall {
        Some(StallDiagnosis::Deadlock { cycle }) => {
            assert!(cycle.len() >= 2, "degenerate witness: {report}");
        }
        other => panic!("expected deadlock diagnosis, got {other:?}:\n{report}"),
    }
}
