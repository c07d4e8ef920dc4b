//! Property-based differential of the sparse active-set core against
//! the dense reference: for random short schedules (any topology
//! family, adaptive routing included; uniform, single or double
//! hot-spot traffic up to full saturation under any injection process,
//! or a replayed trace; any buffer depth, sink rate and router delay),
//! idle-router skipping, wake-on-change parking of stalled slots and
//! clock fast-forward must never change `SimStats`, any packet's timing
//! or any event a [`Recorder`] captures.

use noc_routing::{
    MeshXY, RingShortestPath, RoutingAlgorithm, SpidergonAcrossFirst, TorusXY, WestFirst,
};
use noc_sim::{NullProbe, Probe, Recorder, SimConfig, SimStats, Simulation};
use noc_topology::{NodeId, RectMesh, Ring, Spidergon, Topology, Torus};
use noc_traffic::{
    DoubleHotspot, InjectionProcess, SingleHotspot, Trace, TraceEntry, TrafficPattern,
    UniformRandom,
};
use proptest::prelude::*;
use proptest::TestCaseError;

/// Builds a (topology, routing) pair from a family selector and a size
/// knob. Family 4 is the West-First adaptive mesh, the only one with
/// several candidate routes per head flit; family 5 is a `size × size`
/// mesh under XY routing.
fn build_pair(pick: u8, size: usize) -> (Box<dyn Topology>, Box<dyn RoutingAlgorithm>) {
    match pick {
        0 => {
            let n = size.max(3);
            let t = Ring::new(n).unwrap();
            let r = RingShortestPath::new(&t);
            (Box::new(t), Box::new(r))
        }
        1 => {
            let n = size.max(2) * 2;
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
        3 => {
            let m = (size % 3) + 3;
            let n = (size % 2) + 3;
            let t = Torus::new(m, n).unwrap();
            let r = TorusXY::new(&t);
            (Box::new(t), Box::new(r))
        }
        4 => {
            let m = (size % 3) + 2;
            let n = (size % 4) + 2;
            let t = RectMesh::new(m, n).unwrap();
            let r = WestFirst::new(&t);
            (Box::new(t), Box::new(r))
        }
        _ => {
            let t = RectMesh::new(size, size).unwrap();
            let r = MeshXY::new(&t);
            (Box::new(t), Box::new(r))
        }
    }
}

/// Uniform (0), single hot-spot at node 0 (1) or double hot-spot at
/// nodes 0 and `n / 2` (2).
fn build_pattern(traffic: u8, n: usize) -> Box<dyn TrafficPattern> {
    match traffic % 3 {
        0 => Box::new(UniformRandom::new(n).unwrap()),
        1 => Box::new(SingleHotspot::new(n, NodeId::new(0)).unwrap()),
        _ => Box::new(DoubleHotspot::new(n, [NodeId::new(0), NodeId::new(n / 2)]).unwrap()),
    }
}

/// One schedule of the differential.
#[derive(Clone, Copy, Debug)]
struct Case {
    pick: u8,
    size: usize,
    traffic: u8,
    lambda: f64,
    process: InjectionProcess,
    warmup: u64,
    measure: u64,
    /// Recorder time-series window in cycles (0 is taken as 1).
    window: u64,
    packet_len: usize,
    seed: u64,
    sink_rate: usize,
    router_delay: u64,
    input_capacity: usize,
    output_capacity: usize,
}

impl Case {
    /// A schedule with the paper's node model (1-flit inputs, 3-flit
    /// outputs, unit sink rate, single-stage routers, Poisson sources).
    #[allow(clippy::too_many_arguments)]
    fn paper(
        pick: u8,
        size: usize,
        traffic: u8,
        lambda: f64,
        warmup: u64,
        measure: u64,
        window: u64,
        packet_len: usize,
        seed: u64,
    ) -> Self {
        Case {
            pick,
            size,
            traffic,
            lambda,
            process: InjectionProcess::Poisson,
            warmup,
            measure,
            window,
            packet_len,
            seed,
            sink_rate: 1,
            router_delay: 0,
            input_capacity: 1,
            output_capacity: 3,
        }
    }

    /// Runs the schedule sparse or dense with `probe` attached; returns
    /// the statistics and the probe.
    fn run<P: Probe>(&self, sparse: bool, probe: P) -> (SimStats, P) {
        let (topo, routing) = build_pair(self.pick, self.size);
        let n = topo.num_nodes();
        let cfg = SimConfig::builder()
            .injection_rate(self.lambda)
            .injection_process(self.process)
            .packet_len(self.packet_len)
            .warmup_cycles(self.warmup)
            .measure_cycles(self.measure)
            .seed(self.seed)
            .sink_rate(self.sink_rate)
            .router_delay(self.router_delay)
            .input_buffer_capacity(self.input_capacity)
            .output_buffer_capacity(self.output_capacity)
            .sparse(sparse)
            .build()
            .unwrap();
        let pattern = build_pattern(self.traffic, n);
        let mut sim = Simulation::with_probe(topo, routing, pattern, cfg, probe).unwrap();
        let stats = sim.run().unwrap();
        (stats, sim.into_probe())
    }
}

/// Checks that sparse and dense runs agree, given `plain` (a run with
/// no probe, sparse or dense) and `recorded` (the same run under a
/// [`Recorder`]): the plain statistics, and the recorded statistics,
/// every packet's timing and the digest of every recorded event. A
/// recorded run must also have the plain run's statistics. Returns the
/// sparse run's statistics.
fn check_matches_dense(
    plain: impl Fn(bool) -> SimStats,
    recorded: impl Fn(bool) -> (SimStats, Recorder),
) -> Result<SimStats, TestCaseError> {
    let stats = plain(true);
    prop_assert_eq!(&stats, &plain(false), "plain SimStats diverged");
    let (sparse_stats, sparse) = recorded(true);
    let (dense_stats, dense) = recorded(false);
    prop_assert_eq!(&sparse_stats, &dense_stats, "recorded SimStats diverged");
    prop_assert_eq!(&sparse_stats, &stats, "recording changed the SimStats");
    prop_assert_eq!(
        sparse.packet_timings(),
        dense.packet_timings(),
        "packet timings diverged"
    );
    prop_assert_eq!(sparse.digest(), dense.digest(), "recorded events diverged");
    Ok(stats)
}

/// [`check_matches_dense`] over the sparse and dense runs of `case`.
fn case_matches_dense(case: &Case) -> Result<SimStats, TestCaseError> {
    check_matches_dense(
        |sparse| case.run(sparse, NullProbe).0,
        |sparse| case.run(sparse, Recorder::with_window(case.window.max(1))),
    )
}

/// Runs `case` sparse and dense and asserts they agree.
fn assert_matches_dense(case: &Case) -> SimStats {
    case_matches_dense(case).unwrap_or_else(|e| panic!("{case:?}: {e}"))
}

/// The named saturation case: spidergon-16 under a single hot-spot at
/// λ = 0.6, with a two-channel sink so one router turn can both fill
/// and release ejection channels. A router delay leaves channels empty
/// but owned between flits, which is where a head bound for the sink
/// must wait on every channel and a slot's parked bit must be read live
/// (an ejection push earlier in the same turn can wake it).
#[test]
fn spidergon16_hotspot_with_double_sink_matches_dense() {
    for router_delay in 0..=2 {
        for seed in 0..4 {
            let stats = assert_matches_dense(&Case {
                sink_rate: 2,
                router_delay,
                ..Case::paper(1, 8, 1, 0.6, 200, 2_000, 100, 6, seed)
            });
            assert!(stats.packets_delivered > 100, "{stats}");
            assert!(stats.backlog_flits > 0, "λ = 0.6 saturates the hot spot");
        }
    }
}

/// West-First on a 2×4 mesh past uniform saturation: a head with
/// several candidate routes must wait on every candidate queue.
#[test]
fn west_first_mesh_saturation_matches_dense() {
    for router_delay in 1..=2 {
        for seed in 0..4 {
            let stats = assert_matches_dense(&Case {
                router_delay,
                ..Case::paper(4, 6, 0, 0.8, 200, 1_000, 0, 6, seed)
            });
            assert!(stats.backlog_flits > 0, "λ = 0.8 saturates the mesh");
        }
    }
}

/// Hot spots far past saturation, where most parked heads sit behind
/// another packet's worm and wait for its tail: single and double hot
/// spot at λ = 0.9 on every topology and routing pick, West-First
/// included, over 1- and 3-flit output queues, sink rates 1–3 and
/// packet lengths 1, 2 and 6. A tail that fills its queue hands those
/// heads on to the queue's next pop; single-flit packets never own a
/// queue, so their heads only ever wait for a pop.
#[test]
fn hotspots_past_saturation_match_dense() {
    let mut seed = 0;
    for pick in 0..5 {
        for traffic in [1, 2] {
            for output_capacity in [1, 3] {
                for sink_rate in 1..=3 {
                    for packet_len in [1, 2, 6] {
                        seed += 1;
                        let stats = assert_matches_dense(&Case {
                            sink_rate,
                            output_capacity,
                            ..Case::paper(pick, 5, traffic, 0.9, 100, 400, 50, packet_len, seed)
                        });
                        assert!(stats.packets_delivered > 0, "{stats}");
                        assert!(stats.backlog_flits > 0, "λ = 0.9 saturates the hot spots");
                    }
                }
            }
        }
    }
}

/// Networks of more than 64 routers, whose active and ejecting sets
/// span several words: ring-130 below and past saturation, spidergon-66
/// under a hot spot past saturation (single- and two-stage routers), and
/// a 9×9 mesh past uniform saturation with a two-channel sink.
#[test]
fn multi_word_networks_match_dense() {
    for lambda in [0.02, 0.2] {
        let stats = assert_matches_dense(&Case::paper(0, 130, 0, lambda, 200, 1_000, 100, 6, 5));
        assert_eq!(stats.num_nodes, 130);
        assert!(stats.packets_delivered > 100, "{stats}");
    }
    for router_delay in 0..=1 {
        let stats = assert_matches_dense(&Case {
            router_delay,
            ..Case::paper(1, 33, 1, 0.2, 200, 1_000, 100, 6, 11)
        });
        assert_eq!(stats.num_nodes, 66);
        assert!(stats.backlog_flits > 0, "λ = 0.2 saturates the hot spot");
    }
    let stats = assert_matches_dense(&Case {
        sink_rate: 2,
        ..Case::paper(5, 9, 0, 0.6, 200, 1_000, 100, 6, 17)
    });
    assert_eq!(stats.num_nodes, 81);
    assert!(stats.backlog_flits > 0, "λ = 0.6 saturates the mesh");
}

/// A 4×4-mesh trace replay whose bursts (five packets in one cycle,
/// several from one source) are 300 cycles apart, far longer than the
/// network takes to drain: the sparse core fast-forwards the clock to
/// the next trace entry, through the warmup boundary and over recorder
/// windows, while the dense reference steps every cycle.
#[test]
fn trace_replay_with_idle_gaps_matches_dense() {
    let entries: Vec<TraceEntry> = (0..8u64)
        .flat_map(|burst| {
            [3, 12, 3, 7, 0].into_iter().enumerate().map(move |(j, s)| {
                let src = (s + burst as usize) % 16;
                TraceEntry {
                    cycle: 37 + burst * 300,
                    src: NodeId::new(src),
                    dst: NodeId::new((src + 5 + j) % 16),
                }
            })
        })
        .collect();
    let trace = Trace::new(16, entries).unwrap();
    fn run<P: Probe>(trace: &Trace, sparse: bool, probe: P) -> (SimStats, P) {
        let mesh = RectMesh::new(4, 4).unwrap();
        let routing = MeshXY::new(&mesh);
        let cfg = SimConfig::builder()
            .warmup_cycles(500)
            .measure_cycles(2_500)
            .sparse(sparse)
            .build()
            .unwrap();
        let mut sim =
            Simulation::with_trace(Box::new(mesh), Box::new(routing), trace, cfg, probe).unwrap();
        let stats = sim.run().unwrap();
        (stats, sim.into_probe())
    }
    let stats = check_matches_dense(
        |sparse| run(&trace, sparse, NullProbe).0,
        |sparse| run(&trace, sparse, Recorder::with_window(64)),
    )
    .unwrap();
    assert_eq!(stats.packets_generated, 30, "bursts after warmup");
    assert_eq!(stats.packets_delivered, 30);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The headline invariant of the sparse core: the full-featured
    /// path (active set + parking + fast-forward, i.e. the defaults) is
    /// bit-identical to the dense reference stepping every router every
    /// cycle — past
    /// saturation, under Poisson, Bernoulli and CBR arrivals, and over
    /// every buffer depth, sink rate and router delay that makes a
    /// stall transient or permanent.
    #[test]
    fn sparse_core_matches_dense_reference(
        pick in 0u8..5,
        size in 3usize..10,
        traffic in 0u8..3,
        lambda in 0.0f64..1.0,
        process in 0usize..3,
        warmup in 0u64..200,
        measure in 50u64..600,
        window in 0u64..80,
        packet_len in 1usize..6,
        seed in 0u64..1_000,
        sink_rate in 1usize..4,
        router_delay in 0u64..3,
        input_capacity in 1usize..4,
        output_capacity in 1usize..5,
    ) {
        let process = [
            InjectionProcess::Poisson,
            InjectionProcess::Bernoulli,
            InjectionProcess::Cbr,
        ][process];
        let case = Case {
            process,
            sink_rate,
            router_delay,
            input_capacity,
            output_capacity,
            ..Case::paper(
                pick, size, traffic, lambda, warmup, measure, window,
                packet_len, seed,
            )
        };
        case_matches_dense(&case)?;
    }

    /// Idle-cycle skipping in isolation: low rates maximize
    /// fast-forward opportunities, so random short schedules here
    /// stress the probe calls of skipped cycles hardest.
    #[test]
    fn idle_skipping_never_changes_latencies(
        pick in 0u8..5,
        size in 3usize..8,
        lambda in 0.0f64..0.1,
        warmup in 0u64..150,
        measure in 100u64..800,
        window in 1u64..60,
        seed in 0u64..1_000,
    ) {
        let case = Case::paper(pick, size, 0, lambda, warmup, measure, window, 4, seed);
        case_matches_dense(&case)?;
    }
}
