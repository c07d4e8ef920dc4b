//! The packet-arrival schedule: when each packet is created, and where
//! it goes. Packet creation is the only asynchronous event of the
//! cycle-level network, so it needs no general event queue: a
//! stochastic schedule keeps each source's next arrival, drawn in
//! continuous time, in a min-heap ordered by time and then by the order
//! arrivals were scheduled (simultaneous arrivals fire first-scheduled
//! first); a trace schedule pops its entries in order.

use crate::SimConfig;
use noc_topology::NodeId;
use noc_traffic::{InjectionProcess, Trace, TraceEntry, TrafficPattern};
use rand::{rngs::SmallRng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The schedule of packet creations a network replays.
#[derive(Debug)]
pub(crate) enum Arrivals {
    /// The sources of a traffic pattern.
    Stochastic(Sources),
    /// A trace's entries, latest first: the next to fire is last.
    Trace(Vec<TraceEntry>),
}

/// A traffic pattern's sources, each drawing its next arrival from the
/// injection process when its current one fires.
#[derive(Debug)]
pub(crate) struct Sources {
    pattern: Box<dyn TrafficPattern>,
    /// Draws every interarrival time and destination, and nothing else.
    rng: SmallRng,
    process: InjectionProcess,
    /// Packets per cycle per source.
    rate: f64,
    /// Pending arrivals as `(time bits, schedule order, node)`: a
    /// finite, sign-positive `f64` orders like its bits.
    pending: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// Arrivals scheduled so far: the next schedule order.
    scheduled: u64,
}

impl Arrivals {
    /// The schedule of `pattern` under a validated `config`, each
    /// source's first arrival drawn in ascending node order.
    pub(crate) fn stochastic(pattern: Box<dyn TrafficPattern>, config: &SimConfig) -> Self {
        let mut sources = Sources {
            rng: SmallRng::seed_from_u64(config.seed),
            process: config.injection_process,
            rate: config.packets_per_cycle(),
            pending: BinaryHeap::new(),
            scheduled: 0,
            pattern,
        };
        for v in sources.pattern.sources() {
            if let Some(first) = sources.next_after(0.0, v.index()) {
                sources.pending.push(first);
            }
        }
        Arrivals::Stochastic(sources)
    }

    /// The replay schedule of `trace`.
    pub(crate) fn trace(trace: &Trace) -> Self {
        Arrivals::Trace(trace.entries().iter().rev().copied().collect())
    }

    /// Removes the next arrival due by the end of `cycle` and returns
    /// its `(source, destination)`. A stochastic source draws the
    /// destination, then its next interarrival time.
    pub(crate) fn pop_due(&mut self, cycle: u64) -> Option<(NodeId, NodeId)> {
        match self {
            Arrivals::Stochastic(sources) => sources.pop_due(cycle),
            Arrivals::Trace(entries) => {
                entries.pop_if(|e| e.cycle <= cycle).map(|e| (e.src, e.dst))
            }
        }
    }

    /// The cycle of the next pending arrival, if any.
    pub(crate) fn next_cycle(&self) -> Option<u64> {
        match self {
            Arrivals::Stochastic(sources) => sources
                .pending
                .peek()
                .map(|&Reverse((bits, _, _))| f64::from_bits(bits) as u64),
            Arrivals::Trace(entries) => entries.last().map(|e| e.cycle),
        }
    }
}

impl Sources {
    /// Fires the earliest pending arrival if it is due by the end of
    /// `cycle`. The source's next arrival overwrites it at the top of
    /// the heap (one sift-down instead of a pop and a push); keys are
    /// unique, so the heap yields the same order either way.
    fn pop_due(&mut self, cycle: u64) -> Option<(NodeId, NodeId)> {
        let &Reverse((bits, _, v)) = self.pending.peek()?;
        let time = f64::from_bits(bits);
        if time >= (cycle + 1) as f64 {
            return None;
        }
        let src = NodeId::new(v);
        let dst = self.pattern.pick_destination(src, &mut self.rng);
        match self.next_after(time, v) {
            Some(next) => *self.pending.peek_mut().expect("peeked above") = next,
            None => {
                self.pending.pop();
            }
        }
        Some((src, dst))
    }

    /// Draws node `v`'s next arrival one interarrival time after `now`
    /// and gives it the next schedule order; `None` for a source of
    /// rate zero, which never arrives.
    fn next_after(&mut self, now: f64, v: usize) -> Option<Reverse<(u64, u64, usize)>> {
        let dt = self.process.interarrival(&mut self.rng, self.rate);
        if !dt.is_finite() {
            return None;
        }
        let time = now + dt;
        assert!(
            time.is_finite() && time.is_sign_positive(),
            "arrival time {time} must be finite and non-negative to order by its bits"
        );
        let order = self.scheduled;
        self.scheduled += 1;
        Some(Reverse((time.to_bits(), order, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_traffic::UniformRandom;

    fn config(lambda: f64, process: InjectionProcess) -> SimConfig {
        SimConfig::builder()
            .injection_rate(lambda)
            .injection_process(process)
            .build()
            .unwrap()
    }

    /// Every arrival `pop_due` yields through cycle `last`, by cycle.
    fn drain(arrivals: &mut Arrivals, last: u64) -> Vec<(u64, usize, usize)> {
        let mut fired = Vec::new();
        for cycle in 0..=last {
            while let Some((src, dst)) = arrivals.pop_due(cycle) {
                fired.push((cycle, src.index(), dst.index()));
            }
            assert!(arrivals.next_cycle().is_none_or(|c| c > cycle));
        }
        fired
    }

    #[test]
    fn trace_entries_fire_in_trace_order_at_their_cycle() {
        let entry = |cycle, src, dst| TraceEntry {
            cycle,
            src: NodeId::new(src),
            dst: NodeId::new(dst),
        };
        let trace = Trace::new(4, vec![entry(5, 1, 0), entry(3, 2, 1), entry(3, 0, 3)]).unwrap();
        let mut arrivals = Arrivals::trace(&trace);
        assert_eq!(arrivals.next_cycle(), Some(3));
        assert_eq!(arrivals.pop_due(2), None);
        assert_eq!(
            drain(&mut arrivals, 9),
            vec![(3, 2, 1), (3, 0, 3), (5, 1, 0)]
        );
        assert_eq!(arrivals.next_cycle(), None);
    }

    #[test]
    fn a_jump_to_the_next_cycle_fires_what_is_due_there() {
        // Arrivals are drained in cycle order whether the caller steps
        // through every cycle or jumps to `next_cycle`.
        let pattern = || Box::new(UniformRandom::new(6).unwrap());
        let cfg = config(0.05, InjectionProcess::Poisson);
        let mut stepped = Arrivals::stochastic(pattern(), &cfg);
        let mut jumped = Arrivals::stochastic(pattern(), &cfg);
        let expected = drain(&mut stepped, 2_000);
        assert!(expected.len() > 50);
        let mut fired = Vec::new();
        while let Some(cycle) = jumped.next_cycle().filter(|&c| c <= 2_000) {
            while let Some((src, dst)) = jumped.pop_due(cycle) {
                fired.push((cycle, src.index(), dst.index()));
            }
        }
        assert_eq!(fired, expected);
    }

    #[test]
    fn cbr_sources_fire_together_in_node_order() {
        // λ = 1.5 flits/cycle in 6-flit packets: every source arrives
        // at cycles 4, 8, ... (exact multiples of 1 / 0.25), and each
        // source was scheduled before the next one every time.
        let pattern = Box::new(UniformRandom::new(5).unwrap());
        let mut arrivals = Arrivals::stochastic(pattern, &config(1.5, InjectionProcess::Cbr));
        let fired = drain(&mut arrivals, 12);
        let order: Vec<(u64, usize)> = fired.iter().map(|&(c, v, _)| (c, v)).collect();
        let expected: Vec<(u64, usize)> = [4, 8, 12]
            .into_iter()
            .flat_map(|c| (0..5).map(move |v| (c, v)))
            .collect();
        assert_eq!(order, expected);
        assert!(fired.iter().all(|&(_, v, dst)| v != dst));
    }

    #[test]
    fn first_arrivals_are_pinned() {
        // The first 4,096 `(cycle, src, dst)` arrivals of 16-node
        // schedules, FNV-1a over their little-endian bytes: any change
        // to the heap order, the tie-break or the RNG draw order moves
        // these digests.
        use noc_traffic::DoubleHotspot;
        use InjectionProcess::{Bernoulli, Cbr, Poisson};
        let uniform = || -> Box<dyn TrafficPattern> { Box::new(UniformRandom::new(16).unwrap()) };
        let hotspots = || -> Box<dyn TrafficPattern> {
            Box::new(DoubleHotspot::new(16, [NodeId::new(0), NodeId::new(8)]).unwrap())
        };
        type Pattern<'a> = &'a dyn Fn() -> Box<dyn TrafficPattern>;
        let schedules: [(&str, Pattern, [u64; 3]); 2] = [
            (
                "uniform",
                &uniform,
                [
                    0xeac1_f2dc_1021_343a,
                    0x1bee_b73a_4144_52e0,
                    0x7d41_9612_d927_af6b,
                ],
            ),
            (
                "double hot-spot",
                &hotspots,
                [
                    0x464c_e7c2_62c3_574a,
                    0xe7f3_9238_1018_6242,
                    0x3ca5_d7f7_751a_2978,
                ],
            ),
        ];
        for (what, pattern, pins) in schedules {
            for (process, pinned) in [Poisson, Bernoulli, Cbr].into_iter().zip(pins) {
                let mut arrivals = Arrivals::stochastic(pattern(), &config(0.6, process));
                let mut hash = 0xcbf2_9ce4_8422_2325u64;
                let mut fired = 0;
                'fill: for cycle in 0.. {
                    while let Some((src, dst)) = arrivals.pop_due(cycle) {
                        for word in [cycle, src.index() as u64, dst.index() as u64] {
                            for byte in word.to_le_bytes() {
                                hash ^= u64::from(byte);
                                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
                            }
                        }
                        fired += 1;
                        if fired == 4_096 {
                            break 'fill;
                        }
                    }
                }
                assert_eq!(
                    hash, pinned,
                    "{what} {process:?}: arrival order changed: {hash:#018x}"
                );
            }
        }
    }

    #[test]
    fn a_silent_schedule_never_arrives() {
        let pattern = Box::new(UniformRandom::new(4).unwrap());
        let mut arrivals = Arrivals::stochastic(pattern, &config(0.0, InjectionProcess::Poisson));
        assert_eq!(arrivals.next_cycle(), None);
        assert_eq!(arrivals.pop_due(u64::MAX - 1), None);
    }
}
