//! Trace-driven traffic: replay an explicit list of packet injections.
//!
//! The paper's future work calls for "specific traffic patterns
//! originated by common applications". A [`Trace`] is the general
//! mechanism: a time-sorted list of `(cycle, src, dst)` packet
//! injections, obtained from an application model or a file, replayed
//! exactly (no stochastic process). [`Trace::pipeline`] generates the
//! classic streaming-pipeline workload (e.g. a video decoder whose
//! stages are mapped to consecutive IPs) as a ready-made example.

use crate::TrafficError;
use noc_topology::NodeId;

/// One packet injection of a trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceEntry {
    /// Cycle at which the packet is created at its source.
    pub cycle: u64,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
}

/// A validated, time-sorted packet-injection trace over a network of
/// `num_nodes` nodes.
///
/// # Examples
///
/// ```
/// use noc_traffic::{Trace, TraceEntry};
/// use noc_topology::NodeId;
///
/// let trace = Trace::new(
///     8,
///     vec![
///         TraceEntry { cycle: 10, src: NodeId::new(0), dst: NodeId::new(3) },
///         TraceEntry { cycle: 5, src: NodeId::new(2), dst: NodeId::new(7) },
///     ],
/// )?;
/// // Entries are sorted by cycle on construction.
/// assert_eq!(trace.entries()[0].cycle, 5);
/// assert_eq!(trace.len(), 2);
/// # Ok::<(), noc_traffic::TrafficError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Trace {
    num_nodes: usize,
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// Creates a trace, validating every entry and sorting by cycle
    /// (stable, so same-cycle entries keep their given order).
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::TargetOutOfRange`] if an endpoint is not
    /// a node and [`TrafficError::DuplicateTargets`] if an entry sends
    /// a packet to its own source.
    pub fn new(num_nodes: usize, mut entries: Vec<TraceEntry>) -> Result<Self, TrafficError> {
        for e in &entries {
            for endpoint in [e.src, e.dst] {
                if endpoint.index() >= num_nodes {
                    return Err(TrafficError::TargetOutOfRange {
                        target: endpoint,
                        num_nodes,
                    });
                }
            }
            if e.src == e.dst {
                return Err(TrafficError::DuplicateTargets { target: e.src });
            }
        }
        entries.sort_by_key(|e| e.cycle);
        Ok(Trace { num_nodes, entries })
    }

    /// Generates a streaming-pipeline trace: every `period` cycles a
    /// packet enters stage 0, and each stage forwards to the next one
    /// `period` cycles later — `stages[0] -> stages[1] -> ...`, with
    /// `packets` items flowing through the whole pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::TooFewNodes`] if fewer than two stages
    /// are given, plus the entry-level errors of [`Trace::new`].
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn pipeline(
        num_nodes: usize,
        stages: &[NodeId],
        packets: u64,
        period: u64,
    ) -> Result<Self, TrafficError> {
        assert!(period > 0, "pipeline period must be positive");
        if stages.len() < 2 {
            return Err(TrafficError::TooFewNodes {
                requested: stages.len(),
                minimum: 2,
            });
        }
        let mut entries = Vec::new();
        for item in 0..packets {
            for (hop, window) in stages.windows(2).enumerate() {
                entries.push(TraceEntry {
                    cycle: (item + hop as u64) * period,
                    src: window[0],
                    dst: window[1],
                });
            }
        }
        Trace::new(num_nodes, entries)
    }

    /// Number of nodes of the network the trace targets.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The entries, sorted by cycle.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of packet injections.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the trace injects nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Distinct source nodes, ascending.
    pub fn sources(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self.entries.iter().map(|e| e.src).collect();
        out.sort();
        out.dedup();
        out
    }

    /// The cycle of the last injection (`None` if empty).
    pub fn last_cycle(&self) -> Option<u64> {
        self.entries.last().map(|e| e.cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(cycle: u64, src: usize, dst: usize) -> TraceEntry {
        TraceEntry {
            cycle,
            src: NodeId::new(src),
            dst: NodeId::new(dst),
        }
    }

    #[test]
    fn validation_rejects_bad_entries() {
        assert!(Trace::new(4, vec![e(0, 0, 4)]).is_err());
        assert!(Trace::new(4, vec![e(0, 5, 1)]).is_err());
        assert!(Trace::new(4, vec![e(0, 2, 2)]).is_err());
        assert!(Trace::new(4, vec![e(0, 0, 1)]).is_ok());
    }

    #[test]
    fn entries_sorted_stably() {
        let t = Trace::new(4, vec![e(5, 0, 1), e(1, 2, 3), e(5, 1, 2)]).unwrap();
        assert_eq!(t.entries()[0].cycle, 1);
        // Stable: the two cycle-5 entries keep their order.
        assert_eq!(t.entries()[1].src, NodeId::new(0));
        assert_eq!(t.entries()[2].src, NodeId::new(1));
        assert_eq!(t.last_cycle(), Some(5));
    }

    #[test]
    fn sources_are_distinct_sorted() {
        let t = Trace::new(4, vec![e(0, 3, 1), e(1, 0, 1), e(2, 3, 2)]).unwrap();
        assert_eq!(t.sources(), vec![NodeId::new(0), NodeId::new(3)]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn pipeline_chains_stages() {
        let stages = [NodeId::new(0), NodeId::new(1), NodeId::new(2)];
        let t = Trace::pipeline(4, &stages, 2, 10).unwrap();
        // 2 packets x 2 pipeline hops.
        assert_eq!(t.len(), 4);
        // First item: 0 -> 1 at cycle 0, 1 -> 2 at cycle 10.
        assert_eq!(t.entries()[0], e(0, 0, 1));
        assert!(t.entries().contains(&e(10, 1, 2)));
        // Second item enters at cycle 10.
        assert!(t.entries().contains(&e(10, 0, 1)));
        assert!(t.entries().contains(&e(20, 1, 2)));
    }

    #[test]
    fn pipeline_needs_two_stages() {
        assert!(Trace::pipeline(4, &[NodeId::new(0)], 3, 5).is_err());
    }

    #[test]
    #[should_panic(expected = "period")]
    fn pipeline_zero_period_panics() {
        let _ = Trace::pipeline(4, &[NodeId::new(0), NodeId::new(1)], 1, 0);
    }
}
