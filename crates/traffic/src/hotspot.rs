//! Hot-spot traffic: the paper's primary SoC scenario, where one or two
//! nodes (e.g. external memory controllers) receive all packets.

use crate::{TrafficError, TrafficPattern};
use noc_topology::NodeId;
use rand::{Rng, RngCore};

use crate::UniformRandom;

/// Single hot-spot traffic (paper Section 3.1.1): one destination node
/// for all packets; every other node is a source.
///
/// The paper's reading: "in today's common SoCs scenarios, when the
/// system memory is external, the behavior obtained with different NoC
/// topologies would converge" — the hot spot's ejection port, not the
/// topology, is the bottleneck.
///
/// # Examples
///
/// ```
/// use noc_traffic::{SingleHotspot, TrafficPattern};
/// use noc_topology::NodeId;
///
/// let pattern = SingleHotspot::new(8, NodeId::new(0))?;
/// assert_eq!(pattern.sources().len(), 7);
/// assert!(pattern.is_destination(NodeId::new(0)));
/// # Ok::<(), noc_traffic::TrafficError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SingleHotspot {
    num_nodes: usize,
    target: NodeId,
}

impl SingleHotspot {
    /// Creates a single hot-spot pattern with all packets addressed to
    /// `target`.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::TooFewNodes`] if `num_nodes < 2` and
    /// [`TrafficError::TargetOutOfRange`] if `target` is not a node.
    pub fn new(num_nodes: usize, target: NodeId) -> Result<Self, TrafficError> {
        if num_nodes < 2 {
            return Err(TrafficError::TooFewNodes {
                requested: num_nodes,
                minimum: 2,
            });
        }
        if target.index() >= num_nodes {
            return Err(TrafficError::TargetOutOfRange { target, num_nodes });
        }
        Ok(SingleHotspot { num_nodes, target })
    }

    /// The hot-spot destination.
    pub fn target(&self) -> NodeId {
        self.target
    }

    fn check(&self, node: NodeId) {
        assert!(
            node.index() < self.num_nodes,
            "node {node} out of range for {} nodes",
            self.num_nodes
        );
    }
}

impl TrafficPattern for SingleHotspot {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn is_source(&self, node: NodeId) -> bool {
        self.check(node);
        node != self.target
    }

    fn is_destination(&self, node: NodeId) -> bool {
        self.check(node);
        node == self.target
    }

    fn pick_destination(&self, src: NodeId, _rng: &mut dyn RngCore) -> NodeId {
        self.check(src);
        assert!(src != self.target, "hot-spot target {src} is not a source");
        self.target
    }

    fn label(&self) -> String {
        format!("hotspot({})", self.target)
    }
}

/// Double hot-spot traffic (paper Section 3.1.2): two destination
/// nodes; every other node is a source and addresses each packet to one
/// of the two targets with equal probability.
///
/// # Examples
///
/// ```
/// use noc_traffic::{DoubleHotspot, TrafficPattern};
/// use noc_topology::NodeId;
///
/// let pattern = DoubleHotspot::new(8, [NodeId::new(0), NodeId::new(4)])?;
/// assert_eq!(pattern.sources().len(), 6);
/// # Ok::<(), noc_traffic::TrafficError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DoubleHotspot {
    num_nodes: usize,
    targets: [NodeId; 2],
}

impl DoubleHotspot {
    /// Creates a double hot-spot pattern.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::TooFewNodes`] if `num_nodes < 3`,
    /// [`TrafficError::TargetOutOfRange`] if a target is not a node, and
    /// [`TrafficError::DuplicateTargets`] if the targets coincide.
    pub fn new(num_nodes: usize, targets: [NodeId; 2]) -> Result<Self, TrafficError> {
        if num_nodes < 3 {
            return Err(TrafficError::TooFewNodes {
                requested: num_nodes,
                minimum: 3,
            });
        }
        for &t in &targets {
            if t.index() >= num_nodes {
                return Err(TrafficError::TargetOutOfRange {
                    target: t,
                    num_nodes,
                });
            }
        }
        if targets[0] == targets[1] {
            return Err(TrafficError::DuplicateTargets { target: targets[0] });
        }
        Ok(DoubleHotspot { num_nodes, targets })
    }

    /// The two hot-spot destinations.
    pub fn targets(&self) -> [NodeId; 2] {
        self.targets
    }

    fn check(&self, node: NodeId) {
        assert!(
            node.index() < self.num_nodes,
            "node {node} out of range for {} nodes",
            self.num_nodes
        );
    }
}

impl TrafficPattern for DoubleHotspot {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn is_source(&self, node: NodeId) -> bool {
        self.check(node);
        node != self.targets[0] && node != self.targets[1]
    }

    fn is_destination(&self, node: NodeId) -> bool {
        self.check(node);
        node == self.targets[0] || node == self.targets[1]
    }

    fn pick_destination(&self, src: NodeId, rng: &mut dyn RngCore) -> NodeId {
        self.check(src);
        assert!(self.is_source(src), "hot-spot target {src} is not a source");
        self.targets[usize::from(rng.gen_bool(0.5))]
    }

    fn label(&self) -> String {
        format!("hotspot2({},{})", self.targets[0], self.targets[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_pattern_invariants;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn single_hotspot_construction() {
        assert!(SingleHotspot::new(1, NodeId::new(0)).is_err());
        assert!(SingleHotspot::new(4, NodeId::new(4)).is_err());
        let p = SingleHotspot::new(4, NodeId::new(2)).unwrap();
        assert_eq!(p.target(), NodeId::new(2));
        assert_eq!(p.label(), "hotspot(n2)");
    }

    #[test]
    fn single_hotspot_invariants() {
        let mut rng = SmallRng::seed_from_u64(3);
        for n in 2..16 {
            for t in 0..n {
                check_pattern_invariants(&SingleHotspot::new(n, NodeId::new(t)).unwrap(), &mut rng);
            }
        }
    }

    #[test]
    fn single_hotspot_all_packets_to_target() {
        let p = SingleHotspot::new(6, NodeId::new(5)).unwrap();
        let mut rng = SmallRng::seed_from_u64(9);
        for s in 0..5 {
            assert_eq!(p.pick_destination(NodeId::new(s), &mut rng), NodeId::new(5));
        }
        assert_eq!(p.destinations(), vec![NodeId::new(5)]);
    }

    #[test]
    #[should_panic(expected = "not a source")]
    fn single_hotspot_target_cannot_send() {
        let p = SingleHotspot::new(4, NodeId::new(1)).unwrap();
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = p.pick_destination(NodeId::new(1), &mut rng);
    }

    #[test]
    fn double_hotspot_construction() {
        assert!(DoubleHotspot::new(2, [NodeId::new(0), NodeId::new(1)]).is_err());
        assert!(DoubleHotspot::new(8, [NodeId::new(0), NodeId::new(8)]).is_err());
        assert!(DoubleHotspot::new(8, [NodeId::new(3), NodeId::new(3)]).is_err());
        let p = DoubleHotspot::new(8, [NodeId::new(0), NodeId::new(4)]).unwrap();
        assert_eq!(p.targets(), [NodeId::new(0), NodeId::new(4)]);
    }

    #[test]
    fn double_hotspot_invariants() {
        let mut rng = SmallRng::seed_from_u64(5);
        for n in 3..14 {
            check_pattern_invariants(
                &DoubleHotspot::new(n, [NodeId::new(0), NodeId::new(n - 1)]).unwrap(),
                &mut rng,
            );
        }
    }

    #[test]
    fn double_hotspot_splits_roughly_evenly() {
        let p = DoubleHotspot::new(10, [NodeId::new(2), NodeId::new(7)]).unwrap();
        let mut rng = SmallRng::seed_from_u64(21);
        let mut first = 0usize;
        let draws = 20_000;
        for _ in 0..draws {
            if p.pick_destination(NodeId::new(0), &mut rng) == NodeId::new(2) {
                first += 1;
            }
        }
        let frac = first as f64 / draws as f64;
        assert!((frac - 0.5).abs() < 0.02, "fraction {frac}");
    }

    #[test]
    fn double_hotspot_sources_exclude_both_targets() {
        let p = DoubleHotspot::new(5, [NodeId::new(1), NodeId::new(3)]).unwrap();
        assert_eq!(
            p.sources(),
            vec![NodeId::new(0), NodeId::new(2), NodeId::new(4)]
        );
    }
}

/// Mixed hot-spot traffic: each packet goes to the hot spot with
/// probability `fraction`, otherwise to a uniformly random other node.
///
/// This is the classic "hot-spot percentage" model of the NoC
/// comparison literature (e.g. Pande et al., the paper's reference
/// \[6\]): the paper's pure hot-spot scenario is the `fraction = 1`
/// limit, the homogeneous scenario the `fraction = 0` limit. Every
/// node is a source (including the hot spot, whose uniform share still
/// flows); every node can be a destination.
///
/// # Examples
///
/// ```
/// use noc_traffic::{MixedHotspot, TrafficPattern};
/// use noc_topology::NodeId;
///
/// let pattern = MixedHotspot::new(16, NodeId::new(0), 0.3)?;
/// assert_eq!(pattern.sources().len(), 16);
/// # Ok::<(), noc_traffic::TrafficError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MixedHotspot {
    uniform: UniformRandom,
    target: NodeId,
    fraction: f64,
}

impl MixedHotspot {
    /// Creates a mixed hot-spot pattern sending `fraction` of packets
    /// to `target`.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::TooFewNodes`] if `num_nodes < 2`,
    /// [`TrafficError::TargetOutOfRange`] for a bad target, and
    /// [`TrafficError::InvalidFraction`] if `fraction` is not within
    /// `[0, 1]`.
    pub fn new(num_nodes: usize, target: NodeId, fraction: f64) -> Result<Self, TrafficError> {
        let uniform = UniformRandom::new(num_nodes)?;
        if target.index() >= num_nodes {
            return Err(TrafficError::TargetOutOfRange { target, num_nodes });
        }
        if !(0.0..=1.0).contains(&fraction) {
            return Err(TrafficError::InvalidFraction { fraction });
        }
        Ok(MixedHotspot {
            uniform,
            target,
            fraction,
        })
    }

    /// The hot-spot destination.
    pub fn target(&self) -> NodeId {
        self.target
    }

    /// The probability a packet is addressed to the hot spot.
    pub fn fraction(&self) -> f64 {
        self.fraction
    }
}

impl TrafficPattern for MixedHotspot {
    fn num_nodes(&self) -> usize {
        self.uniform.num_nodes()
    }

    fn is_source(&self, node: NodeId) -> bool {
        self.uniform.is_source(node)
    }

    fn is_destination(&self, node: NodeId) -> bool {
        self.uniform.is_destination(node)
    }

    fn pick_destination(&self, src: NodeId, rng: &mut dyn RngCore) -> NodeId {
        if src != self.target && rng.gen_bool(self.fraction) {
            self.target
        } else {
            self.uniform.pick_destination(src, rng)
        }
    }

    fn label(&self) -> String {
        format!(
            "mixed-hotspot({}, {:.0}%)",
            self.target,
            self.fraction * 100.0
        )
    }
}

#[cfg(test)]
mod mixed_tests {
    use super::*;
    use crate::check_pattern_invariants;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn construction_bounds() {
        assert!(MixedHotspot::new(1, NodeId::new(0), 0.5).is_err());
        assert!(MixedHotspot::new(8, NodeId::new(8), 0.5).is_err());
        assert!(MixedHotspot::new(8, NodeId::new(0), -0.1).is_err());
        assert!(MixedHotspot::new(8, NodeId::new(0), 1.1).is_err());
        let p = MixedHotspot::new(8, NodeId::new(2), 0.25).unwrap();
        assert_eq!(p.target(), NodeId::new(2));
        assert_eq!(p.fraction(), 0.25);
    }

    #[test]
    fn bad_fraction_error_names_the_fraction() {
        for fraction in [1.5, -0.1, f64::NAN] {
            let err = MixedHotspot::new(8, NodeId::new(0), fraction).unwrap_err();
            assert!(
                matches!(err, TrafficError::InvalidFraction { .. }),
                "{err:?}"
            );
            let message = err.to_string();
            assert!(message.contains("fraction"), "{message}");
            assert!(!message.contains("injection rate"), "{message}");
        }
        let err = MixedHotspot::new(8, NodeId::new(0), 1.5).unwrap_err();
        assert!(err.to_string().ends_with("got 1.5"), "{err}");
    }

    #[test]
    fn invariants_hold() {
        let mut rng = SmallRng::seed_from_u64(2);
        for fraction in [0.0, 0.3, 1.0] {
            check_pattern_invariants(
                &MixedHotspot::new(10, NodeId::new(4), fraction).unwrap(),
                &mut rng,
            );
        }
    }

    #[test]
    fn hotspot_share_matches_fraction() {
        let p = MixedHotspot::new(10, NodeId::new(0), 0.4).unwrap();
        let mut rng = SmallRng::seed_from_u64(8);
        let draws = 40_000;
        let mut hits = 0usize;
        for _ in 0..draws {
            if p.pick_destination(NodeId::new(5), &mut rng) == NodeId::new(0) {
                hits += 1;
            }
        }
        // 40% targeted + uniform residue hitting node 0 by chance:
        // 0.4 + 0.6/9 ~ 0.467.
        let expected = 0.4 + 0.6 / 9.0;
        let got = hits as f64 / draws as f64;
        assert!((got - expected).abs() < 0.02, "{got} vs {expected}");
    }

    #[test]
    fn extremes_degenerate_to_pure_patterns() {
        let mut rng = SmallRng::seed_from_u64(3);
        let pure = MixedHotspot::new(8, NodeId::new(3), 1.0).unwrap();
        for _ in 0..100 {
            assert_eq!(
                pure.pick_destination(NodeId::new(0), &mut rng),
                NodeId::new(3)
            );
        }
        // fraction 0: never biased toward the target beyond uniform.
        let uniform = MixedHotspot::new(8, NodeId::new(3), 0.0).unwrap();
        let hits = (0..7000)
            .filter(|_| uniform.pick_destination(NodeId::new(0), &mut rng) == NodeId::new(3))
            .count();
        assert!((hits as f64 / 7000.0 - 1.0 / 7.0).abs() < 0.02);
    }

    #[test]
    fn target_still_sends_its_uniform_share() {
        let p = MixedHotspot::new(8, NodeId::new(3), 0.9).unwrap();
        let mut rng = SmallRng::seed_from_u64(4);
        assert!(p.is_source(NodeId::new(3)));
        for _ in 0..50 {
            let d = p.pick_destination(NodeId::new(3), &mut rng);
            assert_ne!(d, NodeId::new(3));
        }
    }
}
