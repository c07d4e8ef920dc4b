//! Minimal graph machinery: CSR adjacency, single-source BFS and one
//! bit-parallel multi-source BFS for every all-sources distance.
//!
//! The analytical figures of the paper (network diameter and average
//! network distance, Figures 2 and 3) need exact shortest-path distances
//! for every topology and every node count. Rather than trusting the
//! closed-form expressions, everything in [`crate::metrics`] is computed
//! from breadth-first search over this graph, and the closed forms in
//! [`crate::analytical`] are *validated* against it.
//!
//! # The sweep
//!
//! [`Graph::all_pairs_distances`] and the diameter and distance sum
//! behind [`crate::metrics`] are reductions over one level-synchronous,
//! bit-parallel BFS. Sources go in blocks of 64 consecutive nodes; each
//! node holds a `u64` of the block's sources that have reached it. At
//! each level, every frontier node pushes the bits it gained at that
//! level along its out-edges, masked by the bits the target already
//! holds, and a target that gains bits joins the next level's frontier.
//! A node therefore gains each source's bit exactly at that source's
//! distance, and all bits gained at once share one distance.
//!
//! The frontier is a list of nodes, never a scan of all of them, so a
//! node's edges are visited once per level at which it gains bits.
//! That is at most once per source, so no block visits more edges than
//! the 64 single-source BFS runs it replaces, and where sources share
//! levels it visits far fewer: on the mesh, spidergon and irregular
//! meshes of up to 64 nodes behind Figures 2, 3 and 5 one block covers
//! every source in at most `diameter + 1` levels. On a ring the levels
//! barely coincide (a node outside the block gains one bit per level),
//! so there the sweep visits about as many nodes as one BFS per source,
//! each visit a little dearer.
//!
//! Measured against one BFS per source on a 2-core x86-64 host (both
//! versions in one process, best of 9 interleaved trials; the first
//! ratio is [`crate::metrics::diameter`] plus
//! [`crate::metrics::average_distance`], the second
//! [`crate::metrics::TopologyMetrics::compute`]):
//!
//! | nodes | ring | spidergon | mesh |
//! |---|---|---|---|
//! | 64 | 0.75x, 0.86x | 0.44x, 0.66x | 0.33x, 0.60x |
//! | 256 | 1.26x, 1.18x | 0.96x, 0.99x | 0.26x, 0.48x |
//! | 1024 | 1.46x, 1.47x | 1.12x, 1.09x | 0.50x, 0.68x |
//! | 4096 | 1.36x, 1.29x | 1.64x, 1.37x | 1.04x, 0.89x |
//!
//! So up to 256 nodes only the ring is slower than before, and at 1024
//! and 4096 nodes no ratio is above 2x.
//!
//! [`Graph::bfs_distances`] stays the single-source primitive, used by
//! [`Graph::is_connected`] and as the tests' oracle for the sweep.

use core::fmt;

/// Distance value meaning "unreachable".
pub const UNREACHABLE: u32 = u32::MAX;

/// An immutable undirected graph in compressed sparse row form.
///
/// # Examples
///
/// ```
/// use noc_topology::graph::Graph;
///
/// // A triangle.
/// let g = Graph::from_neighbors(3, |v| vec![(v + 1) % 3, (v + 2) % 3]);
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.neighbors(0), &[1, 2]);
/// assert!(g.is_connected());
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<usize>,
    edges: Vec<usize>,
}

impl Graph {
    /// Builds a graph with `n` nodes from a neighbor function.
    ///
    /// `neighbors_of(v)` must yield the adjacency list of node `v`;
    /// entries must be valid node indices. The lists go straight into
    /// the CSR arrays, so an iterator costs no allocation per node.
    ///
    /// # Panics
    ///
    /// Panics if a neighbor index is `>= n`.
    pub fn from_neighbors<F, I>(n: usize, neighbors_of: F) -> Self
    where
        F: Fn(usize) -> I,
        I: IntoIterator<Item = usize>,
    {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut edges = Vec::new();
        offsets.push(0);
        for v in 0..n {
            for u in neighbors_of(v) {
                assert!(u < n, "neighbor {u} of node {v} out of range (n = {n})");
                edges.push(u);
            }
            offsets.push(edges.len());
        }
        Graph { offsets, edges }
    }

    /// Builds a graph with `n` nodes from an undirected edge list.
    ///
    /// Each `(u, v)` pair adds both `u -> v` and `v -> u`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edge_list: &[(usize, usize)]) -> Self {
        let mut adj = vec![Vec::new(); n];
        for &(u, v) in edge_list {
            assert!(u < n && v < n, "edge ({u}, {v}) out of range (n = {n})");
            adj[u].push(v);
            adj[v].push(u);
        }
        Graph::from_neighbors(n, |v| adj[v].iter().copied())
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed adjacency entries (twice the undirected edge
    /// count for a symmetric graph).
    #[inline]
    pub fn num_directed_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adjacency list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.edges[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Single-source BFS distances from `src`, in hops.
    ///
    /// Unreachable nodes get [`UNREACHABLE`].
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    pub fn bfs_distances(&self, src: usize) -> Vec<u32> {
        let n = self.num_nodes();
        assert!(src < n, "source {src} out of range (n = {n})");
        let mut dist = vec![UNREACHABLE; n];
        dist[src] = 0;
        let mut queue = Vec::with_capacity(n);
        queue.push(src);
        let mut head = 0;
        while let Some(&v) = queue.get(head) {
            head += 1;
            let dv = dist[v];
            for &u in self.neighbors(v) {
                if dist[u] == UNREACHABLE {
                    dist[u] = dv + 1;
                    queue.push(u);
                }
            }
        }
        dist
    }

    /// All-pairs shortest-path distances; unreached pairs hold
    /// [`UNREACHABLE`].
    ///
    /// The matrix is filled by the bit-parallel sweep of the [module
    /// doc](self): each source bit a node gains at a level writes that
    /// level into one entry, so the sweep costs what the matrix-free
    /// diameter and distance sum of [`crate::metrics`] cost plus the
    /// `n x n` writes.
    pub fn all_pairs_distances(&self) -> DistanceMatrix {
        let n = self.num_nodes();
        let mut data = vec![UNREACHABLE; n * n];
        let mut sweep = Sweep::new(self);
        for first in (0..n).step_by(BLOCK) {
            sweep.block(first, |level, v, mut bits| {
                while bits != 0 {
                    let src = first + bits.trailing_zeros() as usize;
                    data[src * n + v] = level;
                    bits &= bits - 1;
                }
            });
        }
        DistanceMatrix { n, data }
    }

    /// The diameter and the sum of distances over ordered pairs, reduced
    /// from the bit-parallel sweep of the module doc without storing the
    /// `n x n` matrix of [`all_pairs_distances`](Self::all_pairs_distances):
    /// each node adds `level x popcount` of the source bits that reach it
    /// at each level, and the diameter is the deepest level any block
    /// reaches. The diameter of an empty graph is `None`.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected.
    pub(crate) fn distance_totals(&self) -> (Option<u32>, u64) {
        let n = self.num_nodes();
        let (mut diameter, mut total) = (None, 0u64);
        let mut sweep = Sweep::new(self);
        for first in (0..n).step_by(BLOCK) {
            let reached_all = sweep.block(first, |level, _, bits| {
                diameter = diameter.max(Some(level));
                total += u64::from(level) * u64::from(bits.count_ones());
            });
            assert!(reached_all, "graph is disconnected");
        }
        (diameter, total)
    }

    /// Returns `true` if every node is reachable from node 0 (or the
    /// graph is empty).
    pub fn is_connected(&self) -> bool {
        if self.num_nodes() == 0 {
            return true;
        }
        self.bfs_distances(0).iter().all(|&d| d != UNREACHABLE)
    }

    /// Returns `true` if the adjacency relation is symmetric.
    pub fn is_symmetric(&self) -> bool {
        (0..self.num_nodes()).all(|v| {
            self.neighbors(v)
                .iter()
                .all(|&u| self.neighbors(u).contains(&v))
        })
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("num_nodes", &self.num_nodes())
            .field("num_directed_edges", &self.num_directed_edges())
            .finish()
    }
}

/// Sources per sweep block: one bit of a `u64` each.
const BLOCK: usize = 64;

/// Scratch state of the bit-parallel multi-source BFS, reused across
/// the blocks of one sweep.
struct Sweep<'g> {
    graph: &'g Graph,
    /// Per node, the bits of the block's sources that have reached it.
    reach: Vec<u64>,
    /// Per node, the bits it gained at the current level; zero once
    /// the node has been expanded.
    fresh: Vec<u64>,
    /// Per node, the bits it gains at the next level.
    next: Vec<u64>,
    /// The current level's nodes (those with non-zero `fresh`) lead
    /// this buffer, in the order they gained bits.
    frontier: Vec<usize>,
    /// The next level's nodes (those with non-zero `next`) lead this
    /// buffer, in the order they gained bits.
    touched: Vec<usize>,
}

impl<'g> Sweep<'g> {
    fn new(graph: &'g Graph) -> Self {
        let n = graph.num_nodes();
        Sweep {
            graph,
            reach: vec![0; n],
            fresh: vec![0; n],
            next: vec![0; n],
            frontier: vec![0; n],
            touched: vec![0; n],
        }
    }

    /// Runs a BFS from each of the sources `first..first + 64` (fewer in
    /// the last block) at once, source `first + b` being bit `b`.
    /// `visit(level, v, bits)` is called once per node and level with the
    /// sources whose distance to `v` is exactly `level`, levels in
    /// ascending order. Returns `true` if every source reached every
    /// node.
    fn block(&mut self, first: usize, mut visit: impl FnMut(u32, usize, u64)) -> bool {
        let n = self.graph.num_nodes();
        let len = BLOCK.min(n - first);
        let full = u64::MAX >> (BLOCK - len);
        self.reach.fill(0);
        for b in 0..len {
            self.reach[first + b] = 1 << b;
            self.fresh[first + b] = 1 << b;
            self.frontier[b] = first + b;
        }
        let (mut level, mut width) = (0, len);
        while width > 0 {
            // No shortest path has more than `n - 1` hops.
            assert!((level as usize) < n, "sweep does not settle");
            let mut pushed = 0;
            for &v in &self.frontier[..width] {
                let bits = core::mem::take(&mut self.fresh[v]);
                visit(level, v, bits);
                for &u in self.graph.neighbors(v) {
                    let reach = self.reach[u];
                    let new = bits & !reach;
                    if new != 0 {
                        self.reach[u] = reach | new;
                        if self.next[u] == 0 {
                            self.touched[pushed] = u;
                            pushed += 1;
                        }
                        self.next[u] |= new;
                    }
                }
            }
            core::mem::swap(&mut self.fresh, &mut self.next);
            core::mem::swap(&mut self.frontier, &mut self.touched);
            (level, width) = (level + 1, pushed);
        }
        self.reach.iter().all(|&r| r == full)
    }
}

/// Dense `n x n` matrix of pairwise shortest-path distances in hops.
///
/// Produced by [`Graph::all_pairs_distances`].
///
/// # Examples
///
/// ```
/// use noc_topology::graph::Graph;
///
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
/// let d = g.all_pairs_distances();
/// assert_eq!(d.distance(0, 2), 2);
/// assert_eq!(d.eccentricity(1), 1);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct DistanceMatrix {
    n: usize,
    data: Vec<u32>,
}

impl DistanceMatrix {
    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Distance in hops from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range.
    #[inline]
    pub fn distance(&self, src: usize, dst: usize) -> u32 {
        assert!(src < self.n && dst < self.n, "index out of range");
        self.data[src * self.n + dst]
    }

    /// The row of distances from `src` to every node.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    #[inline]
    pub fn row(&self, src: usize) -> &[u32] {
        assert!(src < self.n, "index out of range");
        &self.data[src * self.n..(src + 1) * self.n]
    }

    /// Maximum distance from `src` to any node (its eccentricity).
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range or any node is unreachable.
    pub fn eccentricity(&self, src: usize) -> u32 {
        let m = *self.row(src).iter().max().expect("nonempty row");
        assert_ne!(m, UNREACHABLE, "graph is disconnected");
        m
    }

    /// Network diameter: the maximum shortest-path length over all pairs.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected or empty.
    pub fn diameter(&self) -> u32 {
        (0..self.n)
            .map(|v| self.eccentricity(v))
            .max()
            .expect("nonempty graph")
    }

    /// Sum of all pairwise distances (ordered pairs, `src != dst`).
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected.
    pub fn total_distance(&self) -> u64 {
        let mut sum = 0u64;
        for src in 0..self.n {
            for &d in self.row(src) {
                assert_ne!(d, UNREACHABLE, "graph is disconnected");
                sum += u64::from(d);
            }
        }
        sum
    }

    /// Average distance over ordered pairs with `src != dst`.
    ///
    /// Returns 0 for graphs with fewer than two nodes.
    pub fn mean_distance(&self) -> f64 {
        mean_distance(self.total_distance(), self.n)
    }

    /// The paper's normalization of average distance: per-source distance
    /// sum divided by `N` (not `N - 1`), averaged over sources.
    ///
    /// For vertex-symmetric topologies (ring, spidergon) this equals
    /// `sum_dist_from_any_node / N`, the convention used in the paper's
    /// `E[D]` formulas.
    pub fn mean_distance_paper(&self) -> f64 {
        mean_distance_paper(self.total_distance(), self.n)
    }
}

/// [`DistanceMatrix::mean_distance`] from the distance sum of `n`
/// nodes.
pub(crate) fn mean_distance(total: u64, n: usize) -> f64 {
    if n < 2 {
        return 0.0;
    }
    total as f64 / (n * (n - 1)) as f64
}

/// [`DistanceMatrix::mean_distance_paper`] from the distance sum of `n`
/// nodes.
pub(crate) fn mean_distance_paper(total: u64, n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    total as f64 / (n * n) as f64
}

impl fmt::Debug for DistanceMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DistanceMatrix")
            .field("num_nodes", &self.n)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges)
    }

    fn cycle_graph(n: usize) -> Graph {
        let edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn path_graph_distances() {
        let g = path_graph(5);
        let d = g.bfs_distances(0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        let d2 = g.bfs_distances(2);
        assert_eq!(d2, vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn cycle_graph_diameter_is_half() {
        let g = cycle_graph(8);
        let apd = g.all_pairs_distances();
        assert_eq!(apd.diameter(), 4);
        let g = cycle_graph(9);
        assert_eq!(g.all_pairs_distances().diameter(), 4);
    }

    #[test]
    fn disconnected_graph_reports_unreachable() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!g.is_connected());
        let d = g.bfs_distances(0);
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[3], UNREACHABLE);
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn eccentricity_panics_on_disconnected() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        g.all_pairs_distances().eccentricity(0);
    }

    #[test]
    fn mean_distance_of_complete_graph_is_one() {
        let n = 6;
        let mut edges = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                edges.push((i, j));
            }
        }
        let g = Graph::from_edges(n, &edges);
        let apd = g.all_pairs_distances();
        assert!((apd.mean_distance() - 1.0).abs() < 1e-12);
        // Paper convention divides by N instead of N-1.
        let expected = (n - 1) as f64 / n as f64;
        assert!((apd.mean_distance_paper() - expected).abs() < 1e-12);
    }

    #[test]
    fn singleton_graph_is_connected_with_zero_mean() {
        let g = Graph::from_edges(1, &[]);
        assert!(g.is_connected());
        let apd = g.all_pairs_distances();
        assert_eq!(apd.mean_distance(), 0.0);
        assert_eq!(apd.diameter(), 0);
    }

    #[test]
    fn from_neighbors_and_from_edges_agree() {
        let a = cycle_graph(6);
        let b = Graph::from_neighbors(6, |v| vec![(v + 1) % 6, (v + 5) % 6]);
        // Same distance structure even if adjacency order differs.
        assert_eq!(
            a.all_pairs_distances().total_distance(),
            b.all_pairs_distances().total_distance()
        );
    }

    #[test]
    fn symmetry_check() {
        assert!(cycle_graph(5).is_symmetric());
        let asym = Graph::from_neighbors(2, |v| if v == 0 { vec![1] } else { vec![] });
        assert!(!asym.is_symmetric());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_rejects_bad_endpoint() {
        let _ = Graph::from_edges(2, &[(0, 5)]);
    }

    /// SplitMix64: a seeded generator for the random-graph test.
    struct SplitMix(u64);

    impl SplitMix {
        fn below(&mut self, k: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % k as u64) as usize
        }
    }

    /// A random directed graph: out-degree 0-4, asymmetric edges and
    /// self-loops allowed. `shape` 0 is plain (mostly disconnected), 1
    /// adds the cycle `v -> v + 1` (strongly connected), 2 is a random
    /// undirected tree plus a few undirected edges (connected, deep).
    fn random_graph(rng: &mut SplitMix, n: usize, shape: usize) -> Graph {
        if shape == 2 {
            let mut edges: Vec<_> = (1..n).map(|v| (v, rng.below(v))).collect();
            edges.extend((0..n / 16).map(|_| (rng.below(n), rng.below(n))));
            return Graph::from_edges(n, &edges);
        }
        let adj: Vec<Vec<usize>> = (0..n)
            .map(|v| {
                let extra = rng.below(if shape == 1 { 4 } else { 5 });
                let mut out: Vec<usize> = (0..extra).map(|_| rng.below(n)).collect();
                if shape == 1 {
                    out.push((v + 1) % n);
                }
                out
            })
            .collect();
        Graph::from_neighbors(n, |v| adj[v].clone())
    }

    #[test]
    fn sweep_matches_single_source_bfs_on_random_graphs() {
        let mut rng = SplitMix(0x5eed);
        let mut sizes = vec![1, 63, 64, 65, 128, 129];
        sizes.extend((0..40).map(|_| 1 + rng.below(200)));
        let (mut connected, mut disconnected) = (0, 0);
        for n in sizes {
            for shape in 0..3 {
                let g = random_graph(&mut rng, n, shape);
                let apd = g.all_pairs_distances();
                let rows: Vec<Vec<u32>> = (0..n).map(|s| g.bfs_distances(s)).collect();
                for (s, row) in rows.iter().enumerate() {
                    assert_eq!(apd.row(s), &row[..], "n={n} shape={shape} source {s}");
                }
                let all = rows.iter().flatten();
                if all.clone().all(|&d| d != UNREACHABLE) {
                    connected += 1;
                    let max = all.clone().copied().max();
                    let sum = all.map(|&d| u64::from(d)).sum();
                    assert_eq!(g.distance_totals(), (max, sum), "n={n} shape={shape}");
                } else {
                    disconnected += 1;
                    let err = std::panic::catch_unwind(|| g.distance_totals())
                        .expect_err("distance_totals must panic on a disconnected graph");
                    let msg = (err.downcast_ref::<&str>().map(|m| m.to_string()))
                        .or_else(|| err.downcast_ref::<String>().cloned());
                    assert_eq!(msg.as_deref(), Some("graph is disconnected"));
                }
            }
        }
        assert!(
            connected > 40 && disconnected > 20,
            "{connected} / {disconnected}"
        );
    }

    #[test]
    fn empty_graph_has_no_diameter() {
        let g = Graph::from_edges(0, &[]);
        assert_eq!(g.distance_totals(), (None, 0));
        assert_eq!(g.all_pairs_distances().num_nodes(), 0);
    }

    #[test]
    fn debug_is_nonempty() {
        let g = cycle_graph(4);
        assert!(!format!("{g:?}").is_empty());
        assert!(!format!("{:?}", g.all_pairs_distances()).is_empty());
    }
}
