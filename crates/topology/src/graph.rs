//! Minimal undirected graph machinery (CSR adjacency + BFS).
//!
//! The analytical figures of the paper (network diameter and average
//! network distance, Figures 2 and 3) need exact shortest-path distances
//! for every topology and every node count. Rather than trusting the
//! closed-form expressions, everything in [`crate::metrics`] is computed
//! from breadth-first search over this graph, and the closed forms in
//! [`crate::analytical`] are *validated* against it.

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
    /// `neighbors_of(v)` must return the adjacency list of node `v`;
    /// entries must be valid node indices.
    ///
    /// # Panics
    ///
    /// Panics if a neighbor index is `>= n`.
    pub fn from_neighbors<F>(n: usize, neighbors_of: F) -> Self
    where
        F: Fn(usize) -> Vec<usize>,
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
        Graph::from_neighbors(n, |v| adj[v].clone())
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
        self.bfs_into(src, &mut dist, &mut Vec::with_capacity(n));
        dist
    }

    /// BFS from `src` into `dist`, which must hold [`UNREACHABLE`] for
    /// every node. `queue` is scratch space; passing the same one to
    /// every call saves an allocation per source.
    fn bfs_into(&self, src: usize, dist: &mut [u32], queue: &mut Vec<usize>) {
        queue.clear();
        dist[src] = 0;
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
    }

    /// All-pairs shortest-path distances (one BFS per node).
    pub fn all_pairs_distances(&self) -> DistanceMatrix {
        let n = self.num_nodes();
        let mut data = vec![UNREACHABLE; n * n];
        let mut queue = Vec::with_capacity(n);
        for (src, row) in data.chunks_exact_mut(n.max(1)).enumerate() {
            self.bfs_into(src, row, &mut queue);
        }
        DistanceMatrix { n, data }
    }

    /// The diameter and the sum of distances over ordered pairs, reduced
    /// from one BFS per source without storing the `n x n` matrix of
    /// [`all_pairs_distances`](Self::all_pairs_distances). The diameter
    /// of an empty graph is `None`.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected.
    pub(crate) fn distance_totals(&self) -> (Option<u32>, u64) {
        let n = self.num_nodes();
        let (mut dist, mut queue) = (vec![UNREACHABLE; n], Vec::with_capacity(n));
        let (mut diameter, mut total) = (None, 0u64);
        for src in 0..n {
            dist.fill(UNREACHABLE);
            self.bfs_into(src, &mut dist, &mut queue);
            let eccentricity = dist.iter().copied().max().expect("nonempty row");
            assert_ne!(eccentricity, UNREACHABLE, "graph is disconnected");
            diameter = diameter.max(Some(eccentricity));
            total += dist.iter().map(|&d| u64::from(d)).sum::<u64>();
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

    #[test]
    fn debug_is_nonempty() {
        let g = cycle_graph(4);
        assert!(!format!("{g:?}").is_empty());
        assert!(!format!("{:?}", g.all_pairs_distances()).is_empty());
    }
}
