//! Core graph representation: undirected, weighted, with unique node ids.
//!
//! Nodes are dense indices (`NodeId`) into adjacency arrays; every node
//! additionally carries a unique application-level identifier (`u64`), which
//! the distributed algorithms use for symmetry breaking, as assumed by the
//! paper ("nodes have unique identifiers"). Edge weights are `u64` and the
//! generators guarantee they are pairwise distinct ("each edge is associated
//! with a distinct weight, known to the adjacent nodes").
//!
//! Adjacency is stored in **CSR (compressed sparse row)** form: one
//! contiguous [`Arc`] array plus per-node offsets, so `neighbors(v)` is a
//! slice into a single allocation. At 10^6 nodes this replaces `n`
//! separate `Vec<Arc>` allocations (and their pointer-chasing) with two
//! flat arrays — the difference between a graph that fits hot in cache
//! and one that doesn't. The per-node arc order is **identical** to the
//! historical `Vec<Vec<Arc>>` representation (arcs appear in edge
//! insertion order), so every byte-identity guarantee downstream
//! survives the representation swap.

use std::fmt;

/// Dense index of a node inside a [`Graph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub usize);

impl NodeId {
    /// Returns the underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Dense index of an undirected edge inside a [`Graph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EdgeId(pub usize);

impl EdgeId {
    /// Returns the underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One endpoint-to-endpoint record of an undirected edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EdgeRef {
    /// Edge index in the graph's edge list.
    pub id: EdgeId,
    /// Source endpoint.
    pub u: NodeId,
    /// Target endpoint.
    pub v: NodeId,
    /// The (distinct) weight of the edge.
    pub weight: u64,
}

impl EdgeRef {
    /// The endpoint of this edge that is not `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint of the edge.
    pub fn other(&self, x: NodeId) -> NodeId {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!("{x:?} is not an endpoint of {self:?}")
        }
    }
}

/// A neighbor entry in an adjacency list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arc {
    /// The neighboring node.
    pub to: NodeId,
    /// Weight of the connecting edge.
    pub weight: u64,
    /// Identifier of the connecting edge.
    pub edge: EdgeId,
}

/// An undirected weighted graph with unique node identifiers, adjacency
/// in CSR form.
///
/// Construct with [`GraphBuilder`] (or [`Graph::from_edges`] for a
/// streamed edge source) or one of the functions in [`crate::generators`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    /// CSR offsets: node `v`'s arcs are `arcs[offsets[v]..offsets[v+1]]`.
    offsets: Vec<usize>,
    /// All arcs, grouped by source node; within a node, in edge
    /// insertion order (both directions of edge `i` are placed before
    /// both directions of edge `i+1`).
    arcs: Vec<Arc>,
    /// `twins[offsets[v] + p]`: the port the edge at `v`'s port `p`
    /// occupies at its other endpoint, recorded as both arcs are placed.
    twins: Vec<u32>,
    edges: Vec<EdgeRef>,
    ids: Vec<u64>,
}

/// Why [`Graph::try_from_edges`] refused an edge list: the first
/// violation found, checked in this order — the id count, then each
/// edge in list order, then every node's degree, then parallel edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// The id list does not have one id per node.
    IdCount {
        /// The node count.
        nodes: usize,
        /// The number of ids given.
        ids: usize,
    },
    /// Edge `index` of the list carries another id than `EdgeId(index)`.
    NonConsecutiveEdgeId {
        /// The edge's position in the list.
        index: usize,
        /// The id it carries.
        id: EdgeId,
    },
    /// An edge joins a node to itself.
    SelfLoop {
        /// The offending edge.
        edge: EdgeId,
        /// Its one endpoint.
        node: NodeId,
    },
    /// An edge names a node outside `0..nodes`.
    EndpointOutOfRange {
        /// The offending edge.
        edge: EdgeId,
        /// The out-of-range endpoint.
        node: NodeId,
        /// The node count.
        nodes: usize,
    },
    /// A node has more arcs than the `u32` port range holds.
    DegreeOverflow {
        /// The node.
        node: NodeId,
        /// Its degree.
        degree: usize,
    },
    /// Two edges join the same two nodes.
    ParallelEdge {
        /// The smaller endpoint.
        u: NodeId,
        /// The larger endpoint.
        v: NodeId,
        /// The earlier of the two edges.
        first: EdgeId,
        /// The later one.
        second: EdgeId,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            GraphError::IdCount { nodes, ids } => {
                write!(f, "one id per node required: {ids} ids for {nodes} nodes")
            }
            GraphError::NonConsecutiveEdgeId { index, id } => write!(
                f,
                "edge ids must be consecutive: edge {index} carries id {id}"
            ),
            GraphError::SelfLoop { edge, node } => write!(
                f,
                "self loops are not allowed: edge {edge} joins node {node} to itself"
            ),
            GraphError::EndpointOutOfRange { edge, node, nodes } => write!(
                f,
                "endpoint out of range: edge {edge} names node {node} of {nodes}"
            ),
            GraphError::DegreeOverflow { node, degree } => write!(
                f,
                "degree {degree} of node {node} exceeds the u32 port range"
            ),
            GraphError::ParallelEdge {
                u,
                v,
                first,
                second,
            } => write!(
                f,
                "parallel edge {u}-{v}: edges {first} and {second} join the same nodes"
            ),
        }
    }
}

impl std::error::Error for GraphError {}

impl Graph {
    /// Builds a graph directly from a finalized edge list — the CSR
    /// construction shared by [`GraphBuilder::build`], the generators and
    /// uploads — or names the first violation (see [`GraphError`]).
    ///
    /// Counts degrees, prefix-sums them into offsets, then places both
    /// arcs of every edge in insertion order (reproducing exactly the
    /// adjacency order the historical `Vec<Vec<Arc>>` push loop
    /// produced), recording each arc's twin port as the pair is placed.
    /// Parallel edges are found afterwards in one pass over the CSR
    /// ranges, so construction is `O(n + m)` whatever the degrees.
    /// `ids` of `None` default to `0..n`.
    ///
    /// # Errors
    ///
    /// A wrong id count, a non-consecutive [`EdgeId`], a self loop, an
    /// out-of-range endpoint, a degree beyond the `u32` port range, or a
    /// parallel edge.
    pub fn try_from_edges(
        n: usize,
        edges: Vec<EdgeRef>,
        ids: Option<Vec<u64>>,
    ) -> Result<Graph, GraphError> {
        let ids = ids.unwrap_or_else(|| (0..n as u64).collect());
        if ids.len() != n {
            return Err(GraphError::IdCount {
                nodes: n,
                ids: ids.len(),
            });
        }
        let mut degree = vec![0usize; n];
        for (index, e) in edges.iter().enumerate() {
            if e.id != EdgeId(index) {
                return Err(GraphError::NonConsecutiveEdgeId { index, id: e.id });
            }
            if e.u == e.v {
                return Err(GraphError::SelfLoop {
                    edge: e.id,
                    node: e.u,
                });
            }
            if let Some(&node) = [e.u, e.v].iter().find(|x| x.0 >= n) {
                return Err(GraphError::EndpointOutOfRange {
                    edge: e.id,
                    node,
                    nodes: n,
                });
            }
            degree[e.u.0] += 1;
            degree[e.v.0] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for (v, &d) in degree.iter().enumerate() {
            if u32::try_from(d).is_err() {
                return Err(GraphError::DegreeOverflow {
                    node: NodeId(v),
                    degree: d,
                });
            }
            acc += d;
            offsets.push(acc);
        }
        // fill[v] = [first slot, next free slot] of v's CSR range: both
        // in one cache line, since the fill visits nodes in random order
        let mut fill: Vec<[usize; 2]> = offsets[..n].iter().map(|&o| [o, o]).collect();
        let mut arcs = vec![
            Arc {
                to: NodeId(0),
                weight: 0,
                edge: EdgeId(0),
            };
            acc
        ];
        let mut twins = vec![0u32; acc];
        // places `arc` in `from`'s next free slot; returns (slot, port)
        let mut place = |from: NodeId, arc: Arc| {
            let [first, slot] = fill[from.0];
            arcs[slot] = arc;
            fill[from.0][1] = slot + 1;
            (slot, slot - first)
        };
        for e in &edges {
            let (su, pu) = place(
                e.u,
                Arc {
                    to: e.v,
                    weight: e.weight,
                    edge: e.id,
                },
            );
            let (sv, pv) = place(
                e.v,
                Arc {
                    to: e.u,
                    weight: e.weight,
                    edge: e.id,
                },
            );
            // ports fit in u32: every degree was checked above
            twins[su] = pv as u32;
            twins[sv] = pu as u32;
        }
        // last_seen[w] = 1 + the latest slot whose arc points at w: within
        // v's range, a value past v's first slot means w repeats there
        let mut last_seen = vec![0usize; n];
        for v in 0..n {
            let first = offsets[v];
            for (slot, a) in arcs[first..offsets[v + 1]].iter().enumerate() {
                let seen = last_seen[a.to.0];
                if seen > first {
                    return Err(GraphError::ParallelEdge {
                        u: NodeId(v),
                        v: a.to,
                        first: arcs[seen - 1].edge,
                        second: a.edge,
                    });
                }
                last_seen[a.to.0] = first + slot + 1;
            }
        }
        Ok(Graph {
            offsets,
            arcs,
            twins,
            edges,
            ids,
        })
    }

    /// [`Graph::try_from_edges`] for edge lists known to be valid: the
    /// generators' and [`GraphBuilder`]'s.
    ///
    /// # Panics
    ///
    /// On any [`GraphError`], with its message: self loops, out-of-range
    /// endpoints, duplicate (parallel) edges, non-consecutive
    /// [`EdgeId`]s, a degree beyond the `u32` port range, or an id list
    /// of the wrong length.
    pub fn from_edges(n: usize, edges: Vec<EdgeRef>, ids: Option<Vec<u64>>) -> Graph {
        Graph::try_from_edges(n, edges, ids).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node indices.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId)
    }

    /// All edges of the graph.
    #[inline]
    pub fn edges(&self) -> &[EdgeRef] {
        &self.edges
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of bounds.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> EdgeRef {
        self.edges[e.0]
    }

    /// Adjacency list of `v`: each entry names a neighbor, the edge weight
    /// and the edge id. A contiguous CSR slice.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[Arc] {
        &self.arcs[self.offsets[v.0]..self.offsets[v.0 + 1]]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v.0 + 1] - self.offsets[v.0]
    }

    /// CSR offsets, `node_count() + 1` long: `v`'s arcs occupy slots
    /// `offsets()[v]..offsets()[v + 1]` of the flat arc order that
    /// [`Graph::twin_ports`] and per-arc tables follow.
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The twin port of every arc, in flat CSR order: the edge at `v`'s
    /// port `p` sits at port `twin_ports()[offsets()[v] + p]` of its
    /// other endpoint. Every arc has a twin by construction.
    #[inline]
    pub fn twin_ports(&self) -> &[u32] {
        &self.twins
    }

    /// The port at `neighbors(v)[p].to` of the edge at `v`'s port `p`.
    #[inline]
    pub fn twin_port(&self, v: NodeId, p: usize) -> usize {
        debug_assert!(p < self.degree(v), "port {p} out of range for {v:?}");
        self.twins[self.offsets[v.0] + p] as usize
    }

    /// The unique application-level identifier of `v`.
    #[inline]
    pub fn id_of(&self, v: NodeId) -> u64 {
        self.ids[v.0]
    }

    /// Looks up a node by its application-level identifier.
    ///
    /// Linear scan; intended for tests and verifiers, not hot paths.
    pub fn node_with_id(&self, id: u64) -> Option<NodeId> {
        self.ids.iter().position(|&x| x == id).map(NodeId)
    }

    /// Whether all edge weights are pairwise distinct (the paper's standing
    /// assumption; all generators in this crate uphold it).
    pub fn has_distinct_weights(&self) -> bool {
        let mut w: Vec<u64> = self.edges.iter().map(|e| e.weight).collect();
        w.sort_unstable();
        w.windows(2).all(|p| p[0] != p[1])
    }

    /// Whether all node identifiers are pairwise distinct.
    pub fn has_distinct_ids(&self) -> bool {
        let mut ids = self.ids.clone();
        ids.sort_unstable();
        ids.windows(2).all(|p| p[0] != p[1])
    }

    /// Total weight of the edges whose ids are in `set`.
    pub fn total_weight<I: IntoIterator<Item = EdgeId>>(&self, set: I) -> u128 {
        set.into_iter()
            .map(|e| u128::from(self.edges[e.0].weight))
            .sum()
    }

    /// The edge connecting `u` and `v`, if any.
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeRef> {
        self.neighbors(u)
            .iter()
            .find(|a| a.to == v)
            .map(|a| self.edges[a.edge.0])
    }

    /// FNV-1a fingerprint of the graph's full topology — node count,
    /// edge count, application ids, and every arc's `(to, weight, edge)`
    /// in adjacency order.
    ///
    /// This is the **canonical content address** of a graph: the
    /// multi-process transport's handshake compares it so a worker
    /// generated from different parameters is rejected before round 0,
    /// and the job layer's result cache keys computed partitions by it.
    /// Both consumers hash the same bytes by construction — they call
    /// this one function — so handshake and cache can never disagree.
    ///
    /// Because arcs are visited in adjacency (edge-insertion) order, two
    /// *isomorphic* graphs whose edges were inserted in different orders
    /// fingerprint differently. That is deliberate: the simulator's
    /// port numbering — and therefore every byte of a run's outputs —
    /// depends on adjacency order, so order-distinct graphs must never
    /// share cached results.
    pub fn fingerprint(&self) -> u64 {
        const PRIME: u64 = 0x100_0000_01b3;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mix = |h: u64, x: u64| (h ^ x).wrapping_mul(PRIME);
        h = mix(h, self.node_count() as u64);
        h = mix(h, self.edge_count() as u64);
        for v in self.nodes() {
            h = mix(h, self.id_of(v));
            for arc in self.neighbors(v) {
                h = mix(h, arc.to.0 as u64);
                h = mix(h, arc.weight);
                h = mix(h, arc.edge.0 as u64);
            }
        }
        h
    }

    /// Heap bytes held by the graph's five arrays (CSR offsets + arcs,
    /// twin ports, edge list, id list). Deterministic — computed from
    /// lengths, not allocator capacities — so it can participate in
    /// byte-identical reports.
    pub fn memory_bytes(&self) -> u64 {
        (self.offsets.len() * std::mem::size_of::<usize>()
            + self.arcs.len() * std::mem::size_of::<Arc>()
            + self.twins.len() * std::mem::size_of::<u32>()
            + self.edges.len() * std::mem::size_of::<EdgeRef>()
            + self.ids.len() * std::mem::size_of::<u64>()) as u64
    }
}

/// Incremental builder for [`Graph`].
///
/// ```
/// use kdom_graph::{GraphBuilder, NodeId};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(NodeId(0), NodeId(1), 10);
/// b.add_edge(NodeId(1), NodeId(2), 20);
/// let g = b.build();
/// assert_eq!(g.degree(NodeId(1)), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<EdgeRef>,
    ids: Option<Vec<u64>>,
}

impl GraphBuilder {
    /// Starts a graph with `n` isolated nodes whose identifiers default to
    /// their indices.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
            ids: None,
        }
    }

    /// Overrides the application-level node identifiers.
    ///
    /// # Panics
    ///
    /// Panics if `ids.len()` differs from the node count.
    pub fn ids(&mut self, ids: Vec<u64>) -> &mut Self {
        assert_eq!(ids.len(), self.n, "one id per node required");
        self.ids = Some(ids);
        self
    }

    /// Adds an undirected edge.
    ///
    /// # Panics
    ///
    /// Panics on loops or out-of-range endpoints.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, weight: u64) -> &mut Self {
        assert!(u != v, "self loops are not allowed");
        assert!(u.0 < self.n && v.0 < self.n, "endpoint out of range");
        self.edges.push(EdgeRef {
            id: EdgeId(self.edges.len()),
            u,
            v,
            weight,
        });
        self
    }

    /// Number of nodes the builder was created with.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes the graph.
    ///
    /// # Panics
    ///
    /// Panics if a duplicate (parallel) edge was added.
    pub fn build(&self) -> Graph {
        Graph::from_edges(self.n, self.edges.clone(), self.ids.clone())
    }

    /// Finalizes the graph, consuming the builder — the edge list moves
    /// into the graph instead of being cloned. Preferred at million-node
    /// scale.
    ///
    /// # Panics
    ///
    /// Panics if a duplicate (parallel) edge was added.
    pub fn build_consumed(self) -> Graph {
        Graph::from_edges(self.n, self.edges, self.ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 5);
        b.add_edge(NodeId(1), NodeId(2), 7);
        b.add_edge(NodeId(2), NodeId(0), 9);
        b.build()
    }

    #[test]
    fn counts_and_degrees() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn edge_lookup() {
        let g = triangle();
        let e = g.edge_between(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(e.weight, 9);
        assert_eq!(e.other(NodeId(0)), NodeId(2));
        assert_eq!(e.other(NodeId(2)), NodeId(0));
        assert!(g.edge_between(NodeId(0), NodeId(0)).is_none());
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_panics_for_non_endpoint() {
        let g = triangle();
        let e = g.edge_between(NodeId(0), NodeId(1)).unwrap();
        let _ = e.other(NodeId(2));
    }

    #[test]
    fn distinct_weight_check() {
        let g = triangle();
        assert!(g.has_distinct_weights());
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 5);
        b.add_edge(NodeId(1), NodeId(2), 5);
        assert!(!b.build().has_distinct_weights());
    }

    #[test]
    fn custom_ids() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), 1);
        b.ids(vec![100, 200]);
        let g = b.build();
        assert_eq!(g.id_of(NodeId(1)), 200);
        assert_eq!(g.node_with_id(100), Some(NodeId(0)));
        assert_eq!(g.node_with_id(300), None);
        assert!(g.has_distinct_ids());
    }

    #[test]
    #[should_panic(expected = "parallel edge")]
    fn parallel_edges_rejected() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), 1);
        b.add_edge(NodeId(1), NodeId(0), 2);
        b.build();
    }

    #[test]
    fn try_from_edges_names_the_first_violation() {
        let e = |i: usize, u: usize, v: usize| EdgeRef {
            id: EdgeId(i),
            u: NodeId(u),
            v: NodeId(v),
            weight: i as u64,
        };
        let cases = [
            (
                vec![e(0, 0, 1)],
                Some(vec![7]),
                GraphError::IdCount { nodes: 3, ids: 1 },
            ),
            (
                vec![e(0, 0, 1), e(2, 1, 2)],
                None,
                GraphError::NonConsecutiveEdgeId {
                    index: 1,
                    id: EdgeId(2),
                },
            ),
            (
                vec![e(0, 0, 1), e(1, 2, 2)],
                None,
                GraphError::SelfLoop {
                    edge: EdgeId(1),
                    node: NodeId(2),
                },
            ),
            (
                vec![e(0, 0, 3), e(1, 1, 1)],
                None,
                GraphError::EndpointOutOfRange {
                    edge: EdgeId(0),
                    node: NodeId(3),
                    nodes: 3,
                },
            ),
            // node 1's range is scanned first: arcs to 2 from edges 1 and 3
            (
                vec![e(0, 0, 1), e(1, 1, 2), e(2, 0, 2), e(3, 2, 1)],
                None,
                GraphError::ParallelEdge {
                    u: NodeId(1),
                    v: NodeId(2),
                    first: EdgeId(1),
                    second: EdgeId(3),
                },
            ),
        ];
        for (edges, ids, want) in cases {
            assert_eq!(Graph::try_from_edges(3, edges, ids), Err(want));
        }
        let err = Graph::try_from_edges(2, vec![e(0, 0, 1), e(1, 0, 1)], None).unwrap_err();
        assert_eq!(
            err.to_string(),
            "parallel edge 0-1: edges 0 and 1 join the same nodes"
        );
        let ok = Graph::try_from_edges(3, vec![e(0, 0, 1), e(1, 2, 1)], None);
        assert_eq!(ok.map(|g| g.degree(NodeId(1))), Ok(2));
    }

    #[test]
    #[should_panic(expected = "self loops")]
    fn loops_rejected() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(1), NodeId(1), 1);
    }

    #[test]
    fn total_weight_sums() {
        let g = triangle();
        let all: Vec<EdgeId> = g.edges().iter().map(|e| e.id).collect();
        assert_eq!(g.total_weight(all), 21);
    }

    /// CSR adjacency must reproduce the edge-insertion order the old
    /// `Vec<Vec<Arc>>` push loop produced: within a node, arcs appear in
    /// ascending edge id.
    #[test]
    fn csr_preserves_insertion_order() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(2), NodeId(0), 10); // e0
        b.add_edge(NodeId(0), NodeId(1), 11); // e1
        b.add_edge(NodeId(3), NodeId(0), 12); // e2
        b.add_edge(NodeId(1), NodeId(2), 13); // e3
        let g = b.build();
        let order: Vec<usize> = g.neighbors(NodeId(0)).iter().map(|a| a.edge.0).collect();
        assert_eq!(order, vec![0, 1, 2], "arcs of node 0 in edge order");
        assert_eq!(g.neighbors(NodeId(0))[0].to, NodeId(2));
        let order1: Vec<usize> = g.neighbors(NodeId(1)).iter().map(|a| a.edge.0).collect();
        assert_eq!(order1, vec![1, 3]);
        assert!(g.memory_bytes() > 0);
    }

    #[test]
    fn build_consumed_matches_build() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 5);
        b.add_edge(NodeId(1), NodeId(2), 7);
        assert_eq!(b.build(), b.clone().build_consumed());
    }

    /// The fingerprint must separate topologies, weights, and adjacency
    /// *order* (isomorphic graphs inserted differently are distinct),
    /// while staying stable across identical rebuilds.
    #[test]
    fn fingerprint_separates_structure_and_order() {
        let g = triangle();
        assert_eq!(g.fingerprint(), triangle().fingerprint());

        let mut heavier = GraphBuilder::new(3);
        heavier.add_edge(NodeId(0), NodeId(1), 5);
        heavier.add_edge(NodeId(1), NodeId(2), 7);
        heavier.add_edge(NodeId(2), NodeId(0), 10);
        assert_ne!(g.fingerprint(), heavier.build().fingerprint());

        // same triangle, edges inserted in a different order: isomorphic
        // (identical vertex set and weights) but port numbering differs,
        // so the fingerprint must differ too
        let mut reordered = GraphBuilder::new(3);
        reordered.add_edge(NodeId(2), NodeId(0), 9);
        reordered.add_edge(NodeId(0), NodeId(1), 5);
        reordered.add_edge(NodeId(1), NodeId(2), 7);
        assert_ne!(g.fingerprint(), reordered.build().fingerprint());

        let mut renamed = GraphBuilder::new(3);
        renamed.add_edge(NodeId(0), NodeId(1), 5);
        renamed.add_edge(NodeId(1), NodeId(2), 7);
        renamed.add_edge(NodeId(2), NodeId(0), 9);
        renamed.ids(vec![10, 11, 12]);
        assert_ne!(g.fingerprint(), renamed.build().fingerprint());

        // the same family and seed at another size differs in node count
        let small = crate::generators::Family::Grid.generate(16, 1);
        let large = crate::generators::Family::Grid.generate(25, 1);
        assert_ne!(small.fingerprint(), large.fingerprint());
    }

    /// Asserts every arc's recorded twin against a scan of the other
    /// endpoint's adjacency list.
    fn assert_twins_match_scan(g: &Graph) {
        assert_eq!(g.twin_ports().len(), g.offsets()[g.node_count()]);
        for v in g.nodes() {
            for (p, arc) in g.neighbors(v).iter().enumerate() {
                let scanned = g
                    .neighbors(arc.to)
                    .iter()
                    .position(|a| a.edge == arc.edge)
                    .expect("the edge is in both adjacency lists");
                assert_eq!(g.twin_port(v, p), scanned, "twin of {v:?} port {p}");
                assert_eq!(g.neighbors(arc.to)[scanned].to, v);
            }
        }
    }

    /// The twin table recorded during placement matches the scan on a
    /// random graph, a star (one hub holding every arc), and a graph
    /// rebuilt from an edited edge list — a node dropped and an edge
    /// added, the way churn rebuilds topologies.
    #[test]
    fn twin_ports_match_scan() {
        use crate::generators::{gnp_connected, star, GenConfig};
        let g = gnp_connected(&GenConfig::with_seed(40, 5), 0.15);
        assert_twins_match_scan(&g);
        assert_twins_match_scan(&star(&GenConfig::with_seed(50, 2)));

        // drop node 7 (renumbering the rest down) and link the two ends
        let gone = 7;
        let renumber = |v: NodeId| NodeId(if v.0 > gone { v.0 - 1 } else { v.0 });
        let mut b = GraphBuilder::new(g.node_count() - 1);
        for e in g.edges().iter().filter(|e| e.u.0 != gone && e.v.0 != gone) {
            b.add_edge(renumber(e.u), renumber(e.v), e.weight);
        }
        let rebuilt = b.build();
        let last = NodeId(rebuilt.node_count() - 1);
        if rebuilt.edge_between(NodeId(0), last).is_none() {
            b.add_edge(NodeId(0), last, u64::MAX);
        }
        assert_twins_match_scan(&b.build());
    }

    #[test]
    fn from_edges_builds_isolated_nodes() {
        let g = Graph::from_edges(3, Vec::new(), None);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 0);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 0);
            assert!(g.neighbors(v).is_empty());
        }
    }
}
