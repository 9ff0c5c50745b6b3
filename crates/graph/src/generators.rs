//! Deterministic graph generators for the experiments.
//!
//! All generators produce graphs with **pairwise-distinct edge weights** and
//! **pairwise-distinct node identifiers**, the paper's standing assumptions.
//! Randomized generators are driven by a seed ([`GenConfig::seed`]) so every
//! experiment is reproducible: a seed fixes every RNG draw, hence the
//! byte-identical graph and its [`Graph::fingerprint`].
//!
//! ## Cost
//!
//! Every generator runs in `O(n + m)` time and memory, except:
//! - [`gnp_connected`]: `Θ(n²)` time, one `random_bool` draw per node
//!   pair (the seed contract fixes the draw sequence), in `O(n + m)`
//!   memory;
//! - [`gnm_connected`] and [`random_connected`]: expected `O(n + m)`
//!   while `m` stays a constant fraction below `n(n-1)/2`; rejection
//!   sampling slows as the graph approaches complete;
//! - [`expanderish`]: `O(d·n)` per attempt, retried until connected.
//!
//! Distinctness checks (edge pairs, node ids, weights) use a private
//! open-addressing set of `u64` keys or a bitset, never a per-element
//! SipHash set, and [`Graph::from_edges`] builds the CSR in one linear
//! pass plus one linear parallel-edge check.

use kdom_rng::StdRng;

use crate::graph::{EdgeId, EdgeRef, Graph, NodeId};

/// Size + seed configuration for the randomized generators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GenConfig {
    /// Number of nodes.
    pub n: usize,
    /// RNG seed; equal seeds produce equal graphs.
    pub seed: u64,
}

impl GenConfig {
    /// Convenience constructor.
    pub fn with_seed(n: usize, seed: u64) -> Self {
        GenConfig { n, seed }
    }
}

/// Draws `m` pairwise-distinct weights in `1..=8m+16`, in random order.
fn distinct_weights(m: usize, rng: &mut StdRng) -> Vec<u64> {
    let space = 8 * m + 16;
    let idx = rng.sample_indices(space, m);
    let mut w: Vec<u64> = idx.into_iter().map(|i| i as u64 + 1).collect();
    rng.shuffle(&mut w);
    w
}

/// Random distinct node identifiers (48-bit), so symmetry breaking faces
/// realistic id entropy.
fn random_ids(n: usize, rng: &mut StdRng) -> Vec<u64> {
    let mut ids = Vec::with_capacity(n);
    let mut seen = KeySet::with_capacity(n);
    while ids.len() < n {
        let id: u64 = rng.random_range(0..(1u64 << 48));
        if seen.insert(id) {
            ids.push(id);
        }
    }
    ids
}

/// Set of at most a preset number of `u64` keys: open addressing with
/// linear probing in a power-of-two table at most half full, indexed by
/// a Fibonacci (multiplicative) hash.
///
/// Every key is an output of the seeded xoshiro stream — a drawn node
/// id, or a pair of drawn node indices — and never bytes from a client,
/// so no adversary can choose colliding keys; keys from outside the
/// program belong in a `std` set with its randomized default hasher.
struct KeySet {
    slots: Vec<u64>,
    /// `64 - log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
    len: usize,
}

impl KeySet {
    /// Marks a free slot; no id (< 2^48) or pair key equals it.
    const EMPTY: u64 = u64::MAX;

    /// A set for up to `keys` keys.
    fn with_capacity(keys: usize) -> KeySet {
        let size = (2 * keys).next_power_of_two().max(16);
        KeySet {
            slots: vec![Self::EMPTY; size],
            shift: 64 - size.trailing_zeros(),
            len: 0,
        }
    }

    /// A set for up to `pairs` node pairs over `n < 2^32` nodes.
    fn for_pairs(n: usize, pairs: usize) -> KeySet {
        assert!(
            (n as u64) < 1 << 32,
            "pair keys pack two node indices below 2^32; n = {n}"
        );
        KeySet::with_capacity(pairs)
    }

    /// Inserts the unordered pair `{a, b}` as `min << 32 | max`; whether
    /// it was new.
    fn insert_pair(&mut self, a: usize, b: usize) -> bool {
        self.insert((a.min(b) as u64) << 32 | a.max(b) as u64)
    }

    /// Inserts `key`; whether it was new.
    fn insert(&mut self, key: u64) -> bool {
        debug_assert_ne!(key, Self::EMPTY, "the empty marker is not a key");
        debug_assert!(2 * self.len < self.slots.len(), "more keys than sized for");
        let mask = self.slots.len() - 1;
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            match self.slots[i] {
                Self::EMPTY => {
                    self.slots[i] = key;
                    self.len += 1;
                    return true;
                }
                k if k == key => return false,
                _ => i = (i + 1) & mask,
            }
        }
    }
}

/// Assigns random distinct weights/ids to a prepared edge list.
fn assemble(n: usize, edges: &[(usize, usize)], rng: &mut StdRng) -> Graph {
    assemble_streamed(n, edges.len(), edges.iter().copied(), rng)
}

/// Streaming [`assemble`]: consumes an edge *iterator* of known length
/// `m` directly into the graph's final edge array — no intermediate
/// pair `Vec`, which matters at 10^6 nodes. The RNG call order
/// (`distinct_weights(m)`, then the edge pass, then `random_ids(n)`)
/// is exactly [`assemble`]'s, so a generator switching to the streamed
/// path produces a byte-identical graph for the same seed.
///
/// # Panics
///
/// Panics if the iterator does not yield exactly `m` edges, or on any
/// edge [`Graph::from_edges`] rejects.
fn assemble_streamed(
    n: usize,
    m: usize,
    edges: impl IntoIterator<Item = (usize, usize)>,
    rng: &mut StdRng,
) -> Graph {
    let w = distinct_weights(m, rng);
    let mut list: Vec<EdgeRef> = Vec::with_capacity(m);
    for ((u, v), &wt) in edges.into_iter().zip(&w) {
        list.push(EdgeRef {
            id: EdgeId(list.len()),
            u: NodeId(u),
            v: NodeId(v),
            weight: wt,
        });
    }
    assert_eq!(list.len(), m, "edge stream must yield exactly m edges");
    let ids = random_ids(n, rng);
    Graph::from_edges(n, list, Some(ids))
}

/// Draws weights for an edge list collected with placeholder weights,
/// then ids, and finalizes — the tail shared by the streaming
/// generators whose edge count is only known after dedup
/// ([`random_regular`], [`gnm_connected`]).
fn finish_weighted(n: usize, mut edges: Vec<EdgeRef>, rng: &mut StdRng) -> Graph {
    let w = distinct_weights(edges.len(), rng);
    for (e, wt) in edges.iter_mut().zip(w) {
        e.weight = wt;
    }
    let ids = random_ids(n, rng);
    Graph::from_edges(n, edges, Some(ids))
}

/// Path `0 - 1 - … - n-1`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn path(cfg: &GenConfig) -> Graph {
    assert!(cfg.n > 0);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let edges: Vec<_> = (0..cfg.n - 1).map(|i| (i, i + 1)).collect();
    assemble(cfg.n, &edges, &mut rng)
}

/// Cycle on `n ≥ 3` nodes.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(cfg: &GenConfig) -> Graph {
    assert!(cfg.n >= 3, "a cycle needs at least 3 nodes");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut edges: Vec<_> = (0..cfg.n - 1).map(|i| (i, i + 1)).collect();
    edges.push((cfg.n - 1, 0));
    assemble(cfg.n, &edges, &mut rng)
}

/// Star: node 0 joined to all others.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn star(cfg: &GenConfig) -> Graph {
    assert!(cfg.n > 0);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let edges: Vec<_> = (1..cfg.n).map(|i| (0, i)).collect();
    assemble(cfg.n, &edges, &mut rng)
}

/// Complete graph `K_n`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn complete(cfg: &GenConfig) -> Graph {
    assert!(cfg.n > 0);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut edges = Vec::new();
    for u in 0..cfg.n {
        for v in u + 1..cfg.n {
            edges.push((u, v));
        }
    }
    assemble(cfg.n, &edges, &mut rng)
}

/// Complete `arity`-ary tree with `n` nodes (node `i`'s parent is
/// `(i-1)/arity`).
///
/// # Panics
///
/// Panics if `n == 0` or `arity == 0`.
pub fn balanced_tree(cfg: &GenConfig, arity: usize) -> Graph {
    assert!(cfg.n > 0 && arity > 0);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let edges: Vec<_> = (1..cfg.n).map(|i| ((i - 1) / arity, i)).collect();
    assemble(cfg.n, &edges, &mut rng)
}

/// Uniform random recursive tree: node `i` attaches to a uniformly random
/// earlier node. Expected height `Θ(log n)`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_tree(cfg: &GenConfig) -> Graph {
    assert!(cfg.n > 0);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let edges: Vec<_> = (1..cfg.n).map(|i| (rng.random_range(0..i), i)).collect();
    assemble(cfg.n, &edges, &mut rng)
}

/// Caterpillar: a spine path of `⌈n·spine_frac⌉` nodes with the remaining
/// nodes attached as legs to random spine nodes. High-degree, low-ish
/// diameter trees stress the cluster partitioning.
///
/// # Panics
///
/// Panics if `n == 0` or `spine_frac` is not in `(0, 1]`.
pub fn caterpillar(cfg: &GenConfig, spine_frac: f64) -> Graph {
    assert!(cfg.n > 0);
    assert!(spine_frac > 0.0 && spine_frac <= 1.0);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let spine = ((cfg.n as f64 * spine_frac).ceil() as usize).clamp(1, cfg.n);
    let mut edges: Vec<_> = (0..spine - 1).map(|i| (i, i + 1)).collect();
    for leg in spine..cfg.n {
        edges.push((rng.random_range(0..spine), leg));
    }
    assemble(cfg.n, &edges, &mut rng)
}

/// Broom: a path ("handle") of `handle` nodes ending in a star over the
/// remaining nodes. Large diameter plus a congestion hotspot.
///
/// # Panics
///
/// Panics if `handle == 0` or `handle > n`.
pub fn broom(cfg: &GenConfig, handle: usize) -> Graph {
    assert!(handle > 0 && handle <= cfg.n);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut edges: Vec<_> = (0..handle - 1).map(|i| (i, i + 1)).collect();
    for leaf in handle..cfg.n {
        edges.push((handle - 1, leaf));
    }
    assemble(cfg.n, &edges, &mut rng)
}

/// `rows × cols` grid graph — the canonical "diameter ≈ √n" topology where
/// `FastMST` shines. Edges are streamed straight into the graph (no
/// intermediate pair list), in the same row-major right-then-down order
/// as ever.
pub fn grid(rows: usize, cols: usize, seed: u64) -> Graph {
    assert!(rows > 0 && cols > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let id = move |r: usize, c: usize| r * cols + c;
    let m = rows * (cols - 1) + (rows - 1) * cols;
    let edges = (0..rows).flat_map(move |r| {
        (0..cols).flat_map(move |c| {
            let right = (c + 1 < cols).then(|| (id(r, c), id(r, c + 1)));
            let down = (r + 1 < rows).then(|| (id(r, c), id(r + 1, c)));
            right.into_iter().chain(down)
        })
    });
    assemble_streamed(rows * cols, m, edges, &mut rng)
}

/// Erdős–Rényi `G(n, p)` conditioned on connectivity: a uniform random
/// spanning tree skeleton is added first, then every remaining pair
/// independently with probability `p`.
///
/// Takes `Θ(n²)` time whatever `p`: the seed contract draws one
/// `random_bool` per non-tree pair, in row-major order. Memory is
/// `O(n + m)`: the row scan skips the tree pairs from a sorted list.
///
/// # Panics
///
/// Panics if `n == 0` or `p` is not in `[0, 1]`.
pub fn gnp_connected(cfg: &GenConfig, p: f64) -> Graph {
    assert!(cfg.n > 0);
    assert!((0.0..=1.0).contains(&p));
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Random-permutation recursive-tree skeleton keeps the graph connected.
    let mut perm: Vec<usize> = (0..cfg.n).collect();
    rng.shuffle(&mut perm);
    let mut edges = Vec::new();
    for i in 1..cfg.n {
        let a = perm[i];
        let b = perm[rng.random_range(0..i)];
        edges.push((a, b));
    }
    // the tree pairs as (min, max), in the row-major order of the scan
    let mut tree: Vec<(usize, usize)> = edges.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
    tree.sort_unstable();
    let mut tree = tree.into_iter().peekable();
    for u in 0..cfg.n {
        for v in u + 1..cfg.n {
            if tree.next_if_eq(&(u, v)).is_none() && rng.random_bool(p) {
                edges.push((u, v));
            }
        }
    }
    assemble(cfg.n, &edges, &mut rng)
}

/// Connected graph with exactly `m` edges (`n-1 ≤ m ≤ n(n-1)/2`): a random
/// spanning tree plus `m - n + 1` random extra edges. The same graph,
/// seed for seed, as [`gnm_connected`], which builds it.
///
/// # Panics
///
/// Panics if `m` is out of range.
pub fn random_connected(cfg: &GenConfig, m: usize) -> Graph {
    gnm_connected(cfg, m)
}

/// `d`-dimensional hypercube (`n = 2^d` nodes, diameter `d`).
///
/// # Panics
///
/// Panics if `d == 0` or `d > 20`.
pub fn hypercube(d: u32, seed: u64) -> Graph {
    assert!((1..=20).contains(&d));
    let n = 1usize << d;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for u in 0..n {
        for b in 0..d {
            let v = u ^ (1 << b);
            if u < v {
                edges.push((u, v));
            }
        }
    }
    assemble(n, &edges, &mut rng)
}

/// `rows × cols` torus (grid with wraparound); constant degree 4,
/// diameter `(rows + cols) / 2`.
///
/// # Panics
///
/// Panics if either side is smaller than 3.
pub fn torus(rows: usize, cols: usize, seed: u64) -> Graph {
    assert!(rows >= 3 && cols >= 3, "torus needs sides ≥ 3");
    let mut rng = StdRng::seed_from_u64(seed);
    let id = move |r: usize, c: usize| (r % rows) * cols + (c % cols);
    let edges = (0..rows).flat_map(move |r| {
        (0..cols).flat_map(move |c| [(id(r, c), id(r, c + 1)), (id(r, c), id(r + 1, c))])
    });
    assemble_streamed(rows * cols, 2 * rows * cols, edges, &mut rng)
}

/// Random (near-)`d`-regular graph: the union of `d/2` Hamiltonian
/// cycles on independent random permutations. Every node has degree
/// exactly `d` unless two cycles collide on an edge (rare, and only
/// ever *lowers* a degree); the first cycle alone makes the graph
/// connected, so no retry loop is needed. Streams edges without
/// intermediate pair lists — the designated low-diameter topology for
/// the 10^5–10^6-node engine rows.
///
/// # Panics
///
/// Panics if `n < 3` or `d` is odd or less than 2.
pub fn random_regular(cfg: &GenConfig, d: usize) -> Graph {
    assert!(cfg.n >= 3, "a cycle cover needs at least 3 nodes");
    assert!(d >= 2 && d.is_multiple_of(2), "degree must be even and ≥ 2");
    let n = cfg.n;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut present = KeySet::for_pairs(n, n * d / 2);
    let mut edges: Vec<EdgeRef> = Vec::with_capacity(n * d / 2);
    let mut perm: Vec<usize> = (0..n).collect();
    for _ in 0..d / 2 {
        rng.shuffle(&mut perm);
        for i in 0..n {
            let (a, b) = (perm[i], perm[(i + 1) % n]);
            if present.insert_pair(a, b) {
                edges.push(EdgeRef {
                    id: EdgeId(edges.len()),
                    u: NodeId(a),
                    v: NodeId(b),
                    weight: 0,
                });
            }
        }
    }
    finish_weighted(n, edges, &mut rng)
}

/// Streaming `G(n, m)` conditioned on connectivity: a random-permutation
/// recursive-tree skeleton plus `m - n + 1` distinct random extra
/// edges, written straight into the graph's edge array — no `n × n`
/// structures, no intermediate pair list, usable at 10^6 nodes.
///
/// # Panics
///
/// Panics if `m` is out of `[n-1, n(n-1)/2]`.
pub fn gnm_connected(cfg: &GenConfig, m: usize) -> Graph {
    let n = cfg.n;
    assert!(n > 0);
    let max_m = n.saturating_mul(n - 1) / 2;
    assert!(
        m + 1 >= n && m <= max_m,
        "m out of range for connected graph"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut perm: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut perm);
    let mut present = KeySet::for_pairs(n, m);
    let mut edges: Vec<EdgeRef> = Vec::with_capacity(m);
    let push = |edges: &mut Vec<EdgeRef>, a: usize, b: usize| {
        edges.push(EdgeRef {
            id: EdgeId(edges.len()),
            u: NodeId(a),
            v: NodeId(b),
            weight: 0,
        });
    };
    for i in 1..n {
        let a = perm[i];
        let b = perm[rng.random_range(0..i)];
        present.insert_pair(a, b);
        push(&mut edges, a, b);
    }
    while edges.len() < m {
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u == v {
            continue;
        }
        if present.insert_pair(u, v) {
            push(&mut edges, u, v);
        }
    }
    finish_weighted(n, edges, &mut rng)
}

/// Expander-ish random graph: the union of `d` random perfect-matching-
/// like permutation cycles over `n` nodes (connected with overwhelming
/// probability for `d ≥ 2`; retried until connected). Low diameter at
/// constant degree — the regime where `FastMST`'s `Diam` term vanishes.
///
/// # Panics
///
/// Panics if `n < 4` or `d < 2`.
pub fn expanderish(cfg: &GenConfig, d: usize) -> Graph {
    assert!(cfg.n >= 4 && d >= 2);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for _attempt in 0..64 {
        let mut present = KeySet::for_pairs(cfg.n, cfg.n * d);
        let mut edges = Vec::new();
        for _ in 0..d {
            let mut perm: Vec<usize> = (0..cfg.n).collect();
            rng.shuffle(&mut perm);
            for i in 0..cfg.n {
                let (a, b) = (perm[i], perm[(i + 1) % cfg.n]);
                if a != b && present.insert_pair(a, b) {
                    edges.push((a, b));
                }
            }
        }
        let g = assemble(cfg.n, &edges, &mut rng);
        if crate::properties::is_connected(&g) {
            return g;
        }
    }
    unreachable!("union of ≥2 random cycles is connected w.h.p.")
}

/// Renders the graph in Graphviz DOT format (weights as edge labels),
/// for debugging and documentation.
pub fn to_dot(g: &Graph) -> String {
    use std::fmt::Write;
    let mut s = String::from("graph kdom {\n");
    for v in g.nodes() {
        let _ = writeln!(s, "  n{} [label=\"{}\"];", v.0, g.id_of(v));
    }
    for e in g.edges() {
        let _ = writeln!(s, "  n{} -- n{} [label=\"{}\"];", e.u.0, e.v.0, e.weight);
    }
    s.push_str("}\n");
    s
}

/// The tree/graph families used across the experiment sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Path graph (max diameter tree).
    Path,
    /// Star graph (min diameter tree).
    Star,
    /// Balanced binary tree.
    BalancedBinary,
    /// Uniform random recursive tree.
    RandomTree,
    /// Caterpillar with a 30% spine.
    Caterpillar,
    /// Square grid.
    Grid,
    /// Connected G(n, p) with expected average degree ≈ 8.
    Gnp,
}

impl Family {
    /// Every family, for sweep loops.
    pub const ALL: [Family; 7] = [
        Family::Path,
        Family::Star,
        Family::BalancedBinary,
        Family::RandomTree,
        Family::Caterpillar,
        Family::Grid,
        Family::Gnp,
    ];

    /// Families whose output is always a tree.
    pub const TREES: [Family; 5] = [
        Family::Path,
        Family::Star,
        Family::BalancedBinary,
        Family::RandomTree,
        Family::Caterpillar,
    ];

    /// Generates a member of the family with `n` nodes (grids round `n` to a
    /// square).
    pub fn generate(self, n: usize, seed: u64) -> Graph {
        let cfg = GenConfig::with_seed(n, seed);
        match self {
            Family::Path => path(&cfg),
            Family::Star => star(&cfg),
            Family::BalancedBinary => balanced_tree(&cfg, 2),
            Family::RandomTree => random_tree(&cfg),
            Family::Caterpillar => caterpillar(&cfg, 0.3),
            Family::Grid => {
                let side = (n as f64).sqrt().round().max(1.0) as usize;
                grid(side, side, seed)
            }
            Family::Gnp => {
                let p = (8.0 / n as f64).min(1.0);
                gnp_connected(&cfg, p)
            }
        }
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Family::Path => "path",
            Family::Star => "star",
            Family::BalancedBinary => "balanced-binary",
            Family::RandomTree => "random-tree",
            Family::Caterpillar => "caterpillar",
            Family::Grid => "grid",
            Family::Gnp => "gnp",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties::{diameter, is_connected, is_tree};

    fn check_invariants(g: &Graph) {
        assert!(g.has_distinct_weights(), "weights must be distinct");
        assert!(g.has_distinct_ids(), "ids must be distinct");
        assert!(is_connected(g), "generators must produce connected graphs");
    }

    #[test]
    fn deterministic_by_seed() {
        let cfg = GenConfig::with_seed(40, 9);
        assert_eq!(random_tree(&cfg), random_tree(&cfg));
        assert_ne!(
            random_tree(&cfg),
            random_tree(&GenConfig::with_seed(40, 10))
        );
    }

    #[test]
    fn trees_are_trees() {
        for fam in Family::TREES {
            for n in [1usize, 2, 3, 17, 64] {
                if n < 1 {
                    continue;
                }
                let g = fam.generate(n, 3);
                assert!(is_tree(&g), "{fam} on {n} nodes must be a tree");
                check_invariants(&g);
            }
        }
    }

    #[test]
    fn path_shape() {
        let g = path(&GenConfig::with_seed(10, 0));
        assert_eq!(diameter(&g), 9);
        check_invariants(&g);
    }

    #[test]
    fn star_shape() {
        let g = star(&GenConfig::with_seed(10, 0));
        assert_eq!(diameter(&g), 2);
        assert_eq!(g.degree(NodeId(0)), 9);
        check_invariants(&g);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(&GenConfig::with_seed(8, 0));
        assert_eq!(g.edge_count(), 8);
        assert_eq!(diameter(&g), 4);
        check_invariants(&g);
    }

    #[test]
    fn complete_shape() {
        let g = complete(&GenConfig::with_seed(7, 0));
        assert_eq!(g.edge_count(), 21);
        assert_eq!(diameter(&g), 1);
        check_invariants(&g);
    }

    #[test]
    fn balanced_tree_heights() {
        let g = balanced_tree(&GenConfig::with_seed(15, 0), 2);
        let t = crate::tree::RootedTree::from_graph(&g, NodeId(0));
        assert_eq!(t.height(), 3);
        check_invariants(&g);
    }

    #[test]
    fn broom_shape() {
        let g = broom(&GenConfig::with_seed(20, 1), 10);
        assert!(is_tree(&g));
        assert_eq!(g.degree(NodeId(9)), 11);
        check_invariants(&g);
    }

    #[test]
    fn grid_shape() {
        let g = grid(4, 5, 2);
        assert_eq!(g.node_count(), 20);
        assert_eq!(g.edge_count(), 4 * 4 + 3 * 5);
        assert_eq!(diameter(&g), 7);
        check_invariants(&g);
    }

    #[test]
    fn gnp_connected_and_dense_enough() {
        let g = gnp_connected(&GenConfig::with_seed(50, 5), 0.2);
        check_invariants(&g);
        assert!(g.edge_count() >= 49);
    }

    #[test]
    fn random_connected_edge_count() {
        for m in [9usize, 20, 45] {
            let g = random_connected(&GenConfig::with_seed(10, 4), m);
            assert_eq!(g.edge_count(), m);
            check_invariants(&g);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn random_connected_rejects_too_few_edges() {
        random_connected(&GenConfig::with_seed(10, 4), 5);
    }

    #[test]
    fn families_generate_all_sizes() {
        for fam in Family::ALL {
            let g = fam.generate(30, 11);
            check_invariants(&g);
            assert!(g.node_count() >= 25, "{fam} produced too few nodes");
        }
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(4, 1);
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.edge_count(), 32);
        assert_eq!(diameter(&g), 4);
        check_invariants(&g);
    }

    #[test]
    fn torus_shape() {
        let g = torus(4, 6, 2);
        assert_eq!(g.node_count(), 24);
        assert_eq!(g.edge_count(), 48);
        assert_eq!(diameter(&g), 2 + 3);
        check_invariants(&g);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 4);
        }
    }

    #[test]
    fn expanderish_low_diameter() {
        let g = expanderish(&GenConfig::with_seed(200, 3), 3);
        check_invariants(&g);
        assert!(diameter(&g) <= 12, "expanders have logarithmic diameter");
        assert!(g.nodes().all(|v| g.degree(v) <= 6));
    }

    #[test]
    fn dot_export() {
        let g = path(&GenConfig::with_seed(3, 0));
        let dot = to_dot(&g);
        assert!(dot.starts_with("graph kdom {"));
        assert!(dot.contains("n0 -- n1"));
        assert!(dot.trim_end().ends_with('}'));
    }

    /// The streamed grid/torus paths must generate byte-identical graphs
    /// to eagerly collecting the same edge order and calling `assemble`
    /// (the pre-CSR behaviour) — same weights, ids, and adjacency.
    #[test]
    fn streamed_grid_torus_match_eager_assembly() {
        let (rows, cols, seed) = (5, 7, 31);
        let mut eager = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    eager.push((r * cols + c, r * cols + c + 1));
                }
                if r + 1 < rows {
                    eager.push((r * cols + c, (r + 1) * cols + c));
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        assert_eq!(
            grid(rows, cols, seed),
            assemble(rows * cols, &eager, &mut rng)
        );

        let id = |r: usize, c: usize| (r % rows) * cols + (c % cols);
        let mut eager = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                eager.push((id(r, c), id(r, c + 1)));
                eager.push((id(r, c), id(r + 1, c)));
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        assert_eq!(
            torus(rows, cols, seed),
            assemble(rows * cols, &eager, &mut rng)
        );
    }

    #[test]
    fn random_regular_shape() {
        let g = random_regular(&GenConfig::with_seed(400, 7), 4);
        check_invariants(&g);
        assert!(g.nodes().all(|v| g.degree(v) <= 4));
        // collisions are rare: the vast majority of nodes are exactly 4-regular
        let full = g.nodes().filter(|&v| g.degree(v) == 4).count();
        assert!(full * 10 >= 400 * 9, "only {full}/400 nodes are 4-regular");
        assert_eq!(
            random_regular(&GenConfig::with_seed(400, 7), 4),
            g,
            "seed-deterministic"
        );
    }

    #[test]
    fn gnm_connected_matches_requested_edges() {
        for m in [9usize, 20, 45] {
            let g = gnm_connected(&GenConfig::with_seed(10, 4), m);
            assert_eq!(g.edge_count(), m);
            check_invariants(&g);
        }
        let g = gnm_connected(&GenConfig::with_seed(300, 12), 900);
        assert_eq!(g.edge_count(), 900);
        check_invariants(&g);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gnm_connected_rejects_too_few_edges() {
        gnm_connected(&GenConfig::with_seed(10, 4), 5);
    }

    #[test]
    fn caterpillar_spine() {
        let g = caterpillar(&GenConfig::with_seed(40, 2), 0.3);
        assert!(is_tree(&g));
        assert!(diameter(&g) <= 14, "caterpillar diameter ≈ spine length");
    }
}
