//! Golden fingerprints: every public generator, at a small and a
//! ≥ 10^3-node size, under two seeds, must keep producing the exact graph
//! it produced when these values were recorded. [`Graph::fingerprint`]
//! covers node ids, weights, edge ids and the adjacency (port) order, so
//! any change to a generator's RNG draws, acceptance order or CSR
//! placement moves a value here.

use kdom_graph::generators::{
    balanced_tree, broom, caterpillar, complete, cycle, expanderish, gnm_connected, gnp_connected,
    grid, hypercube, path, random_connected, random_regular, random_tree, star, torus, GenConfig,
};
use kdom_graph::Graph;

/// Builds generator `name` at size `n` (a side or dimension where the
/// family is not sized by node count) under `seed`.
fn generate(name: &str, n: usize, seed: u64) -> Graph {
    let cfg = GenConfig::with_seed(n, seed);
    match name {
        "path" => path(&cfg),
        "cycle" => cycle(&cfg),
        "star" => star(&cfg),
        "complete" => complete(&cfg),
        "balanced_tree" => balanced_tree(&cfg, 3),
        "random_tree" => random_tree(&cfg),
        "caterpillar" => caterpillar(&cfg, 0.3),
        "broom" => broom(&cfg, n / 2),
        "grid" => grid(n, n + 3, seed),
        "gnp_connected" => gnp_connected(&cfg, (8.0 / n as f64).min(1.0)),
        "random_connected" => random_connected(&cfg, 2 * n),
        "hypercube" => hypercube(n as u32, seed),
        "torus" => torus(n, n + 3, seed),
        "random_regular" => random_regular(&cfg, 4),
        "gnm_connected" => gnm_connected(&cfg, 2 * n),
        "expanderish" => expanderish(&cfg, 3),
        other => panic!("no generator {other}"),
    }
}

/// `(generator, size, seed, fingerprint)`; grid and torus sizes are the
/// row count (`n × (n + 3)` nodes), hypercube sizes the dimension.
const GOLDEN: &[(&str, usize, u64, u64)] = &[
    ("path", 40, 1, 0xcf7317e725ab0c9a),
    ("path", 40, 2026, 0x6d25a66c708358ca),
    ("path", 1000, 1, 0x70d873f858e7f03d),
    ("path", 1000, 2026, 0x1e10adecf3930207),
    ("cycle", 40, 1, 0x3ab5686f0c94b332),
    ("cycle", 40, 2026, 0x4839b9291143f3a5),
    ("cycle", 1000, 1, 0x696d7e33daedf832),
    ("cycle", 1000, 2026, 0x35de974d8b1ae0c2),
    ("star", 40, 1, 0x9aedb970a4ab3361),
    ("star", 40, 2026, 0x93a6397b5feb55ff),
    ("star", 1000, 1, 0x63c2332cf20fe9d6),
    ("star", 1000, 2026, 0xb41f3d5addd31804),
    ("complete", 12, 1, 0x5450937c29d406e4),
    ("complete", 12, 2026, 0x3d1239531c16c009),
    ("complete", 100, 1, 0x663a9747b08a51bb),
    ("complete", 100, 2026, 0x5a932c3d384a637c),
    ("balanced_tree", 40, 1, 0xa8aa98913ca939fb),
    ("balanced_tree", 40, 2026, 0x0b86057e6cd71eb9),
    ("balanced_tree", 1000, 1, 0xf03624db28d3fade),
    ("balanced_tree", 1000, 2026, 0x1d631992c84e9c28),
    ("random_tree", 40, 1, 0x06175dadcdf8b4d6),
    ("random_tree", 40, 2026, 0xdbf4ea09cf404aa5),
    ("random_tree", 1000, 1, 0xf9c3e17128408fde),
    ("random_tree", 1000, 2026, 0x6dd016aed9477ad5),
    ("caterpillar", 40, 1, 0x665525fc346c2557),
    ("caterpillar", 40, 2026, 0xc563ca78b3360792),
    ("caterpillar", 1000, 1, 0xdab4fc84acf5351f),
    ("caterpillar", 1000, 2026, 0x7f641411e3cb2145),
    ("broom", 40, 1, 0x9a6f209f9e786f54),
    ("broom", 40, 2026, 0x6db274817c372b98),
    ("broom", 1000, 1, 0xc18bd56dd95287c9),
    ("broom", 1000, 2026, 0xbee6b47f8aa70861),
    ("grid", 5, 1, 0xfda64100a2374a79),
    ("grid", 5, 2026, 0x0d62f0298311efc7),
    ("grid", 31, 1, 0x0b33265b24ad93e4),
    ("grid", 31, 2026, 0x453c69dc25fef92d),
    ("gnp_connected", 40, 1, 0x23408f56a7fb0740),
    ("gnp_connected", 40, 2026, 0xd9407fbb0a87758b),
    ("gnp_connected", 1000, 1, 0xa2ab14d9cd8cf912),
    ("gnp_connected", 1000, 2026, 0x9226eeb9111b984f),
    ("random_connected", 40, 1, 0xb0fe23d647352432),
    ("random_connected", 40, 2026, 0xd8e8e760661997d9),
    ("random_connected", 1000, 1, 0x3af7a041fd7a7a04),
    ("random_connected", 1000, 2026, 0x4a11ff071bb3da72),
    ("hypercube", 5, 1, 0xdd2ea4d878b0fc5a),
    ("hypercube", 5, 2026, 0xd10442b77905c11b),
    ("hypercube", 10, 1, 0x28560bba0ec5b673),
    ("hypercube", 10, 2026, 0x8a2a66a91be62aeb),
    ("torus", 5, 1, 0x90e1928e00453c23),
    ("torus", 5, 2026, 0x8c837eb074a3e887),
    ("torus", 31, 1, 0xbb3a7e9d8785deff),
    ("torus", 31, 2026, 0xbd6272576cd1a142),
    ("random_regular", 40, 1, 0xf72b1a3f0164ce32),
    ("random_regular", 40, 2026, 0x1094cba6503105d0),
    ("random_regular", 1000, 1, 0x34d94668eb069d7d),
    ("random_regular", 1000, 2026, 0x3dc8f3915e47408d),
    ("gnm_connected", 40, 1, 0xb0fe23d647352432),
    ("gnm_connected", 40, 2026, 0xd8e8e760661997d9),
    ("gnm_connected", 1000, 1, 0x3af7a041fd7a7a04),
    ("gnm_connected", 1000, 2026, 0x4a11ff071bb3da72),
    ("expanderish", 40, 1, 0x34ebbe2ded13ed9d),
    ("expanderish", 40, 2026, 0x27632cb4e8662ea6),
    ("expanderish", 1000, 1, 0x98172eed4b8c6380),
    ("expanderish", 1000, 2026, 0x003d0f484a91eea4),
];

#[test]
fn every_generator_reproduces_its_recorded_graph() {
    let mut moved = Vec::new();
    for &(name, n, seed, want) in GOLDEN {
        let got = generate(name, n, seed).fingerprint();
        if got != want {
            moved.push(format!(
                "{name} n={n} seed={seed}: {got:#018x} != {want:#018x}"
            ));
        }
    }
    assert!(moved.is_empty(), "graphs moved:\n{}", moved.join("\n"));
}
