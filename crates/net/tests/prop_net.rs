//! Property-based tests for deployments, unit-disk graphs and traversals.

use mdg_net::{bfs_hops, bfs_tree, components, DeploymentConfig, Network, UNREACHABLE};
use proptest::prelude::*;

fn arb_udg() -> impl Strategy<Value = (mdg_net::Deployment, f64)> {
    (5usize..80, 50.0..300.0f64, 10.0..60.0f64, any::<u64>()).prop_map(|(n, side, range, seed)| {
        (DeploymentConfig::uniform(n, side).generate(seed), range)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn udg_matches_brute_force((dep, range) in arb_udg()) {
        let g = Network::build(dep.clone(), range).sensor_graph;
        let mut expect = 0usize;
        for i in 0..dep.n() {
            for j in (i + 1)..dep.n() {
                let d = dep.sensors[i].dist(dep.sensors[j]);
                if (d - range).abs() > 1e-9 {
                    prop_assert_eq!(g.has_edge(i, j), d <= range, "pair ({}, {})", i, j);
                }
                if d <= range {
                    expect += 1;
                }
            }
        }
        prop_assert_eq!(g.m(), expect);
    }

    #[test]
    fn bfs_hops_satisfy_edge_relaxation((dep, range) in arb_udg()) {
        let g = Network::build(dep, range).sensor_graph;
        if g.n() == 0 { return Ok(()); }
        let h = bfs_hops(&g, 0);
        // For every edge (u,v): |h[u] - h[v]| <= 1 when both reachable.
        for (u, v, _) in g.edges() {
            let (hu, hv) = (h[u as usize], h[v as usize]);
            prop_assert_eq!(hu == UNREACHABLE, hv == UNREACHABLE,
                "edge endpoints must be equi-reachable");
            if hu != UNREACHABLE {
                prop_assert!(hu.abs_diff(hv) <= 1);
            }
        }
        // Hop counts are realized by parent chains.
        let t = bfs_tree(&g, 0);
        #[allow(clippy::needless_range_loop)]
        for v in 0..g.n() {
            if let Some(path) = t.path_to_source(v) {
                prop_assert_eq!(path.len() as u32 - 1, h[v]);
                // Consecutive path nodes are adjacent.
                for w in path.windows(2) {
                    prop_assert!(g.has_edge(w[0] as usize, w[1] as usize));
                }
            }
        }
    }

    #[test]
    fn components_are_bfs_reachability_classes((dep, range) in arb_udg()) {
        let g = Network::build(dep, range).sensor_graph;
        let (_, labels) = components(&g);
        if g.n() == 0 { return Ok(()); }
        let h = bfs_hops(&g, 0);
        #[allow(clippy::needless_range_loop)]
        for v in 0..g.n() {
            prop_assert_eq!(h[v] != UNREACHABLE, labels[v] == labels[0], "node {}", v);
        }
    }

    #[test]
    fn deployment_is_reproducible(n in 1usize..100, side in 10.0..500.0f64, seed in any::<u64>()) {
        let cfg = DeploymentConfig::uniform(n, side);
        let a = cfg.generate(seed);
        let b = cfg.generate(seed);
        prop_assert_eq!(&a.sensors, &b.sensors);
        prop_assert_eq!(a.sink, b.sink);
        for p in &a.sensors {
            prop_assert!(a.field.contains(*p));
        }
    }
}
