//! Single-source shortest paths over DArray (an extension beyond the
//! paper's two applications): Bellman-Ford-style relaxation on the
//! min-propagation engine, where each round `apply`s `min(dist[u] + w)`
//! along owned weighted edges. The Operated state combines relaxations
//! from all nodes locally.

use darray::{Cluster, Ctx};

use crate::cc::{min_propagate_darray, PropagateResult};
use crate::csr::{Csr, EdgeList};
use workloads::Rng;

/// Per-edge weights aligned with an [`EdgeList`]'s edge order.
#[derive(Debug, Clone)]
pub struct EdgeWeights(pub Vec<u32>);

/// Deterministic uniform weights in `1..=max_w`.
pub fn random_weights(el: &EdgeList, max_w: u32, seed: u64) -> EdgeWeights {
    let mut rng = Rng::new(seed);
    EdgeWeights(
        (0..el.edges.len())
            .map(|_| 1 + rng.next_below(max_w as u64) as u32)
            .collect(),
    )
}

/// Sequential reference (Bellman-Ford).
pub fn sssp_ref(el: &EdgeList, w: &EdgeWeights, src: usize) -> Vec<u64> {
    let n = el.vertices;
    let mut dist = vec![u64::MAX; n];
    dist[src] = 0;
    loop {
        let mut changed = false;
        for (k, &(u, v)) in el.edges.iter().enumerate() {
            let du = dist[u as usize];
            if du == u64::MAX {
                continue;
            }
            let nd = du + w.0[k] as u64;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                changed = true;
            }
        }
        if !changed {
            return dist;
        }
    }
}

/// Distributed SSSP on the min-propagation engine; returns distances
/// (unreachable = `u64::MAX`).
pub fn sssp_darray(
    ctx: &mut Ctx,
    cluster: &Cluster,
    el: &EdgeList,
    weights: &EdgeWeights,
    src: usize,
    pin: bool,
) -> PropagateResult {
    assert!(src < el.vertices);
    assert_eq!(weights.0.len(), el.edges.len());
    // `by_src.neighbors(u)` holds the weights of `u`'s out-edges in
    // edge-list order, the order `LocalGraph::neighbors(u)` lists their
    // targets in.
    let by_src = Csr::from_edges(&EdgeList {
        vertices: el.vertices,
        edges: el
            .edges
            .iter()
            .zip(&weights.0)
            .map(|(&(u, _), &w)| (u, w))
            .collect(),
    });
    min_propagate_darray(
        ctx,
        cluster,
        el,
        move |v| if v == src { 0 } else { u64::MAX },
        move |u, j, d| (d != u64::MAX).then(|| d + by_src.neighbors(u)[j] as u64),
        pin,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rmat::rmat;
    use darray::{ClusterConfig, Sim, SimConfig};

    #[test]
    fn sssp_matches_bellman_ford() {
        let el = rmat(9, 4, 17);
        let w = random_weights(&el, 10, 5);
        let want = sssp_ref(&el, &w, 0);
        let got = Sim::new(SimConfig::default()).run(move |ctx| {
            let cluster = Cluster::new(ctx, ClusterConfig::test_config(3));
            let r = sssp_darray(ctx, &cluster, &el, &w, 0, false);
            cluster.shutdown(ctx);
            r
        });
        assert_eq!(got.values, want);
    }

    #[test]
    fn sssp_pin_variant_matches() {
        let el = rmat(8, 4, 18);
        let w = random_weights(&el, 5, 6);
        let want = sssp_ref(&el, &w, 2);
        let got = Sim::new(SimConfig::default()).run(move |ctx| {
            let cluster = Cluster::new(ctx, ClusterConfig::test_config(2));
            let r = sssp_darray(ctx, &cluster, &el, &w, 2, true);
            cluster.shutdown(ctx);
            r
        });
        assert_eq!(got.values, want);
    }

    #[test]
    fn sssp_pin_matches_plain_and_is_faster() {
        let el = rmat(9, 4, 17);
        let w = random_weights(&el, 10, 5);
        crate::cc::tests::assert_pin_matches_plain_and_is_faster(|pin| {
            let (el, w) = (el.clone(), w.clone());
            Sim::new(SimConfig::default()).run(move |ctx| {
                let cluster = Cluster::new(ctx, ClusterConfig::test_config(2));
                let r = sssp_darray(ctx, &cluster, &el, &w, 0, pin);
                cluster.shutdown(ctx);
                r
            })
        });
    }

    #[test]
    fn pin_variant_scans_owned_vertices_through_pins() {
        // On one node every access is local, so with every owned-range scan
        // (copy, relax, check) pinned, the only fast-path calls left are the
        // relaxations' `apply`s, one flag write and one flag read per round,
        // and the node-0 gather's n reads.
        let el = rmat(8, 4, 18);
        let w = random_weights(&el, 5, 6);
        let (el2, w2) = (el.clone(), w.clone());
        let (got, fast_hits) = Sim::new(SimConfig::default()).run(move |ctx| {
            let cluster = Cluster::new(ctx, ClusterConfig::test_config(1));
            let r = sssp_darray(ctx, &cluster, &el2, &w2, 2, true);
            let hits = cluster.stats(0).fast_hits;
            cluster.shutdown(ctx);
            (r, hits)
        });
        // Round r relaxes every out-edge of each vertex reached before it.
        let mut dist = vec![u64::MAX; el.vertices];
        dist[2] = 0;
        let mut applies = 0u64;
        for _ in 0..got.rounds {
            let prev = dist.clone();
            for (k, &(u, v)) in el.edges.iter().enumerate() {
                if prev[u as usize] != u64::MAX {
                    applies += 1;
                    let nd = prev[u as usize] + w.0[k] as u64;
                    dist[v as usize] = dist[v as usize].min(nd);
                }
            }
        }
        assert_eq!(got.values, dist);
        assert_eq!(
            fast_hits,
            applies + el.vertices as u64 + 2 * got.rounds as u64
        );
    }

    #[test]
    fn unit_weights_reduce_to_bfs() {
        let el = rmat(8, 4, 19);
        let w = EdgeWeights(vec![1; el.edges.len()]);
        let bfs = crate::reference::bfs_ref(&el, 0);
        let got = Sim::new(SimConfig::default()).run(move |ctx| {
            let cluster = Cluster::new(ctx, ClusterConfig::test_config(2));
            let r = sssp_darray(ctx, &cluster, &el, &w, 0, false);
            cluster.shutdown(ctx);
            r
        });
        assert_eq!(got.values, bfs);
    }
}
