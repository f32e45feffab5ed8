//! BFS distances by min-propagation over DArray (an extension beyond the
//! paper's two applications, exercising the same Operate machinery with a
//! partial contribution function).

use darray::{Cluster, Ctx};

use crate::cc::{min_propagate_darray, PropagateResult};
use crate::csr::EdgeList;

/// Distributed BFS from `src` over the directed graph; unreachable
/// vertices end at `u64::MAX`.
pub fn bfs_darray(
    ctx: &mut Ctx,
    cluster: &Cluster,
    el: &EdgeList,
    src: usize,
    pin: bool,
) -> PropagateResult {
    assert!(src < el.vertices);
    min_propagate_darray(
        ctx,
        cluster,
        el,
        move |v| if v == src { 0 } else { u64::MAX },
        |_, _, d| (d != u64::MAX).then(|| d + 1),
        pin,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::bfs_ref;
    use crate::rmat::rmat;
    use darray::{ClusterConfig, Sim, SimConfig};

    #[test]
    fn bfs_matches_reference() {
        let el = rmat(9, 4, 21);
        let want = bfs_ref(&el, 0);
        let got = Sim::new(SimConfig::default()).run(move |ctx| {
            let cluster = Cluster::new(ctx, ClusterConfig::test_config(3));
            let r = bfs_darray(ctx, &cluster, &el, 0, false);
            cluster.shutdown(ctx);
            r
        });
        assert_eq!(got.values, want);
    }

    #[test]
    fn bfs_pin_matches_reference() {
        let el = rmat(8, 4, 22);
        let want = bfs_ref(&el, 3);
        let got = Sim::new(SimConfig::default()).run(move |ctx| {
            let cluster = Cluster::new(ctx, ClusterConfig::test_config(2));
            let r = bfs_darray(ctx, &cluster, &el, 3, true);
            cluster.shutdown(ctx);
            r
        });
        assert_eq!(got.values, want);
    }

    #[test]
    fn bfs_pin_matches_plain_and_is_faster() {
        let el = rmat(9, 4, 21);
        crate::cc::tests::assert_pin_matches_plain_and_is_faster(|pin| {
            let el = el.clone();
            Sim::new(SimConfig::default()).run(move |ctx| {
                let cluster = Cluster::new(ctx, ClusterConfig::test_config(2));
                let r = bfs_darray(ctx, &cluster, &el, 0, pin);
                cluster.shutdown(ctx);
                r
            })
        });
    }

    #[test]
    fn isolated_source_reaches_nothing() {
        let el = EdgeList {
            vertices: 600,
            edges: vec![(1, 2)],
        };
        let got = Sim::new(SimConfig::default()).run(move |ctx| {
            let cluster = Cluster::new(ctx, ClusterConfig::test_config(2));
            let r = bfs_darray(ctx, &cluster, &el, 0, false);
            cluster.shutdown(ctx);
            r
        });
        assert_eq!(got.values[0], 0);
        assert!(got.values[1..].iter().all(|&d| d == u64::MAX));
    }
}
