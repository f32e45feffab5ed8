//! Full-stack integration: the KVS and the graph engine co-resident in one
//! cluster, and bit-for-bit determinism of the entire stack.

use darray::{ArrayOptions, Cluster, ClusterConfig, Sim, SimConfig};
use darray_graph::pagerank::pagerank_darray;
use darray_graph::reference::pagerank_ref;
use darray_graph::rmat;
use darray_kvs::{DArrayBackend, Kvs, KvsConfig};

#[test]
fn kvs_and_graph_share_a_cluster() {
    let el = rmat(9, 4, 3);
    let want = pagerank_ref(&el, 2);
    Sim::new(SimConfig::default()).run(move |ctx| {
        let cluster = Cluster::new(ctx, ClusterConfig::test_config(3));

        // A KVS lives in the cluster...
        let kcfg = KvsConfig {
            buckets: 64,
            overflow_per_node: 8,
            value_capacity: 1 << 20,
            nodes: 3,
        };
        let entries = cluster.alloc::<u64>(kcfg.entry_array_len(), ArrayOptions::default());
        let bytes = cluster.alloc::<u64>(kcfg.byte_array_words(), ArrayOptions::default());
        let kvs = Kvs::new(kcfg);
        cluster.run(ctx, 1, move |ctx, env| {
            let kv = kvs.view(
                env.node,
                DArrayBackend(entries.on(env.node)),
                DArrayBackend(bytes.on(env.node)),
            );
            let key = format!("node-{}", env.node);
            kv.put(ctx, key.as_bytes(), b"alive").unwrap();
            env.barrier(ctx);
            for n in 0..env.nodes {
                assert_eq!(
                    kv.get(ctx, format!("node-{n}").as_bytes()),
                    Some(b"alive".to_vec())
                );
            }
        });

        // ...and PageRank runs over additional arrays in the same cluster.
        let pr = pagerank_darray(ctx, &cluster, &el, 2, true);
        for (a, b) in pr.ranks.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9);
        }
        cluster.shutdown(ctx);
    });
}

#[test]
fn whole_stack_is_deterministic() {
    fn once() -> (u64, Vec<u64>) {
        let el = rmat(8, 4, 9);
        Sim::new(SimConfig::default()).run(move |ctx| {
            let cluster = Cluster::new(ctx, ClusterConfig::with_nodes(2));
            let pr = pagerank_darray(ctx, &cluster, &el, 2, false);
            let stats: Vec<u64> = (0..2)
                .flat_map(|n| {
                    let s = cluster.stats(n);
                    vec![
                        s.fills,
                        s.slow_misses,
                        s.operand_flushes,
                        s.frames,
                        s.bytes_tx,
                    ]
                })
                .collect();
            cluster.shutdown(ctx);
            (pr.elapsed, stats)
        })
    }
    let a = once();
    let b = once();
    assert_eq!(a, b, "virtual time and every protocol counter must match");
}
