//! Eviction tail smoke: a small random get/set thrash loop over a cache far
//! smaller than its working set. Watermark reclamation is paced (at most
//! two evictions per allocation), so no single call pays for a burst of
//! evictions: the slowest call stays within a few round trips of the
//! median. The loop is deterministic in virtual time.

use darray::{ArrayOptions, Cluster, ClusterConfig, NodeStatsSnapshot, Sim, SimConfig};
use std::sync::{Arc, Mutex};

const NODES: usize = 2;
const OPS_PER_THREAD: u64 = 1_500;

/// Per-call virtual latencies (ns) of every app thread, in thread order,
/// and each node's counters.
fn thrash() -> (Vec<Vec<u64>>, Vec<NodeStatsSnapshot>) {
    let mut cfg = ClusterConfig::with_nodes(NODES);
    cfg.runtime_threads = 1;
    cfg.cache.capacity_lines = 64;
    cfg.cache.prefetch_lines = 0;
    Sim::new(SimConfig::default()).run(move |ctx| {
        let cluster = Cluster::new(ctx, cfg);
        let chunk = darray::DEFAULT_CHUNK_SIZE;
        let arr = cluster.alloc::<u64>(NODES * 256 * chunk, ArrayOptions::default());
        let lat = Arc::new(Mutex::new(vec![Vec::new(); NODES]));
        let out = lat.clone();
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            // Only remote chunks: every miss allocates a line and the
            // median call is a miss, not a local access.
            let remote: Vec<usize> = (0..a.len())
                .step_by(chunk)
                .filter(|&i| a.home_of(i) != env.node)
                .collect();
            let mut x = 0x2545_f491_4f6c_dd1d_u64 ^ env.node as u64;
            let mut mine = Vec::with_capacity(OPS_PER_THREAD as usize);
            for _ in 0..OPS_PER_THREAD {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let i = remote[(x >> 32) as usize % remote.len()] + (x as usize % chunk);
                let t = ctx.now();
                if x % 5 < 3 {
                    a.get(ctx, i);
                } else {
                    a.set(ctx, i, x);
                }
                mine.push(ctx.now() - t);
            }
            out.lock().unwrap()[env.node] = mine;
        });
        let stats = (0..NODES).map(|n| cluster.stats(n)).collect();
        cluster.shutdown(ctx);
        let lat = lat.lock().unwrap().clone();
        (lat, stats)
    })
}

#[test]
fn thrash_tail_stays_within_four_medians_and_repeats_exactly() {
    let (lat, stats) = thrash();
    let (lat2, stats2) = thrash();
    assert_eq!(lat, lat2, "per-call virtual latencies must repeat exactly");
    assert_eq!(
        format!("{stats:?}"),
        format!("{stats2:?}"),
        "Cluster::stats must repeat exactly"
    );
    assert!(stats.iter().all(|s| s.evictions > 0), "{stats:?}");

    let mut all: Vec<u64> = lat.into_iter().flatten().collect();
    all.sort_unstable();
    let p50 = all[all.len() / 2];
    let max = *all.last().unwrap();
    assert!(
        max <= 4 * p50,
        "slowest call took {max} ns, more than 4x the median {p50} ns"
    );
}
