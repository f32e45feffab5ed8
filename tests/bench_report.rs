//! The BENCH report path end to end on the simulated backend: a small
//! lock-contended workload renders a byte-identical `BENCH_*.json` body run
//! to run, and its counters keep the transport identities
//! `frames == tx_flushes + frames_coalesced` and, per node,
//! `completions == frames / signal_interval`.

use darray::{ArrayOptions, Cluster, NodeStatsSnapshot, Sim, SimConfig};
use darray_bench::bench_cluster_config;
use darray_bench::operate::zipf_update;
use darray_bench::report::render_bench_json_with_metrics;

/// The WLock+Read+Write variant of the Figure-14 workload on 3 nodes: it
/// drives fills, invalidations, recalls and writebacks over the wire.
fn run() -> (String, NodeStatsSnapshot) {
    let traffic = zipf_update(3, 4_096, 200, false).protocol;
    let body = render_bench_json_with_metrics("tier1", &[], &[("lock_3n".to_string(), traffic)]);
    (body, traffic)
}

#[test]
fn bench_body_is_deterministic_and_frames_balance() {
    let (first, traffic) = run();
    let (second, _) = run();
    assert_eq!(
        first, second,
        "BENCH body must be byte-identical run to run"
    );

    assert!(
        traffic.transitions > 0 && traffic.recalls > 0,
        "{traffic:?}"
    );
    assert!(traffic.frames > 0, "{traffic:?}");
    assert_eq!(
        traffic.frames,
        traffic.tx_flushes + traffic.frames_coalesced,
        "every frame either rings a doorbell or rides an open batch"
    );
}

/// Selective signaling is one knob on every backend: each node counts one
/// completion per `net.signal_interval` frames it posted.
#[test]
fn completions_follow_the_signal_interval_per_node() {
    let nodes = 3;
    let cfg = bench_cluster_config(nodes);
    let interval = cfg.net.signal_interval;
    let stats = Sim::new(SimConfig::default()).run(move |ctx| {
        let cluster = Cluster::new(ctx, cfg);
        let arr = cluster.alloc::<u64>(4_096, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            for i in (env.node..a.len()).step_by(61) {
                a.wlock(ctx, i);
                let v = a.get(ctx, i);
                a.set(ctx, i, v + 1);
                a.unlock(ctx, i);
            }
        });
        let stats: Vec<NodeStatsSnapshot> = (0..nodes).map(|n| cluster.stats(n)).collect();
        cluster.shutdown(ctx);
        stats
    });
    for (node, s) in stats.iter().enumerate() {
        assert!(s.frames > interval, "node {node}: {s:?}");
        assert_eq!(
            s.completions,
            s.frames / interval,
            "node {node}: one completion per {interval} frames"
        );
    }
}
