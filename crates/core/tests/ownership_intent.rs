//! Ownership-intent reads: a `get` that misses while this node holds a
//! write lock on an element of the same chunk fetches the chunk Exclusive,
//! so the locked read-modify-write pays one coherence miss instead of a
//! read miss plus an upgrade. Reads under a reader lock, under a write lock
//! on another chunk, or with no lock keep the Shared path.
//!
//! Every test runs on 3 nodes with one 512-element chunk each: node 2 homes
//! the element, node 1 holds a Shared copy of it, node 0 reads and writes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use darray::{
    ArrayOptions, Cluster, ClusterConfig, Ctx, DArray, GlobalArray, NodeStatsSnapshot, Sim,
    SimConfig,
};

/// An element homed on node 2 (chunk 2).
const X: usize = 2 * 512 + 7;
/// An element homed on node 1 (chunk 1).
const Y: usize = 512 + 3;

fn snap(cluster: &Cluster) -> Vec<NodeStatsSnapshot> {
    (0..3).map(|n| cluster.stats(n)).collect()
}

/// Per-node counter deltas, via `field`.
fn delta(
    before: &[NodeStatsSnapshot],
    after: &[NodeStatsSnapshot],
    field: fn(&NodeStatsSnapshot) -> u64,
) -> Vec<u64> {
    before
        .iter()
        .zip(after)
        .map(|(b, a)| field(a) - field(b))
        .collect()
}

/// Run `f` on node `node` alone.
fn on_node(
    ctx: &mut Ctx,
    cluster: &Cluster,
    arr: &GlobalArray<u64>,
    node: usize,
    f: impl Fn(&mut Ctx, &DArray<u64>) + Send + Sync + 'static,
) {
    let arr = arr.clone();
    cluster.run(ctx, 1, move |ctx, env| {
        if env.node == node {
            f(ctx, &arr.on(node));
        }
    });
}

/// Boot the cluster, give node 1 a Shared copy of `X`, then measure the
/// counters around `step` run on node 0. Returns the per-node deltas of
/// (fills, slow_misses, invalidations), whether node 1's next read of `X`
/// was a fast hit, and `X`'s final value.
fn measure(
    step: impl Fn(&mut Ctx, &DArray<u64>) + Send + Sync + 'static,
) -> ([Vec<u64>; 3], bool, u64) {
    Sim::new(SimConfig::default()).run(move |ctx| {
        let cluster = Cluster::new(ctx, ClusterConfig::test_config(3));
        let arr = cluster.alloc_with::<u64>(3 * 512, ArrayOptions::default(), |i| i as u64);
        on_node(ctx, &cluster, &arr, 1, |ctx, a| {
            assert_eq!(a.get(ctx, X), X as u64);
        });
        let before = snap(&cluster);
        on_node(ctx, &cluster, &arr, 0, step);
        let after = snap(&cluster);
        let deltas = [
            delta(&before, &after, |s| s.fills),
            delta(&before, &after, |s| s.slow_misses),
            delta(&before, &after, |s| s.invalidations),
        ];
        on_node(ctx, &cluster, &arr, 1, |ctx, a| {
            a.get(ctx, X);
        });
        let reread = cluster.stats(1).slow_misses == after[1].slow_misses;
        let value = Arc::new(AtomicU64::new(0));
        let out = value.clone();
        on_node(ctx, &cluster, &arr, 0, move |ctx, a| {
            out.store(a.get(ctx, X), Ordering::Relaxed);
        });
        cluster.shutdown(ctx);
        (deltas, reread, value.load(Ordering::Relaxed))
    })
}

#[test]
fn locked_read_modify_write_costs_one_fill() {
    let ([fills, slow, inval], reread, value) = measure(|ctx, a| {
        a.wlock(ctx, X);
        let v = a.get(ctx, X);
        a.set(ctx, X, v + 1);
        a.unlock(ctx, X);
    });
    assert_eq!(fills.iter().sum::<u64>(), 1, "one Exclusive fill");
    // wlock, the get's miss and unlock: the set is a fast hit.
    assert_eq!(slow[0], 3);
    // Node 1's Shared copy went with the single fill.
    assert_eq!(inval, vec![0, 1, 0]);
    assert!(!reread, "node 1 must miss: its copy was invalidated");
    assert_eq!(value, X as u64 + 1);
}

#[test]
fn unlocked_read_modify_write_costs_a_read_and_an_upgrade() {
    let ([fills, slow, inval], _, value) = measure(|ctx, a| {
        let v = a.get(ctx, X);
        a.set(ctx, X, v + 1);
    });
    assert_eq!(fills.iter().sum::<u64>(), 2, "Shared fill, then upgrade");
    assert_eq!(slow[0], 2);
    assert_eq!(inval, vec![0, 1, 0]);
    assert_eq!(value, X as u64 + 1);
}

#[test]
fn reads_under_a_reader_lock_keep_the_shared_path() {
    let ([fills, slow, inval], reread, _) = measure(|ctx, a| {
        a.rlock(ctx, X);
        assert_eq!(a.get(ctx, X), X as u64);
        a.unlock(ctx, X);
    });
    assert_eq!(fills.iter().sum::<u64>(), 1);
    assert_eq!(slow[0], 3);
    assert_eq!(inval, vec![0, 0, 0], "node 1 keeps its Shared copy");
    assert!(reread, "node 1's next read is a fast hit");
}

#[test]
fn a_write_lock_on_another_chunk_keeps_the_shared_path() {
    let ([fills, _, inval], reread, _) = measure(|ctx, a| {
        a.wlock(ctx, Y);
        assert_eq!(a.get(ctx, X), X as u64);
        a.unlock(ctx, Y);
    });
    assert_eq!(fills.iter().sum::<u64>(), 1);
    assert_eq!(inval, vec![0, 0, 0], "node 1 keeps its Shared copy");
    assert!(reread);
}
