//! Paced watermark eviction (§4.2, Figure 7): once the free count of a
//! runtime thread's pool drops below the low watermark, every allocation
//! evicts at most two lines until the pool is back at the high watermark,
//! and an allocation into a fully pinned pool waits for a pin to drop.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use darray::{ArrayOptions, Cluster, ClusterConfig, Ctx, PinMode, PoolStats, Sim, SimConfig};

const LINES: usize = 48;

/// Two nodes, one runtime thread each (one pool per node), a cache of
/// `LINES` lines and no prefetch, so every line node 0 allocates comes
/// from its own misses.
fn config() -> ClusterConfig {
    let mut cfg = ClusterConfig::test_config(2);
    cfg.runtime_threads = 1;
    cfg.cache.capacity_lines = LINES;
    cfg.cache.prefetch_lines = 0;
    cfg
}

fn pool(cluster: &Cluster) -> PoolStats {
    let pools = cluster.pool_stats(0);
    assert_eq!(pools.len(), 1);
    pools[0]
}

fn free(p: &PoolStats) -> u32 {
    p.lines - p.occupied
}

#[test]
fn each_miss_evicts_at_most_two_lines_and_an_episode_refills_to_high() {
    let cfg = config();
    let low = (LINES as f64 * cfg.cache.low_watermark).floor() as u32;
    let high = (LINES as f64 * cfg.cache.high_watermark).ceil() as u32;
    Sim::new(SimConfig::default()).run(move |ctx| {
        let cluster = Cluster::new(ctx, cfg);
        let chunk = darray::DEFAULT_CHUNK_SIZE;
        let arr =
            cluster.alloc_with::<u64>(2 * 256 * chunk, ArrayOptions::default(), |i| i as u64 * 3);
        let a = arr.on(0);
        // Random reads over the chunks homed on node 1: every miss takes
        // a line from node 0's pool.
        let remote: Vec<usize> = (0..a.len())
            .step_by(chunk)
            .filter(|&i| a.home_of(i) == 1)
            .collect();
        assert!(remote.len() > 4 * LINES);
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let (mut episodes, mut refills, mut in_episode) = (0, 0, false);
        for _ in 0..2_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = remote[(x >> 33) as usize % remote.len()] + (x as usize % chunk);
            let before = pool(&cluster);
            assert_eq!(a.get(ctx, i), i as u64 * 3);
            let after = pool(&cluster);
            assert!(
                after.evictions - before.evictions <= 2,
                "one miss evicted {} lines: {before:?} -> {after:?}",
                after.evictions - before.evictions
            );
            if !in_episode && free(&before) < low {
                in_episode = true;
                episodes += 1;
            }
            // The episode's last miss reclaims up to the high watermark
            // and then takes its own line out of the refilled pool.
            let reclaimed_to = free(&after) + (after.allocs - before.allocs) as u32;
            if in_episode && reclaimed_to >= high {
                in_episode = false;
                refills += 1;
            }
        }
        assert!(episodes >= 5, "only {episodes} reclamation episodes");
        assert!(
            refills + 1 >= episodes,
            "{episodes} episodes started but only {refills} climbed back to {high} free lines"
        );
        cluster.shutdown(ctx);
    });
}

#[test]
fn allocation_into_a_fully_pinned_pool_completes_once_a_pin_drops() {
    Sim::new(SimConfig::default()).run(|ctx| {
        let cluster = Cluster::new(ctx, config());
        let chunk = darray::DEFAULT_CHUNK_SIZE;
        let arr =
            cluster.alloc_with::<u64>(2 * (LINES + 1) * chunk, ArrayOptions::default(), |i| {
                i as u64
            });
        let unpinned_at = Arc::new(AtomicU64::new(0));
        let read_done_at = Arc::new(AtomicU64::new(0));
        let (unpinned, done) = (unpinned_at.clone(), read_done_at.clone());
        cluster.run(ctx, 2, move |ctx: &mut Ctx, env| {
            let a = arr.on(env.node);
            let remote: Vec<usize> = (0..a.len())
                .step_by(chunk)
                .filter(|&i| a.home_of(i) != env.node)
                .collect();
            if env.node != 0 {
                env.barrier(ctx);
                return;
            }
            if env.thread == 0 {
                // Pin one chunk per line: the whole pool is held.
                let mut pins: Vec<_> = remote[..LINES]
                    .iter()
                    .map(|&i| a.pin(ctx, i, PinMode::Read))
                    .collect();
                env.barrier(ctx);
                ctx.sleep(50_000);
                unpinned.store(ctx.now(), Ordering::SeqCst);
                pins.pop().unwrap().unpin();
            } else {
                env.barrier(ctx);
                let i = remote[LINES];
                assert_eq!(a.get(ctx, i), i as u64);
                done.store(ctx.now(), Ordering::SeqCst);
            }
        });
        let (unpinned, done) = (
            unpinned_at.load(Ordering::SeqCst),
            read_done_at.load(Ordering::SeqCst),
        );
        assert!(
            done > unpinned,
            "the read finished at {done} ns, before the pins dropped at {unpinned} ns"
        );
        assert!(pool(&cluster).evictions >= 1);
        cluster.shutdown(ctx);
    });
}
