//! End-to-end coherence protocol tests: multi-node clusters exercising
//! reads, writes, ownership migration, the Operated state, eviction under
//! cache pressure, distributed locks, pins, and determinism.

use darray::{
    AccessPath, ArrayOptions, Cluster, ClusterConfig, Ctx, PinMode, Sim, SimConfig,
    DEFAULT_CHUNK_SIZE,
};

fn sim() -> Sim {
    Sim::new(SimConfig::default())
}

/// Run `f` inside a freshly booted cluster and shut it down afterwards.
fn with_cluster<R: Send + 'static>(
    cfg: ClusterConfig,
    f: impl FnOnce(&mut Ctx, &Cluster) -> R,
) -> R {
    sim().run(move |ctx| {
        let cluster = Cluster::new(ctx, cfg);
        let r = f(ctx, &cluster);
        cluster.shutdown(ctx);
        r
    })
}

#[test]
fn remote_read_sees_home_data() {
    with_cluster(ClusterConfig::test_config(3), |ctx, cluster| {
        let arr = cluster.alloc_with::<u64>(3000, ArrayOptions::default(), |i| i as u64 * 7);
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            // Every node reads the whole array, including remote chunks.
            for i in (0..a.len()).step_by(97) {
                assert_eq!(a.get(ctx, i), i as u64 * 7);
            }
        });
    });
}

#[test]
fn remote_write_then_read_roundtrips() {
    with_cluster(ClusterConfig::test_config(2), |ctx, cluster| {
        let arr = cluster.alloc::<u64>(2048, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            // Each node writes a disjoint half — but the *other* node's
            // half, so every write is remote.
            let half = a.len() / 2;
            let start = if env.node == 0 { half } else { 0 };
            for i in start..start + half {
                a.set(ctx, i, (i as u64) << 8 | env.node as u64);
            }
            env.barrier(ctx);
            // Every node then verifies the full array.
            for i in 0..a.len() {
                let who = if i < half { 1 } else { 0 };
                assert_eq!(a.get(ctx, i), (i as u64) << 8 | who);
            }
        });
    });
}

#[test]
fn ownership_migrates_between_writers() {
    with_cluster(ClusterConfig::test_config(4), |ctx, cluster| {
        let arr = cluster.alloc::<u64>(512, ArrayOptions::default());
        // All four nodes take turns writing the same (single) chunk.
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            for round in 0..4 {
                if round == env.node {
                    for i in 0..a.len() {
                        let v = a.get(ctx, i);
                        a.set(ctx, i, v + 1);
                    }
                }
                env.barrier(ctx);
            }
            // Each element was incremented once per node.
            assert_eq!(a.get(ctx, 0), 4);
            assert_eq!(a.get(ctx, 511), 4);
        });
    });
}

#[test]
fn operate_combines_across_nodes() {
    with_cluster(ClusterConfig::test_config(4), |ctx, cluster| {
        let add = cluster.ops().register_add_u64();
        let arr = cluster.alloc::<u64>(4096, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            // Every node adds (node+1) to every element.
            for i in 0..a.len() {
                a.apply(ctx, i, add, env.node as u64 + 1);
            }
            env.barrier(ctx);
            // 1+2+3+4 = 10 per element; reading forces recall+reduce.
            for i in (0..a.len()).step_by(111) {
                assert_eq!(a.get(ctx, i), 10);
            }
        });
    });
}

#[test]
fn operate_min_converges() {
    with_cluster(ClusterConfig::test_config(3), |ctx, cluster| {
        let min = cluster.ops().register_min_u64();
        let arr = cluster.alloc_with::<u64>(1024, ArrayOptions::default(), |_| u64::MAX / 2);
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            for i in 0..a.len() {
                // Node n proposes i + n; the min over nodes is i + 0.
                a.apply(ctx, i, min, (i + env.node) as u64);
            }
            env.barrier(ctx);
            if env.node == 2 {
                for i in (0..a.len()).step_by(61) {
                    assert_eq!(a.get(ctx, i), i as u64);
                }
            }
        });
    });
}

#[test]
fn mixed_operator_on_same_chunk_is_serialized_correctly() {
    with_cluster(ClusterConfig::test_config(2), |ctx, cluster| {
        let add = cluster.ops().register_add_u64();
        let max = cluster.ops().register_max_u64();
        let arr = cluster.alloc::<u64>(512, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            // Phase 1: both nodes add 5.
            a.apply(ctx, 10, add, 5);
            env.barrier(ctx);
            // Phase 2: both nodes max with 7 (forces an operator change,
            // which recalls and reduces the adds first).
            a.apply(ctx, 10, max, 7);
            env.barrier(ctx);
            // adds: 5+5 = 10; max(10, 7, 7) = 10.
            assert_eq!(a.get(ctx, 10), 10);
        });
    });
}

#[test]
fn eviction_under_tiny_cache_preserves_writes() {
    let mut cfg = ClusterConfig::test_config(2);
    cfg.cache.capacity_lines = 8; // tiny: constant eviction pressure
    cfg.cache.prefetch_lines = 0;
    with_cluster(cfg, |ctx, cluster| {
        let arr = cluster.alloc::<u64>(64 * 512, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            if env.node == 1 {
                // Write a remote element in every chunk of node 0's half —
                // far more chunks than cachelines, forcing dirty evictions.
                for c in 0..32 {
                    a.set(ctx, c * 512 + 3, c as u64 + 100);
                }
            }
            env.barrier(ctx);
            if env.node == 0 {
                for c in 0..32 {
                    assert_eq!(a.get(ctx, c * 512 + 3), c as u64 + 100);
                }
            }
        });
    });
}

#[test]
fn eviction_flushes_operated_lines() {
    let mut cfg = ClusterConfig::test_config(2);
    cfg.cache.capacity_lines = 4;
    cfg.cache.prefetch_lines = 0;
    with_cluster(cfg, |ctx, cluster| {
        let add = cluster.ops().register_add_u64();
        let arr = cluster.alloc::<u64>(64 * 512, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            if env.node == 1 {
                // Touch many remote chunks with Operate; evictions must
                // flush combined operands, not lose them.
                for pass in 0..2 {
                    let _ = pass;
                    for c in 0..24 {
                        a.apply(ctx, c * 512 + 7, add, 1);
                    }
                }
            }
            env.barrier(ctx);
            if env.node == 0 {
                for c in 0..24 {
                    assert_eq!(a.get(ctx, c * 512 + 7), 2, "chunk {c}");
                }
            }
        });
    });
}

#[test]
fn distributed_wlock_provides_mutual_exclusion() {
    with_cluster(ClusterConfig::test_config(3), |ctx, cluster| {
        let arr = cluster.alloc::<u64>(512, ArrayOptions::default());
        const PER_THREAD: usize = 25;
        cluster.run(ctx, 2, move |ctx, env| {
            let a = arr.on(env.node);
            // WLock + read + modify + write: the Figure 14 baseline.
            for _ in 0..PER_THREAD {
                a.wlock(ctx, 5);
                let v = a.get(ctx, 5);
                a.set(ctx, 5, v + 1);
                a.unlock(ctx, 5);
            }
            env.barrier(ctx);
            assert_eq!(a.get(ctx, 5), (3 * 2 * PER_THREAD) as u64);
        });
    });
}

#[test]
fn rlock_allows_concurrent_readers() {
    with_cluster(ClusterConfig::test_config(2), |ctx, cluster| {
        let arr = cluster.alloc_with::<u64>(512, ArrayOptions::default(), |i| i as u64);
        cluster.run(ctx, 2, move |ctx, env| {
            let a = arr.on(env.node);
            for i in 0..20 {
                a.rlock(ctx, i);
                assert_eq!(a.get(ctx, i), i as u64);
                a.unlock(ctx, i);
            }
        });
    });
}

#[test]
fn pin_read_gives_stable_snapshot() {
    with_cluster(ClusterConfig::test_config(2), |ctx, cluster| {
        let arr = cluster.alloc_with::<u64>(1024, ArrayOptions::default(), |i| i as u64);
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            // Pin the remote chunk and scan it without atomics.
            let target = if env.node == 0 { 512 } else { 0 };
            let pin = a.pin(ctx, target, PinMode::Read);
            for i in pin.range() {
                assert_eq!(pin.get(ctx, i), i as u64);
            }
            pin.unpin();
        });
    });
}

#[test]
fn pin_write_and_operate_apply() {
    with_cluster(ClusterConfig::test_config(2), |ctx, cluster| {
        let add = cluster.ops().register_add_u64();
        let arr = cluster.alloc::<u64>(1024, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            if env.node == 1 {
                // Write-pin node 0's chunk and fill it.
                let pin = a.pin(ctx, 0, PinMode::Write);
                for i in pin.range() {
                    pin.set(ctx, i, 7);
                }
                drop(pin); // Drop releases too.
            }
            env.barrier(ctx);
            // Both nodes now apply through Operate pins.
            let pin = a.pin(ctx, 100, PinMode::Operate(add));
            pin.apply(ctx, 100, add, 3);
            pin.unpin();
            env.barrier(ctx);
            assert_eq!(a.get(ctx, 100), 7 + 3 * env.nodes as u64);
        });
    });
}

#[test]
fn lock_based_access_path_is_correct_too() {
    let mut cfg = ClusterConfig::test_config(2);
    cfg.access_path = AccessPath::LockBased;
    with_cluster(cfg, |ctx, cluster| {
        let arr = cluster.alloc::<u64>(2048, ArrayOptions::default());
        cluster.run(ctx, 2, move |ctx, env| {
            let a = arr.on(env.node);
            let id = env.node * 2 + env.thread;
            for k in 0..50 {
                let i = (id * 50 + k) % a.len();
                a.set(ctx, i, (id * 1000 + k) as u64);
                assert_eq!(a.get(ctx, i), (id * 1000 + k) as u64);
            }
        });
    });
}

#[test]
fn custom_partition_routes_homes() {
    with_cluster(ClusterConfig::test_config(2), |ctx, cluster| {
        // Node 0 owns only the first chunk; node 1 the rest.
        let arr = cluster.alloc_with::<u64>(
            8 * 512,
            ArrayOptions {
                chunk_size: None,
                partition_offset: Some(vec![0, 512]),
            },
            |i| i as u64,
        );
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            assert_eq!(a.home_of(0), 0);
            assert_eq!(a.home_of(512), 1);
            assert_eq!(a.home_of(8 * 512 - 1), 1);
            if env.node == 0 {
                assert_eq!(a.local_range(), 0..512);
            }
            // And accesses still work everywhere.
            assert_eq!(a.get(ctx, 4000), 4000);
        });
    });
}

#[test]
fn multiple_runtime_threads_partition_chunks() {
    let mut cfg = ClusterConfig::test_config(2);
    cfg.runtime_threads = 3;
    with_cluster(cfg, |ctx, cluster| {
        let add = cluster.ops().register_add_u64();
        let arr = cluster.alloc::<u64>(12 * 512, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            for c in 0..12 {
                a.apply(ctx, c * 512, add, 1);
                a.set(ctx, c * 512 + 1, 9);
            }
            env.barrier(ctx);
            for c in 0..12 {
                assert_eq!(a.get(ctx, c * 512), 2);
                assert_eq!(a.get(ctx, c * 512 + 1), 9);
            }
        });
    });
}

#[test]
fn per_thread_pools_tile_cache_capacity_exactly() {
    // 100 lines over 3 runtime threads: 34 + 33 + 33. The remainder is
    // distributed (not dropped), the pools are contiguous and disjoint,
    // and together they cover exactly 0..capacity_lines — so each
    // thread's watermark scan (cyclic within its own pool) touches every
    // line of the node's region exactly once per cycle and no line twice.
    let mut cfg = ClusterConfig::test_config(2);
    cfg.runtime_threads = 3;
    cfg.cache.capacity_lines = 100;
    with_cluster(cfg, |_ctx, cluster| {
        for node in 0..2 {
            let pools = cluster.pool_stats(node);
            assert_eq!(pools.len(), 3);
            assert_eq!(
                pools.iter().map(|p| p.lines).collect::<Vec<_>>(),
                vec![34, 33, 33],
                "remainder lines must be distributed, not dropped"
            );
            let mut next = 0;
            for p in &pools {
                assert_eq!(p.base, next, "pools must be contiguous");
                next += p.lines;
            }
            assert_eq!(next, 100, "pools must cover the whole region");
        }
    });
}

#[test]
fn pool_stats_surface_occupancy_and_evictions() {
    // Tiny cache (6 lines over 2 threads) + a working set much larger
    // than capacity: every pool must both allocate and evict, and the
    // counters must show it.
    let mut cfg = ClusterConfig::test_config(2);
    cfg.runtime_threads = 2;
    cfg.cache.capacity_lines = 6;
    cfg.cache.prefetch_lines = 0;
    with_cluster(cfg, |ctx, cluster| {
        let arr = cluster.alloc::<u64>(64 * 512, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            if env.node == 0 {
                // Touch one element of many remote chunks, twice, to
                // churn both pools through their watermarks.
                for round in 0..2 {
                    for c in 32..64 {
                        assert_eq!(a.get(ctx, c * 512 + round), 0);
                    }
                }
            }
        });
        let pools = cluster.pool_stats(0);
        assert_eq!(pools.len(), 2);
        for (i, p) in pools.iter().enumerate() {
            assert!(p.allocs > 0, "pool {i} never allocated: {p:?}");
            assert!(p.evictions > 0, "pool {i} never evicted: {p:?}");
            assert!(
                p.peak_occupied > 0 && p.peak_occupied <= p.lines,
                "pool {i} peak out of range: {p:?}"
            );
            assert!(p.occupied <= p.lines);
        }
        let node_evictions = cluster.stats(0).evictions;
        let pool_evictions: u64 = pools.iter().map(|p| p.evictions).sum();
        assert_eq!(
            node_evictions, pool_evictions,
            "per-pool evictions must sum to the node counter"
        );
    });
}

#[test]
fn tx_threads_mode_works() {
    let mut cfg = ClusterConfig::test_config(2);
    cfg.tx_threads = true;
    with_cluster(cfg, |ctx, cluster| {
        let arr = cluster.alloc::<u64>(2048, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            let other_half_start = if env.node == 0 { 1024 } else { 0 };
            for i in other_half_start..other_half_start + 64 {
                a.set(ctx, i, i as u64 + 1);
            }
            env.barrier(ctx);
            for i in 0..64 {
                assert_eq!(a.get(ctx, i), i as u64 + 1);
                assert_eq!(a.get(ctx, 1024 + i), 1024 + i as u64 + 1);
            }
        });
    });
}

#[test]
fn two_arrays_coexist_independently() {
    with_cluster(ClusterConfig::test_config(2), |ctx, cluster| {
        let add = cluster.ops().register_add_u64();
        let xs = cluster.alloc::<u64>(1024, ArrayOptions::default());
        let ys = cluster.alloc_with::<f64>(1024, ArrayOptions::default(), |i| i as f64);
        cluster.run(ctx, 1, move |ctx, env| {
            let x = xs.on(env.node);
            let y = ys.on(env.node);
            x.apply(ctx, 700, add, 2);
            assert_eq!(y.get(ctx, 700), 700.0);
            env.barrier(ctx);
            assert_eq!(x.get(ctx, 700), 4);
        });
    });
}

#[test]
fn runs_are_deterministic() {
    fn one_run() -> (u64, u64) {
        with_cluster(ClusterConfig::with_nodes(3), |ctx, cluster| {
            let add = cluster.ops().register_add_u64();
            let arr = cluster.alloc::<u64>(6 * 512, ArrayOptions::default());
            cluster.run(ctx, 2, move |ctx, env| {
                let a = arr.on(env.node);
                for i in (0..a.len()).step_by(7) {
                    a.apply(ctx, i, add, 1);
                }
                env.barrier(ctx);
                if env.node == 0 && env.thread == 0 {
                    let mut sum = 0;
                    for i in (0..a.len()).step_by(7) {
                        sum += a.get(ctx, i);
                    }
                    assert_eq!(sum, 6 * (a.len() as u64).div_ceil(7));
                }
            });
            let s = cluster.stats(0);
            (ctx_now(ctx), s.fills + s.rpcs_handled)
        })
    }
    fn ctx_now(ctx: &Ctx) -> u64 {
        ctx.now()
    }
    let a = one_run();
    let b = one_run();
    assert_eq!(
        a, b,
        "virtual end time and protocol traffic must be identical"
    );
}

#[test]
fn stats_reflect_activity() {
    with_cluster(ClusterConfig::test_config(2), |ctx, cluster| {
        let arr = cluster.alloc_with::<u64>(4096, ArrayOptions::default(), |i| i as u64);
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            if env.node == 1 {
                for i in 0..2048 {
                    assert_eq!(a.get(ctx, i), i as u64);
                }
            }
        });
        let s1 = cluster.stats(1);
        assert!(s1.fast_hits > 0);
        assert!(s1.slow_misses > 0, "remote scan must miss");
        assert!(s1.fills > 0);
        assert!(s1.frames > 0 && s1.bytes_tx > 0);
        // Fills are one-sided WRITEs of whole chunks from the home: its
        // bytes on the wire cover every filled chunk, which SEND-only
        // protocol traffic (16-byte payloads here) could never reach.
        let chunk_bytes = (DEFAULT_CHUNK_SIZE * 8) as u64;
        let s0 = cluster.stats(0);
        assert!(
            s0.bytes_tx >= s1.fills * chunk_bytes,
            "home sent {} bytes for {} chunk fills",
            s0.bytes_tx,
            s1.fills
        );
    });
}

#[test]
fn prefetch_reduces_misses_on_sequential_scan() {
    fn scan_misses(prefetch: usize) -> u64 {
        let mut cfg = ClusterConfig::test_config(2);
        cfg.cache.prefetch_lines = prefetch;
        with_cluster(cfg, |ctx, cluster| {
            let arr = cluster.alloc::<u64>(64 * 512, ArrayOptions::default());
            cluster.run(ctx, 1, move |ctx, env| {
                if env.node == 1 {
                    let a = arr.on(env.node);
                    for i in 0..a.len() / 2 {
                        let _ = a.get(ctx, i); // node 0's half: all remote
                    }
                }
            });
            cluster.stats(1).slow_misses
        })
    }
    let without = scan_misses(0);
    let with = scan_misses(4);
    assert!(
        with < without,
        "prefetch should absorb misses: {with} >= {without}"
    );
}
