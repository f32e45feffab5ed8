//! Backend parity: the tier-1 coherence / lock / Operate workloads must
//! produce the *same protocol transition counts* over real TCP sockets as
//! over the deterministic dsim fabric.
//!
//! Timing is not comparable across backends (real sockets deliver whenever
//! the OS pleases), but with the timing-sensitive knobs disabled
//! (`grant_grace_ns`, prefetch) the set of protocol messages exchanged is a
//! schedule-independent function of the workload: every phase is separated
//! by a barrier, writers/readers/lockers target disjoint chunks, and a
//! final drain phase (a blocking read over every ordered node pair) flushes
//! outstanding fire-and-forget traffic on every link before shutdown, so
//! both backends handle the identical message set.

#![cfg(feature = "tcp-transport")]

use darray::{
    ArrayOptions, Cluster, ClusterConfig, ConfigError, DArrayError, NodeStatsSnapshot, Sim,
    SimConfig, StatClass, TransportKind, DEFAULT_CHUNK_SIZE,
};

const NODES: usize = 3;
const CHUNKS_PER_NODE: usize = 6;

fn parity_config(kind: TransportKind) -> ClusterConfig {
    let mut cfg = ClusterConfig::test_config(NODES);
    // Grace windows and prefetch change *when* protocol actions fire based
    // on (virtual) time, which the real-socket backend cannot reproduce;
    // with them off, transition counts depend only on the workload.
    cfg.grant_grace_ns = 0;
    cfg.cache.prefetch_lines = 0;
    cfg.transport = kind;
    cfg
}

/// First element of chunk `c` of the partition homed at `node`.
fn base(node: usize, c: usize) -> usize {
    (node * CHUNKS_PER_NODE + c) * DEFAULT_CHUNK_SIZE
}

/// The protocol-level projection of a stats snapshot: every counter except
/// the `Transport` rows (wire bytes, frames and egress batching), which are
/// backend-specific by design.
fn protocol_view(s: NodeStatsSnapshot) -> Vec<(&'static str, u64)> {
    s.rows()
        .filter(|&(_, class, _)| class != StatClass::Transport)
        .map(|(name, _, v)| (name, v))
        .collect()
}

/// Barrier-phased workload exercising remote writes, dirty recalls, the
/// Operated state with cross-node reduction, and distributed locks.
/// Returns each node's protocol counters.
fn run_workload(cfg: ClusterConfig) -> Vec<NodeStatsSnapshot> {
    Sim::new(SimConfig::default()).run(move |ctx| {
        let cluster = Cluster::new(ctx, cfg);
        let add = cluster.ops().register_add_u64();
        let arr = cluster.alloc::<u64>(
            NODES * CHUNKS_PER_NODE * DEFAULT_CHUNK_SIZE,
            ArrayOptions::default(),
        );
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            let peer = (env.node + 1) % NODES;

            // Phase 1: every node writes 8 elements into its peer's chunk 0
            // (exactly one writer per chunk; all writes remote).
            for k in 0..8 {
                a.set(ctx, base(peer, 0) + k, ((env.node as u64) << 32) | k as u64);
            }
            env.barrier(ctx);

            // Phase 2: the third node of each (writer, home) pair reads the
            // data back, recalling the dirty copy through the home.
            let writer = (env.node + 1) % NODES;
            let home = (env.node + 2) % NODES;
            for k in 0..8 {
                let v = a.get(ctx, base(home, 0) + k);
                assert_eq!(v, ((writer as u64) << 32) | k as u64);
            }
            env.barrier(ctx);

            // Phase 3: Operate — all nodes concurrently apply `add` to the
            // same elements of every node's chunk 2.
            for h in 0..NODES {
                for k in 0..4 {
                    a.apply(ctx, base(h, 2) + k, add, 1);
                }
            }
            env.barrier(ctx);
            // Node 0 reads the results, forcing recall + reduction of every
            // node's combined operands.
            if env.node == 0 {
                for h in 0..NODES {
                    for k in 0..4 {
                        assert_eq!(a.get(ctx, base(h, 2) + k), NODES as u64);
                    }
                }
            }
            env.barrier(ctx);

            // Phase 4: uncontended remote locks (distinct element and chunk
            // per node) guarding read-modify-write, then a read lock.
            let lock_elem = base(peer, 4) + env.node;
            for _ in 0..3 {
                a.wlock(ctx, lock_elem);
                let v = a.get(ctx, lock_elem);
                a.set(ctx, lock_elem, v + 1);
                a.unlock(ctx, lock_elem);
            }
            a.rlock(ctx, lock_elem);
            assert_eq!(a.get(ctx, lock_elem), 3);
            a.unlock(ctx, lock_elem);
            env.barrier(ctx);

            // Phase 5: drain. A blocking read on a fresh chunk homed at
            // every peer puts a request/response round-trip behind all
            // earlier traffic on every ordered link; per-link FIFO then
            // guarantees the fire-and-forget tail (lock releases,
            // writeback notices) is handled before shutdown on both
            // backends.
            for d in 1..NODES {
                let h = (env.node + d) % NODES;
                assert_eq!(a.get(ctx, base(h, 5) + env.node), 0);
            }
            env.barrier(ctx);
        });
        let stats = (0..NODES).map(|n| cluster.stats(n)).collect();
        cluster.shutdown(ctx);
        stats
    })
}

#[test]
fn tcp_matches_sim_protocol_transition_counts() {
    let sim = run_workload(parity_config(TransportKind::Sim));
    let tcp = run_workload(parity_config(TransportKind::Tcp));
    for node in 0..NODES {
        assert_eq!(
            protocol_view(sim[node]),
            protocol_view(tcp[node]),
            "node {node}: protocol counters must not depend on the backend"
        );
    }
    // The workload actually exercised the protocol.
    let total: u64 = sim.iter().map(|s| s.transitions).sum();
    assert!(total > 0, "workload must drive protocol transitions");
}

/// The multi-threaded runtime must not disturb backend parity either: with
/// `runtime_threads = 2` the chunk→thread placement partitions the same
/// protocol work across two executors per node, and the transition counts
/// must still be a backend-independent function of the workload.
#[test]
fn tcp_matches_sim_with_multithreaded_runtime() {
    let rt2 = |kind| {
        let mut cfg = parity_config(kind);
        cfg.runtime_threads = 2;
        cfg
    };
    let sim = run_workload(rt2(TransportKind::Sim));
    let tcp = run_workload(rt2(TransportKind::Tcp));
    for node in 0..NODES {
        assert_eq!(
            protocol_view(sim[node]),
            protocol_view(tcp[node]),
            "node {node}: partitioned protocol counters must not depend on the backend"
        );
    }
    let total: u64 = sim.iter().map(|s| s.transitions).sum();
    assert!(total > 0, "workload must drive protocol transitions");
}

/// Durability must not disturb backend parity: with persist-before-ack on
/// (Writethrough, per-backend scratch log dirs), the protocol transition
/// counts — including `flush_persists` — are identical over dsim and TCP,
/// and the workload's dirty recalls actually exercise the persist path.
#[test]
fn tcp_matches_sim_with_durability_enabled() {
    use darray::DurabilityPolicy;
    let scratch = |backend: &str| {
        let mut p = std::env::temp_dir();
        p.push(format!("darray-parity-{}-{backend}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    };
    let durable = |kind, dir: &std::path::Path| {
        let mut cfg = parity_config(kind);
        cfg.durability.policy = DurabilityPolicy::Writethrough;
        cfg.durability.dir = Some(dir.to_path_buf());
        cfg
    };
    let (sim_dir, tcp_dir) = (scratch("sim"), scratch("tcp"));
    let sim = run_workload(durable(TransportKind::Sim, &sim_dir));
    let tcp = run_workload(durable(TransportKind::Tcp, &tcp_dir));
    for node in 0..NODES {
        assert_eq!(
            protocol_view(sim[node]),
            protocol_view(tcp[node]),
            "node {node}: durable protocol counters must not depend on the backend"
        );
    }
    let persists: u64 = sim.iter().map(|s| s.flush_persists).sum();
    assert!(
        persists > 0,
        "workload never hit the persist-before-ack path"
    );
    let _ = std::fs::remove_dir_all(&sim_dir);
    let _ = std::fs::remove_dir_all(&tcp_dir);
}

/// Elasticity must not disturb backend parity: a node join followed by two
/// live chunk migrations (DESIGN.md §15) is a fault-free synchronous
/// protocol exchange, so the transition counts — including the migration
/// counters — are identical over dsim and TCP.
#[test]
fn tcp_matches_sim_through_join_and_migration() {
    let elastic = |kind| {
        let mut cfg = parity_config(kind);
        cfg.elastic = true;
        cfg.initial_nodes = Some(NODES - 1);
        cfg
    };
    let run = |cfg: ClusterConfig| -> Vec<NodeStatsSnapshot> {
        Sim::new(SimConfig::default()).run(move |ctx| {
            let cluster = Cluster::new(ctx, cfg);
            let arr = cluster.alloc::<u64>(
                NODES * CHUNKS_PER_NODE * DEFAULT_CHUNK_SIZE,
                ArrayOptions::default(),
            );
            // Phase 1: the active prefix dirties chunk 0 of node 0's
            // partition so the migration carries a recalled, non-pristine
            // image.
            let arr1 = arr.clone();
            cluster.run(ctx, 1, move |ctx, env| {
                if env.node < NODES - 1 {
                    let a = arr1.on(env.node);
                    for k in 0..8 {
                        a.set(ctx, base(0, 0) + env.node * 8 + k, 7_000 + k as u64);
                    }
                }
                env.barrier(ctx);
            });
            // Join the spare and re-home two chunks onto it: one dirtied,
            // one untouched.
            assert_eq!(cluster.join_peer(ctx, NODES - 1), NODES);
            cluster.migrate_chunk(ctx, &arr, 0, NODES - 1);
            cluster.migrate_chunk(ctx, &arr, 1, NODES - 1);
            // Phase 2: every node reads through the new home; the joiner
            // writes through an adopted chunk and the old home reads it
            // back. The final cross-reads double as the drain phase.
            let arr2 = arr.clone();
            cluster.run(ctx, 1, move |ctx, env| {
                let a = arr2.on(env.node);
                for w in 0..NODES - 1 {
                    assert_eq!(a.get(ctx, base(0, 0) + w * 8), 7_000);
                }
                env.barrier(ctx);
                if env.node == NODES - 1 {
                    a.set(ctx, base(0, 1) + 3, 42);
                }
                env.barrier(ctx);
                assert_eq!(a.get(ctx, base(0, 1) + 3), 42);
                env.barrier(ctx);
                for d in 1..NODES {
                    let h = (env.node + d) % NODES;
                    assert_eq!(a.get(ctx, base(h, 5) + env.node), 0);
                }
                env.barrier(ctx);
            });
            let stats = (0..NODES).map(|n| cluster.stats(n)).collect();
            cluster.shutdown(ctx);
            stats
        })
    };
    let sim = run(elastic(TransportKind::Sim));
    let tcp = run(elastic(TransportKind::Tcp));
    for node in 0..NODES {
        assert_eq!(
            protocol_view(sim[node]),
            protocol_view(tcp[node]),
            "node {node}: elastic protocol counters must not depend on the backend"
        );
    }
    assert_eq!(sim[0].migrations_out, 2, "{:?}", sim[0]);
    assert_eq!(sim[NODES - 1].migrations_in, 2, "{:?}", sim[NODES - 1]);
}

/// [`parity_config`] with the async pump's batching knobs turned all the
/// way from their defaults: a shallow 4-frame egress ring, selective
/// signaling every 8th frame, and a single pump thread multiplexing every
/// link.
fn batched_config(kind: TransportKind) -> ClusterConfig {
    let mut cfg = parity_config(kind);
    cfg.net.send_batch_max = 4;
    cfg.net.signal_interval = 8;
    cfg.tcp.pump_threads = 1;
    cfg
}

/// The async event-loop pump's doorbell batching (DESIGN.md §13) is egress
/// mechanics only: under non-default batching knobs the protocol
/// transition counts still match dsim bit-for-bit, the TCP egress rings
/// actually coalesce, and the counter identities
/// `frames == tx_flushes + frames_coalesced` and
/// `completions == frames / signal_interval` hold on both backends.
#[test]
fn tcp_matches_sim_with_batching_knobs() {
    let interval = batched_config(TransportKind::Sim).net.signal_interval;
    let sim = run_workload(batched_config(TransportKind::Sim));
    let tcp = run_workload(batched_config(TransportKind::Tcp));
    for node in 0..NODES {
        assert_eq!(
            protocol_view(sim[node]),
            protocol_view(tcp[node]),
            "node {node}: batching knobs must not leak into the protocol"
        );
    }
    for (label, stats) in [("sim", &sim), ("tcp", &tcp)] {
        for (node, s) in stats.iter().enumerate() {
            assert_eq!(
                s.frames,
                s.tx_flushes + s.frames_coalesced,
                "{label} node {node}: every frame either rings a doorbell or rides a batch"
            );
            assert_eq!(
                s.completions,
                s.frames / interval,
                "{label} node {node}: one completion per {interval} frames"
            );
        }
    }
    // Every write_send posts an indivisible WRITE+MSG train, so a batching
    // backend must coalesce at least once under this workload.
    let batches: u64 = tcp.iter().map(|s| s.doorbell_batches).sum();
    let coalesced: u64 = tcp.iter().map(|s| s.frames_coalesced).sum();
    assert!(batches > 0, "TCP egress rings never committed a batch");
    assert!(coalesced > 0, "TCP egress rings never coalesced a frame");
}

/// Batching knobs and the partitioned multi-threaded runtime compose: the
/// rt=2 protocol counts stay backend-independent under the same non-default
/// egress-ring configuration.
#[test]
fn tcp_matches_sim_with_batching_knobs_rt2() {
    let rt2 = |kind| {
        let mut cfg = batched_config(kind);
        cfg.runtime_threads = 2;
        cfg
    };
    let sim = run_workload(rt2(TransportKind::Sim));
    let tcp = run_workload(rt2(TransportKind::Tcp));
    for node in 0..NODES {
        assert_eq!(
            protocol_view(sim[node]),
            protocol_view(tcp[node]),
            "node {node}: batching + rt2 must not leak into the protocol"
        );
    }
    let total: u64 = sim.iter().map(|s| s.transitions).sum();
    assert!(total > 0, "workload must drive protocol transitions");
}

/// Batching knobs and persist-before-ack durability compose the same way
/// (the flush path rides write_send trains through the egress rings).
#[test]
fn tcp_matches_sim_with_batching_knobs_and_durability() {
    use darray::DurabilityPolicy;
    let scratch = |backend: &str| {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "darray-parity-batch-{}-{backend}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        p
    };
    let durable = |kind, dir: &std::path::Path| {
        let mut cfg = batched_config(kind);
        cfg.durability.policy = DurabilityPolicy::Writethrough;
        cfg.durability.dir = Some(dir.to_path_buf());
        cfg
    };
    let (sim_dir, tcp_dir) = (scratch("sim"), scratch("tcp"));
    let sim = run_workload(durable(TransportKind::Sim, &sim_dir));
    let tcp = run_workload(durable(TransportKind::Tcp, &tcp_dir));
    for node in 0..NODES {
        assert_eq!(
            protocol_view(sim[node]),
            protocol_view(tcp[node]),
            "node {node}: batching + durability must not leak into the protocol"
        );
    }
    let persists: u64 = sim.iter().map(|s| s.flush_persists).sum();
    assert!(
        persists > 0,
        "workload never hit the persist-before-ack path"
    );
    let _ = std::fs::remove_dir_all(&sim_dir);
    let _ = std::fs::remove_dir_all(&tcp_dir);
}

/// `Cluster::stats` is the one per-node view on both backends: the
/// transport rows are populated whichever backend carried the traffic.
#[test]
fn transport_counters_surface_in_stats() {
    for kind in [TransportKind::Sim, TransportKind::Tcp] {
        let mut cfg = parity_config(kind);
        cfg.tx_threads = true; // Tx threads post through the same trait object.
        let stats = run_workload(cfg);
        for (node, s) in stats.iter().enumerate() {
            assert!(s.bytes_tx > 0, "{kind:?} node {node} posted frames");
            assert!(s.bytes_rx > 0, "{kind:?} node {node} received frames");
            assert!(s.frames > 0, "{kind:?} node {node} counted frames");
            assert!(
                s.completions > 0,
                "{kind:?} node {node} observed completions"
            );
        }
    }
}

/// Graceful shutdown: tearing a cluster down drains the egress rings and
/// joins the fixed pump pool (the transport's `Drop` runs when the last
/// runtime thread releases it). Repeated bring-up/tear-down must not
/// accumulate OS threads — a leak of even one pump per round would show
/// up here as ~30 stray threads.
#[test]
fn cluster_teardown_loop_drains_pumps_and_leaks_no_threads() {
    fn os_threads() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|v| v.trim().parse().ok())
            .unwrap()
    }
    let before = os_threads();
    for round in 0..5u64 {
        let cfg = parity_config(TransportKind::Tcp);
        Sim::new(SimConfig::default()).run(move |ctx| {
            let cluster = Cluster::new(ctx, cfg);
            let arr = cluster.alloc::<u64>(NODES * DEFAULT_CHUNK_SIZE, ArrayOptions::default());
            cluster.run(ctx, 1, move |ctx, env| {
                // A remote write per node keeps the egress rings busy right
                // up to the tear-down.
                let a = arr.on(env.node);
                a.set(ctx, (env.node + 1) % NODES, round);
                env.barrier(ctx);
            });
            cluster.shutdown(ctx);
        });
    }
    // Generous slack: other tests in this binary run concurrently and spawn
    // threads of their own; a real leak would add 5 rounds x 3 nodes x 2
    // pumps = 30.
    let after = os_threads();
    assert!(
        after < before + 20,
        "pump threads leaked across teardown: {before} -> {after}"
    );
}

#[test]
fn tcp_bring_up_failure_is_a_structured_error() {
    // Occupy a port, then ask the cluster to listen on it: bring-up must
    // surface a structured Config error, not panic.
    let blocker = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let taken = blocker.local_addr().unwrap();
    let mut cfg = parity_config(TransportKind::Tcp);
    cfg.nodes = 2;
    cfg.tcp.addrs = Some(vec![taken, "127.0.0.1:0".parse().unwrap()]);
    let err = Sim::new(SimConfig::default()).run(move |ctx| match Cluster::try_new(ctx, cfg) {
        Ok(cluster) => {
            cluster.shutdown(ctx);
            None
        }
        Err(e) => Some(e),
    });
    match err {
        Some(DArrayError::Config(ConfigError::TransportBringUp { message })) => {
            assert!(!message.is_empty());
        }
        other => panic!("expected TransportBringUp, got {other:?}"),
    }
    drop(blocker);
}

#[test]
fn tcp_without_feature_is_rejected_by_validation() {
    // (This file only builds with the feature, so exercise the *validation*
    // path that callers without the feature would hit: a nonsense knob.)
    let mut cfg = parity_config(TransportKind::Tcp);
    cfg.tcp.pump_threads = 0;
    let err = Sim::new(SimConfig::default()).run(move |ctx| Cluster::try_new(ctx, cfg).err());
    assert_eq!(
        err,
        Some(DArrayError::Config(ConfigError::ZeroPumpThreads)),
        "invalid transport knobs must be rejected before bring-up"
    );
}
