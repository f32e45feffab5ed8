//! Configuration of a DArray cluster.

use std::path::PathBuf;

use rdma_fabric::{CostModel, FaultPlan, NetConfig, TcpOptions};

use crate::error::ConfigError;
use crate::store::DurabilityPolicy;

/// Default chunk granularity: "the directory tracks the state of data ... at
/// the chunk granularity (512 elements by default)" (§3.1).
pub const DEFAULT_CHUNK_SIZE: usize = 512;

/// Cache layer configuration (§4.2).
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Total cachelines per node (split evenly among runtime threads, each
    /// of which owns an independent cache region with its own scanning
    /// pointer, Figure 7).
    pub capacity_lines: usize,
    /// Reclamation starts when the fraction of free cachelines in a region
    /// drops below this (paper default 30 %).
    pub low_watermark: f64,
    /// Reclamation stops once the free fraction exceeds this (paper default
    /// 50 %).
    pub high_watermark: f64,
    /// Cachelines to prefetch ahead of a sequential read miss, issued from
    /// the slow path only (§4.2 "Cache prefetch"). 0 disables.
    pub prefetch_lines: usize,
    /// Words (8-byte slots) per cacheline. Every array's `chunk_size` must
    /// be ≤ this; defaults to [`DEFAULT_CHUNK_SIZE`].
    pub line_words: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            capacity_lines: 1024,
            low_watermark: 0.30,
            high_watermark: 0.50,
            prefetch_lines: 2,
            line_words: DEFAULT_CHUNK_SIZE,
        }
    }
}

/// Fault injection and recovery parameters. Attaching one to
/// [`ClusterConfig::fault`] does two things: the fabric is built with the
/// embedded [`FaultPlan`] (jitter, stalls, drops, crashes, partitions,
/// asymmetric loss — all seeded), and the communication layer switches to
/// **reliable delivery**: every protocol RPC is sequence-numbered,
/// acknowledged, retransmitted with exponential backoff on timeout, and
/// duplicate-suppressed at the receiver. A peer that exhausts `max_retries`
/// is *Suspected* — not dead — and the node polls the rest of the cluster;
/// only a quorum of confirmations (DESIGN.md §12) promotes the suspect to
/// Dead, after which operations targeting it return
/// [`crate::DArrayError::NodeUnavailable`].
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// The seeded fault schedule handed to the fabric. A benign plan
    /// (`FaultPlan::new(seed)`) enables the reliability machinery without
    /// injecting any faults — useful for replay tests.
    pub plan: FaultPlan,
    /// Initial retransmit timeout for a reliable RPC, ns. Doubled on every
    /// retry of the same message. Should comfortably exceed the fault-free
    /// round trip (≈ 2 µs) plus the worst stall window in the plan.
    pub rpc_timeout_ns: dsim::VTime,
    /// Retransmissions attempted before the peer is suspected.
    pub max_retries: u32,
    /// Lease freshness window, ns: a peer heard from within the last
    /// `lease_ns` is considered alive by the local lease oracle. Drives
    /// both self-refutation (retries exhausted toward a peer that is still
    /// talking to us means the loss is one-way) and the votes this node
    /// casts about other nodes' suspects.
    pub lease_ns: dsim::VTime,
    /// Idle heartbeat interval, ns: the reliability agent sends an explicit
    /// `Heartbeat` to any peer it has not transmitted to for this long, so
    /// leases stay fresh on idle links. Leases piggyback on all other
    /// traffic; heartbeats only fill the gaps. Must be below `lease_ns`.
    pub heartbeat_ns: dsim::VTime,
    /// Interval between quorum poll rounds while a peer is Suspected, ns.
    pub suspect_poll_ns: dsim::VTime,
    /// Poll rounds after which silent electorate members that are
    /// themselves Suspected or Dead in the local view abstain, allowing a
    /// degenerate quorum among the remaining reachable voters (needed for
    /// convergence when multiple nodes die together).
    pub suspect_poll_rounds: u32,
}

impl FaultConfig {
    /// Reliability defaults around `plan`: 200 µs initial timeout, 6
    /// retries (≈ 25 ms of virtual time before a peer is suspected),
    /// 500 µs leases renewed by 100 µs idle heartbeats, and quorum polls
    /// every 100 µs with abstention allowed after 3 rounds.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            rpc_timeout_ns: 200_000,
            max_retries: 6,
            lease_ns: 500_000,
            heartbeat_ns: 100_000,
            suspect_poll_ns: 100_000,
            suspect_poll_rounds: 3,
        }
    }
}

/// Which network backend carries the cluster's traffic (DESIGN.md §13).
///
/// The protocol machines, runtime executor and communication threads are
/// backend-agnostic: they speak only the `rdma_fabric::Transport` trait.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// The dsim-simulated RDMA NIC (default): deterministic virtual time,
    /// calibrated latency/bandwidth model, fault injection.
    #[default]
    Sim,
    /// Real OS TCP sockets with length-prefixed frames (one-sided WRITE
    /// emulated as a tagged frame applied into the registered region).
    /// Requires the `tcp-transport` cargo feature. Virtual time still
    /// exists but no longer models the wire: latency is whatever the OS
    /// delivers, so timings are not comparable with `Sim` runs — protocol
    /// transition *counts* are (see the parity suite).
    Tcp,
}

/// Per-node durable chunk store configuration (DESIGN.md §14). With a
/// policy other than [`DurabilityPolicy::None`], each node opens an
/// append-only log under `dir` at bring-up (`node<N>.log`), replays it
/// crash-safely, overlays the recovered chunk images onto its home
/// subarrays, and every home machine gates dirty-data acknowledgements on
/// a persist of the new image (persist-before-ack).
#[derive(Debug, Clone, Default)]
pub struct DurabilityConfig {
    /// When (and whether) persisted records are fsynced. The default
    /// `None` disables durability entirely and keeps the protocol
    /// bit-identical to the persistence-free build.
    pub policy: DurabilityPolicy,
    /// Directory holding the per-node logs. Required (and created if
    /// absent) when `policy` is not `None`; ignored otherwise.
    pub dir: Option<PathBuf>,
    /// Take a full-image checkpoint of each node's store once this many
    /// records have been persisted since the last one (polled at the
    /// runtime's batch points: eviction scans, epoch closes). `None`
    /// (default) disables periodic checkpoints; explicit
    /// `Cluster::checkpoint_all` calls still work. Requires a durable
    /// `policy`; `Some(0)` is rejected by validation.
    pub checkpoint_every_persists: Option<u64>,
    /// Truncate the compacted log prefix after each successful checkpoint
    /// (DESIGN.md §14, "Compaction and checkpointing"): reopen then
    /// replays the checkpoint image plus the short log suffix instead of
    /// the full persist history. `false` (default) keeps the append-only
    /// log whole; setting it requires a durable `policy`.
    pub compact: bool,
}

impl DurabilityConfig {
    /// Durability enabled?
    pub fn enabled(&self) -> bool {
        self.policy != DurabilityPolicy::None
    }

    /// The store-level checkpoint knobs this configuration selects.
    pub(crate) fn checkpoint_config(&self) -> crate::store::CheckpointConfig {
        crate::store::CheckpointConfig {
            every_persists: self.checkpoint_every_persists,
            compact: self.compact,
        }
    }
}

/// Which application-thread data access path to use; the lock-based path is
/// the strawman of §4.1, kept for the ablation benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    /// Reference-counted lock-free path (the paper's design, Figure 4).
    LockFree,
    /// Per-chunk mutex on every access (the strawman).
    LockBased,
}

/// Cluster-wide configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Runtime threads per node. Chunks (and their cache regions) are
    /// statically partitioned among them, so each chunk's protocol state is
    /// handled by exactly one runtime thread. Defaults to 2 (the winning
    /// setting of the Figure 12 sweep — see `BENCH_fig12.json`); the
    /// `DARRAY_RUNTIME_THREADS` environment variable overrides the default
    /// (CI uses it to keep the single-thread configuration exercised).
    pub runtime_threads: usize,
    /// Spawn dedicated Tx threads that post verbs on behalf of the runtime
    /// (§4.5 "Dedicated networking threads"). When false, the runtime posts
    /// inline and the posting cost is charged to it directly; an Rx thread
    /// per node always exists.
    pub tx_threads: bool,
    /// Application-thread access path.
    pub access_path: AccessPath,
    /// Override the CPU cost charged per fast-path access (ns). `None`
    /// charges [`rdma_fabric::CostModel::darray_fast_path`]. The GAM
    /// baseline sets this to its hash-probe cost (its per-chunk lock is
    /// charged separately by the lock itself).
    pub fast_path_cost_ns: Option<dsim::VTime>,
    /// Network parameters. `net.signal_interval` (selective signaling) and
    /// `net.send_batch_max` (doorbell batch cap) apply to every backend;
    /// the rest model the simulated wire.
    pub net: NetConfig,
    /// CPU cost model.
    pub cost: CostModel,
    /// Cache layer parameters.
    pub cache: CacheConfig,
    /// Minimum hold (grace) window, ns: after the directory grants a chunk,
    /// requests that would revoke the grantee's rights wait this long.
    /// Without it, back-to-back contenders can recall a chunk before the
    /// grantee's application thread performs even one access (grant
    /// starvation / livelock — a classic directory-protocol hazard).
    pub grant_grace_ns: dsim::VTime,
    /// Fault injection + reliable delivery; `None` (the default) keeps the
    /// original fault-free fast path bit-identically.
    pub fault: Option<FaultConfig>,
    /// Network backend selection.
    pub transport: TransportKind,
    /// TCP deployment settings (used when `transport` is
    /// [`TransportKind::Tcp`]).
    pub tcp: TcpOptions,
    /// Per-node durable chunk store; the default (policy `None`) keeps the
    /// protocol bit-identical to the persistence-free build.
    pub durability: DurabilityConfig,
    /// Elastic membership (DESIGN.md §15). When set, every array keeps a
    /// per-node chunk→home map that migration commits advance under
    /// monotone epochs, `Cluster::join_peer` can bring spare nodes into a
    /// live cluster, and `Cluster::migrate_chunk` re-homes chunks without
    /// stopping traffic. The default `false` keeps the fixed partition map
    /// and is bit-identical to the pre-elastic build.
    pub elastic: bool,
    /// Nodes that are *active* at bring-up; the remaining
    /// `initial_nodes..nodes` are spares in `Joining` state: they run the
    /// full service stack but home no chunks and hold no votes until
    /// [`crate::Cluster::join_peer`] admits them. `None` (default) starts
    /// every node active. Requires `elastic`.
    pub initial_nodes: Option<usize>,
}

/// Library default for [`ClusterConfig::runtime_threads`]: 2, unless the
/// `DARRAY_RUNTIME_THREADS` environment variable names another positive
/// count. The env hook exists so CI (and curious users) can run the whole
/// suite under a non-default thread count without touching code; invalid
/// values fall back to the built-in default rather than failing here —
/// `try_validate` still rejects zero if set explicitly on the struct.
pub fn default_runtime_threads() -> usize {
    match std::env::var("DARRAY_RUNTIME_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => 2,
        },
        Err(_) => 2,
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            nodes: 1,
            runtime_threads: default_runtime_threads(),
            tx_threads: false,
            access_path: AccessPath::LockFree,
            fast_path_cost_ns: None,
            net: NetConfig::default(),
            cost: CostModel::default(),
            cache: CacheConfig::default(),
            grant_grace_ns: 1_000,
            fault: None,
            transport: TransportKind::Sim,
            tcp: TcpOptions::default(),
            durability: DurabilityConfig::default(),
            elastic: false,
            initial_nodes: None,
        }
    }
}

impl ClusterConfig {
    /// Convenience: `n` nodes, defaults otherwise.
    pub fn with_nodes(n: usize) -> Self {
        Self {
            nodes: n,
            ..Default::default()
        }
    }

    /// Fast-test configuration: near-zero network latency.
    pub fn test_config(n: usize) -> Self {
        Self {
            nodes: n,
            net: NetConfig::instant(),
            ..Default::default()
        }
    }

    /// Check every invariant, returning a structured error instead of
    /// panicking. Called by [`ClusterConfig::validate`] and `Cluster::new`.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        if self.nodes == 0 {
            return Err(ConfigError::NoNodes);
        }
        if self.runtime_threads == 0 {
            return Err(ConfigError::NoRuntimeThreads);
        }
        if self.cache.capacity_lines < self.runtime_threads {
            return Err(ConfigError::CacheTooSmall {
                capacity_lines: self.cache.capacity_lines,
                runtime_threads: self.runtime_threads,
            });
        }
        let (low, high) = (self.cache.low_watermark, self.cache.high_watermark);
        if !(0.0..=1.0).contains(&low) || !(0.0..=1.0).contains(&high) || low > high {
            return Err(ConfigError::BadWatermarks { low, high });
        }
        if self.cache.line_words == 0 {
            return Err(ConfigError::ZeroLineWords);
        }
        if self.net.bytes_per_us == 0 {
            return Err(ConfigError::ZeroBandwidth);
        }
        if let Some(f) = &self.fault {
            if f.rpc_timeout_ns == 0 {
                return Err(ConfigError::ZeroRpcTimeout);
            }
            if f.max_retries == 0 {
                return Err(ConfigError::ZeroMaxRetries);
            }
            if f.lease_ns == 0 {
                return Err(ConfigError::ZeroLease);
            }
            if f.heartbeat_ns == 0 || f.suspect_poll_ns == 0 || f.suspect_poll_rounds == 0 {
                return Err(ConfigError::ZeroSuspectTimers);
            }
            if f.heartbeat_ns >= f.lease_ns {
                return Err(ConfigError::HeartbeatExceedsLease {
                    heartbeat_ns: f.heartbeat_ns,
                    lease_ns: f.lease_ns,
                });
            }
        }
        if self.net.send_batch_max == 0 {
            return Err(ConfigError::ZeroSendBatch);
        }
        if self.net.signal_interval == 0 {
            return Err(ConfigError::ZeroSignalInterval);
        }
        if self.transport == TransportKind::Tcp {
            if !cfg!(feature = "tcp-transport") {
                return Err(ConfigError::TcpFeatureDisabled);
            }
            if self.tcp.pump_threads == 0 {
                return Err(ConfigError::ZeroPumpThreads);
            }
            if let Some(addrs) = &self.tcp.addrs {
                if addrs.len() != self.nodes {
                    return Err(ConfigError::TransportAddrCount {
                        expected: self.nodes,
                        got: addrs.len(),
                    });
                }
                for (i, &addr) in addrs.iter().enumerate() {
                    if addrs[..i].contains(&addr) {
                        return Err(ConfigError::TransportAddrCollision { addr });
                    }
                }
            }
            if let Some(f) = &self.fault {
                // The reliability channel itself is fine over TCP (it is
                // just more traffic), but injected faults are simulated-
                // fabric behavior and cannot be imposed on OS sockets.
                if !f.plan.is_benign() {
                    return Err(ConfigError::TransportFaultInjection);
                }
            }
        }
        if self.durability.enabled() && self.durability.dir.is_none() {
            return Err(ConfigError::DurabilityDirMissing {
                policy: self.durability.policy.name(),
            });
        }
        if self.durability.checkpoint_every_persists == Some(0) {
            // A zero interval would checkpoint after every persist: each
            // ack would pay a full-image snapshot. Degenerate, rejected.
            return Err(ConfigError::ZeroCheckpointInterval);
        }
        if !self.durability.enabled()
            && (self.durability.checkpoint_every_persists.is_some() || self.durability.compact)
        {
            return Err(ConfigError::CheckpointWithoutDurability);
        }
        if let Some(active) = self.initial_nodes {
            if !self.elastic {
                return Err(ConfigError::InitialNodesWithoutElastic);
            }
            if active == 0 || active > self.nodes {
                return Err(ConfigError::BadInitialNodes {
                    initial_nodes: active,
                    nodes: self.nodes,
                });
            }
        }
        if self.durability.enabled() {
            // Incarnation guard: both the node count and the chunk→
            // runtime-thread placement are part of the recovery contract
            // (the even partition tiles chunks across nodes, each replayed
            // persist sequence is resumed by the chunk's owning thread,
            // and the cache pools are tiled per thread), so a log
            // directory written under one shape must not be replayed
            // under another. The first incarnation records its shape
            // (`Cluster::try_new`); later ones are validated against it
            // here.
            if let Some(dir) = &self.durability.dir {
                let meta = read_incarnation_meta(dir);
                if let Some(recorded) = meta.runtime_threads {
                    if recorded != self.runtime_threads {
                        return Err(ConfigError::RuntimeThreadsChanged {
                            recorded,
                            configured: self.runtime_threads,
                        });
                    }
                }
                if let Some(recorded) = meta.nodes {
                    if recorded != self.nodes {
                        return Err(ConfigError::ClusterNodesChanged {
                            recorded,
                            configured: self.nodes,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Panicking wrapper over [`ClusterConfig::try_validate`].
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("invalid ClusterConfig: {e}");
        }
    }

    /// Check that an array with `chunk_size` can live in this cluster's
    /// cachelines.
    pub(crate) fn try_validate_array(&self, chunk_size: usize) -> Result<(), ConfigError> {
        if chunk_size > self.cache.line_words {
            return Err(ConfigError::LineWordsBelowChunk {
                line_words: self.cache.line_words,
                chunk_size,
            });
        }
        Ok(())
    }
}

/// Name of the incarnation-metadata file a durable cluster writes into its
/// log directory, binding the directory to the cluster shape that produced
/// it (see the incarnation guard in [`ClusterConfig::try_validate`]).
pub(crate) const CLUSTER_META: &str = "cluster.meta";

/// The cluster shape recorded by the incarnation that first used a
/// durability directory. Either field may be absent (older-format files
/// recorded only `runtime_threads`); the guard only fires on a *recorded*
/// mismatch, never on absence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct IncarnationMeta {
    pub runtime_threads: Option<usize>,
    pub nodes: Option<usize>,
}

/// Read the shape recorded by the incarnation that first used `dir`. A
/// missing or unparsable file means "no prior incarnation".
pub(crate) fn read_incarnation_meta(dir: &std::path::Path) -> IncarnationMeta {
    let Ok(text) = std::fs::read_to_string(dir.join(CLUSTER_META)) else {
        return IncarnationMeta::default();
    };
    IncarnationMeta {
        runtime_threads: text
            .lines()
            .find_map(|l| l.strip_prefix("runtime_threads=")?.trim().parse().ok()),
        nodes: text
            .lines()
            .find_map(|l| l.strip_prefix("nodes=")?.trim().parse().ok()),
    }
}

/// Record the cluster shape for `dir`'s first incarnation. Later calls are
/// no-ops: the original record is the contract, and `try_validate` has
/// already checked the running configuration against it.
pub(crate) fn write_incarnation_meta(
    dir: &std::path::Path,
    runtime_threads: usize,
    nodes: usize,
) -> std::io::Result<()> {
    let path = dir.join(CLUSTER_META);
    if path.exists() {
        return Ok(());
    }
    std::fs::write(
        path,
        format!("runtime_threads={runtime_threads}\nnodes={nodes}\n"),
    )
}

/// Per-array options passed at construction (Figure 3's constructor).
#[derive(Debug, Clone, Default)]
pub struct ArrayOptions {
    /// Elements per chunk; defaults to [`DEFAULT_CHUNK_SIZE`].
    pub chunk_size: Option<usize>,
    /// Custom partition: `partition_offset[i]` is the first element owned by
    /// node `i` (must be non-decreasing, start at 0, and will be rounded up
    /// to chunk boundaries). `None` means an even partition.
    pub partition_offset: Option<Vec<usize>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        ClusterConfig::default().validate();
        ClusterConfig::with_nodes(12).validate();
        ClusterConfig::test_config(3).validate();
    }

    #[test]
    fn default_runtime_threads_is_multi_threaded() {
        // The Figure 12 sweep picked 2 as the library default; CI's
        // DARRAY_RUNTIME_THREADS matrix leg relies on the env override.
        // (Read the env here too so the test stays truthful under that
        // very matrix leg.)
        let expected = std::env::var("DARRAY_RUNTIME_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok().filter(|&n| n > 0))
            .unwrap_or(2);
        assert_eq!(ClusterConfig::default().runtime_threads, expected);
        assert_eq!(default_runtime_threads(), expected);
    }

    #[test]
    fn degenerate_cache_capacity_cases() {
        // capacity == threads is the legal minimum: one line per pool.
        let mut c = ClusterConfig {
            runtime_threads: 4,
            ..Default::default()
        };
        c.cache.capacity_lines = 4;
        assert_eq!(c.try_validate(), Ok(()));
        // capacity < threads would leave a pool with zero lines: rejected,
        // never silently over-allocated.
        c.cache.capacity_lines = 3;
        assert_eq!(
            c.try_validate(),
            Err(ConfigError::CacheTooSmall {
                capacity_lines: 3,
                runtime_threads: 4,
            })
        );
        // Zero capacity is degenerate even single-threaded.
        let mut c = ClusterConfig {
            runtime_threads: 1,
            ..Default::default()
        };
        c.cache.capacity_lines = 0;
        assert!(matches!(
            c.try_validate(),
            Err(ConfigError::CacheTooSmall { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        ClusterConfig {
            nodes: 0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "watermark")]
    fn inverted_watermarks_rejected() {
        let mut c = ClusterConfig::default();
        c.cache.low_watermark = 0.9;
        c.cache.high_watermark = 0.2;
        c.validate();
    }

    #[test]
    fn try_validate_reports_structured_errors() {
        let ok = ClusterConfig::default();
        assert_eq!(ok.try_validate(), Ok(()));

        let mut c = ClusterConfig::default();
        c.net.bytes_per_us = 0;
        assert_eq!(c.try_validate(), Err(ConfigError::ZeroBandwidth));

        let mut c = ClusterConfig::default();
        c.cache.line_words = 0;
        assert_eq!(c.try_validate(), Err(ConfigError::ZeroLineWords));

        let mut c = ClusterConfig {
            runtime_threads: 4,
            ..Default::default()
        };
        c.cache.capacity_lines = 3;
        assert!(matches!(
            c.try_validate(),
            Err(ConfigError::CacheTooSmall { .. })
        ));

        let mut c = ClusterConfig {
            fault: Some(FaultConfig::new(FaultPlan::new(1))),
            ..Default::default()
        };
        assert_eq!(c.try_validate(), Ok(()));
        c.fault.as_mut().unwrap().rpc_timeout_ns = 0;
        assert_eq!(c.try_validate(), Err(ConfigError::ZeroRpcTimeout));
        c.fault = Some(FaultConfig {
            max_retries: 0,
            ..FaultConfig::new(FaultPlan::new(1))
        });
        assert_eq!(c.try_validate(), Err(ConfigError::ZeroMaxRetries));
        c.fault = Some(FaultConfig {
            lease_ns: 0,
            ..FaultConfig::new(FaultPlan::new(1))
        });
        assert_eq!(c.try_validate(), Err(ConfigError::ZeroLease));
        c.fault = Some(FaultConfig {
            suspect_poll_rounds: 0,
            ..FaultConfig::new(FaultPlan::new(1))
        });
        assert_eq!(c.try_validate(), Err(ConfigError::ZeroSuspectTimers));
        c.fault = Some(FaultConfig {
            heartbeat_ns: 600_000,
            lease_ns: 500_000,
            ..FaultConfig::new(FaultPlan::new(1))
        });
        assert_eq!(
            c.try_validate(),
            Err(ConfigError::HeartbeatExceedsLease {
                heartbeat_ns: 600_000,
                lease_ns: 500_000
            })
        );
    }

    #[test]
    fn batching_knobs_are_validated() {
        // The batching knobs apply to every backend, so they are checked
        // even on the simulated transport.
        let mut c = ClusterConfig::default();
        c.net.send_batch_max = 0;
        assert_eq!(c.try_validate(), Err(ConfigError::ZeroSendBatch));

        // 1 (no coalescing / signal every frame) is the legal minimum.
        let mut c = ClusterConfig::default();
        c.net.send_batch_max = 1;
        c.net.signal_interval = 1;
        assert_eq!(c.try_validate(), Ok(()));
    }

    #[test]
    fn zero_signal_interval_is_rejected() {
        // With an interval of 0 the NIC's `n % 0 == 0` test never fires:
        // CQ-poll cost would never be charged and `completions` would
        // silently stay 0.
        let mut c = ClusterConfig::test_config(2);
        c.net.signal_interval = 0;
        assert_eq!(c.try_validate(), Err(ConfigError::ZeroSignalInterval));
    }

    #[test]
    fn transport_knobs_are_validated() {
        // Sim transport ignores the TCP knobs entirely.
        let mut c = ClusterConfig::default();
        c.tcp.pump_threads = 0;
        assert_eq!(c.try_validate(), Ok(()));

        let tcp_base = || ClusterConfig {
            nodes: 2,
            transport: TransportKind::Tcp,
            ..Default::default()
        };

        if !cfg!(feature = "tcp-transport") {
            assert_eq!(
                tcp_base().try_validate(),
                Err(ConfigError::TcpFeatureDisabled)
            );
            return;
        }

        assert_eq!(tcp_base().try_validate(), Ok(()));

        let mut c = tcp_base();
        c.tcp.pump_threads = 0;
        assert_eq!(c.try_validate(), Err(ConfigError::ZeroPumpThreads));

        let addr: std::net::SocketAddr = "127.0.0.1:9000".parse().unwrap();
        let mut c = tcp_base();
        c.tcp.addrs = Some(vec![addr]);
        assert_eq!(
            c.try_validate(),
            Err(ConfigError::TransportAddrCount {
                expected: 2,
                got: 1
            })
        );

        let mut c = tcp_base();
        c.tcp.addrs = Some(vec![addr, addr]);
        assert_eq!(
            c.try_validate(),
            Err(ConfigError::TransportAddrCollision { addr })
        );

        // Reliable delivery over TCP is fine with a benign plan...
        let mut c = tcp_base();
        c.fault = Some(FaultConfig::new(FaultPlan::new(7)));
        assert_eq!(c.try_validate(), Ok(()));
        // ...but injected faults belong to the simulated fabric.
        let mut c = tcp_base();
        let mut plan = FaultPlan::new(7);
        plan.drop_ppm = 1_000;
        c.fault = Some(FaultConfig::new(plan));
        assert_eq!(c.try_validate(), Err(ConfigError::TransportFaultInjection));
    }

    #[test]
    fn durability_requires_a_directory() {
        let mut c = ClusterConfig::default();
        c.durability.policy = DurabilityPolicy::Writethrough;
        assert_eq!(
            c.try_validate(),
            Err(ConfigError::DurabilityDirMissing {
                policy: "writethrough"
            })
        );
        c.durability.dir = Some(PathBuf::from("/tmp/darray-logs"));
        assert_eq!(c.try_validate(), Ok(()));
        // Policy None ignores the directory entirely.
        let mut c = ClusterConfig::default();
        c.durability.dir = Some(PathBuf::from("/tmp/darray-logs"));
        assert_eq!(c.try_validate(), Ok(()));
        assert!(!c.durability.enabled());
    }

    #[test]
    fn checkpoint_knobs_are_validated() {
        let durable = || {
            let mut c = ClusterConfig::default();
            c.durability.policy = DurabilityPolicy::Writeback;
            c.durability.dir = Some(PathBuf::from("/tmp/darray-logs"));
            c
        };
        let mut c = durable();
        c.durability.checkpoint_every_persists = Some(64);
        c.durability.compact = true;
        assert_eq!(c.try_validate(), Ok(()));
        // A zero interval would snapshot the store on every ack.
        let mut c = durable();
        c.durability.checkpoint_every_persists = Some(0);
        assert_eq!(c.try_validate(), Err(ConfigError::ZeroCheckpointInterval));
        // Checkpoint knobs without a durable policy are degenerate: there
        // is no store to checkpoint.
        let mut c = ClusterConfig::default();
        c.durability.checkpoint_every_persists = Some(64);
        assert_eq!(
            c.try_validate(),
            Err(ConfigError::CheckpointWithoutDurability)
        );
        let mut c = ClusterConfig::default();
        c.durability.compact = true;
        assert_eq!(
            c.try_validate(),
            Err(ConfigError::CheckpointWithoutDurability)
        );
    }

    #[test]
    fn incarnation_guard_rejects_changed_shape() {
        let dir =
            std::env::temp_dir().join(format!("darray-config-incarnation-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let base = |threads: usize, nodes: usize| {
            let mut c = ClusterConfig {
                nodes,
                runtime_threads: threads,
                ..Default::default()
            };
            c.durability.policy = DurabilityPolicy::Writethrough;
            c.durability.dir = Some(dir.clone());
            c
        };
        // No meta yet: any shape validates.
        assert_eq!(base(2, 3).try_validate(), Ok(()));
        write_incarnation_meta(&dir, 2, 3).unwrap();
        assert_eq!(base(2, 3).try_validate(), Ok(()));
        assert_eq!(
            base(4, 3).try_validate(),
            Err(ConfigError::RuntimeThreadsChanged {
                recorded: 2,
                configured: 4
            })
        );
        assert_eq!(
            base(2, 5).try_validate(),
            Err(ConfigError::ClusterNodesChanged {
                recorded: 3,
                configured: 5
            })
        );
        // Old-format meta (runtime_threads only): the node-count guard
        // never fires on absence.
        std::fs::write(dir.join(CLUSTER_META), "runtime_threads=2\n").unwrap();
        assert_eq!(base(2, 7).try_validate(), Ok(()));
        assert_eq!(
            base(1, 7).try_validate(),
            Err(ConfigError::RuntimeThreadsChanged {
                recorded: 2,
                configured: 1
            })
        );
        // Later writes never clobber the first incarnation's record.
        write_incarnation_meta(&dir, 9, 9).unwrap();
        assert_eq!(
            read_incarnation_meta(&dir),
            IncarnationMeta {
                runtime_threads: Some(2),
                nodes: None
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn membership_defaults_are_ordered() {
        let f = FaultConfig::new(FaultPlan::new(0));
        assert!(f.heartbeat_ns < f.lease_ns, "leases outlive heartbeat gaps");
        assert!(f.suspect_poll_rounds > 0);
    }

    #[test]
    fn array_chunk_must_fit_a_cacheline() {
        let c = ClusterConfig::default();
        assert_eq!(c.try_validate_array(512), Ok(()));
        assert!(matches!(
            c.try_validate_array(513),
            Err(ConfigError::LineWordsBelowChunk {
                line_words: 512,
                chunk_size: 513
            })
        ));
    }

    #[test]
    fn paper_defaults_are_encoded() {
        let c = CacheConfig::default();
        assert_eq!(c.low_watermark, 0.30);
        assert_eq!(c.high_watermark, 0.50);
        assert_eq!(DEFAULT_CHUNK_SIZE, 512);
    }
}
