//! Structured errors: fallible configuration validation ([`ConfigError`])
//! and graceful degradation of operations that target unreachable nodes
//! ([`DArrayError`]).

use std::fmt;
use std::net::SocketAddr;

use rdma_fabric::NodeId;

/// Errors surfaced by the fallible DArray operations (`try_get`, `try_set`,
/// `try_apply`, `try_update`, `try_rlock`, `try_wlock`, `try_pin`).
///
/// The infallible variants (`get` & co.) panic on these — appropriate for
/// workloads that assume a healthy cluster. Fault-tolerant applications use
/// the `try_` forms and handle degradation themselves.
/// How strongly the membership view believes a peer is gone, carried by
/// [`DArrayError::NodeUnavailable`] so callers can distinguish transient
/// suspicion (retry later; the peer may be re-admitted) from a
/// quorum-confirmed death (permanent; fail over now).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnavailableKind {
    /// Retries toward the node are exhausted but the quorum poll has not
    /// resolved; the suspicion may yet be refuted and the node re-admitted.
    Suspected,
    /// A quorum of the surviving nodes confirmed the death. Permanent for
    /// the lifetime of the cluster (fail-stop model).
    ConfirmedDead,
}

#[derive(Debug, Clone, PartialEq)]
pub enum DArrayError {
    /// The cluster configuration was rejected before bring-up (by
    /// `Cluster::try_new`), or transport bring-up itself failed. Carries
    /// the structured [`ConfigError`] so callers can match on the exact
    /// knob instead of parsing a panic message.
    Config(ConfigError),
    /// The home node of the requested element is unavailable according to
    /// this node's membership view: a reliable RPC to it exhausted
    /// `FaultConfig::max_retries` retransmissions, and (for
    /// [`UnavailableKind::ConfirmedDead`]) a quorum of the remaining nodes
    /// confirmed the death.
    NodeUnavailable {
        /// The unreachable node.
        node: NodeId,
        /// The observer's membership-view epoch at the time the error was
        /// built (number of deaths it had confirmed). Lets callers order
        /// errors against membership changes and discard stale ones.
        epoch: u64,
        /// Transient suspicion vs quorum-confirmed death.
        kind: UnavailableKind,
    },
    /// A runtime thread observed a coherence- or lock-protocol invariant
    /// violation (e.g. a lock grant arriving with no recorded waiter). The
    /// cluster is poisoned: the first diagnostic is recorded and every
    /// subsequent `try_*` call returns it, instead of aborting the process
    /// from inside a runtime thread.
    ProtocolInvariant {
        /// Human-readable diagnostic captured at the point of violation.
        message: String,
    },
}

impl From<ConfigError> for DArrayError {
    fn from(e: ConfigError) -> Self {
        DArrayError::Config(e)
    }
}

impl fmt::Display for DArrayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DArrayError::Config(e) => write!(f, "invalid ClusterConfig: {e}"),
            DArrayError::NodeUnavailable { node, epoch, kind } => match kind {
                UnavailableKind::Suspected => write!(
                    f,
                    "node {node} is unavailable (suspected, membership epoch {epoch}; \
                     quorum poll unresolved)"
                ),
                UnavailableKind::ConfirmedDead => write!(
                    f,
                    "node {node} is unavailable (death confirmed by quorum at \
                     membership epoch {epoch})"
                ),
            },
            DArrayError::ProtocolInvariant { message } => {
                write!(f, "protocol invariant violated: {message}")
            }
        }
    }
}

impl std::error::Error for DArrayError {}

/// Rejected [`crate::ClusterConfig`]s, from
/// [`crate::ClusterConfig::try_validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `nodes == 0`.
    NoNodes,
    /// `runtime_threads == 0`.
    NoRuntimeThreads,
    /// Fewer cachelines than runtime threads.
    CacheTooSmall {
        capacity_lines: usize,
        runtime_threads: usize,
    },
    /// Watermarks outside `[0, 1]` or `low > high`.
    BadWatermarks { low: f64, high: f64 },
    /// `cache.line_words == 0`: no array could ever be allocated.
    ZeroLineWords,
    /// An array's `chunk_size` exceeds the cacheline capacity
    /// (`cache.line_words`), so its chunks could never be cached.
    LineWordsBelowChunk {
        line_words: usize,
        chunk_size: usize,
    },
    /// `net.bytes_per_us == 0`: `NetConfig::tx_time` would divide by zero.
    ZeroBandwidth,
    /// `fault.rpc_timeout_ns == 0`: retransmit timers would fire instantly.
    ZeroRpcTimeout,
    /// `fault.max_retries == 0`: a single drop would suspect the peer.
    ZeroMaxRetries,
    /// `fault.lease_ns == 0`: every peer would look permanently silent and
    /// every suspicion would be confirmed instantly.
    ZeroLease,
    /// `fault.heartbeat_ns`, `fault.suspect_poll_ns` or
    /// `fault.suspect_poll_rounds` is zero: the membership timers would
    /// busy-spin or never resolve a suspicion.
    ZeroSuspectTimers,
    /// `fault.heartbeat_ns >= fault.lease_ns`: an idle link's lease would
    /// expire before its next heartbeat, making false suspicion routine.
    HeartbeatExceedsLease {
        heartbeat_ns: dsim::VTime,
        lease_ns: dsim::VTime,
    },
    /// `tcp.pump_threads == 0`: no event-loop thread would service the
    /// node's links, so no frame could ever leave or arrive.
    ZeroPumpThreads,
    /// `net.send_batch_max == 0`: no egress flush could ever carry a
    /// frame, so the doorbell ring would back up forever.
    ZeroSendBatch,
    /// `net.signal_interval == 0`: no posted frame would ever be signaled,
    /// so CQ-poll cost would never be charged and `completions` would stay
    /// 0.
    ZeroSignalInterval,
    /// The static TCP address map has the wrong number of entries.
    TransportAddrCount { expected: usize, got: usize },
    /// Two nodes in the static TCP address map share an address (port
    /// collision) — both listeners cannot bind.
    TransportAddrCollision { addr: SocketAddr },
    /// `transport` selects the TCP backend but the crate was built without
    /// the `tcp-transport` cargo feature.
    TcpFeatureDisabled,
    /// `transport` selects the TCP backend together with a non-benign
    /// `FaultPlan`: fault injection (drops, stalls, crashes, partitions)
    /// is a property of the simulated fabric and cannot be imposed on real
    /// OS sockets.
    TransportFaultInjection,
    /// Transport bring-up failed at the OS level (bind/connect/handshake).
    TransportBringUp { message: String },
    /// `durability.policy` is enabled but `durability.dir` is unset: there
    /// is nowhere to put the per-node logs.
    DurabilityDirMissing { policy: &'static str },
    /// Opening or replaying a node's durable chunk log failed at the OS
    /// level (create/read/seek/fsync).
    DurabilityBringUp { message: String },
    /// `initial_nodes` is set without `elastic`: a fixed-partition cluster
    /// has no join path, so spares could never become active.
    InitialNodesWithoutElastic,
    /// `initial_nodes` is zero or exceeds `nodes`: the active set must be a
    /// non-empty prefix of the configured nodes.
    BadInitialNodes { initial_nodes: usize, nodes: usize },
    /// The durability directory was written by an incarnation with a
    /// different `runtime_threads`: chunk→thread placement is part of the
    /// recovery contract, so the log cannot be replayed under this count.
    RuntimeThreadsChanged { recorded: usize, configured: usize },
    /// The durability directory was written by an incarnation with a
    /// different node count: the even partition (chunk→home placement) is
    /// part of the recovery contract, so replaying node `k`'s log into a
    /// differently-shaped cluster would rehome every recovered chunk.
    ClusterNodesChanged { recorded: usize, configured: usize },
    /// `durability.checkpoint_every_persists == Some(0)`: every persist
    /// would trigger a full-image checkpoint, turning each ack into a
    /// snapshot of the whole store.
    ZeroCheckpointInterval,
    /// `durability.checkpoint_every_persists` or `durability.compact` is
    /// set while `durability.policy` is `none`: there is no store to
    /// checkpoint or compact.
    CheckpointWithoutDurability,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoNodes => write!(f, "cluster needs at least one node"),
            ConfigError::NoRuntimeThreads => write!(f, "need at least one runtime thread"),
            ConfigError::CacheTooSmall {
                capacity_lines,
                runtime_threads,
            } => write!(
                f,
                "cache of {capacity_lines} lines cannot serve {runtime_threads} runtime \
                 threads: each runtime thread needs at least one cacheline"
            ),
            ConfigError::BadWatermarks { low, high } => write!(
                f,
                "watermarks must be fractions with low <= high (low={low}, high={high})"
            ),
            ConfigError::ZeroLineWords => write!(f, "cache.line_words must be nonzero"),
            ConfigError::LineWordsBelowChunk {
                line_words,
                chunk_size,
            } => write!(
                f,
                "array chunk_size {chunk_size} exceeds cacheline capacity {line_words}"
            ),
            ConfigError::ZeroBandwidth => write!(
                f,
                "net.bytes_per_us must be nonzero (tx_time would divide by zero)"
            ),
            ConfigError::ZeroRpcTimeout => write!(f, "fault.rpc_timeout_ns must be nonzero"),
            ConfigError::ZeroMaxRetries => write!(f, "fault.max_retries must be nonzero"),
            ConfigError::ZeroLease => write!(f, "fault.lease_ns must be nonzero"),
            ConfigError::ZeroSuspectTimers => write!(
                f,
                "fault.heartbeat_ns, fault.suspect_poll_ns and fault.suspect_poll_rounds \
                 must all be nonzero"
            ),
            ConfigError::HeartbeatExceedsLease {
                heartbeat_ns,
                lease_ns,
            } => write!(
                f,
                "fault.heartbeat_ns ({heartbeat_ns}) must be below fault.lease_ns \
                 ({lease_ns}) or idle leases expire between heartbeats"
            ),
            ConfigError::ZeroPumpThreads => write!(f, "tcp.pump_threads must be nonzero"),
            ConfigError::ZeroSendBatch => write!(f, "net.send_batch_max must be nonzero"),
            ConfigError::ZeroSignalInterval => write!(f, "net.signal_interval must be nonzero"),
            ConfigError::TransportAddrCount { expected, got } => write!(
                f,
                "tcp.addrs must list one address per node ({expected} nodes, {got} addresses)"
            ),
            ConfigError::TransportAddrCollision { addr } => write!(
                f,
                "tcp.addrs entry {addr} is assigned to more than one node (port collision)"
            ),
            ConfigError::TcpFeatureDisabled => write!(
                f,
                "transport = Tcp requires building with the tcp-transport cargo feature"
            ),
            ConfigError::TransportFaultInjection => write!(
                f,
                "transport = Tcp cannot run a non-benign FaultPlan: fault injection \
                 is a property of the simulated fabric"
            ),
            ConfigError::TransportBringUp { message } => {
                write!(f, "transport bring-up failed: {message}")
            }
            ConfigError::DurabilityDirMissing { policy } => write!(
                f,
                "durability.policy = {policy} requires durability.dir to locate the \
                 per-node chunk logs"
            ),
            ConfigError::DurabilityBringUp { message } => {
                write!(f, "durable chunk store bring-up failed: {message}")
            }
            ConfigError::InitialNodesWithoutElastic => write!(
                f,
                "initial_nodes requires elastic: without a join path, spare \
                 nodes could never become active"
            ),
            ConfigError::BadInitialNodes {
                initial_nodes,
                nodes,
            } => write!(
                f,
                "initial_nodes ({initial_nodes}) must be in 1..={nodes}: the active \
                 set is a non-empty prefix of the configured nodes"
            ),
            ConfigError::RuntimeThreadsChanged {
                recorded,
                configured,
            } => write!(
                f,
                "durability.dir was written by an incarnation with runtime_threads = \
                 {recorded}, but this configuration sets {configured}; chunk placement \
                 is part of the recovery contract, so reuse the recorded count or a \
                 fresh directory"
            ),
            ConfigError::ClusterNodesChanged {
                recorded,
                configured,
            } => write!(
                f,
                "durability.dir was written by an incarnation with nodes = {recorded}, \
                 but this configuration sets {configured}; the even partition is part \
                 of the recovery contract, so reuse the recorded node count or a fresh \
                 directory"
            ),
            ConfigError::ZeroCheckpointInterval => write!(
                f,
                "durability.checkpoint_every_persists must be nonzero: a zero interval \
                 would snapshot the whole store on every persisted ack"
            ),
            ConfigError::CheckpointWithoutDurability => write!(
                f,
                "durability.checkpoint_every_persists / durability.compact require a \
                 durable durability.policy: with policy = none there is no store to \
                 checkpoint or compact"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_field() {
        assert!(ConfigError::ZeroBandwidth
            .to_string()
            .contains("bytes_per_us"));
        assert!(ConfigError::NoNodes
            .to_string()
            .contains("at least one node"));
        assert!(ConfigError::BadWatermarks {
            low: 0.9,
            high: 0.1
        }
        .to_string()
        .contains("watermark"));
        let e = DArrayError::NodeUnavailable {
            node: 3,
            epoch: 2,
            kind: UnavailableKind::ConfirmedDead,
        };
        let s = e.to_string();
        assert!(s.contains("node 3"));
        assert!(s.contains("epoch 2"), "membership epoch surfaced: {s}");
        assert!(s.contains("quorum"), "confirmation source surfaced: {s}");
        let e = DArrayError::NodeUnavailable {
            node: 1,
            epoch: 0,
            kind: UnavailableKind::Suspected,
        };
        let s = e.to_string();
        assert!(s.contains("suspected"), "suspicion distinguishable: {s}");
        let e = DArrayError::ProtocolInvariant {
            message: "LockGrant with no registered waiter".to_string(),
        };
        let s = e.to_string();
        assert!(s.contains("protocol invariant violated"));
        assert!(s.contains("no registered waiter"), "diagnostic preserved");
    }

    #[test]
    fn transport_errors_name_the_knob() {
        assert!(ConfigError::ZeroPumpThreads
            .to_string()
            .contains("pump_threads"));
        assert!(ConfigError::ZeroSignalInterval
            .to_string()
            .contains("signal_interval"));
        assert!(ConfigError::TransportAddrCount {
            expected: 3,
            got: 2
        }
        .to_string()
        .contains("3 nodes"));
        assert!(ConfigError::TransportAddrCollision {
            addr: "127.0.0.1:9000".parse().unwrap()
        }
        .to_string()
        .contains("127.0.0.1:9000"));
        assert!(ConfigError::TcpFeatureDisabled
            .to_string()
            .contains("tcp-transport"));
        assert!(ConfigError::TransportFaultInjection
            .to_string()
            .contains("FaultPlan"));
        assert!(ConfigError::DurabilityDirMissing {
            policy: "writeback"
        }
        .to_string()
        .contains("durability.dir"));
        assert!(ConfigError::DurabilityBringUp {
            message: "permission denied".to_string()
        }
        .to_string()
        .contains("permission denied"));
        let s = ConfigError::ClusterNodesChanged {
            recorded: 3,
            configured: 5,
        }
        .to_string();
        assert!(s.contains("nodes = 3"), "recorded count surfaced: {s}");
        assert!(s.contains('5'), "configured count surfaced: {s}");
        assert!(ConfigError::ZeroCheckpointInterval
            .to_string()
            .contains("checkpoint_every_persists"));
        assert!(ConfigError::CheckpointWithoutDurability
            .to_string()
            .contains("durability.policy"));
        let e = DArrayError::Config(ConfigError::ZeroPumpThreads);
        assert!(e.to_string().contains("invalid ClusterConfig"));
        assert_eq!(
            DArrayError::from(ConfigError::ZeroPumpThreads),
            DArrayError::Config(ConfigError::ZeroPumpThreads)
        );
    }
}
