//! Per-node runtime statistics, declared once in a single counter table.
//!
//! Every counter is one row of the `stat_table!` invocation below: its
//! name, its [`StatClass`], how per-node values combine into a cluster
//! total (`Sum`, or `Max` for gauges) and its doc string. The table
//! generates [`NodeStats`] (the atomics the runtime bumps),
//! [`NodeStatsSnapshot`] (a plain copy of every row),
//! [`NodeStats::snapshot`] with its transport/store overlay,
//! [`NodeStatsSnapshot::merge`] and [`NodeStatsSnapshot::rows`]. Row order
//! is the key order of a `BENCH_*.json` protocol-traffic section.
//!
//! Adding a counter takes one table row plus the line that bumps it
//! (`NodeStats::bump(&stats.my_counter)`). Its class decides the rest:
//! whether a BENCH section writes it, which `protocol_diff` band it is
//! diffed under, and whether the Sim-vs-TCP parity suite compares it.

use std::sync::atomic::{AtomicU64, Ordering};

use rdma_fabric::TransportStats;

use crate::store::StoreStats;

/// Where a counter comes from and how the BENCH tooling treats it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatClass {
    /// Bumped in [`NodeStats`]; node-local bookkeeping, not written to
    /// BENCH sections.
    Local,
    /// Bumped in [`NodeStats`]; written to BENCH sections and diffed
    /// exactly.
    Protocol,
    /// Copied from the same-named [`TransportStats`] field; written to
    /// BENCH sections and diffed under the symmetric transport band
    /// (backend framing and batching make it backend-specific).
    Transport,
    /// Copied from the same-named [`StoreStats`] field; written to BENCH
    /// sections and diffed exactly.
    Store,
}

impl StatClass {
    /// The class of the counter called `name`, if there is one.
    pub fn of(name: &str) -> Option<StatClass> {
        NodeStatsSnapshot::default()
            .rows()
            .find(|&(n, _, _)| n == name)
            .map(|(_, class, _)| class)
    }
}

/// Builds [`NodeStats`] from the `Local` and `Protocol` rows only: the
/// transport and store rows live in their own backends.
macro_rules! node_stats_struct {
    ([$($fields:tt)*]) => {
        /// Monotonic counters describing one node's DArray activity. All
        /// fields are cheap relaxed atomics; copy them out with
        /// [`NodeStats::snapshot`].
        #[derive(Debug, Default)]
        pub struct NodeStats {
            $($fields)*
        }
    };
    ([$($fields:tt)*] $(#[doc = $doc:literal])* $name:ident: Transport; $($rest:tt)*) => {
        node_stats_struct!([$($fields)*] $($rest)*);
    };
    ([$($fields:tt)*] $(#[doc = $doc:literal])* $name:ident: Store; $($rest:tt)*) => {
        node_stats_struct!([$($fields)*] $($rest)*);
    };
    ([$($fields:tt)*] $(#[doc = $doc:literal])* $name:ident: $class:ident; $($rest:tt)*) => {
        node_stats_struct!([$($fields)* $(#[doc = $doc])* pub $name: AtomicU64,] $($rest)*);
    };
}

/// One snapshot field, read from where its class says the value lives.
macro_rules! stat_source {
    (Transport, $stats:expr, $transport:expr, $store:expr, $name:ident) => {
        $transport.$name
    };
    (Store, $stats:expr, $transport:expr, $store:expr, $name:ident) => {
        $store.map_or(0, |st| st.$name)
    };
    ($class:ident, $stats:expr, $transport:expr, $store:expr, $name:ident) => {
        $stats.$name.load(Ordering::Relaxed)
    };
}

/// Fold one node's value into a cluster total.
macro_rules! stat_merge {
    (Sum, $total:expr, $node:expr) => {
        $total += $node
    };
    (Max, $total:expr, $node:expr) => {
        $total = $total.max($node)
    };
}

macro_rules! stat_table {
    ($($(#[doc = $doc:literal])* $name:ident: $class:ident, $agg:ident;)*) => {
        node_stats_struct!([] $($(#[doc = $doc])* $name: $class;)*);

        /// Point-in-time copy of one node's counters: every table row,
        /// including the transport and store rows, which are zero unless
        /// the snapshot was taken with their backend stats (as
        /// `Cluster::stats` does).
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct NodeStatsSnapshot {
            $($(#[doc = $doc])* pub $name: u64,)*
        }

        impl NodeStats {
            /// Copy out all counters, taking the `Transport` rows from
            /// `transport` and the `Store` rows from `store` (zero when the
            /// node has no chunk store).
            pub fn snapshot(
                &self,
                transport: &TransportStats,
                store: Option<&StoreStats>,
            ) -> NodeStatsSnapshot {
                NodeStatsSnapshot {
                    $($name: stat_source!($class, self, transport, store, $name),)*
                }
            }
        }

        impl NodeStatsSnapshot {
            /// Fold another node's counters into this cluster total: `Sum`
            /// rows add, `Max` rows (gauges) keep the larger value.
            pub fn merge(&mut self, other: &Self) {
                $(stat_merge!($agg, self.$name, other.$name);)*
            }

            /// A snapshot with every row set to `value(name)`.
            pub fn from_fn(mut value: impl FnMut(&'static str) -> u64) -> Self {
                Self {
                    $($name: value(stringify!($name)),)*
                }
            }

            /// Every counter as `(name, class, value)`, in table order.
            pub fn rows(&self) -> impl Iterator<Item = (&'static str, StatClass, u64)> {
                [$((stringify!($name), StatClass::$class, self.$name),)*].into_iter()
            }
        }
    };
}

stat_table! {
    /// Fast-path accesses that succeeded immediately.
    fast_hits: Local, Sum;
    /// Slow-path requests submitted to the runtime.
    slow_misses: Local, Sum;
    /// Protocol messages handled by runtime threads.
    rpcs_handled: Local, Sum;
    /// Local requests handled by runtime threads.
    local_handled: Local, Sum;
    /// Operator applications combined locally (Operated state).
    local_combines: Local, Sum;
    /// Lock acquisitions granted by this node's lock tables.
    locks_granted: Local, Sum;
    /// Prefetch fills issued.
    prefetches: Local, Sum;
    /// Reliable-RPC timeout expirations (each triggers a retransmit or, at
    /// the retry limit, a peer-down declaration). Zero unless
    /// `ClusterConfig::fault` is set.
    rpc_timeouts: Local, Sum;
    /// Reliable-RPC retransmissions posted.
    retransmits: Local, Sum;
    /// Duplicate RPCs suppressed at the Rx/runtime boundary.
    dup_rpcs: Local, Sum;
    /// Peers this node declared down after exhausting retries.
    peers_down: Local, Sum;

    /// Cache fills completed (read, write or operate grants).
    fills: Protocol, Sum;
    /// Invalidations performed on this node's copies.
    invalidations: Protocol, Sum;
    /// Recall/downgrade messages honored by this node (home pulled back a
    /// dirty or operated copy we held).
    recalls: Protocol, Sum;
    /// Dirty writebacks sent (voluntary or recalled).
    writebacks: Protocol, Sum;
    /// Operand flushes sent (voluntary or recalled).
    operand_flushes: Protocol, Sum;
    /// Operand flushes *reduced into* this node's home subarray (each is one
    /// remote node's combined Operated contribution).
    operated_reductions: Protocol, Sum;
    /// Cachelines evicted by the reclamation scan.
    evictions: Protocol, Sum;
    /// Protocol state transitions executed by this node's machines (home
    /// directory + local cache), as emitted by `protocol::Transition`.
    transitions: Protocol, Sum;
    /// Dead peers pruned from directory sharer sets and transient wait
    /// sets during peer-down recovery.
    sharers_pruned: Protocol, Sum;
    /// Operated epochs this node's directory machines closed by abort
    /// because a contributor died before flushing its operands.
    epochs_aborted: Protocol, Sum;
    /// Locks held by (or granted to) dead peers that this node's lock
    /// tables reclaimed during peer-down recovery.
    orphaned_locks_reclaimed: Protocol, Sum;
    /// Peers this node moved to *Suspected* after exhausting retries
    /// (includes suspicions resolved instantly by a fresh incoming lease).
    suspicions: Protocol, Sum;
    /// Suspicions refuted — by a quorum vote naming the peer alive, or by
    /// the suspect's own traffic refreshing its lease — after which the
    /// peer was re-admitted and its parked traffic replayed.
    refutations: Protocol, Sum;
    /// Suspicions a quorum promoted to confirmed deaths. Always equal to
    /// `peers_down` (kept separate so the membership ledger — suspicions =
    /// refutations + confirmed + pending — balances on its own terms).
    confirmed_deaths: Protocol, Sum;
    /// Gauge (not a counter): this node's current membership-view epoch,
    /// i.e. the number of deaths it has confirmed so far.
    membership_epoch: Protocol, Max;
    /// Dirty-chunk flushes persisted to the durable chunk store before the
    /// protocol acknowledged them (persist-before-ack, DESIGN.md §14).
    /// Zero unless a durability policy is configured.
    flush_persists: Protocol, Sum;
    /// Log records replayed when this node's durable chunk store was
    /// opened (includes superseded records of re-persisted chunks).
    log_replays: Protocol, Sum;
    /// Distinct chunk images recovered from the durable log at bring-up
    /// (latest epoch per chunk) and overlaid onto home subarrays.
    recovered_chunks: Protocol, Sum;
    /// Bytes currently held by this node's durable chunk log (header plus
    /// framed records, including the not-yet-compacted suffix). Zero under
    /// `durability.policy = none`.
    log_bytes: Store, Sum;
    /// Bytes of this node's newest durable checkpoint sidecar (0 before
    /// the first checkpoint).
    checkpoint_bytes: Store, Sum;
    /// Checkpoints taken by this node's chunk store (periodic trigger plus
    /// explicit `Cluster::checkpoint_all` calls).
    compactions: Store, Sum;
    /// Log records dropped by compaction — the prefix covered by a
    /// checkpoint generation and truncated from the log.
    truncated_records: Store, Sum;
    /// Chunks this node handed to a new home: migrations that committed and
    /// departed (DESIGN.md §15). Zero outside elastic mode.
    migrations_out: Protocol, Sum;
    /// Chunk migrations that landed here: this node adopted the chunk as
    /// its new authoritative home.
    migrations_in: Protocol, Sum;
    /// Requests parked behind a migration fence and later replayed —
    /// forwarded to the new home or re-serviced once the fence lifted.
    parked_replays: Protocol, Sum;
    /// Bytes this node's transport handed to the wire (payload plus backend
    /// framing).
    bytes_tx: Transport, Sum;
    /// Bytes this node's transport received from the wire.
    bytes_rx: Transport, Sum;
    /// Frames (SENDs plus one-sided WRITEs) this node's transport posted.
    frames: Transport, Sum;
    /// Completion events the transport observed for posted work.
    completions: Transport, Sum;
    /// Egress flushes the transport committed (doorbell rings; always
    /// `frames == tx_flushes + frames_coalesced`).
    tx_flushes: Transport, Sum;
    /// Flushes that carried two or more frames (one doorbell amortized
    /// over a batch).
    doorbell_batches: Transport, Sum;
    /// Frames that rode an already-open batch instead of ringing their
    /// own doorbell.
    frames_coalesced: Transport, Sum;
    /// Gauge: high-water mark of the per-link egress ring, in frames.
    ring_hwm: Transport, Max;
}

impl NodeStats {
    #[inline]
    pub(crate) fn bump(field: &AtomicU64) {
        field.fetch_add(1, Ordering::Relaxed);
    }

    /// Raise a gauge-style field to `v` (monotone; used for
    /// `membership_epoch`, which tracks a level rather than a count).
    #[inline]
    pub(crate) fn raise(field: &AtomicU64, v: u64) {
        field.fetch_max(v, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bare(s: &NodeStats) -> NodeStatsSnapshot {
        s.snapshot(&TransportStats::default(), None)
    }

    #[test]
    fn counters_start_zero_and_bump() {
        let s = NodeStats::default();
        assert_eq!(bare(&s), NodeStatsSnapshot::default());
        NodeStats::bump(&s.fast_hits);
        NodeStats::bump(&s.fast_hits);
        NodeStats::bump(&s.evictions);
        let snap = bare(&s);
        assert_eq!(snap.fast_hits, 2);
        assert_eq!(snap.evictions, 1);
        assert_eq!(snap.fills, 0);
    }

    #[test]
    fn snapshot_overlays_transport_and_store_rows() {
        let s = NodeStats::default();
        NodeStats::bump(&s.fills);
        let t = TransportStats {
            frames: 7,
            ring_hwm: 3,
            ..Default::default()
        };
        let st = StoreStats {
            log_bytes: 64,
            // Not a row of its own: `recovered_chunks` is bumped by the
            // runtime, so the store's figure must not leak in.
            recovered_chunks: 9,
            ..Default::default()
        };
        let snap = s.snapshot(&t, Some(&st));
        assert_eq!((snap.fills, snap.frames, snap.ring_hwm), (1, 7, 3));
        assert_eq!((snap.log_bytes, snap.recovered_chunks), (64, 0));
        assert_eq!(s.snapshot(&t, None).log_bytes, 0);
    }

    #[test]
    fn merge_sums_counters_and_maxes_gauges() {
        let a = NodeStatsSnapshot {
            fills: 2,
            membership_epoch: 3,
            ring_hwm: 5,
            ..Default::default()
        };
        let b = NodeStatsSnapshot {
            fills: 4,
            membership_epoch: 1,
            ring_hwm: 9,
            ..Default::default()
        };
        let mut total = a;
        total.merge(&b);
        assert_eq!(total.fills, 6);
        assert_eq!(total.membership_epoch, 3);
        assert_eq!(total.ring_hwm, 9);
    }

    #[test]
    fn class_lookup_by_name() {
        assert_eq!(StatClass::of("fast_hits"), Some(StatClass::Local));
        assert_eq!(StatClass::of("log_bytes"), Some(StatClass::Store));
        assert_eq!(StatClass::of("frames"), Some(StatClass::Transport));
        assert_eq!(StatClass::of("no_such_counter"), None);
    }
}
