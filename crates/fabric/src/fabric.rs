//! The fabric itself: per-node NICs, directed links with FIFO (RC queue
//! pair) ordering, verbs, and statistics.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use dsim::{Ctx, Mailbox, Rng, VTime};
use parking_lot::Mutex;

use crate::fault::FaultPlan;
use crate::net::NetConfig;
use crate::region::MemoryRegion;
use crate::NodeId;

/// Per-NIC verb counters (all monotonically increasing).
#[derive(Debug, Default)]
pub struct NicStats {
    /// Two-sided SEND verbs posted.
    pub sends: AtomicU64,
    /// Bytes carried by SEND verbs (header + payload).
    pub send_bytes: AtomicU64,
    /// One-sided WRITE verbs posted.
    pub writes: AtomicU64,
    /// Bytes carried by WRITE verbs.
    pub write_bytes: AtomicU64,
    /// One-sided READ verbs posted.
    pub reads: AtomicU64,
    /// Bytes returned by READ verbs.
    pub read_bytes: AtomicU64,
    /// Signaled completions polled (selective signaling reduces these).
    pub signaled: AtomicU64,
    /// Verbs discarded by fault injection (drops + crash discards).
    pub faulted_drops: AtomicU64,
    /// NIC stall windows entered by fault injection.
    pub faulted_stalls: AtomicU64,
}

/// Snapshot of [`NicStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NicStatsSnapshot {
    pub sends: u64,
    pub send_bytes: u64,
    pub writes: u64,
    pub write_bytes: u64,
    pub reads: u64,
    pub read_bytes: u64,
    pub signaled: u64,
    pub faulted_drops: u64,
    pub faulted_stalls: u64,
}

/// Per-NIC fault-injection state, present only on fabrics built with
/// [`Fabric::with_faults`]. All decisions draw from this NIC's private
/// seeded stream, so the schedule is replayable from the plan alone.
struct FaultState {
    plan: FaultPlan,
    /// This NIC's decorrelated RNG stream (`root.fork(node)`).
    rng: Mutex<Rng>,
    /// The NIC transmits nothing before this time (stall window).
    stall_until: Mutex<VTime>,
    /// Crash times of every node in the fabric, by node id.
    crash_of: Arc<Vec<Option<VTime>>>,
    /// Per-destination QP-error latch: raised when a verb toward that
    /// destination is discarded (the completion-with-error a real RC QP
    /// would report). Sticky until [`Nic::clear_link_error`].
    link_error: Vec<AtomicBool>,
}

impl FaultState {
    fn node_crashed(&self, node: NodeId, now: VTime) -> bool {
        matches!(self.crash_of[node], Some(t) if now >= t)
    }
}

struct Link {
    /// Virtual time at which the link is next free to begin a transmission.
    /// Monotone, which gives per-link FIFO delivery (RC ordering).
    next_free: Mutex<VTime>,
}

/// One simulated RNIC. `M` is the protocol-message payload type delivered
/// through two-sided verbs into the node's receive mailbox.
pub struct Nic<M> {
    node: NodeId,
    pub(crate) cfg: NetConfig,
    /// Outgoing link state, indexed by destination node.
    links: Vec<Link>,
    /// Receive mailboxes of every node in the fabric (including our own).
    rx_of: Vec<Mailbox<(NodeId, M)>>,
    /// Work requests posted since the last signaled completion.
    posted: AtomicU64,
    stats: NicStats,
    /// Fault-injection state; `None` on fault-free fabrics (the fast path
    /// is then bit-identical to a build without fault support).
    fault: Option<FaultState>,
}

impl<M: Send + 'static> Nic<M> {
    /// This NIC's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The receive mailbox protocol messages arrive on.
    pub fn rx(&self) -> Mailbox<(NodeId, M)> {
        self.rx_of[self.node].clone()
    }

    /// Snapshot the verb counters.
    pub fn stats(&self) -> NicStatsSnapshot {
        NicStatsSnapshot {
            sends: self.stats.sends.load(Ordering::Relaxed),
            send_bytes: self.stats.send_bytes.load(Ordering::Relaxed),
            writes: self.stats.writes.load(Ordering::Relaxed),
            write_bytes: self.stats.write_bytes.load(Ordering::Relaxed),
            reads: self.stats.reads.load(Ordering::Relaxed),
            read_bytes: self.stats.read_bytes.load(Ordering::Relaxed),
            signaled: self.stats.signaled.load(Ordering::Relaxed),
            faulted_drops: self.stats.faulted_drops.load(Ordering::Relaxed),
            faulted_stalls: self.stats.faulted_stalls.load(Ordering::Relaxed),
        }
    }

    /// True when the outgoing link to `dst` is still serializing earlier
    /// posted work at virtual time `now`. Pure observation (no link state
    /// is touched): the transport layer uses it to decide whether a newly
    /// posted frame joins the in-flight doorbell batch or opens a new one.
    pub fn link_busy(&self, dst: NodeId, now: VTime) -> bool {
        *self.links[dst].next_free.lock() > now
    }

    /// Crash time scheduled for this node, if the fabric carries a fault
    /// plan that crashes it.
    pub fn crash_time(&self) -> Option<VTime> {
        self.fault.as_ref().and_then(|f| f.crash_of[self.node])
    }

    /// Crash time scheduled for `peer` under this fabric's fault plan.
    pub fn peer_crash_time(&self, peer: NodeId) -> Option<VTime> {
        self.fault.as_ref().and_then(|f| f.crash_of[peer])
    }

    /// True once `node` has halted (its crash time has passed `now`).
    pub fn node_crashed(&self, node: NodeId, now: VTime) -> bool {
        self.fault
            .as_ref()
            .is_some_and(|f| f.node_crashed(node, now))
    }

    /// QP-error latch toward `dst`: set when fault injection discarded a
    /// verb on that link (the completion-with-error a real RC QP reports).
    pub fn link_error(&self, dst: NodeId) -> bool {
        self.fault
            .as_ref()
            .is_some_and(|f| f.link_error[dst].load(Ordering::Relaxed))
    }

    /// Clear the QP-error latch toward `dst` (QP reset).
    pub fn clear_link_error(&self, dst: NodeId) {
        if let Some(f) = &self.fault {
            f.link_error[dst].store(false, Ordering::Relaxed);
        }
    }

    /// Charge the posting cost and, per selective signaling, occasionally a
    /// completion-poll cost. Returns nothing; time is charged to `ctx`.
    fn charge_post(&self, ctx: &mut Ctx) {
        ctx.charge(self.cfg.post_overhead_ns);
        let n = self.posted.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(self.cfg.signal_interval) {
            ctx.charge(self.cfg.cq_poll_ns);
            self.stats.signaled.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Claim the outgoing link to `dst` for a `bytes`-byte transmission
    /// starting no earlier than `earliest`, with `extra` ns of additional
    /// serialization (fault jitter); returns the arrival (delivery) time at
    /// the destination. The link's busy window absorbs `extra`, keeping
    /// per-link delivery monotone (RC FIFO) even under jitter.
    fn claim_link_at(&self, dst: NodeId, bytes: u64, earliest: VTime, extra: VTime) -> VTime {
        let mut nf = self.links[dst].next_free.lock();
        let start = (*nf).max(earliest);
        let done = start + self.cfg.tx_time(bytes) + extra;
        *nf = done;
        done + self.cfg.prop_latency_ns
    }

    /// Claim the outgoing link to `dst` for a `bytes`-byte transmission
    /// starting no earlier than the caller's current time; returns the
    /// arrival (delivery) time at the destination.
    fn claim_link(&self, ctx: &Ctx, dst: NodeId, bytes: u64) -> VTime {
        self.claim_link_at(dst, bytes, ctx.now(), 0)
    }

    /// Run a remote verb through fault injection and link claiming.
    /// Returns the delivery time, or `None` if the verb was discarded
    /// (random drop with `droppable`, or either endpoint crashed).
    fn tx_arrival(&self, ctx: &Ctx, dst: NodeId, bytes: u64, droppable: bool) -> Option<VTime> {
        let Some(f) = &self.fault else {
            return Some(self.claim_link(ctx, dst, bytes));
        };
        // Loopback traffic (e.g. a node's own Halt teardown message) never
        // crosses the wire; it is exempt from injection even after a crash.
        if dst == self.node {
            return Some(self.claim_link(ctx, dst, bytes));
        }
        let now = ctx.now();
        if f.node_crashed(self.node, now) || f.node_crashed(dst, now) {
            self.stats.faulted_drops.fetch_add(1, Ordering::Relaxed);
            f.link_error[dst].store(true, Ordering::Relaxed);
            return None;
        }
        // Partitions are deterministic (no RNG draw) and, like random
        // drops, sever only two-sided SENDs: one-sided WRITEs always land,
        // so a retransmitted or replayed WRITE+SEND pair stays idempotent.
        if droppable && f.plan.partitioned(self.node, dst, now) {
            self.stats.faulted_drops.fetch_add(1, Ordering::Relaxed);
            f.link_error[dst].store(true, Ordering::Relaxed);
            return None;
        }
        // Draw order is fixed (stall trial, stall duration, jitter, drop
        // trial, then an asymmetric-loss trial only for SENDs matching a
        // rule) so a plan replays identically regardless of which fault
        // classes are enabled elsewhere in the run.
        let mut rng = f.rng.lock();
        let mut earliest = now;
        if f.plan.stall_ppm > 0 && rng.chance_ppm(f.plan.stall_ppm) {
            let (lo, hi) = f.plan.stall_ns;
            let dur = rng.range(lo, hi.max(lo) + 1);
            let mut su = f.stall_until.lock();
            *su = (*su).max(now + dur);
            self.stats.faulted_stalls.fetch_add(1, Ordering::Relaxed);
        }
        earliest = earliest.max(*f.stall_until.lock());
        let jitter = if f.plan.jitter_ns > 0 {
            rng.range(0, f.plan.jitter_ns + 1)
        } else {
            0
        };
        let mut dropped = droppable && f.plan.drop_ppm > 0 && rng.chance_ppm(f.plan.drop_ppm);
        if droppable && !dropped {
            let asym_ppm = f.plan.asym_drop_ppm(self.node, dst, now);
            dropped = asym_ppm > 0 && rng.chance_ppm(asym_ppm);
        }
        drop(rng);
        // A dropped SEND still serialized on the wire; the receiver NIC
        // discarded it. Claim the link, then discard.
        let arrive = self.claim_link_at(dst, bytes, earliest, jitter);
        if dropped {
            self.stats.faulted_drops.fetch_add(1, Ordering::Relaxed);
            f.link_error[dst].store(true, Ordering::Relaxed);
            return None;
        }
        Some(arrive)
    }

    /// Two-sided SEND: deliver `msg` into `dst`'s receive mailbox.
    /// `payload_bytes` is the message body size (a header is added).
    /// Under fault injection the message may be silently discarded (QP
    /// error latched on the link); see [`crate::FaultPlan`].
    pub fn send(&self, ctx: &mut Ctx, dst: NodeId, msg: M, payload_bytes: u64) {
        self.charge_post(ctx);
        let bytes = self.cfg.header_bytes + payload_bytes;
        self.stats.sends.fetch_add(1, Ordering::Relaxed);
        self.stats.send_bytes.fetch_add(bytes, Ordering::Relaxed);
        let Some(arrive) = self.tx_arrival(ctx, dst, bytes, true) else {
            return;
        };
        self.rx_of[dst].send_at(ctx, (self.node, msg), arrive);
    }

    /// One-sided RDMA WRITE of `data` into `region` at word `offset`. The
    /// copy is performed by the destination NIC's DMA engine at the delivery
    /// time; the remote CPU is not involved. Returns the delivery time.
    pub fn rdma_write(
        &self,
        ctx: &mut Ctx,
        dst: NodeId,
        region: &MemoryRegion,
        offset: usize,
        data: Vec<u64>,
    ) -> VTime {
        self.charge_post(ctx);
        let bytes = self.cfg.header_bytes + data.len() as u64 * 8;
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        self.stats.write_bytes.fetch_add(bytes, Ordering::Relaxed);
        // WRITEs are exempt from random drops (droppable = false) so a
        // retransmitted WRITE+SEND pair is idempotent, but a crashed
        // endpoint discards them like any other verb.
        let Some(arrive) = self.tx_arrival(ctx, dst, bytes, false) else {
            return ctx.now();
        };
        let region = region.clone();
        ctx.schedule_fn(arrive, move || {
            region.write_slice(offset, &data);
        });
        arrive
    }

    /// One-sided RDMA FETCH_ADD on an 8-byte word of `region` (owned by
    /// `dst`): atomically adds `delta` at the remote NIC and returns the
    /// previous value after a full round trip. (DArray itself does not use
    /// RDMA atomics — its Operate interface subsumes them — but they are
    /// part of the verb surface and useful to alternative designs.)
    pub fn rdma_fetch_add(
        &self,
        ctx: &mut Ctx,
        dst: NodeId,
        region: &MemoryRegion,
        offset: usize,
        delta: u64,
    ) -> u64 {
        self.charge_post(ctx);
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        let req_arrive = self.claim_link(ctx, dst, self.cfg.header_bytes + 8);
        let done = req_arrive + self.cfg.tx_time(8) + self.cfg.prop_latency_ns;
        let buf = Arc::new(Mutex::new(0u64));
        let region = region.clone();
        let b2 = buf.clone();
        ctx.schedule_fn(req_arrive, move || {
            // The remote NIC performs the atomic at request arrival.
            loop {
                let cur = region.load(offset);
                if region
                    .compare_exchange(offset, cur, cur.wrapping_add(delta))
                    .is_ok()
                {
                    *b2.lock() = cur;
                    break;
                }
            }
        });
        let oneshot: Mailbox<()> = Mailbox::new("rdma-fadd");
        oneshot.send_at(ctx, (), done);
        oneshot.recv(ctx);
        let v = *buf.lock();
        v
    }

    /// One-sided RDMA CMP_SWAP on an 8-byte word: atomically replaces the
    /// value with `new` if it equals `expect`; returns the previous value
    /// after a full round trip.
    pub fn rdma_compare_swap(
        &self,
        ctx: &mut Ctx,
        dst: NodeId,
        region: &MemoryRegion,
        offset: usize,
        expect: u64,
        new: u64,
    ) -> u64 {
        self.charge_post(ctx);
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        let req_arrive = self.claim_link(ctx, dst, self.cfg.header_bytes + 16);
        let done = req_arrive + self.cfg.tx_time(8) + self.cfg.prop_latency_ns;
        let buf = Arc::new(Mutex::new(0u64));
        let region = region.clone();
        let b2 = buf.clone();
        ctx.schedule_fn(req_arrive, move || {
            let prev = match region.compare_exchange(offset, expect, new) {
                Ok(p) => p,
                Err(p) => p,
            };
            *b2.lock() = prev;
        });
        let oneshot: Mailbox<()> = Mailbox::new("rdma-cas");
        oneshot.send_at(ctx, (), done);
        oneshot.recv(ctx);
        let v = *buf.lock();
        v
    }

    /// Blocking one-sided RDMA READ of `len` words from `region` (owned by
    /// `dst`) at word `offset`. The memory snapshot is taken at the request's
    /// arrival at the remote NIC; the caller resumes at the full round-trip
    /// time (≈ 2 µs with default [`NetConfig`]). This is BCL's remote access
    /// primitive.
    pub fn rdma_read(
        &self,
        ctx: &mut Ctx,
        dst: NodeId,
        region: &MemoryRegion,
        offset: usize,
        len: usize,
    ) -> Vec<u64> {
        self.charge_post(ctx);
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        self.stats
            .read_bytes
            .fetch_add(len as u64 * 8, Ordering::Relaxed);
        // Request leg: header only.
        let req_arrive = self.claim_link(ctx, dst, self.cfg.header_bytes);
        // Reply leg: data payload. We do not model contention on the
        // dst->src link for READ replies (the reply is NIC-generated and its
        // serialization window is unknowable at post time); propagation and
        // transmission time are charged.
        let done = req_arrive + self.cfg.tx_time(len as u64 * 8) + self.cfg.prop_latency_ns;
        let buf = Arc::new(Mutex::new(Vec::new()));
        let region = region.clone();
        let b2 = buf.clone();
        ctx.schedule_fn(req_arrive, move || {
            *b2.lock() = region.read_vec(offset, len);
        });
        let oneshot: Mailbox<()> = Mailbox::new("rdma-read");
        oneshot.send_at(ctx, (), done);
        oneshot.recv(ctx);
        let v = std::mem::take(&mut *buf.lock());
        debug_assert_eq!(v.len(), len);
        v
    }
}

/// The whole interconnect: `n` NICs with a full mesh of directed links.
pub struct Fabric<M> {
    nics: Vec<Arc<Nic<M>>>,
    cfg: NetConfig,
}

impl<M: Send + 'static> Fabric<M> {
    /// Build a fabric of `n` nodes.
    pub fn new(n: usize, cfg: NetConfig) -> Self {
        Self::build(n, cfg, None)
    }

    /// Build a fabric of `n` nodes with deterministic fault injection.
    /// Every NIC draws from its own stream forked off `plan.seed`, so the
    /// whole fault schedule replays from the plan alone.
    pub fn with_faults(n: usize, cfg: NetConfig, plan: FaultPlan) -> Self {
        Self::build(n, cfg, Some(plan))
    }

    fn build(n: usize, cfg: NetConfig, plan: Option<FaultPlan>) -> Self {
        assert!(n > 0);
        assert!(
            cfg.bytes_per_us > 0,
            "NetConfig::bytes_per_us must be nonzero (tx_time would divide by zero)"
        );
        assert!(
            cfg.signal_interval > 0,
            "NetConfig::signal_interval must be nonzero"
        );
        let rx_of: Vec<Mailbox<(NodeId, M)>> = (0..n)
            .map(|i| Mailbox::new(&format!("nic-rx-{i}")))
            .collect();
        let crash_of: Arc<Vec<Option<VTime>>> = Arc::new(
            (0..n)
                .map(|node| plan.as_ref().and_then(|p| p.crash_time_of(node)))
                .collect(),
        );
        let root_rng = plan.as_ref().map(|p| Rng::new(p.seed));
        let nics = (0..n)
            .map(|node| {
                let fault = plan.as_ref().map(|p| FaultState {
                    plan: p.clone(),
                    rng: Mutex::new(root_rng.as_ref().unwrap().fork(node as u64)),
                    stall_until: Mutex::new(0),
                    crash_of: crash_of.clone(),
                    link_error: (0..n).map(|_| AtomicBool::new(false)).collect(),
                });
                Arc::new(Nic {
                    node,
                    cfg: cfg.clone(),
                    links: (0..n)
                        .map(|_| Link {
                            next_free: Mutex::new(0),
                        })
                        .collect(),
                    rx_of: rx_of.clone(),
                    posted: AtomicU64::new(0),
                    stats: NicStats::default(),
                    fault,
                })
            })
            .collect();
        Self { nics, cfg }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nics.len()
    }

    /// The NIC of `node`.
    pub fn nic(&self, node: NodeId) -> Arc<Nic<M>> {
        self.nics[node].clone()
    }

    /// The fabric's network configuration.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsim::{Sim, SimConfig};

    fn sim() -> Sim {
        Sim::new(SimConfig::default())
    }

    #[test]
    fn send_delivers_with_latency() {
        sim().run(|ctx| {
            let fab: Fabric<u32> = Fabric::new(2, NetConfig::default());
            let n0 = fab.nic(0);
            let n1 = fab.nic(1);
            n0.send(ctx, 1, 99, 8);
            let (src, msg) = n1.rx().recv(ctx);
            assert_eq!((src, msg), (0, 99));
            // post + tx(40B) + prop
            assert!(ctx.now() >= 850, "t = {}", ctx.now());
            assert!(ctx.now() < 2_000, "t = {}", ctx.now());
        });
    }

    #[test]
    fn link_fifo_ordering_holds() {
        sim().run(|ctx| {
            let fab: Fabric<u32> = Fabric::new(2, NetConfig::default());
            let n0 = fab.nic(0);
            for i in 0..10 {
                n0.send(ctx, 1, i, 256);
            }
            let rx = fab.nic(1).rx();
            let mut last = 0;
            for i in 0..10 {
                let (_, m) = rx.recv(ctx);
                assert_eq!(m, i);
                assert!(ctx.now() >= last);
                last = ctx.now();
            }
        });
    }

    #[test]
    fn rdma_write_lands_before_notification() {
        sim().run(|ctx| {
            let fab: Fabric<&'static str> = Fabric::new(2, NetConfig::default());
            let region = MemoryRegion::new(64);
            let n0 = fab.nic(0);
            n0.rdma_write(ctx, 1, &region, 8, vec![5, 6, 7]);
            n0.send(ctx, 1, "filled", 8);
            let (_, m) = fab.nic(1).rx().recv(ctx);
            assert_eq!(m, "filled");
            assert_eq!(region.read_vec(8, 3), vec![5, 6, 7]);
        });
    }

    #[test]
    fn rdma_read_round_trip_is_about_2us() {
        sim().run(|ctx| {
            let fab: Fabric<()> = Fabric::new(2, NetConfig::default());
            let region = MemoryRegion::new(4);
            region.store(2, 77);
            let n0 = fab.nic(0);
            let v = n0.rdma_read(ctx, 1, &region, 2, 1);
            assert_eq!(v, vec![77]);
            let t = ctx.now();
            assert!((1_500..2_600).contains(&t), "READ rtt = {t} ns");
        });
    }

    #[test]
    fn bandwidth_serializes_large_transfers() {
        sim().run(|ctx| {
            let fab: Fabric<u8> = Fabric::new(2, NetConfig::default());
            let region = MemoryRegion::new(1 << 16);
            let n0 = fab.nic(0);
            // 64 KiB at 12.5 GB/s is ~5.2 µs of serialization.
            let data = vec![1u64; 1 << 13];
            let t = n0.rdma_write(ctx, 1, &region, 0, data);
            assert!(t > 5_000, "arrival = {t}");
        });
    }

    #[test]
    fn selective_signaling_counts_completions() {
        sim().run(|ctx| {
            let cfg = NetConfig {
                signal_interval: 4,
                ..Default::default()
            };
            let fab: Fabric<u8> = Fabric::new(2, cfg);
            let n0 = fab.nic(0);
            for _ in 0..8 {
                n0.send(ctx, 1, 0, 0);
            }
            assert_eq!(n0.stats().signaled, 2);
            assert_eq!(n0.stats().sends, 8);
        });
    }

    #[test]
    fn rdma_fetch_add_is_atomic_and_round_trip_priced() {
        sim().run(|ctx| {
            let fab: Fabric<()> = Fabric::new(2, NetConfig::default());
            let region = MemoryRegion::new(4);
            region.store(1, 10);
            let n0 = fab.nic(0);
            let t0 = ctx.now();
            let prev = n0.rdma_fetch_add(ctx, 1, &region, 1, 5);
            assert_eq!(prev, 10);
            assert_eq!(region.load(1), 15);
            assert!(ctx.now() - t0 >= 1_500, "rtt = {}", ctx.now() - t0);
        });
    }

    #[test]
    fn rdma_compare_swap_succeeds_and_fails() {
        sim().run(|ctx| {
            let fab: Fabric<()> = Fabric::new(2, NetConfig::default());
            let region = MemoryRegion::new(1);
            let n0 = fab.nic(0);
            assert_eq!(n0.rdma_compare_swap(ctx, 1, &region, 0, 0, 42), 0);
            assert_eq!(region.load(0), 42);
            // Mismatched expect leaves the value unchanged.
            assert_eq!(n0.rdma_compare_swap(ctx, 1, &region, 0, 0, 99), 42);
            assert_eq!(region.load(0), 42);
        });
    }

    #[test]
    fn benign_fault_plan_matches_fault_free_timing() {
        let run = |faulty: bool| {
            sim().run(move |ctx| {
                let cfg = NetConfig::default();
                let fab: Fabric<u32> = if faulty {
                    Fabric::with_faults(2, cfg, FaultPlan::new(42))
                } else {
                    Fabric::new(2, cfg)
                };
                let n0 = fab.nic(0);
                for i in 0..8 {
                    n0.send(ctx, 1, i, 128);
                }
                let rx = fab.nic(1).rx();
                let mut times = Vec::new();
                for _ in 0..8 {
                    rx.recv(ctx);
                    times.push(ctx.now());
                }
                times
            })
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn jitter_preserves_fifo_and_adds_delay() {
        sim().run(|ctx| {
            let mut plan = FaultPlan::new(7);
            plan.jitter_ns = 5_000;
            let fab: Fabric<u32> = Fabric::with_faults(2, NetConfig::default(), plan);
            let n0 = fab.nic(0);
            for i in 0..20 {
                n0.send(ctx, 1, i, 64);
            }
            let rx = fab.nic(1).rx();
            let mut last = 0;
            for i in 0..20 {
                let (_, m) = rx.recv(ctx);
                assert_eq!(m, i, "jitter must not reorder a link");
                assert!(ctx.now() >= last);
                last = ctx.now();
            }
            // 20 sends with mean 2.5 µs jitter: far later than fault-free.
            assert!(last > 20_000, "t = {last}");
        });
    }

    #[test]
    fn drops_discard_sends_and_latch_qp_error() {
        sim().run(|ctx| {
            let mut plan = FaultPlan::new(3);
            plan.drop_ppm = 500_000; // 50%
            let fab: Fabric<u32> = Fabric::with_faults(2, NetConfig::default(), plan);
            let n0 = fab.nic(0);
            for i in 0..64 {
                n0.send(ctx, 1, i, 8);
            }
            let s = n0.stats();
            assert!(
                s.faulted_drops > 10 && s.faulted_drops < 54,
                "drops = {}",
                s.faulted_drops
            );
            assert!(n0.link_error(1));
            n0.clear_link_error(1);
            assert!(!n0.link_error(1));
            // Exactly the non-dropped messages arrive, in order.
            let rx = fab.nic(1).rx();
            for _ in 0..(64 - s.faulted_drops) {
                rx.recv(ctx);
            }
            assert!(rx.is_empty());
        });
    }

    #[test]
    fn stalls_freeze_the_nic_for_a_window() {
        sim().run(|ctx| {
            let mut plan = FaultPlan::new(5);
            plan.stall_ppm = 1_000_000; // every send stalls
            plan.stall_ns = (50_000, 60_000);
            let fab: Fabric<u32> = Fabric::with_faults(2, NetConfig::default(), plan);
            let n0 = fab.nic(0);
            n0.send(ctx, 1, 1, 8);
            let rx = fab.nic(1).rx();
            rx.recv(ctx);
            assert!(ctx.now() >= 50_000, "t = {}", ctx.now());
            assert_eq!(n0.stats().faulted_stalls, 1);
        });
    }

    #[test]
    fn crashed_node_drops_remote_traffic_but_not_loopback() {
        sim().run(|ctx| {
            let mut plan = FaultPlan::new(9);
            plan.crash_at = vec![(1, 10_000)];
            let fab: Fabric<u32> = Fabric::with_faults(2, NetConfig::default(), plan);
            let n0 = fab.nic(0);
            let n1 = fab.nic(1);
            // Before the crash: delivery works.
            n0.send(ctx, 1, 1, 8);
            assert_eq!(n1.rx().recv(ctx).1, 1);
            ctx.sleep_until(10_000);
            assert!(n0.node_crashed(1, ctx.now()));
            // To the crashed node: discarded, QP error latched.
            n0.send(ctx, 1, 2, 8);
            // From the crashed node: discarded.
            n1.send(ctx, 0, 3, 8);
            assert!(n0.link_error(1));
            assert!(n1.link_error(0));
            assert!(n1.rx().is_empty());
            assert!(n0.rx().is_empty());
            // Loopback on the crashed node still delivers (teardown path).
            n1.send(ctx, 1, 4, 8);
            assert_eq!(n1.rx().recv(ctx).1, 4);
            assert_eq!(n1.crash_time(), Some(10_000));
            assert_eq!(n0.peer_crash_time(1), Some(10_000));
        });
    }

    #[test]
    fn partition_blocks_cross_group_sends_then_heals() {
        use crate::fault::Partition;
        sim().run(|ctx| {
            let mut plan = FaultPlan::new(11);
            plan.partitions = vec![Partition {
                groups: vec![vec![0, 1], vec![2]],
                from_ns: 5_000,
                until_ns: 50_000,
            }];
            let fab: Fabric<u32> = Fabric::with_faults(3, NetConfig::default(), plan);
            let n0 = fab.nic(0);
            let n2 = fab.nic(2);
            // Before the window: cross-group delivery works.
            n0.send(ctx, 2, 1, 8);
            assert_eq!(n2.rx().recv(ctx).1, 1);
            ctx.sleep_until(10_000);
            // Inside: severed both ways, QP error latched, intra-group fine.
            n0.send(ctx, 2, 2, 8);
            n2.send(ctx, 0, 3, 8);
            n0.send(ctx, 1, 4, 8);
            assert!(n0.link_error(2));
            assert!(n2.link_error(0));
            assert!(n2.rx().is_empty());
            assert!(n0.rx().is_empty());
            assert_eq!(fab.nic(1).rx().recv(ctx).1, 4);
            // One-sided WRITEs cross the partition (control plane only).
            let region = MemoryRegion::new(8);
            n0.rdma_write(ctx, 2, &region, 0, vec![42]);
            ctx.sleep_until(49_000);
            assert_eq!(region.load(0), 42);
            // After the window: healed.
            ctx.sleep_until(50_000);
            n0.send(ctx, 2, 5, 8);
            assert_eq!(n2.rx().recv(ctx).1, 5);
        });
    }

    #[test]
    fn asymmetric_loss_degrades_one_direction_only() {
        use crate::fault::AsymmetricLoss;
        sim().run(|ctx| {
            let mut plan = FaultPlan::new(13);
            plan.asym_loss = vec![AsymmetricLoss {
                from: 0,
                to: 1,
                drop_ppm: 1_000_000, // every matching SEND dropped
                from_ns: 0,
                until_ns: u64::MAX,
            }];
            let fab: Fabric<u32> = Fabric::with_faults(2, NetConfig::default(), plan);
            let n0 = fab.nic(0);
            let n1 = fab.nic(1);
            for i in 0..8 {
                n0.send(ctx, 1, i, 8);
            }
            assert_eq!(n0.stats().faulted_drops, 8);
            assert!(n0.link_error(1));
            assert!(n1.rx().is_empty());
            // The reverse direction is untouched.
            for i in 0..8 {
                n1.send(ctx, 0, i, 8);
            }
            assert_eq!(n1.stats().faulted_drops, 0);
            for i in 0..8 {
                assert_eq!(n0.rx().recv(ctx).1, i);
            }
            // One-sided WRITEs on the degraded direction still land.
            let region = MemoryRegion::new(8);
            n0.rdma_write(ctx, 1, &region, 0, vec![7]);
            ctx.sleep_until(ctx.now() + 20_000);
            assert_eq!(region.load(0), 7);
        });
    }

    #[test]
    fn partition_and_asym_schedules_replay_bit_identically() {
        use crate::fault::{AsymmetricLoss, Partition};
        let run = |seed: u64| {
            sim().run(move |ctx| {
                let mut plan = FaultPlan::new(seed);
                plan.jitter_ns = 2_000;
                plan.drop_ppm = 50_000;
                plan.partitions = vec![Partition {
                    groups: vec![vec![0], vec![1, 2]],
                    from_ns: 30_000,
                    until_ns: 90_000,
                }];
                plan.asym_loss = vec![AsymmetricLoss {
                    from: 0,
                    to: 1,
                    drop_ppm: 400_000,
                    from_ns: 0,
                    until_ns: 200_000,
                }];
                let fab: Fabric<u32> = Fabric::with_faults(3, NetConfig::default(), plan);
                let n0 = fab.nic(0);
                for i in 0..200 {
                    n0.send(ctx, 1 + (i as usize % 2), i, 64);
                }
                (fab.nic(0).stats(), ctx.now())
            })
        };
        assert_eq!(run(21), run(21));
        assert_ne!(run(21).0, run(22).0, "different seeds should differ");
    }

    #[test]
    fn fault_schedule_replays_bit_identically() {
        let run = |seed: u64| {
            sim().run(move |ctx| {
                let mut plan = FaultPlan::new(seed);
                plan.jitter_ns = 2_000;
                plan.drop_ppm = 100_000;
                plan.stall_ppm = 50_000;
                plan.stall_ns = (10_000, 20_000);
                let fab: Fabric<u32> = Fabric::with_faults(3, NetConfig::default(), plan);
                let n0 = fab.nic(0);
                for i in 0..200 {
                    n0.send(ctx, 1 + (i as usize % 2), i, 64);
                }
                (fab.nic(0).stats(), ctx.now())
            })
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77).0, run(78).0, "different seeds should differ");
    }

    #[test]
    fn stats_track_bytes() {
        sim().run(|ctx| {
            let fab: Fabric<u8> = Fabric::new(2, NetConfig::default());
            let region = MemoryRegion::new(8);
            let n0 = fab.nic(0);
            n0.rdma_write(ctx, 1, &region, 0, vec![1, 2]);
            let s = n0.stats();
            assert_eq!(s.writes, 1);
            assert_eq!(s.write_bytes, 32 + 16);
        });
    }
}
