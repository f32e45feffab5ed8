//! Pluggable transport abstraction over the fabric.
//!
//! The coherence runtime in `crates/core` speaks to the network through the
//! [`Transport`] trait only: memory registration, one-sided WRITE+notify,
//! two-sided SEND/RECV, completion/byte accounting, and node addressing.
//! Backends implement the trait; the protocol machines never see which one
//! is underneath.
//!
//! Two backends exist today:
//!
//! - [`SimTransport`] — the default. A zero-cost veneer over the dsim
//!   [`Nic`]: every call delegates verbatim to the simulated verb with the
//!   byte count taken from [`Wire::payload_bytes`], so virtual-time behaviour
//!   is bit-identical to the pre-trait code.
//! - `TcpTransport` (behind the `tcp-transport` cargo feature) — real OS
//!   sockets with length-prefixed frames; one-sided WRITE is emulated as a
//!   tagged frame applied into the registered region by the receive pump.
//!
//! A future ibverbs backend is one more impl of this trait.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dsim::{Ctx, Mailbox};

use crate::fabric::Nic;
use crate::region::MemoryRegion;
use crate::NodeId;

/// A message type that can travel over any transport backend.
///
/// Simulated backends only need [`Wire::payload_bytes`] (to charge the
/// virtual wire); real backends additionally use the byte codec. `decode`
/// must accept exactly what `encode` produced (round-trip identity).
pub trait Wire: Clone + Send + Sync + std::fmt::Debug + 'static {
    /// Logical payload size in bytes, as charged to the (possibly
    /// simulated) wire. Headers are added by the backend.
    fn payload_bytes(&self) -> u64;

    /// Append the serialized form of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Parse a message from `bytes`. Returns `None` on malformed input.
    fn decode(bytes: &[u8]) -> Option<Self>
    where
        Self: Sized;
}

/// Byte and completion counters common to every backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Bytes handed to the wire (payload + backend framing/headers).
    pub bytes_tx: u64,
    /// Bytes received from the wire (payload + backend framing/headers).
    pub bytes_rx: u64,
    /// Frames (SENDs plus WRITEs) posted by this endpoint.
    pub frames: u64,
    /// Completion events observed for posted work: one per
    /// `NetConfig::signal_interval` frames on every backend (selective
    /// signaling), so `completions == frames / signal_interval`.
    pub completions: u64,
    /// Egress flushes: doorbell rings on the TCP pump (each a single
    /// writev-style syscall train), batch openings on the simulated NIC.
    /// Always `frames == tx_flushes + frames_coalesced`.
    pub tx_flushes: u64,
    /// Flushes that carried two or more frames (a doorbell amortized over
    /// a batch rather than rung per frame).
    pub doorbell_batches: u64,
    /// Frames that rode an already-open batch instead of ringing their own
    /// doorbell (`sum(batch_size - 1)` over all flushes).
    pub frames_coalesced: u64,
    /// High-water mark of the per-link egress ring, in frames: the deepest
    /// any link's not-yet-flushed backlog ever got (batch depth on the
    /// simulated NIC, queued ring depth on TCP).
    pub ring_hwm: u64,
}

/// Backend-agnostic network endpoint for one node.
///
/// The contract the coherence runtime relies on:
///
/// - **Per-link FIFO**: messages (and WRITE data) from node A to node B are
///   delivered in post order.
/// - **Data before notification**: after `write_send`, the region contents
///   are visible to the destination no later than the paired message.
/// - `recv` blocks (in virtual time) until a message arrives.
pub trait Transport<M: Wire>: Send + Sync {
    /// The node this endpoint belongs to.
    fn node(&self) -> NodeId;

    /// Make `region` addressable by incoming one-sided WRITEs. Idempotent.
    /// Backends with a global address space (the simulator) may no-op.
    fn register_region(&self, region: &MemoryRegion);

    /// Two-sided SEND: deliver `msg` into `dst`'s receive queue.
    fn send(&self, ctx: &mut Ctx, dst: NodeId, msg: M);

    /// One-sided WRITE of `data` into `dst`'s `region` at word `offset`,
    /// followed by `msg` on the same ordered channel (data lands first).
    fn write_send(
        &self,
        ctx: &mut Ctx,
        dst: NodeId,
        region: &MemoryRegion,
        offset: usize,
        data: Vec<u64>,
        msg: M,
    );

    /// Block until the next message arrives; returns `(source, message)`.
    fn recv(&self, ctx: &mut Ctx) -> (NodeId, M);

    /// Non-blocking receive: a message that has already been delivered, or
    /// `None` without waiting. Lets the Rx dispatch drain a burst in one
    /// pass before falling back to the blocking [`Transport::recv`].
    fn try_recv(&self, ctx: &mut Ctx) -> Option<(NodeId, M)> {
        let _ = ctx;
        None
    }

    /// Byte/frame/completion counters for this endpoint.
    fn stats(&self) -> TransportStats;

    /// Tear down backend resources (sockets, pump threads). Idempotent;
    /// the simulated backend has nothing to release.
    fn shutdown(&self) {}
}

/// Default backend: delegates every verb to the dsim [`Nic`].
///
/// Each call maps 1:1 onto the pre-trait call site — same verb, same order,
/// byte counts from [`Wire::payload_bytes`] — so simulated timing and
/// protocol traffic are bit-identical to the fabric-coupled code this
/// abstraction replaced.
pub struct SimTransport<M: Send + 'static> {
    nic: Arc<Nic<M>>,
    rx: Mailbox<(NodeId, M)>,
    bytes_rx: AtomicU64,
    frames_rx: AtomicU64,
    /// Doorbell accounting (pure bookkeeping — never charges virtual
    /// time): per-destination depth of the batch currently riding the
    /// link's busy window, plus the flush/batch counters derived from it.
    batch_depth: parking_lot::Mutex<Vec<u64>>,
    tx_flushes: AtomicU64,
    doorbell_batches: AtomicU64,
    frames_coalesced: AtomicU64,
    ring_hwm: AtomicU64,
}

impl<M: Send + 'static> SimTransport<M> {
    /// Wrap one node's simulated NIC. A doorbell batch is capped at the
    /// NIC's `NetConfig::send_batch_max` frames; the cap only steers
    /// *accounting* (which frames count as coalesced into one doorbell
    /// batch), so virtual-time behaviour and protocol traffic stay
    /// bit-identical across caps.
    pub fn new(nic: Arc<Nic<M>>) -> Self {
        let rx = nic.rx();
        Self {
            nic,
            rx,
            bytes_rx: AtomicU64::new(0),
            frames_rx: AtomicU64::new(0),
            batch_depth: parking_lot::Mutex::new(Vec::new()),
            tx_flushes: AtomicU64::new(0),
            doorbell_batches: AtomicU64::new(0),
            frames_coalesced: AtomicU64::new(0),
            ring_hwm: AtomicU64::new(0),
        }
    }

    /// Account one posted frame toward `dst` as either the start of a new
    /// doorbell batch or a rider on the batch already serializing on the
    /// link. The simulated NIC's link-busy window (`Nic::link_busy`) plays
    /// the role the TCP backend's pending egress ring plays: a frame
    /// posted while the link is still transmitting earlier work would, on
    /// real hardware, be picked up by the same doorbell.
    fn account_post(&self, ctx: &Ctx, dst: NodeId) {
        let busy = self.nic.link_busy(dst, ctx.now());
        let mut depths = self.batch_depth.lock();
        if depths.len() <= dst {
            depths.resize(dst + 1, 0);
        }
        let cap = self.nic.cfg.send_batch_max.max(1) as u64;
        let depth = &mut depths[dst];
        if busy && *depth > 0 && *depth < cap {
            *depth += 1;
            self.frames_coalesced.fetch_add(1, Ordering::Relaxed);
            if *depth == 2 {
                self.doorbell_batches.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            *depth = 1;
            self.tx_flushes.fetch_add(1, Ordering::Relaxed);
        }
        self.ring_hwm.fetch_max(*depth, Ordering::Relaxed);
    }
}

impl<M: Wire> Transport<M> for SimTransport<M> {
    fn node(&self) -> NodeId {
        self.nic.node()
    }

    fn register_region(&self, _region: &MemoryRegion) {
        // The simulator addresses regions directly; nothing to register.
    }

    fn send(&self, ctx: &mut Ctx, dst: NodeId, msg: M) {
        let bytes = msg.payload_bytes();
        self.account_post(ctx, dst);
        self.nic.send(ctx, dst, msg, bytes);
    }

    fn write_send(
        &self,
        ctx: &mut Ctx,
        dst: NodeId,
        region: &MemoryRegion,
        offset: usize,
        data: Vec<u64>,
        msg: M,
    ) {
        let bytes = msg.payload_bytes();
        // WRITE then SEND on the same RC link (FIFO: the data lands
        // first), with the notification accounted *after* the WRITE has
        // claimed the link: the pair then counts as one doorbell batch,
        // exactly like the WRITE+MSG frame train the TCP backend flushes
        // in one writev.
        self.account_post(ctx, dst);
        self.nic.rdma_write(ctx, dst, region, offset, data);
        self.account_post(ctx, dst);
        self.nic.send(ctx, dst, msg, bytes);
    }

    fn recv(&self, ctx: &mut Ctx) -> (NodeId, M) {
        let (src, msg) = self.rx.recv(ctx);
        self.bytes_rx
            .fetch_add(msg.payload_bytes(), Ordering::Relaxed);
        self.frames_rx.fetch_add(1, Ordering::Relaxed);
        (src, msg)
    }

    fn try_recv(&self, ctx: &mut Ctx) -> Option<(NodeId, M)> {
        let (src, msg) = self.rx.try_recv(ctx)?;
        self.bytes_rx
            .fetch_add(msg.payload_bytes(), Ordering::Relaxed);
        self.frames_rx.fetch_add(1, Ordering::Relaxed);
        Some((src, msg))
    }

    fn stats(&self) -> TransportStats {
        let nic = self.nic.stats();
        TransportStats {
            bytes_tx: nic.send_bytes + nic.write_bytes,
            bytes_rx: self.bytes_rx.load(Ordering::Relaxed),
            frames: nic.sends + nic.writes,
            completions: nic.signaled,
            tx_flushes: self.tx_flushes.load(Ordering::Relaxed),
            doorbell_batches: self.doorbell_batches.load(Ordering::Relaxed),
            frames_coalesced: self.frames_coalesced.load(Ordering::Relaxed),
            ring_hwm: self.ring_hwm.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fabric, NetConfig};

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Ping(u64);

    impl Wire for Ping {
        fn payload_bytes(&self) -> u64 {
            8
        }
        fn encode(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&self.0.to_le_bytes());
        }
        fn decode(bytes: &[u8]) -> Option<Self> {
            Some(Ping(u64::from_le_bytes(bytes.try_into().ok()?)))
        }
    }

    #[test]
    fn sim_transport_delegates_send_recv() {
        dsim::Sim::new(dsim::SimConfig::default()).run(|ctx| {
            let fabric = Fabric::<Ping>::new(2, NetConfig::instant());
            let a: Arc<dyn Transport<Ping>> = Arc::new(SimTransport::new(fabric.nic(0)));
            let b: Arc<dyn Transport<Ping>> = Arc::new(SimTransport::new(fabric.nic(1)));
            a.send(ctx, 1, Ping(7));
            let (src, msg) = b.recv(ctx);
            assert_eq!(src, 0);
            assert_eq!(msg, Ping(7));
            let sa = a.stats();
            assert_eq!(sa.frames, 1);
            assert!(sa.bytes_tx > 0);
            let sb = b.stats();
            assert_eq!(sb.bytes_rx, 8);
        });
    }

    #[test]
    fn sim_transport_write_send_lands_data_first() {
        dsim::Sim::new(dsim::SimConfig::default()).run(|ctx| {
            let fabric = Fabric::<Ping>::new(2, NetConfig::instant());
            let a: Arc<dyn Transport<Ping>> = Arc::new(SimTransport::new(fabric.nic(0)));
            let b: Arc<dyn Transport<Ping>> = Arc::new(SimTransport::new(fabric.nic(1)));
            let region = MemoryRegion::new(8);
            b.register_region(&region);
            a.write_send(ctx, 1, &region, 2, vec![41, 42], Ping(1));
            let (_, msg) = b.recv(ctx);
            assert_eq!(msg, Ping(1));
            assert_eq!(region.load(2), 41);
            assert_eq!(region.load(3), 42);
        });
    }
}
