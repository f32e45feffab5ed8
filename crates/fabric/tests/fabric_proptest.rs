//! Property tests of the fabric model: per-link FIFO under arbitrary send
//! schedules, latency/bandwidth accounting, and one-sided write atomicity
//! relative to notifications.

use dsim::{Sim, SimConfig};
use proptest::prelude::*;
use rdma_fabric::{Fabric, MemoryRegion, NetConfig};

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Messages posted on one link arrive in order with non-decreasing
    /// delivery times, regardless of sizes and inter-send gaps.
    #[test]
    fn link_fifo_under_arbitrary_schedules(
        sends in proptest::collection::vec((0u64..10_000, 0u64..4_096), 1..40),
    ) {
        Sim::new(SimConfig::default()).run(move |ctx| {
            let fab: Fabric<u64> = Fabric::new(2, NetConfig::default());
            let n0 = fab.nic(0);
            let rx = fab.nic(1).rx();
            let count = sends.len();
            let h = {
                let sends = sends.clone();
                ctx.spawn("tx", move |c| {
                    for (i, (gap, bytes)) in sends.into_iter().enumerate() {
                        c.charge(gap + 1);
                        n0.send(c, 1, i as u64, bytes);
                    }
                })
            };
            let mut last_t = 0;
            for expect in 0..count as u64 {
                let (src, msg) = rx.recv(ctx);
                prop_assert_eq!(src, 0);
                prop_assert_eq!(msg, expect);
                prop_assert!(ctx.now() >= last_t);
                last_t = ctx.now();
            }
            h.join(ctx);
            Ok(())
        })?;
    }

    /// A WRITE+SEND pair always lands data before the notification, for any
    /// payload size and any competing traffic on the link.
    #[test]
    fn write_send_ordering_with_competition(
        payload in 1usize..2_000,
        noise in proptest::collection::vec(0u64..2_048, 0..10),
    ) {
        Sim::new(SimConfig::default()).run(move |ctx| {
            let fab: Fabric<u32> = Fabric::new(2, NetConfig::default());
            let region = MemoryRegion::new(payload);
            let n0 = fab.nic(0);
            for (i, bytes) in noise.iter().enumerate() {
                n0.send(ctx, 1, 1000 + i as u32, *bytes);
            }
            let data: Vec<u64> = (0..payload as u64).collect();
            n0.rdma_write(ctx, 1, &region, 0, data);
            n0.send(ctx, 1, 7, 8);
            let rx = fab.nic(1).rx();
            loop {
                let (_, msg) = rx.recv(ctx);
                if msg == 7 {
                    break;
                }
            }
            // The data is fully visible at notification time.
            for i in 0..payload {
                prop_assert_eq!(region.load(i), i as u64);
            }
            Ok(())
        })?;
    }

    /// Transmission time grows monotonically with message size.
    #[test]
    fn bandwidth_is_monotone(a in 0u64..100_000, b in 0u64..100_000) {
        let c = NetConfig::default();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(c.tx_time(lo) <= c.tx_time(hi));
        // And is consistent with the configured rate within rounding.
        let t = c.tx_time(hi);
        let ideal = hi as f64 * 1000.0 / c.bytes_per_us as f64;
        prop_assert!((t as f64 - ideal).abs() <= 1.0, "t={t} ideal={ideal}");
    }

    /// rdma_read returns the remote memory content at request arrival and
    /// charges at least the full round trip.
    #[test]
    fn read_snapshot_and_latency(vals in proptest::collection::vec(any::<u64>(), 1..64)) {
        Sim::new(SimConfig::default()).run(move |ctx| {
            let fab: Fabric<()> = Fabric::new(2, NetConfig::default());
            let region = MemoryRegion::new(vals.len());
            region.write_slice(0, &vals);
            let n0 = fab.nic(0);
            let t0 = ctx.now();
            let got = n0.rdma_read(ctx, 1, &region, 0, vals.len());
            prop_assert_eq!(&got, &vals);
            prop_assert!(ctx.now() - t0 >= 1_700, "rtt = {}", ctx.now() - t0);
            Ok(())
        })?;
    }
}
