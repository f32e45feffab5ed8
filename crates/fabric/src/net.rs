//! Network parameters shared by every transport backend, plus the
//! deployment settings of the TCP backend.

use std::net::SocketAddr;

use dsim::VTime;

/// Network configuration. Defaults are calibrated to the paper's testbed:
/// ConnectX-4 100 Gbps InfiniBand, one-sided READ round trip ≈ 2 µs.
/// `signal_interval` and `send_batch_max` apply to every backend; the rest
/// model the simulated wire.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// One-way propagation + switching + DMA latency (ns). With the default
    /// post overhead this yields the paper's ≈ 2 µs READ round trip.
    pub prop_latency_ns: VTime,
    /// Serialization bandwidth in bytes per microsecond (100 Gbps =
    /// 12 500 B/µs).
    pub bytes_per_us: u64,
    /// CPU cost of posting a work request to the RNIC (MMIO write), ns.
    pub post_overhead_ns: VTime,
    /// CPU cost of polling one completion from the CQ, ns.
    pub cq_poll_ns: VTime,
    /// Generate a signaled completion only every `signal_interval` work
    /// requests (selective signaling, §4.5). 1 disables the optimization;
    /// must be nonzero.
    pub signal_interval: u64,
    /// Most frames one egress flush (doorbell) may carry; whole WRITE+MSG
    /// trains only. 1 disables coalescing; must be nonzero.
    pub send_batch_max: usize,
    /// Fixed wire size of a protocol message header, bytes.
    pub header_bytes: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            prop_latency_ns: 850,
            bytes_per_us: 12_500,
            post_overhead_ns: 80,
            cq_poll_ns: 120,
            signal_interval: 64,
            send_batch_max: 16,
            header_bytes: 32,
        }
    }
}

impl NetConfig {
    /// A configuration with near-zero latencies, for fast unit tests that
    /// only care about protocol correctness.
    pub fn instant() -> Self {
        Self {
            prop_latency_ns: 1,
            bytes_per_us: u64::MAX / 2,
            post_overhead_ns: 0,
            cq_poll_ns: 0,
            signal_interval: 1,
            send_batch_max: 16,
            header_bytes: 0,
        }
    }

    /// Wire transmission time for `bytes` payload bytes (ns).
    #[inline]
    pub fn tx_time(&self, bytes: u64) -> VTime {
        // bytes / (bytes/µs) in ns, rounding up.
        (bytes * 1_000).div_ceil(self.bytes_per_us)
    }
}

/// Deployment settings of the TCP backend (`tcp-transport` feature). Always
/// compiled, so configuration handling does not change shape with the
/// feature set.
#[derive(Debug, Clone)]
pub struct TcpOptions {
    /// Static listen addresses, one per node. `None` (default) binds
    /// ephemeral loopback ports, which cannot collide across concurrently
    /// running meshes.
    pub addrs: Option<Vec<SocketAddr>>,
    /// Pump threads per node: the fixed event-loop pool that multiplexes
    /// all of the node's links (nonblocking sockets + `poll(2)`), never
    /// one thread per link, and never more pumps than links. Must be
    /// nonzero.
    pub pump_threads: usize,
}

impl Default for TcpOptions {
    fn default() -> Self {
        Self {
            addrs: None,
            pump_threads: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_read_rtt_is_about_two_microseconds() {
        let c = NetConfig::default();
        // READ: post + prop (request) + prop + 8B payload (reply).
        let rtt = c.post_overhead_ns + c.prop_latency_ns + c.tx_time(8) + c.prop_latency_ns;
        assert!((1_700..2_300).contains(&rtt), "rtt = {rtt}");
    }

    #[test]
    fn tx_time_scales_with_bytes() {
        let c = NetConfig::default();
        assert_eq!(c.tx_time(12_500), 1_000); // 12.5 kB in 1 µs at 100 Gbps
        assert!(c.tx_time(0) == 0);
        assert!(c.tx_time(1) >= 1);
    }

    #[test]
    fn instant_config_is_fast() {
        let c = NetConfig::instant();
        assert!(c.tx_time(1 << 20) <= 1);
    }
}
