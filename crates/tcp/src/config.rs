//! Transport tunables.

use clove_sim::Duration;

/// Static transport parameters, shared by plain TCP and MPTCP subflows.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Maximum segment payload in bytes.
    pub mss: u32,
    /// Per-packet header overhead added on the wire.
    pub header_overhead: u32,
    /// Initial window in segments (RFC 6928: 10).
    pub init_window_pkts: u32,
    /// Upper bound on the congestion window in bytes (receive-window
    /// stand-in; keeps pathological runs bounded).
    pub max_cwnd_bytes: u64,
    /// Retransmission timeout before any RTT sample exists.
    pub init_rto: Duration,
    /// Lower bound on the RTO.
    pub min_rto: Duration,
    /// Upper bound on the RTO (caps exponential backoff).
    pub max_rto: Duration,
    /// Advertised receive window in bytes; senders cap their effective
    /// window at `min(cwnd, rwnd)`. `None` models an unbounded (auto-tuned
    /// huge) receive buffer, the default for modern stacks.
    pub rwnd_bytes: Option<u64>,
    /// DSACK-style spurious-retransmission undo (DESIGN.md §7.1). On by
    /// default — real Linux guests have it; off for ablation runs.
    pub dsack_undo: bool,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1400,
            header_overhead: crate::config::DEFAULT_HEADER_OVERHEAD,
            init_window_pkts: 10,
            max_cwnd_bytes: 4 * 1024 * 1024,
            init_rto: Duration::from_millis(10),
            min_rto: Duration::from_millis(1),
            max_rto: Duration::from_secs(2),
            rwnd_bytes: None,
            dsack_undo: true,
        }
    }
}

/// Default wire overhead per segment, which is also the size of a pure ACK.
/// Ethernet(14) + outer IPv4(20) + outer TCP/STT(20+18) + inner IPv4(20) +
/// inner TCP(20) = 112; rounded to 100 bytes for arithmetic convenience
/// (documented simplification).
pub const DEFAULT_HEADER_OVERHEAD: u32 = 100;

impl TcpConfig {
    /// Initial congestion window in bytes.
    pub fn init_cwnd(&self) -> u64 {
        (self.init_window_pkts * self.mss) as u64
    }

    /// Wire size of a segment carrying `payload` bytes.
    pub fn wire_size(&self, payload: u32) -> u32 {
        payload + self.header_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = TcpConfig::default();
        assert_eq!(c.init_cwnd(), 14_000);
        assert_eq!(c.wire_size(1400), 1500);
        assert!(c.min_rto < c.init_rto);
        assert!(c.init_rto < c.max_rto);
    }
}
