//! Transport tunables.

use clove_sim::Duration;

/// Maximum segment payload in bytes.
pub const MSS: u32 = 1400;

/// Wire overhead per segment, which is also the size of a pure ACK.
/// Ethernet(14) + outer IPv4(20) + outer TCP/STT(20+18) + inner IPv4(20) +
/// inner TCP(20) = 112; rounded to 100 bytes for arithmetic convenience
/// (documented simplification).
pub const HEADER_OVERHEAD: u32 = 100;

/// Initial window in segments (RFC 6928: 10).
pub const INIT_WINDOW_PKTS: u32 = 10;

/// Initial congestion window in bytes.
pub const INIT_CWND: u64 = (INIT_WINDOW_PKTS * MSS) as u64;

/// Upper bound on the congestion window in bytes (receive-window stand-in;
/// keeps pathological runs bounded).
pub const MAX_CWND_BYTES: u64 = 4 * 1024 * 1024;

/// Retransmission timeout before any RTT sample exists.
pub const INIT_RTO: Duration = Duration::from_millis(5);

/// Lower bound on the RTO: 2 ms, not Linux's 200 ms, so a timeout stays
/// ≫ RTT without making short runs unrecoverable (DESIGN.md §7).
pub const MIN_RTO: Duration = Duration::from_millis(2);

/// Upper bound on the RTO (caps exponential backoff).
pub const MAX_RTO: Duration = Duration::from_secs(2);

const _: () = assert!(MIN_RTO.0 < INIT_RTO.0 && INIT_RTO.0 < MAX_RTO.0);

/// The transport parameter a run varies, shared by plain TCP and MPTCP
/// subflows. Every other transport parameter is a constant above.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// DSACK-style spurious-retransmission undo (DESIGN.md §7.1). On by
    /// default — real Linux guests have it; off for ablation runs.
    pub dsack_undo: bool,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig { dsack_undo: true }
    }
}

/// Wire size of a segment carrying `payload` bytes.
pub const fn wire_size(payload: u32) -> u32 {
    payload + HEADER_OVERHEAD
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        assert_eq!(INIT_CWND, 14_000);
        assert_eq!(wire_size(1400), 1500);
        assert!(TcpConfig::default().dsack_undo);
    }
}
