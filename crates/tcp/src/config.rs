//! TCP agent configuration.

use transport::defaults;

/// Parameters of a TCP connection.
///
/// Defaults mirror the paper's simulation setup: 1000-byte data packets
/// and 40-byte ACKs. The window bounds, the dup-threshold and the RTO
/// clamp are not settings: the sender and its loss recovery read them
/// from [`transport::defaults`].
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Data packet size on the wire, bytes.
    pub packet_size: u32,
    /// Acknowledgment size on the wire, bytes.
    pub ack_size: u32,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            packet_size: defaults::PACKET_SIZE,
            ack_size: defaults::ACK_SIZE,
        }
    }
}

impl TcpConfig {
    /// Validate invariants; called by the sender constructor.
    pub fn validate(&self) {
        assert!(self.packet_size > 0, "packet size must be positive");
        assert!(self.ack_size > 0, "ack size must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        TcpConfig::default().validate();
    }
}
