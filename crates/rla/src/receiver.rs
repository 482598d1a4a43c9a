//! The RLA multicast receiver: TCP's receive side, [`Reassembly`], its ack
//! carrying the receiver's identity (§3.3: "the same format as SACK TCP receivers").

use std::any::Any;

use netsim::agent::Agent;
use netsim::engine::Context;
use netsim::packet::{Dest, Packet};
use netsim::wire::{McastAck, Segment};
use tcp_sack::Reassembly;

/// A multicast receiver endpoint.
#[derive(Debug)]
pub struct McastReceiver {
    /// The receive state and its counters.
    pub reassembly: Reassembly,
    /// ACK packet size on the wire, bytes.
    ack_size: u32,
}

impl McastReceiver {
    /// A receiver producing `ack_size`-byte acknowledgments.
    pub fn new(ack_size: u32) -> Self {
        Self::joining_at(0, ack_size)
    }

    /// A receiver joining an in-progress session at `next_seq`, the
    /// sender's next new sequence number ([`Reassembly::starting_at`]).
    pub fn joining_at(next_seq: u64, ack_size: u32) -> Self {
        McastReceiver {
            reassembly: Reassembly::starting_at(next_seq),
            ack_size,
        }
    }
}

impl Agent for McastReceiver {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        let Segment::McastData(data) = packet.segment else {
            debug_assert!(false, "RLA receiver got {}", packet.segment.kind_str());
            return;
        };
        let ack = Segment::McastAck(McastAck {
            receiver: ctx.agent,
            ack: self.reassembly.accept(data.seq, data.timestamp),
        });
        ctx.send(Dest::Agent(packet.src), self.ack_size, ack);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
