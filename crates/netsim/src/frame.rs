//! MAC frames.

use qma_des::SimTime;

use crate::world::NodeId;

/// Frame destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Address {
    /// A single node.
    Node(NodeId),
    /// All nodes in range.
    Broadcast,
}

impl Address {
    /// Is a frame with this address meant for `node`?
    pub fn is_for(self, node: NodeId) -> bool {
        match self {
            Address::Node(n) => n == node,
            Address::Broadcast => true,
        }
    }

    /// Returns `true` for broadcast addresses.
    pub fn is_broadcast(self) -> bool {
        matches!(self, Address::Broadcast)
    }
}

impl From<NodeId> for Address {
    fn from(n: NodeId) -> Self {
        Address::Node(n)
    }
}

/// Frame type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// Application data.
    Data,
    /// Immediate acknowledgement.
    Ack,
    /// Periodic network beacon (DSME beacon slot / GPSR hello).
    Beacon,
    /// Management traffic (e.g. the DSME GTS 3-way handshake); the
    /// discriminator is protocol-defined.
    Management(u8),
}

impl FrameKind {
    /// Does this frame count as "DATA or ACK" for QMA's overhearing
    /// reward (Eq. 6)? The paper rewards observing *any* decodable
    /// traffic; beacons and management frames are MAC-level data.
    pub fn rewards_overhearing(self) -> bool {
        true
    }
}

/// Protocol-defined payload carried inside a frame.
///
/// Upper layers pack their fields into up to four 64-bit words —
/// a compact stand-in for real octet serialisation that keeps the
/// simulator layering clean.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Payload {
    /// No payload beyond headers.
    #[default]
    None,
    /// Four words of protocol data.
    Words([u64; 4]),
}

/// Provenance of an application packet, for end-to-end accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AppInfo {
    /// The node that generated the packet.
    pub origin: NodeId,
    /// Unique id within the origin.
    pub id: u64,
    /// Generation time (end-to-end delay = delivery − creation).
    pub created_at: SimTime,
    /// Hops traversed so far.
    pub hops: u8,
}

/// A MAC frame.
///
/// `psdu_octets` drives airtime; we account 11 octets of MAC header +
/// FCS for data-ish frames (the IEEE 802.15.4 minimum with short
/// addressing) plus the declared payload size.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Transmitting node.
    pub src: NodeId,
    /// Destination.
    pub dst: Address,
    /// Frame type.
    pub kind: FrameKind,
    /// Per-source sequence number (ACK matching).
    pub seq: u32,
    /// PSDU size in octets (total MAC frame length).
    pub psdu_octets: u16,
    /// Whether the receiver must acknowledge.
    pub ack_request: bool,
    /// The sender's queue level at transmission time — the piggyback
    /// QMA's parameter-based exploration reads (§4.2).
    pub queue_level: u8,
    /// End-to-end provenance for application data.
    pub app: Option<AppInfo>,
    /// Protocol payload.
    pub payload: Payload,
}

/// MAC header + FCS octets accounted on top of payloads.
pub const MAC_OVERHEAD_OCTETS: u16 = 11;

impl Frame {
    /// Builds a unicast/broadcast data frame carrying `payload_octets`
    /// of application payload.
    pub fn data(
        src: NodeId,
        dst: Address,
        seq: u32,
        payload_octets: u16,
        ack_request: bool,
    ) -> Frame {
        Frame {
            src,
            dst,
            kind: FrameKind::Data,
            seq,
            psdu_octets: (MAC_OVERHEAD_OCTETS + payload_octets).min(127),
            ack_request,
            queue_level: 0,
            app: None,
            payload: Payload::None,
        }
    }

    /// Builds the immediate ACK for a received frame.
    pub fn ack_for(received: &Frame, me: NodeId) -> Frame {
        Frame::ack(me, received.src, received.seq)
    }

    /// Builds the immediate ACK `me` sends to `to` for its frame
    /// `seq`.
    pub fn ack(me: NodeId, to: NodeId, seq: u32) -> Frame {
        Frame {
            src: me,
            dst: Address::Node(to),
            kind: FrameKind::Ack,
            seq,
            psdu_octets: 5,
            ack_request: false,
            queue_level: 0,
            app: None,
            payload: Payload::None,
        }
    }

    /// Builds a management frame (GTS handshake, route control, …).
    pub fn management(
        src: NodeId,
        dst: Address,
        discriminator: u8,
        seq: u32,
        payload_octets: u16,
        ack_request: bool,
    ) -> Frame {
        Frame {
            src,
            dst,
            kind: FrameKind::Management(discriminator),
            seq,
            psdu_octets: (MAC_OVERHEAD_OCTETS + payload_octets).min(127),
            ack_request,
            queue_level: 0,
            app: None,
            payload: Payload::None,
        }
    }

    /// Builds a broadcast beacon frame.
    pub fn beacon(src: NodeId, seq: u32, payload_octets: u16) -> Frame {
        Frame {
            src,
            dst: Address::Broadcast,
            kind: FrameKind::Beacon,
            seq,
            psdu_octets: (MAC_OVERHEAD_OCTETS + payload_octets).min(127),
            ack_request: false,
            queue_level: 0,
            app: None,
            payload: Payload::None,
        }
    }

    /// Attaches application provenance (builder style).
    pub fn with_app(mut self, app: AppInfo) -> Frame {
        self.app = Some(app);
        self
    }

    /// Attaches a payload (builder style).
    pub fn with_payload(mut self, payload: Payload) -> Frame {
        self.payload = payload;
        self
    }

    /// Is this an acknowledgement matching `seq` sent to `me`?
    pub fn acks(&self, seq: u32, me: NodeId) -> bool {
        self.kind == FrameKind::Ack && self.seq == seq && self.dst.is_for(me)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_matching() {
        let a = Address::Node(NodeId(3));
        assert!(a.is_for(NodeId(3)));
        assert!(!a.is_for(NodeId(4)));
        assert!(Address::Broadcast.is_for(NodeId(9)));
        assert!(Address::Broadcast.is_broadcast());
        assert!(!a.is_broadcast());
        assert_eq!(Address::from(NodeId(1)), Address::Node(NodeId(1)));
    }

    #[test]
    fn data_frame_sizes() {
        let f = Frame::data(NodeId(0), Address::Broadcast, 7, 60, false);
        assert_eq!(f.psdu_octets, 71);
        // Clamped to the PHY maximum.
        let big = Frame::data(NodeId(0), Address::Broadcast, 7, 200, false);
        assert_eq!(big.psdu_octets, 127);
    }

    #[test]
    fn ack_matches_only_its_seq_and_destination() {
        let data = Frame::data(NodeId(1), NodeId(2).into(), 42, 10, true);
        let ack = Frame::ack_for(&data, NodeId(2));
        assert_eq!(ack.kind, FrameKind::Ack);
        assert_eq!(ack.psdu_octets, 5);
        assert!(ack.acks(42, NodeId(1)));
        assert!(!ack.acks(41, NodeId(1)));
        assert!(!ack.acks(42, NodeId(3)));
    }

    #[test]
    fn builders_attach_metadata() {
        let app = AppInfo {
            origin: NodeId(5),
            id: 99,
            created_at: SimTime::from_secs(1),
            hops: 2,
        };
        let f = Frame::data(NodeId(5), NodeId(0).into(), 1, 10, true)
            .with_app(app)
            .with_payload(Payload::Words([1, 2, 3, 4]));
        assert_eq!(f.app.unwrap().id, 99);
        assert_eq!(f.payload, Payload::Words([1, 2, 3, 4]));
    }

    #[test]
    fn management_and_beacon_kinds() {
        let m = Frame::management(NodeId(1), Address::Broadcast, 3, 1, 8, false);
        assert_eq!(m.kind, FrameKind::Management(3));
        let b = Frame::beacon(NodeId(1), 2, 4);
        assert_eq!(b.kind, FrameKind::Beacon);
        assert!(b.dst.is_broadcast());
        assert!(m.kind.rewards_overhearing());
    }
}
