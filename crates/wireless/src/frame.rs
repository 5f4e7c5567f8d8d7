//! WAVE frames: WSMs at the application/MAC boundary.

use std::sync::Arc;

use comfase_des::time::SimTime;
use comfase_des::wire::take;

/// Identifies a radio node (one NIC per vehicle in our scenarios).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node.{}", self.0)
    }
}

/// WAVE radio channel (IEEE 1609.4 multi-channel operation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WaveChannel {
    /// Control channel 178 — safety beacons (our platooning beacons).
    #[default]
    Cch,
    /// Service channel 176.
    Sch1,
}

/// EDCA access category, highest priority first (IEEE 802.11 / 1609.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessCategory {
    /// Voice — used for safety-critical beacons in Veins examples.
    Vo,
    /// Video.
    Vi,
    /// Best effort.
    Be,
    /// Background.
    Bk,
}

/// A WAVE Short Message as handed between application and MAC.
#[derive(Debug, Clone, PartialEq)]
pub struct Wsm {
    /// Sending node.
    pub source: NodeId,
    /// Monotonic per-sender sequence number.
    pub sequence: u32,
    /// Creation (application send) time.
    pub created: SimTime,
    /// Radio channel the message must be sent on.
    pub channel: WaveChannel,
    /// Application payload. Shared, not owned: the channel clones a WSM
    /// once per planned link, and a clone only bumps a reference count.
    pub payload: Arc<[u8]>,
}

impl Wsm {
    /// Encoded header length: source, sequence, creation time, channel tag
    /// and payload length.
    const HEADER_LEN: usize = 4 + 4 + 8 + 1 + 4;

    /// Total over-the-air size in **bits**, including the WSM/MAC/PHY
    /// header overhead used by Veins (we fold it into one constant).
    pub fn size_bits(&self) -> usize {
        const HEADER_BITS: usize = 192; // MAC header + LLC + WSMP header
        HEADER_BITS + self.payload.len() * 8
    }

    /// Serializes the WSM into a buffer (a stand-in for the on-air
    /// encoding; used by tests and by the falsification attack models that
    /// edit payloads in flight).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(Self::HEADER_LEN + self.payload.len());
        buf.extend_from_slice(&self.source.0.to_be_bytes());
        buf.extend_from_slice(&self.sequence.to_be_bytes());
        buf.extend_from_slice(&self.created.as_nanos().to_be_bytes());
        buf.push(match self.channel {
            WaveChannel::Cch => 0,
            WaveChannel::Sch1 => 1,
        });
        buf.extend_from_slice(&(self.payload.len() as u32).to_be_bytes());
        buf.extend_from_slice(&self.payload);
        buf
    }

    /// Decodes a WSM previously produced by [`Wsm::encode`].
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation if the buffer is truncated
    /// or contains an invalid channel tag.
    pub fn decode(mut buf: &[u8]) -> Result<Wsm, String> {
        if buf.len() < Self::HEADER_LEN {
            return Err(format!("wsm header truncated: {} bytes", buf.len()));
        }
        let source = NodeId(u32::from_be_bytes(take(&mut buf)));
        let sequence = u32::from_be_bytes(take(&mut buf));
        let created = SimTime::from_nanos(i64::from_be_bytes(take(&mut buf)));
        let channel = match take::<1>(&mut buf) {
            [0] => WaveChannel::Cch,
            [1] => WaveChannel::Sch1,
            [other] => return Err(format!("invalid channel tag {other}")),
        };
        let len = u32::from_be_bytes(take(&mut buf)) as usize;
        let Some(payload) = buf.get(..len) else {
            return Err(format!("payload truncated: want {len}, have {}", buf.len()));
        };
        Ok(Wsm {
            source,
            sequence,
            created,
            channel,
            payload: payload.into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wsm(payload: &[u8]) -> Wsm {
        Wsm {
            source: NodeId(2),
            sequence: 17,
            created: SimTime::from_millis(1500),
            channel: WaveChannel::Cch,
            payload: payload.into(),
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let m = wsm(b"beacon-data");
        let decoded = Wsm::decode(&m.encode()).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn empty_payload_round_trip() {
        let m = wsm(b"");
        assert_eq!(Wsm::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn size_includes_header_overhead() {
        // The paper uses 200-bit packets; with 1 byte of payload we are at
        // 192 + 8 = 200 bits, matching the experiment configuration.
        let m = wsm(b"x");
        assert_eq!(m.size_bits(), 200);
    }

    #[test]
    fn truncated_buffer_rejected() {
        let m = wsm(b"hello");
        let enc = m.encode();
        assert!(Wsm::decode(&enc[..10]).unwrap_err().contains("truncated"));
    }

    #[test]
    fn truncated_payload_rejected() {
        let m = wsm(b"hello");
        let enc = m.encode();
        assert!(Wsm::decode(&enc[..enc.len() - 2])
            .unwrap_err()
            .contains("payload truncated"));
    }

    #[test]
    fn invalid_channel_rejected() {
        let m = wsm(b"");
        let mut raw = m.encode();
        raw[16] = 9; // channel tag offset: 4 + 4 + 8
        assert!(Wsm::decode(&raw).unwrap_err().contains("invalid channel"));
    }

    #[test]
    fn access_category_priority_order() {
        assert!(AccessCategory::Vo < AccessCategory::Vi);
        assert!(AccessCategory::Vi < AccessCategory::Be);
        assert!(AccessCategory::Be < AccessCategory::Bk);
    }
}
