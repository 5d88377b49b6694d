//! Capture monitoring: watching a frame stream for new devices and
//! collecting their setup traffic.
//!
//! §IV-A of the paper: "When a new device identified by a newly observed
//! MAC address starts communicating with the gateway, the latter records
//! n packets received from it during its setup phase. The end of the
//! setup phase can be automatically identified by a decrease in the rate
//! of packets sent." [`CaptureMonitor`] implements exactly this: it
//! tracks source MACs, opens a [`DeviceCapture`] for each new unicast
//! source, and closes it once the device's packet rate decays to zero
//! for a configurable gap (the practical form of rate-decrease
//! detection) or hard limits are hit.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

use crate::error::WireError;
use crate::mac::MacAddr;
use crate::packet::Packet;
use crate::time::{SimDuration, SimTime};
use crate::wire;

/// One raw frame with its capture timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapturedFrame {
    time: SimTime,
    bytes: Vec<u8>,
}

impl CapturedFrame {
    /// Creates a frame captured at `time`.
    pub fn new(time: SimTime, bytes: Vec<u8>) -> Self {
        CapturedFrame { time, bytes }
    }

    /// The capture timestamp.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// The raw frame bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Decodes the frame into its [`Packet`] record.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] if the bytes do not form a decodable frame.
    pub fn decode(&self) -> Result<Packet, WireError> {
        wire::decode_frame(&self.bytes, self.time)
    }
}

/// An in-memory capture trace: an ordered sequence of raw frames.
///
/// # Examples
///
/// ```
/// use sentinel_net::{CapturedFrame, SimTime, TraceCapture};
/// use sentinel_net::wire::compose;
/// use sentinel_net::MacAddr;
///
/// let mac = MacAddr::new([2, 0, 0, 0, 0, 1]);
/// let mut trace = TraceCapture::new();
/// trace.push(CapturedFrame::new(SimTime::ZERO, compose::dhcp_discover(mac, 1, "d")));
/// let packets = trace.decode_all()?;
/// assert_eq!(packets.len(), 1);
/// # Ok::<(), sentinel_net::WireError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceCapture {
    frames: Vec<CapturedFrame>,
}

impl TraceCapture {
    /// Creates an empty trace.
    pub fn new() -> Self {
        TraceCapture::default()
    }

    /// Appends a frame.
    pub fn push(&mut self, frame: CapturedFrame) {
        self.frames.push(frame);
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Iterates over frames.
    pub fn iter(&self) -> std::slice::Iter<'_, CapturedFrame> {
        self.frames.iter()
    }

    /// The frames as a slice.
    pub fn frames(&self) -> &[CapturedFrame] {
        &self.frames
    }

    /// Decodes all frames into packets.
    ///
    /// # Errors
    ///
    /// Returns the first decode failure.
    pub fn decode_all(&self) -> Result<Vec<Packet>, WireError> {
        self.frames.iter().map(CapturedFrame::decode).collect()
    }

    /// Serialises the trace to classic pcap.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn to_pcap<W: std::io::Write>(&self, w: W) -> Result<(), WireError> {
        crate::pcap::write(w, &self.frames)
    }

    /// Reads a trace from classic pcap.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for malformed pcap data.
    pub fn from_pcap<R: std::io::Read>(r: R) -> Result<Self, WireError> {
        Ok(TraceCapture {
            frames: crate::pcap::read(r)?,
        })
    }
}

impl FromIterator<CapturedFrame> for TraceCapture {
    fn from_iter<I: IntoIterator<Item = CapturedFrame>>(iter: I) -> Self {
        TraceCapture {
            frames: iter.into_iter().collect(),
        }
    }
}

impl Extend<CapturedFrame> for TraceCapture {
    fn extend<I: IntoIterator<Item = CapturedFrame>>(&mut self, iter: I) {
        self.frames.extend(iter);
    }
}

impl IntoIterator for TraceCapture {
    type Item = CapturedFrame;
    type IntoIter = std::vec::IntoIter<CapturedFrame>;

    fn into_iter(self) -> Self::IntoIter {
        self.frames.into_iter()
    }
}

impl<'a> IntoIterator for &'a TraceCapture {
    type Item = &'a CapturedFrame;
    type IntoIter = std::slice::Iter<'a, CapturedFrame>;

    fn into_iter(self) -> Self::IntoIter {
        self.frames.iter()
    }
}

/// Configuration for setup-phase end detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetupDetectorConfig {
    /// A device whose packet rate drops to zero for this long is
    /// considered done with setup (rate-decrease detection).
    pub idle_gap: SimDuration,
    /// Hard cap on packets collected per device.
    pub max_packets: usize,
    /// Hard cap on capture duration per device.
    pub max_duration: SimDuration,
}

impl Default for SetupDetectorConfig {
    /// Ten seconds of silence, 2048 packets or five minutes — generous
    /// bounds around the one-to-two-minute setups the paper reports.
    fn default() -> Self {
        SetupDetectorConfig {
            idle_gap: SimDuration::from_secs(10),
            max_packets: 2048,
            max_duration: SimDuration::from_secs(300),
        }
    }
}

/// The collected setup traffic of one device.
#[derive(Debug, Clone)]
pub struct DeviceCapture {
    mac: MacAddr,
    packets: Vec<Packet>,
    first_seen: SimTime,
    last_seen: SimTime,
}

impl DeviceCapture {
    /// The device's MAC address.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// The packets sent by the device, in capture order.
    pub fn packets(&self) -> &[Packet] {
        &self.packets
    }

    /// Consumes the capture, returning its packets.
    pub fn into_packets(self) -> Vec<Packet> {
        self.packets
    }

    /// Timestamp of the first packet.
    pub fn first_seen(&self) -> SimTime {
        self.first_seen
    }

    /// Timestamp of the most recent packet.
    pub fn last_seen(&self) -> SimTime {
        self.last_seen
    }

    /// Duration between first and last packet.
    pub fn duration(&self) -> SimDuration {
        self.last_seen.duration_since(self.first_seen)
    }
}

/// Watches a frame stream, collecting per-device setup captures.
///
/// # Examples
///
/// ```
/// use sentinel_net::{CaptureMonitor, CapturedFrame, MacAddr, SetupDetectorConfig, SimTime};
/// use sentinel_net::wire::compose;
///
/// let gateway = MacAddr::new([2, 0, 0, 0, 0, 0]);
/// let device = MacAddr::new([2, 0, 0, 0, 0, 9]);
/// let mut monitor = CaptureMonitor::new(SetupDetectorConfig::default());
/// monitor.ignore_mac(gateway);
///
/// monitor.observe_frame(&CapturedFrame::new(
///     SimTime::ZERO,
///     compose::dhcp_discover(device, 1, "plug"),
/// ))?;
/// let done = monitor.finish_all();
/// assert_eq!(done.len(), 1);
/// assert_eq!(done[0].mac(), device);
/// # Ok::<(), sentinel_net::WireError>(())
/// ```
#[derive(Debug)]
pub struct CaptureMonitor {
    config: SetupDetectorConfig,
    ignored: HashSet<MacAddr>,
    active: HashMap<MacAddr, DeviceCapture>,
    finished: Vec<DeviceCapture>,
    /// MACs whose setup capture has already completed; later traffic
    /// from them is operational, not setup, and is not re-captured.
    seen: HashSet<MacAddr>,
}

impl CaptureMonitor {
    /// Creates a monitor with the given detector configuration.
    pub fn new(config: SetupDetectorConfig) -> Self {
        CaptureMonitor {
            config,
            ignored: HashSet::new(),
            active: HashMap::new(),
            finished: Vec::new(),
            seen: HashSet::new(),
        }
    }

    /// Registers infrastructure MACs (gateway interfaces, upstream
    /// routers) whose traffic must not open device captures.
    pub fn ignore_mac(&mut self, mac: MacAddr) {
        self.ignored.insert(mac);
    }

    /// Observes a raw frame: decodes it and routes it to the matching
    /// device capture.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] if the frame cannot be decoded.
    pub fn observe_frame(&mut self, frame: &CapturedFrame) -> Result<(), WireError> {
        let packet = frame.decode()?;
        self.observe_packet(packet);
        Ok(())
    }

    /// Observes an already-decoded packet.
    pub fn observe_packet(&mut self, packet: Packet) {
        let src = packet.src_mac();
        let now = packet.time();
        // Close any capture whose device has gone quiet.
        self.harvest(now);
        if self.ignored.contains(&src) || src.is_multicast() || self.seen.contains(&src) {
            return;
        }
        match self.active.entry(src) {
            Entry::Occupied(mut e) => {
                let cap = e.get_mut();
                cap.last_seen = now;
                if cap.packets.len() < self.config.max_packets {
                    cap.packets.push(packet);
                }
            }
            Entry::Vacant(e) => {
                e.insert(DeviceCapture {
                    mac: src,
                    packets: vec![packet],
                    first_seen: now,
                    last_seen: now,
                });
            }
        }
    }

    /// Number of devices currently being captured.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Moves completed captures (idle past the configured gap, over the
    /// packet cap, or over the duration cap as of `now`) to the
    /// finished queue.
    fn harvest(&mut self, now: SimTime) {
        let config = self.config;
        let done: Vec<MacAddr> = self
            .active
            .iter()
            .filter(|(_, cap)| {
                now.duration_since(cap.last_seen) >= config.idle_gap
                    || cap.packets.len() >= config.max_packets
                    || cap.last_seen.duration_since(cap.first_seen) >= config.max_duration
            })
            .map(|(mac, _)| *mac)
            .collect();
        for mac in done {
            if let Some(cap) = self.active.remove(&mac) {
                self.seen.insert(mac);
                self.finished.push(cap);
            }
        }
    }

    /// Returns captures completed by rate decrease as of `now`,
    /// draining the finished queue.
    pub fn poll_finished(&mut self, now: SimTime) -> Vec<DeviceCapture> {
        self.harvest(now);
        std::mem::take(&mut self.finished)
    }

    /// Force-completes all captures (end of an experiment), returning
    /// every finished and still-active capture.
    pub fn finish_all(&mut self) -> Vec<DeviceCapture> {
        let mut out = std::mem::take(&mut self.finished);
        let macs: Vec<MacAddr> = self.active.keys().copied().collect();
        for mac in macs {
            if let Some(cap) = self.active.remove(&mac) {
                self.seen.insert(mac);
                out.push(cap);
            }
        }
        out.sort_by_key(|c| c.first_seen);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::compose;
    use std::net::Ipv4Addr;

    fn mac(last: u8) -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 0, last])
    }

    fn frame_at(ms: u64, bytes: Vec<u8>) -> CapturedFrame {
        CapturedFrame::new(SimTime::from_millis(ms), bytes)
    }

    #[test]
    fn separates_devices_by_source_mac() {
        let mut mon = CaptureMonitor::new(SetupDetectorConfig::default());
        mon.ignore_mac(mac(0));
        mon.observe_frame(&frame_at(0, compose::dhcp_discover(mac(1), 1, "a")))
            .unwrap();
        mon.observe_frame(&frame_at(5, compose::dhcp_discover(mac(2), 2, "b")))
            .unwrap();
        mon.observe_frame(&frame_at(
            10,
            compose::arp_probe(mac(1), Ipv4Addr::new(10, 0, 0, 2)),
        ))
        .unwrap();
        assert_eq!(mon.active_count(), 2);
        let done = mon.finish_all();
        assert_eq!(done.len(), 2);
        let a = done.iter().find(|c| c.mac() == mac(1)).unwrap();
        assert_eq!(a.packets().len(), 2);
        let b = done.iter().find(|c| c.mac() == mac(2)).unwrap();
        assert_eq!(b.packets().len(), 1);
    }

    #[test]
    fn gateway_traffic_is_ignored() {
        let mut mon = CaptureMonitor::new(SetupDetectorConfig::default());
        mon.ignore_mac(mac(0));
        mon.observe_frame(&frame_at(
            0,
            compose::dns_response(
                mac(0),
                mac(1),
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                1,
                "x",
                Ipv4Addr::new(1, 2, 3, 4),
                crate::Port::new(50000),
            ),
        ))
        .unwrap();
        assert_eq!(mon.active_count(), 0);
    }

    #[test]
    fn idle_gap_completes_capture() {
        let config = SetupDetectorConfig {
            idle_gap: SimDuration::from_secs(5),
            ..SetupDetectorConfig::default()
        };
        let mut mon = CaptureMonitor::new(config);
        mon.observe_frame(&frame_at(0, compose::dhcp_discover(mac(1), 1, "a")))
            .unwrap();
        mon.observe_frame(&frame_at(
            1000,
            compose::arp_probe(mac(1), Ipv4Addr::new(10, 0, 0, 2)),
        ))
        .unwrap();
        assert!(mon.poll_finished(SimTime::from_millis(3000)).is_empty());
        let done = mon.poll_finished(SimTime::from_millis(6500));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].packets().len(), 2);
        assert_eq!(done[0].duration(), SimDuration::from_secs(1));
    }

    #[test]
    fn later_traffic_after_completion_not_recaptured() {
        let config = SetupDetectorConfig {
            idle_gap: SimDuration::from_secs(5),
            ..SetupDetectorConfig::default()
        };
        let mut mon = CaptureMonitor::new(config);
        mon.observe_frame(&frame_at(0, compose::dhcp_discover(mac(1), 1, "a")))
            .unwrap();
        let done = mon.poll_finished(SimTime::from_secs(10));
        assert_eq!(done.len(), 1);
        // Heartbeat traffic an hour later must not open a new capture.
        mon.observe_frame(&frame_at(
            3_600_000,
            compose::arp_probe(mac(1), Ipv4Addr::new(10, 0, 0, 2)),
        ))
        .unwrap();
        assert_eq!(mon.active_count(), 0);
        assert!(mon.poll_finished(SimTime::from_secs(7200)).is_empty());
    }

    #[test]
    fn max_packets_caps_capture() {
        let config = SetupDetectorConfig {
            max_packets: 3,
            ..SetupDetectorConfig::default()
        };
        let mut mon = CaptureMonitor::new(config);
        for i in 0..5 {
            mon.observe_frame(&frame_at(
                i * 10,
                compose::arp_probe(mac(1), Ipv4Addr::new(10, 0, 0, 2)),
            ))
            .unwrap();
        }
        let done = mon.finish_all();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].packets().len(), 3);
    }

    #[test]
    fn multicast_sources_never_open_captures() {
        let mut mon = CaptureMonitor::new(SetupDetectorConfig::default());
        let mcast_src = MacAddr::ipv4_multicast(0xfb);
        let pkt = crate::Packet::builder(mcast_src).build();
        mon.observe_packet(pkt);
        assert_eq!(mon.active_count(), 0);
    }

    #[test]
    fn trace_capture_pcap_round_trip() {
        let mut trace = TraceCapture::new();
        trace.push(frame_at(1, compose::dhcp_discover(mac(1), 1, "a")));
        trace.push(frame_at(
            2,
            compose::arp_probe(mac(1), Ipv4Addr::new(10, 0, 0, 2)),
        ));
        let mut buf = Vec::new();
        trace.to_pcap(&mut buf).unwrap();
        let back = TraceCapture::from_pcap(&buf[..]).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.decode_all().unwrap().len(), 2);
    }

    #[test]
    fn trace_collects_from_iterator() {
        let trace: TraceCapture = (0..4)
            .map(|i| frame_at(i, compose::arp_probe(mac(1), Ipv4Addr::new(10, 0, 0, 2))))
            .collect();
        assert_eq!(trace.len(), 4);
        assert!(!trace.is_empty());
    }
}
