//! The socket-facing ingest run-loop.
//!
//! An [`IngestServer`] owns a non-blocking UDP socket and reusable
//! buffers: receive slots and `mmsghdr` arrays allocated at bind, and a
//! response buffer that grows to one burst of frames on first use. Each
//! [`IngestServer::poll_once`] call performs one cycle:
//!
//! 1. **recv-burst** — one `recvmmsg` call pulls up to `burst`
//!    datagrams into the slots. All of them share one ingest
//!    [`Instant`], taken when the call returns;
//! 2. **decode** — run the wire codec over each frame into packets the
//!    server keeps across polls; malformed frames are dropped with
//!    per-reason accounting, never served;
//! 3. **process** — feed the whole burst to the backend's
//!    `process_batch` (one datapath call per burst, matching the
//!    emulator's run-loop batching);
//! 4. **tx-burst** — encode each verdict back to back into one response
//!    buffer, group the responses into runs of consecutive frames to
//!    the same peer (at most 64 per run), and hand every run to the
//!    kernel in one `sendmmsg` call. A run of more than one frame is
//!    one `UDP_SEGMENT` message the kernel splits into equal datagrams.
//!    End-to-end latency (ingest timestamp → response handed to the
//!    kernel) is recorded once per frame into a [`LatencyHistogram`].
//!
//! The raw syscalls live in the private `sys` module. If the kernel
//! rejects UDP segmentation on the route (`EIO`/`EINVAL` on a
//! multi-segment message), the server sends one frame per message for
//! the rest of its life, through the same `sendmmsg` path, and counts
//! the event in [`IngestStats::gso_fallbacks`].
//!
//! A steady-state poll allocates nothing: slots, packets, header arrays
//! and the response buffer are all reused.
//!
//! Overload policy: in-flight buffering is bounded by the burst size;
//! anything the kernel socket buffer cannot hold is dropped by the OS
//! before we see it (counted in [`IngestStats::rx_overflow`] from the
//! kernel's `SO_RXQ_OVFL` count), and anything we cannot decode,
//! encode, or send is dropped *with an explicit counter* — the server
//! never blocks on a slow peer and never buffers unboundedly.

use crate::fieldmap::FieldMap;
use crate::sys::{self, RxBatch, SockAddr, TxBatch};
use crate::wire::{self, DecodeError};
use pipeleon_obs::{LatencyHistogram, MetricsRegistry};
use pipeleon_sim::{NicBackend, Packet};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::ops::Range;
use std::time::Instant;

/// Tuning knobs for an [`IngestServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestConfig {
    /// Maximum datagrams pulled per poll cycle (bounds in-flight work).
    pub burst: usize,
    /// Receive buffer size per frame; larger datagrams are truncated by
    /// the kernel and counted as oversize drops.
    pub max_frame: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            burst: 64,
            max_frame: 2048,
        }
    }
}

/// Cumulative ingest/egress accounting for one server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Well-formed frames decoded and served.
    pub frames: u64,
    /// Frames rejected by the codec.
    pub decode_errors: u64,
    /// Datagrams that filled the receive buffer (likely truncated).
    pub oversize: u64,
    /// Responses that failed width validation at encode time.
    pub encode_errors: u64,
    /// Responses the kernel refused to send.
    pub tx_dropped: u64,
    /// Response frames handed to the kernel.
    pub responses: u64,
    /// Datagrams the kernel dropped because the socket's receive buffer
    /// was full, as of the latest datagram received (the kernel reports
    /// its cumulative count only on datagrams that arrive after a drop).
    /// The server never saw these frames, so they are not part of
    /// [`IngestStats::dropped`]; their senders already count them lost.
    pub rx_overflow: u64,
    /// Times the kernel rejected UDP segmentation on the route, after
    /// which responses go one frame per message (at most 1).
    pub gso_fallbacks: u64,
}

impl IngestStats {
    /// Total frames the server received and then dropped, for any
    /// reason. Excludes [`IngestStats::rx_overflow`]: those frames never
    /// reached the server.
    pub fn dropped(&self) -> u64 {
        self.decode_errors + self.oversize + self.encode_errors + self.tx_dropped
    }
}

/// Splits responses `0..n` into maximal runs of consecutive responses
/// that `same_peer` says go to one peer, each at most `cap` long.
fn group_runs(
    n: usize,
    cap: usize,
    same_peer: impl Fn(usize, usize) -> bool,
    runs: &mut Vec<Range<usize>>,
) {
    runs.clear();
    let cap = cap.max(1);
    let mut start = 0;
    for k in 1..=n {
        if k == n || k - start == cap || !same_peer(start, k) {
            runs.push(start..k);
            start = k;
        }
    }
}

/// A UDP server that serves live traffic through a [`NicBackend`].
///
/// The server owns the socket and codec state but *borrows* the backend
/// per poll call, so callers can interleave control-plane work (e.g.
/// controller ticks and live reconfiguration) between poll cycles on
/// the very same backend the socket traffic flows through.
pub struct IngestServer {
    socket: UdpSocket,
    config: IngestConfig,
    rx: RxBatch,
    tx: TxBatch,
    /// Decoded packets, reused across polls; the first `origin.len()`
    /// hold this poll's burst.
    packets: Vec<Packet>,
    /// Rx slot of each decoded packet.
    origin: Vec<usize>,
    /// Request sequence number of each decoded packet.
    seqs: Vec<u64>,
    /// Rx slot of each encoded response, in response-buffer order.
    responders: Vec<usize>,
    /// Runs of responses, one `sendmmsg` message each.
    runs: Vec<Range<usize>>,
    /// Frames per segmented message: `sys::MAX_SEGMENTS`, or 1 after
    /// the kernel rejected segmentation.
    segment_cap: usize,
    /// The kernel's last reported cumulative overflow count (wraps).
    rxq_drops: u32,
    stats: IngestStats,
    e2e: LatencyHistogram,
    last_decode_error: Option<DecodeError>,
}

impl IngestServer {
    /// Binds a non-blocking UDP socket on `addr` (use port 0 to let the
    /// OS pick; read it back with [`IngestServer::local_addr`]) and
    /// allocates the receive slots and header arrays.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: IngestConfig) -> io::Result<IngestServer> {
        let socket = UdpSocket::bind(addr)?;
        socket.set_nonblocking(true)?;
        sys::enable_rxq_ovfl(&socket)?;
        let burst = config.burst.max(1);
        let slot = config.max_frame.max(wire::HDR_LEN + wire::PAYLOAD_FIXED);
        Ok(IngestServer {
            socket,
            config,
            rx: RxBatch::new(burst, slot),
            tx: TxBatch::new(burst),
            packets: Vec::with_capacity(burst),
            origin: Vec::with_capacity(burst),
            seqs: Vec::with_capacity(burst),
            responders: Vec::with_capacity(burst),
            runs: Vec::with_capacity(burst),
            segment_cap: sys::MAX_SEGMENTS,
            rxq_drops: 0,
            stats: IngestStats::default(),
            e2e: LatencyHistogram::new(),
            last_decode_error: None,
        })
    }

    /// The bound socket address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// The configuration this server was bound with.
    pub fn config(&self) -> IngestConfig {
        self.config
    }

    /// One recv-burst / decode / process / tx-burst cycle against `nic`.
    ///
    /// Returns the number of datagrams received (0 when the socket was
    /// idle — callers typically sleep briefly before polling again).
    /// Real socket errors other than `WouldBlock` surface as `Err`.
    pub fn poll_once<N: NicBackend>(&mut self, nic: &mut N, map: &FieldMap) -> io::Result<usize> {
        // 1. recv-burst into the slots: one recvmmsg.
        let received = loop {
            match self.rx.recv(&self.socket) {
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(0),
                // Loopback peers that closed their socket surface async
                // ICMP errors here; retry, not a crash.
                Err(e) if e.kind() == io::ErrorKind::ConnectionReset => continue,
                Err(e) => return Err(e),
            }
        };
        let at = Instant::now();
        if let Some(total) = self.rx.rxq_drops(received - 1) {
            self.stats.rx_overflow += u64::from(total.wrapping_sub(self.rxq_drops));
            self.rxq_drops = total;
        }

        // 2. decode the burst into the retained packets.
        self.origin.clear();
        self.seqs.clear();
        for i in 0..received {
            if self.rx.filled(i) {
                // recv filled the slot exactly: the datagram may have
                // been truncated by the kernel, so we cannot trust it.
                self.stats.oversize += 1;
                continue;
            }
            let k = self.origin.len();
            if k == self.packets.len() {
                self.packets.push(Packet::with_slots(Vec::new()));
            }
            match wire::decode_into(self.rx.datagram(i), map, &mut self.packets[k]) {
                Ok(meta) => {
                    self.origin.push(i);
                    self.seqs.push(meta.seq);
                }
                Err(e) => {
                    self.stats.decode_errors += 1;
                    self.last_decode_error = Some(e);
                }
            }
        }
        let decoded = self.origin.len();
        self.stats.frames += decoded as u64;

        // 3. one datapath call for the whole burst.
        if decoded > 0 {
            let _reports = nic.process_batch(&mut self.packets[..decoded]);
        }

        // 4. tx-burst: encode back to back, group per peer, one sendmmsg.
        let frame = map.frame_len();
        self.responders.clear();
        let out = self.tx.buf_mut(decoded * frame);
        for k in 0..decoded {
            let at_byte = self.responders.len() * frame;
            match wire::encode_into(
                &mut out[at_byte..],
                &self.packets[k],
                map,
                self.seqs[k],
                true,
            ) {
                Ok(_) => self.responders.push(self.origin[k]),
                Err(_) => self.stats.encode_errors += 1,
            }
        }
        self.stage_runs(0, frame);
        let mut next = 0;
        while next < self.runs.len() {
            match self.tx.send(&self.socket, next) {
                Ok(sent) => {
                    let frames = self.runs[next + sent - 1].end - self.runs[next].start;
                    let latency = at.elapsed();
                    for _ in 0..frames {
                        self.e2e.record_duration(latency);
                    }
                    self.stats.responses += frames as u64;
                    next += sent;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    let unsent = self.responders.len() - self.runs[next].start;
                    self.stats.tx_dropped += unsent as u64;
                    break;
                }
                Err(e) if sys::gso_rejected(&e, self.runs[next].len()) => {
                    self.segment_cap = 1;
                    self.stats.gso_fallbacks += 1;
                    let from = self.runs[next].start;
                    self.stage_runs(from, frame);
                    next = 0;
                }
                Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {
                    self.stats.tx_dropped += self.runs[next].len() as u64;
                    next += 1;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(received)
    }

    /// Groups responses `from..` into per-peer runs of at most
    /// `segment_cap` frames and stages one message per run.
    fn stage_runs(&mut self, from: usize, frame: usize) {
        let (rx, responders) = (&self.rx, &self.responders[from..]);
        let peer = |k: usize| -> &SockAddr { rx.peer(responders[k]) };
        group_runs(
            responders.len(),
            self.segment_cap.min(sys::max_segments(frame)),
            |a, b| peer(a) == peer(b),
            &mut self.runs,
        );
        self.tx.clear();
        for run in &mut self.runs {
            *run = from + run.start..from + run.end;
            self.tx.stage(
                peer(run.start - from),
                run.start * frame..run.end * frame,
                frame,
            );
        }
    }

    /// Cumulative counters since bind.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// The end-to-end latency histogram (ingest → response sent).
    pub fn e2e(&self) -> &LatencyHistogram {
        &self.e2e
    }

    /// The most recent codec rejection, for diagnostics.
    pub fn last_decode_error(&self) -> Option<DecodeError> {
        self.last_decode_error
    }

    /// Exports ingest counters and the e2e histogram into `m` under the
    /// `pipeleon_ingest_*` / `pipeleon_e2e_latency_ns` names. Counters
    /// use absolute sets so zero-valued series still render.
    pub fn metrics_into(&self, m: &mut MetricsRegistry) {
        m.help(
            "pipeleon_ingest_frames_total",
            "Well-formed frames decoded and served through the datapath",
        );
        m.counter_set("pipeleon_ingest_frames_total", &[], self.stats.frames);
        m.help(
            "pipeleon_ingest_responses_total",
            "Response frames handed to the kernel",
        );
        m.counter_set("pipeleon_ingest_responses_total", &[], self.stats.responses);
        m.help(
            "pipeleon_ingest_dropped_total",
            "Frames dropped by the ingest path, by reason (rx_overflow: by the \
             kernel before the server saw them)",
        );
        for (reason, v) in [
            ("decode_error", self.stats.decode_errors),
            ("oversize", self.stats.oversize),
            ("encode_error", self.stats.encode_errors),
            ("tx", self.stats.tx_dropped),
            ("rx_overflow", self.stats.rx_overflow),
        ] {
            m.counter_set("pipeleon_ingest_dropped_total", &[("reason", reason)], v);
        }
        m.help(
            "pipeleon_e2e_latency_ns",
            "End-to-end latency from socket ingest to response handed to the kernel",
        );
        m.merge_histogram("pipeleon_e2e_latency_ns", &[], &self.e2e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeleon_cost::CostParams;
    use pipeleon_sim::SmartNic;
    use pipeleon_workloads::scenarios::LoadBalancer;
    use std::time::Duration;

    fn runs_of(keys: &str, cap: usize) -> Vec<Range<usize>> {
        let keys = keys.as_bytes();
        let mut runs = Vec::new();
        group_runs(keys.len(), cap, |a, b| keys[a] == keys[b], &mut runs);
        runs
    }

    #[test]
    fn runs_split_on_peer_change_and_at_the_cap() {
        assert_eq!(runs_of("", 64), Vec::<Range<usize>>::new());
        assert_eq!(runs_of("a", 64), vec![0..1]);
        assert_eq!(runs_of("aaabbca", 64), vec![0..3, 3..5, 5..6, 6..7]);
        assert_eq!(runs_of("abab", 64), vec![0..1, 1..2, 2..3, 3..4]);
        assert_eq!(runs_of("aaaaa", 2), vec![0..2, 2..4, 4..5]);
        assert_eq!(runs_of("aab", 1), vec![0..1, 1..2, 2..3]);
        assert_eq!(runs_of("aab", 0), vec![0..1, 1..2, 2..3], "cap clamps to 1");
        let same = "a".repeat(128);
        assert_eq!(runs_of(&same, sys::MAX_SEGMENTS), vec![0..64, 64..128]);
    }

    struct Rig {
        server: IngestServer,
        nic: SmartNic,
        map: FieldMap,
        frames: Vec<Vec<u8>>,
        client: UdpSocket,
    }

    /// A server, its datapath, and a client socket holding `n` encoded
    /// load-balancer request frames (seq = index).
    fn rig(config: IngestConfig, n: usize) -> Rig {
        let lb = LoadBalancer::build();
        let map = FieldMap::from_graph(&lb.graph).expect("map");
        let nic = SmartNic::new(lb.graph.clone(), CostParams::bluefield2()).expect("nic");
        let frames = lb
            .traffic(&[0.1, 0.1], 16, 5)
            .batch(n)
            .iter()
            .enumerate()
            .map(|(i, p)| wire::encode(p, &map, i as u64, false).expect("encode"))
            .collect();
        let server = IngestServer::bind("127.0.0.1:0", config).expect("bind");
        let client = UdpSocket::bind("127.0.0.1:0").expect("client");
        client
            .connect(server.local_addr().unwrap())
            .expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        Rig {
            server,
            nic,
            map,
            frames,
            client,
        }
    }

    impl Rig {
        /// Polls until `frames` (served + oversize) reach `want`.
        fn serve_until(&mut self, want: u64) {
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let s = self.server.stats();
                if s.frames + s.oversize >= want {
                    return;
                }
                assert!(Instant::now() < deadline, "stalled at {s:?}");
                if self
                    .server
                    .poll_once(&mut self.nic, &self.map)
                    .expect("poll")
                    == 0
                {
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        }

        /// Polls until the socket has been idle for 20 ms.
        fn drain(&mut self) {
            let mut idle_since = Instant::now();
            while idle_since.elapsed() < Duration::from_millis(20) {
                if self
                    .server
                    .poll_once(&mut self.nic, &self.map)
                    .expect("poll")
                    > 0
                {
                    idle_since = Instant::now();
                }
            }
        }
    }

    #[test]
    fn oversize_datagrams_are_counted_under_burst_receive() {
        let config = IngestConfig {
            burst: 8,
            max_frame: 256,
        };
        let mut r = rig(config, 2);
        assert!(r.map.frame_len() < config.max_frame);
        r.client.send(&r.frames[0]).unwrap();
        r.client.send(&vec![0xAB; config.max_frame + 44]).unwrap();
        r.client.send(&vec![0xCD; config.max_frame]).unwrap();
        r.client.send(&r.frames[1]).unwrap();
        r.serve_until(4);
        let s = r.server.stats();
        assert_eq!(s.oversize, 2, "{s:?}");
        assert_eq!((s.frames, s.responses, s.decode_errors), (2, 2, 0), "{s:?}");
        let mut seqs = Vec::new();
        let mut buf = [0u8; 512];
        for _ in 0..2 {
            let n = r.client.recv(&mut buf).expect("answer");
            seqs.push(wire::decode(&buf[..n], &r.map).expect("decode").seq);
        }
        seqs.sort_unstable();
        assert_eq!(seqs, vec![0, 1]);
    }

    /// Four socket buffers' worth of frames at a server that is not
    /// polling: the kernel drops what does not fit, and every offered
    /// frame is either answered or counted in `rx_overflow`.
    #[test]
    fn receive_buffer_overflow_is_counted() {
        let mut r = rig(IngestConfig::default(), 64);
        let rcvbuf = sys::recv_buffer_bytes(&r.server.socket).expect("SO_RCVBUF");
        let flood = 4 * rcvbuf / r.map.frame_len();
        let mut offered = 0u64;
        for i in 0..flood {
            r.client.send(&r.frames[i % r.frames.len()]).expect("send");
            offered += 1;
        }
        r.drain();
        // The kernel reports its drop count on datagrams queued after
        // the drops, so one more frame carries the final total.
        r.client.send(&r.frames[0]).expect("send");
        offered += 1;
        r.drain();
        let s = r.server.stats();
        assert!(s.rx_overflow > 0, "the flood never overflowed: {s:?}");
        assert_eq!(s.dropped(), 0, "{s:?}");
        assert_eq!(offered, s.responses + s.rx_overflow, "{s:?}");

        let mut m = MetricsRegistry::new();
        r.server.metrics_into(&mut m);
        let text = m.render_prometheus();
        let line = format!(
            "pipeleon_ingest_dropped_total{{reason=\"rx_overflow\"}} {}",
            s.rx_overflow
        );
        assert!(text.contains(&line), "missing {line:?} in\n{text}");
    }
}
