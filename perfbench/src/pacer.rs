//! Open-loop paced sender: frames go out on a fixed schedule whether or
//! not earlier ones were answered, from one non-blocking socket on one
//! thread that interleaves sends and receives. Each round trip is timed
//! from the moment its frame was *due*, so a stall is charged to every
//! frame it delays; the sender's own lateness is recorded so a report
//! can tell a slow generator from a slow server.
//!
//! At most [`MAX_OUTSTANDING`] frames are in flight. A stalled server
//! (or sender) therefore holds frames back at the sender, where they
//! keep ageing from their due time, instead of overflowing a socket
//! buffer where the kernel would drop them unseen.

use pipeleon_net::{decode, encode_into, FieldMap};
use pipeleon_sim::Packet;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

/// Frames in flight at most; well under what a default loopback socket
/// receive buffer holds.
pub const MAX_OUTSTANDING: u64 = 128;

/// What one paced phase saw.
#[derive(Debug, Default)]
pub struct PacedReport {
    /// Frames sent.
    pub sent: u64,
    /// Round-trip time of every answered frame, ns, measured from its
    /// scheduled send time.
    pub rtt_ns: Vec<f64>,
    /// When each frame of `rtt_ns` was due, ns from the start of the phase.
    pub due_ns: Vec<u64>,
    /// How late each frame left relative to its schedule, ns.
    pub lateness_ns: Vec<f64>,
    /// Frames never answered within the grace period.
    pub lost: u64,
    /// Responses that were undecodable, duplicated or for no sent frame.
    pub bad_responses: u64,
    /// Fraction of the phase the sender spent in socket and codec work
    /// rather than waiting for the next due time.
    pub busy_frac: f64,
}

/// Schedule and traffic for one paced phase. Request `i` carries
/// `packets[i % packets.len()]` under sequence number `i`.
pub struct Pacing<'a> {
    /// The server to load.
    pub server: SocketAddr,
    /// The program's wire contract.
    pub map: &'a FieldMap,
    /// The packet set, cycled.
    pub packets: &'a [Packet],
    /// Offered rate, frames per second.
    pub rate: f64,
    /// How long frames are offered.
    pub duration: Duration,
    /// How long to wait for stragglers after the last send.
    pub grace: Duration,
}

impl Pacing<'_> {
    /// Runs the phase. `check(seq, packet)` is called with every decoded
    /// answer and returns an error to abort on a wrong verdict.
    pub fn run(
        &self,
        mut check: impl FnMut(u64, &Packet) -> Result<(), String>,
    ) -> Result<PacedReport, String> {
        let io_err = |e: io::Error| format!("paced sender: {e}");
        let socket = UdpSocket::bind(("127.0.0.1", 0)).map_err(io_err)?;
        socket.connect(self.server).map_err(io_err)?;
        socket.set_nonblocking(true).map_err(io_err)?;
        let total = (self.duration.as_secs_f64() * self.rate).floor() as u64;
        let interval_ns = 1e9 / self.rate;
        let due = |i: u64| (i as f64 * interval_ns) as u64;
        let mut answered = vec![false; total as usize];
        let mut frame = vec![0u8; self.map.frame_len()];
        let mut rx = vec![0u8; self.map.frame_len() + 64];
        let mut report = PacedReport {
            rtt_ns: Vec::with_capacity(total as usize),
            due_ns: Vec::with_capacity(total as usize),
            lateness_ns: Vec::with_capacity(total as usize),
            ..PacedReport::default()
        };
        let mut busy_ns = 0u64;
        let mut received = 0u64;
        let start = Instant::now();
        let stop_after = self.duration + self.grace;
        loop {
            let t0 = start.elapsed();
            let now = t0.as_nanos() as u64;
            let mut worked = false;
            while report.sent < total
                && due(report.sent) <= now
                && report.sent - received < MAX_OUTSTANDING
            {
                let seq = report.sent;
                let p = &self.packets[(seq % self.packets.len() as u64) as usize];
                let len = encode_into(&mut frame, p, self.map, seq, false)
                    .map_err(|e| format!("paced sender: encode seq {seq}: {e}"))?;
                match socket.send(&frame[..len]) {
                    Ok(_) => {}
                    // Socket buffer full: retry on the next turn; the
                    // frame's lateness keeps growing meanwhile.
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => return Err(io_err(e)),
                }
                let sent_at = start.elapsed().as_nanos() as u64;
                report
                    .lateness_ns
                    .push(sent_at.saturating_sub(due(seq)) as f64);
                report.sent += 1;
                worked = true;
            }
            loop {
                match socket.recv(&mut rx) {
                    Ok(n) => {
                        let at = start.elapsed().as_nanos() as u64;
                        worked = true;
                        let Ok(frame) = decode(&rx[..n], self.map) else {
                            report.bad_responses += 1;
                            continue;
                        };
                        let seq = frame.seq;
                        if seq >= report.sent || answered[seq as usize] {
                            report.bad_responses += 1;
                            continue;
                        }
                        answered[seq as usize] = true;
                        received += 1;
                        report.rtt_ns.push(at.saturating_sub(due(seq)) as f64);
                        report.due_ns.push(due(seq));
                        check(seq, &frame.packet)?;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    // A refused earlier datagram surfaces here on
                    // loopback; the frame itself is accounted as lost.
                    Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => break,
                    Err(e) => return Err(io_err(e)),
                }
            }
            if worked {
                busy_ns += (start.elapsed() - t0).as_nanos() as u64;
            }
            let done = report.sent == total && received == total;
            if done || start.elapsed() >= stop_after {
                break;
            }
            if !worked {
                std::hint::spin_loop();
            }
        }
        let end = start.elapsed().as_nanos() as u64;
        report.busy_frac = busy_ns as f64 / end.max(1) as f64;
        report.lost = total - received;
        // A lost frame misses any latency limit: it counts with the time
        // it had waited when the phase ended, at least the grace period.
        for seq in (0..total).filter(|&s| !answered[s as usize]) {
            report.rtt_ns.push(end.saturating_sub(due(seq)) as f64);
            report.due_ns.push(due(seq));
        }
        Ok(report)
    }
}
