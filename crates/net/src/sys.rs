//! Burst socket I/O: hand-declared Linux bindings for `recvmmsg` and
//! `sendmmsg`, and the owned header arrays the ingest server drives
//! them with.
//!
//! No `libc` crate is involved: std already links the C library, so
//! the few symbols, structs and constants needed are declared here with
//! the kernel's own layouts (`struct user_msghdr`, `struct mmsghdr`,
//! `struct iovec`, `struct cmsghdr`, `struct sockaddr_storage`; the
//! `size_t` fields are `usize`). Constant values are the asm-generic
//! ones shared by x86, arm, aarch64, riscv and powerpc.
//!
//! This is the only module of the crate allowed `unsafe`. Every site
//! carries a `// SAFETY:` comment. The header arrays hold raw pointers,
//! but those pointers are rewritten from buffers the same value owns
//! immediately before each syscall, and Rust code never dereferences
//! them.
//!
//! * [`RxBatch`] — one `recvmmsg` call into `cap` fixed slots, each
//!   with its peer address and `SO_RXQ_OVFL` control space.
//! * [`TxBatch`] — a contiguous response buffer plus staged messages
//!   (peer, byte range, segment size); one `sendmmsg` call sends them,
//!   each multi-segment message carrying a `UDP_SEGMENT` control
//!   message so the kernel splits it into equal datagrams.

#![allow(unsafe_code)]

#[cfg(not(target_os = "linux"))]
compile_error!("pipeleon-net's burst socket I/O uses Linux recvmmsg/sendmmsg");

use std::ffi::c_void;
use std::io;
use std::mem::size_of;
use std::net::UdpSocket;
use std::ops::Range;
use std::os::fd::AsRawFd;
use std::ptr;

type SockLen = u32;

const SOL_SOCKET: i32 = 1;
#[cfg(test)]
const SO_RCVBUF: i32 = 8;
const SO_RXQ_OVFL: i32 = 40;
const SOL_UDP: i32 = 17;
const UDP_SEGMENT: i32 = 103;
const MSG_DONTWAIT: i32 = 0x40;
const EIO: i32 = 5;
const EINVAL: i32 = 22;
/// The kernel's per-call message cap for `sendmmsg` (`UIO_MAXIOV`).
const MAX_MMSG: usize = 1024;

/// Most segments one `UDP_SEGMENT` message may carry on every kernel
/// that supports it (`UDP_MAX_SEGMENTS`, raised to 128 only in 6.x).
pub(crate) const MAX_SEGMENTS: usize = 64;
/// Most payload bytes one UDP datagram (and so one segmented message)
/// may carry over IPv4: 65535 − 20 (IPv4) − 8 (UDP).
const MAX_UDP_PAYLOAD: usize = 65_507;

/// `struct iovec`.
#[repr(C)]
struct IoVec {
    base: *mut c_void,
    len: usize,
}

/// `struct msghdr` (the kernel's `user_msghdr`).
#[repr(C)]
struct MsgHdr {
    name: *mut c_void,
    namelen: SockLen,
    iov: *mut IoVec,
    iovlen: usize,
    control: *mut c_void,
    controllen: usize,
    flags: i32,
}

/// `struct mmsghdr`.
#[repr(C)]
struct MMsgHdr {
    hdr: MsgHdr,
    len: u32,
}

/// `struct cmsghdr`; only its size and alignment are used, the fields
/// are read and written as bytes in [`write_cmsg`] and [`find_cmsg`].
#[repr(C)]
#[allow(dead_code)]
struct CmsgHdr {
    len: usize,
    level: i32,
    kind: i32,
}

/// `struct sockaddr_storage`: large and aligned enough for any family.
#[repr(C, align(8))]
#[derive(Clone, Copy)]
struct SockAddrStorage([u8; 128]);

extern "C" {
    fn recvmmsg(fd: i32, msgs: *mut MMsgHdr, vlen: u32, flags: i32, timeout: *mut c_void) -> i32;
    fn sendmmsg(fd: i32, msgs: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const c_void, len: SockLen) -> i32;
    #[cfg(test)]
    fn getsockopt(fd: i32, level: i32, name: i32, value: *mut c_void, len: *mut SockLen) -> i32;
}

/// `CMSG_ALIGN`: control messages are padded to `size_t` alignment.
const fn cmsg_align(n: usize) -> usize {
    (n + size_of::<usize>() - 1) & !(size_of::<usize>() - 1)
}

/// `CMSG_LEN(0)`: the aligned header size.
const CMSG_HDR: usize = cmsg_align(size_of::<CmsgHdr>());

/// Control space per message: `CMSG_SPACE` of one `u32`, with room to
/// spare. Aligned for `cmsghdr`.
#[repr(C, align(8))]
#[derive(Clone, Copy)]
struct CmsgSpace([u8; 32]);

/// Writes one control message into `buf`, returning `CMSG_SPACE` of it.
fn write_cmsg(buf: &mut [u8], level: i32, kind: i32, data: &[u8]) -> usize {
    let w = size_of::<usize>();
    buf[..w].copy_from_slice(&(CMSG_HDR + data.len()).to_ne_bytes());
    buf[w..w + 4].copy_from_slice(&level.to_ne_bytes());
    buf[w + 4..w + 8].copy_from_slice(&kind.to_ne_bytes());
    buf[CMSG_HDR..CMSG_HDR + data.len()].copy_from_slice(data);
    CMSG_HDR + cmsg_align(data.len())
}

/// The data of the first control message in `buf` with this level and
/// type. Total over arbitrary bytes.
fn find_cmsg(buf: &[u8], level: i32, kind: i32) -> Option<&[u8]> {
    let w = size_of::<usize>();
    let mut at = 0;
    while at + CMSG_HDR <= buf.len() {
        let len = usize::from_ne_bytes(buf[at..at + w].try_into().ok()?);
        if len < CMSG_HDR || len > buf.len() - at {
            return None;
        }
        let lvl = i32::from_ne_bytes(buf[at + w..at + w + 4].try_into().ok()?);
        let ty = i32::from_ne_bytes(buf[at + w + 4..at + w + 8].try_into().ok()?);
        if lvl == level && ty == kind {
            return Some(&buf[at + CMSG_HDR..at + len]);
        }
        at += cmsg_align(len);
    }
    None
}

fn empty_header() -> MMsgHdr {
    MMsgHdr {
        hdr: MsgHdr {
            name: ptr::null_mut(),
            namelen: 0,
            iov: ptr::null_mut(),
            iovlen: 0,
            control: ptr::null_mut(),
            controllen: 0,
            flags: 0,
        },
        len: 0,
    }
}

fn empty_iov() -> IoVec {
    IoVec {
        base: ptr::null_mut(),
        len: 0,
    }
}

/// A peer address in kernel form, as `recvmmsg` filled it in. Equal
/// addresses compare equal byte for byte, which is how the ingest
/// server groups responses into per-peer runs.
#[derive(Clone, Copy)]
pub(crate) struct SockAddr {
    storage: SockAddrStorage,
    len: SockLen,
}

impl SockAddr {
    fn bytes(&self) -> &[u8] {
        &self.storage.0[..(self.len as usize).min(self.storage.0.len())]
    }
}

impl Default for SockAddr {
    fn default() -> Self {
        SockAddr {
            storage: SockAddrStorage([0; 128]),
            len: 0,
        }
    }
}

impl PartialEq for SockAddr {
    fn eq(&self, other: &Self) -> bool {
        self.bytes() == other.bytes()
    }
}

/// Asks the kernel to attach the socket's cumulative receive-buffer
/// drop count (`SO_RXQ_OVFL`) to received datagrams.
pub(crate) fn enable_rxq_ovfl(socket: &UdpSocket) -> io::Result<()> {
    let on: i32 = 1;
    // SAFETY: `on` is a live i32 for the duration of the call and the
    // length passed is its size; the fd is owned by `socket`.
    let rc = unsafe {
        setsockopt(
            socket.as_raw_fd(),
            SOL_SOCKET,
            SO_RXQ_OVFL,
            (&on as *const i32).cast(),
            size_of::<i32>() as SockLen,
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// The socket's receive-buffer limit in bytes (`SO_RCVBUF`, as the
/// kernel reports it: twice the requested size, overhead included).
#[cfg(test)]
pub(crate) fn recv_buffer_bytes(socket: &UdpSocket) -> io::Result<usize> {
    let mut v: i32 = 0;
    let mut len = size_of::<i32>() as SockLen;
    // SAFETY: `v` and `len` are live locals the kernel writes at most
    // `len` (= 4) bytes into; the fd is owned by `socket`.
    let rc = unsafe {
        getsockopt(
            socket.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            (&mut v as *mut i32).cast(),
            &mut len,
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(v.max(0) as usize)
}

/// Whether `err`, returned for a message of `segments` segments, means
/// the route rejects UDP segmentation (`EIO`: no checksum offload;
/// `EINVAL`: segment size or count not accepted) rather than a fault of
/// the datagram itself. A one-segment message carries no `UDP_SEGMENT`
/// control message, so its errors are never a GSO rejection.
pub(crate) fn gso_rejected(err: &io::Error, segments: usize) -> bool {
    segments > 1 && matches!(err.raw_os_error(), Some(EIO) | Some(EINVAL))
}

/// Most frames of `frame` bytes one segmented message may carry.
pub(crate) fn max_segments(frame: usize) -> usize {
    (MAX_UDP_PAYLOAD / frame.max(1)).clamp(1, MAX_SEGMENTS)
}

/// Receive side: `cap` slots of `frame` bytes, filled by one
/// `recvmmsg` call per [`RxBatch::recv`].
pub(crate) struct RxBatch {
    frame: usize,
    /// One buffer per slot: small allocations the heap reuses, where
    /// one contiguous block would cross the allocator's mmap threshold
    /// and be mapped and unmapped with every server.
    bufs: Vec<Vec<u8>>,
    names: Vec<SockAddr>,
    ctrl: Vec<CmsgSpace>,
    iovs: Vec<IoVec>,
    hdrs: Vec<MMsgHdr>,
}

// SAFETY: only `iovs` and `hdrs` hold raw pointers, and `recv`
// rewrites them from the value's own heap buffers (`bufs`, `names`,
// `ctrl`, `iovs`) before every syscall; Rust code never dereferences
// them, so moving the value to another thread cannot create a shared
// or dangling access. Every other field is plain owned data.
unsafe impl Send for RxBatch {}

impl RxBatch {
    /// Allocates `cap` slots of `frame` bytes; nothing grows afterwards.
    pub(crate) fn new(cap: usize, frame: usize) -> RxBatch {
        let cap = cap.max(1);
        let frame = frame.max(1);
        RxBatch {
            frame,
            bufs: (0..cap).map(|_| vec![0; frame]).collect(),
            names: vec![SockAddr::default(); cap],
            ctrl: vec![CmsgSpace([0; 32]); cap],
            iovs: (0..cap).map(|_| empty_iov()).collect(),
            hdrs: (0..cap).map(|_| empty_header()).collect(),
        }
    }

    /// One non-blocking `recvmmsg` into the slots. Returns how many
    /// datagrams arrived (≥ 1); an empty socket is `WouldBlock`.
    pub(crate) fn recv(&mut self, socket: &UdpSocket) -> io::Result<usize> {
        let slots = self
            .hdrs
            .iter_mut()
            .zip(self.iovs.iter_mut())
            .zip(self.names.iter_mut())
            .zip(self.ctrl.iter_mut())
            .zip(self.bufs.iter_mut());
        for ((((h, iov), name), ctrl), buf) in slots {
            iov.base = buf.as_mut_ptr().cast();
            iov.len = buf.len();
            h.hdr.name = (&mut name.storage as *mut SockAddrStorage).cast();
            h.hdr.namelen = size_of::<SockAddrStorage>() as SockLen;
            h.hdr.iov = iov;
            h.hdr.iovlen = 1;
            h.hdr.control = ctrl.0.as_mut_ptr().cast();
            h.hdr.controllen = ctrl.0.len();
            h.hdr.flags = 0;
            h.len = 0;
        }
        let vlen = u32::try_from(self.hdrs.len()).unwrap_or(u32::MAX);
        // SAFETY: every header points at an iovec, a sockaddr_storage and
        // a control buffer owned by `self` and sized as declared, all set
        // just above; `vlen` does not exceed the header array's length;
        // the kernel writes only within those sizes and `&mut self` keeps
        // every buffer exclusively borrowed for the call.
        let n = unsafe {
            recvmmsg(
                socket.as_raw_fd(),
                self.hdrs.as_mut_ptr(),
                vlen,
                MSG_DONTWAIT,
                ptr::null_mut(),
            )
        };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        let n = n as usize;
        for (h, name) in self.hdrs[..n].iter().zip(&mut self.names) {
            // The kernel reports the address's full length, which could
            // exceed the storage if it were ever truncated.
            name.len = h.hdr.namelen.min(size_of::<SockAddrStorage>() as SockLen);
        }
        Ok(n)
    }

    /// The datagram in slot `i` of the last [`RxBatch::recv`].
    pub(crate) fn datagram(&self, i: usize) -> &[u8] {
        let len = (self.hdrs[i].len as usize).min(self.frame);
        &self.bufs[i][..len]
    }

    /// Whether the datagram in slot `i` filled its slot, and so may have
    /// been truncated by the kernel.
    pub(crate) fn filled(&self, i: usize) -> bool {
        self.hdrs[i].len as usize >= self.frame
    }

    /// The peer that sent the datagram in slot `i`.
    pub(crate) fn peer(&self, i: usize) -> &SockAddr {
        &self.names[i]
    }

    /// The socket's cumulative receive-buffer drop count as of the
    /// datagram in slot `i`, when the kernel attached one (it omits the
    /// control message while the count is still 0).
    pub(crate) fn rxq_drops(&self, i: usize) -> Option<u32> {
        let len = self.hdrs[i].hdr.controllen.min(self.ctrl[i].0.len());
        let data = find_cmsg(&self.ctrl[i].0[..len], SOL_SOCKET, SO_RXQ_OVFL)?;
        Some(u32::from_ne_bytes(data.get(..4)?.try_into().ok()?))
    }
}

/// One staged outgoing message.
struct Staged {
    peer: SockAddr,
    bytes: Range<usize>,
    segment: usize,
}

/// Send side: a contiguous response buffer and up to `cap` staged
/// messages, sent by `sendmmsg` from [`TxBatch::send`].
pub(crate) struct TxBatch {
    out: Vec<u8>,
    staged: Vec<Staged>,
    ctrl: Vec<CmsgSpace>,
    iovs: Vec<IoVec>,
    hdrs: Vec<MMsgHdr>,
}

// SAFETY: only `iovs` and `hdrs` hold raw pointers, and `send`
// rewrites them from the value's own buffers (`out`, `staged`, `ctrl`,
// `iovs`) before every syscall; Rust code never dereferences them.
// Every other field is plain owned data.
unsafe impl Send for TxBatch {}

impl TxBatch {
    /// Allocates room for `cap` messages. The response buffer grows on
    /// demand in [`TxBatch::buf_mut`] and never shrinks.
    pub(crate) fn new(cap: usize) -> TxBatch {
        let cap = cap.max(1);
        TxBatch {
            out: Vec::new(),
            staged: Vec::with_capacity(cap),
            ctrl: vec![CmsgSpace([0; 32]); cap],
            iovs: (0..cap).map(|_| empty_iov()).collect(),
            hdrs: (0..cap).map(|_| empty_header()).collect(),
        }
    }

    /// The first `len` bytes of the response buffer, to encode frames
    /// into; grows the buffer if it is shorter.
    pub(crate) fn buf_mut(&mut self, len: usize) -> &mut [u8] {
        if self.out.len() < len {
            self.out.resize(len, 0);
        }
        &mut self.out[..len]
    }

    /// Drops every staged message.
    pub(crate) fn clear(&mut self) {
        self.staged.clear();
    }

    /// Stages one message to `peer` carrying `bytes` of the response
    /// buffer. When the range is longer than `segment`, the kernel
    /// splits it into datagrams of `segment` bytes (`UDP_SEGMENT`).
    /// At most `cap` messages may be staged.
    pub(crate) fn stage(&mut self, peer: &SockAddr, bytes: Range<usize>, segment: usize) {
        assert!(self.staged.len() < self.hdrs.len(), "tx batch is full");
        assert!(bytes.end <= self.out.len(), "range outside the buffer");
        self.staged.push(Staged {
            peer: *peer,
            bytes,
            segment,
        });
    }

    /// One `sendmmsg` call over the staged messages from index `from`.
    /// Returns how many the kernel accepted (≥ 1); a failure of message
    /// `from` itself is returned as the error.
    pub(crate) fn send(&mut self, socket: &UdpSocket, from: usize) -> io::Result<usize> {
        assert!(from < self.staged.len(), "nothing staged from {from}");
        let base = self.out.as_mut_ptr();
        let count = (self.staged.len() - from).min(MAX_MMSG);
        let msgs = self
            .hdrs
            .iter_mut()
            .zip(self.iovs.iter_mut())
            .zip(self.ctrl.iter_mut())
            .zip(&mut self.staged[from..from + count]);
        for (((h, iov), ctrl), m) in msgs {
            iov.base = base.wrapping_add(m.bytes.start).cast();
            iov.len = m.bytes.len();
            h.hdr.name = (&mut m.peer.storage as *mut SockAddrStorage).cast();
            h.hdr.namelen = m.peer.len;
            h.hdr.iov = iov;
            h.hdr.iovlen = 1;
            if m.bytes.len() > m.segment {
                let gso = u16::try_from(m.segment).unwrap_or(u16::MAX);
                let space = write_cmsg(&mut ctrl.0, SOL_UDP, UDP_SEGMENT, &gso.to_ne_bytes());
                h.hdr.control = ctrl.0.as_mut_ptr().cast();
                h.hdr.controllen = space;
            } else {
                h.hdr.control = ptr::null_mut();
                h.hdr.controllen = 0;
            }
            h.hdr.flags = 0;
            h.len = 0;
        }
        // SAFETY: the first `count` headers were set just above; each
        // points at an iovec over `self.out` (every staged range was
        // checked against its length in `stage`, and `out` never
        // shrinks), at its staged peer
        // address with that address's length, and at an owned control
        // buffer or none. The kernel only reads them (and writes each
        // header's `len`); `&mut self` keeps them alive and unaliased.
        let n = unsafe {
            sendmmsg(
                socket.as_raw_fd(),
                self.hdrs.as_mut_ptr(),
                count as u32,
                MSG_DONTWAIT,
            )
        };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(n as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmsg_round_trips_and_parsing_is_total() {
        let mut buf = [0u8; 32];
        let space = write_cmsg(&mut buf, SOL_UDP, UDP_SEGMENT, &1234u16.to_ne_bytes());
        assert_eq!(space, CMSG_HDR + size_of::<usize>());
        let data = find_cmsg(&buf[..space], SOL_UDP, UDP_SEGMENT).expect("found");
        assert_eq!(data, 1234u16.to_ne_bytes());
        assert_eq!(find_cmsg(&buf[..space], SOL_SOCKET, SO_RXQ_OVFL), None);
        // Truncated or garbage control data never panics.
        for cut in 0..space {
            let _ = find_cmsg(&buf[..cut], SOL_UDP, UDP_SEGMENT);
        }
        assert_eq!(find_cmsg(&[0xFF; 32], SOL_UDP, UDP_SEGMENT), None);
        assert_eq!(find_cmsg(&[0x00; 32], SOL_UDP, UDP_SEGMENT), None);
    }

    #[test]
    fn gso_rejection_is_eio_or_einval_on_multi_segment_messages_only() {
        let eio = io::Error::from_raw_os_error(EIO);
        let einval = io::Error::from_raw_os_error(EINVAL);
        assert!(gso_rejected(&eio, 2));
        assert!(gso_rejected(&einval, 64));
        assert!(!gso_rejected(&eio, 1), "a single frame carries no GSO");
        assert!(!gso_rejected(&einval, 1));
        for other in [
            io::Error::from(io::ErrorKind::WouldBlock),
            io::Error::from_raw_os_error(90),  // EMSGSIZE
            io::Error::from_raw_os_error(111), // ECONNREFUSED
        ] {
            assert!(!gso_rejected(&other, 8), "{other}");
        }
    }

    #[test]
    fn segment_cap_respects_count_and_datagram_size() {
        assert_eq!(max_segments(74), MAX_SEGMENTS);
        assert_eq!(max_segments(1_500), 43);
        assert_eq!(max_segments(70_000), 1);
        assert_eq!(max_segments(0), MAX_SEGMENTS);
    }

    #[test]
    fn sockaddr_equality_is_over_the_filled_bytes() {
        let mut a = SockAddr::default();
        a.storage.0[..4].copy_from_slice(&[2, 0, 1, 2]);
        a.len = 4;
        let mut b = a;
        b.storage.0[10] = 9; // beyond `len`: ignored
        assert!(a == b);
        b.storage.0[3] = 7;
        assert!(a != b);
        b = a;
        b.len = 5;
        assert!(a != b);
    }
}
