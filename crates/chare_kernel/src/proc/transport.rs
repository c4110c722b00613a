//! Socket plumbing for the multi-process backend.
//!
//! One small abstraction — [`Stream`] / [`Listener`] over Unix-domain
//! and TCP sockets — plus length-prefixed framing and the control
//! protocol ([`CtlMsg`]) spoken between parent and workers. Data-mesh
//! frames use the same `[u32 len][body]` framing; their bodies are
//! `[u64 sent_ns][u32 declared bytes][encoded SysMsg]` (see
//! `docs/PROCESS.md` for the full wire contract).
//!
//! Nothing here sleeps on the success path: accepts block in `poll(2)`
//! until a connection is pending or the deadline passes, and data links
//! read through a [`FrameReader`] that serves every frame a single
//! `read` brought in.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::time::{Duration, Instant};

use crate::wire::{Wire, WireReader};

/// Socket flavor for the multi-process backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcTransport {
    /// Unix-domain sockets under a per-run temp directory (default).
    Uds,
    /// TCP over loopback (`127.0.0.1`, ephemeral ports).
    Tcp,
}

/// A connected byte stream of either flavor.
#[derive(Debug)]
pub(crate) enum Stream {
    Uds(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    /// Connect to an address string of the form `uds:<path>` or
    /// `tcp:<host:port>`.
    pub(crate) fn connect(addr: &str) -> io::Result<Stream> {
        if let Some(path) = addr.strip_prefix("uds:") {
            Ok(Stream::Uds(UnixStream::connect(path)?))
        } else if let Some(hostport) = addr.strip_prefix("tcp:") {
            let s = TcpStream::connect(hostport)?;
            s.set_nodelay(true)?;
            Ok(Stream::Tcp(s))
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("bad transport address {addr:?}"),
            ))
        }
    }

    /// Connect, retrying until `deadline`; past it the error is
    /// `TimedOut`, carrying the last connect error. Every listener is
    /// bound before its address is published, so on the success path
    /// the first attempt connects; the retries (exponential backoff from
    /// 50 µs, capped at 10 ms) only cover a listener that is not there.
    pub(crate) fn connect_retry(addr: &str, deadline: Instant) -> io::Result<Stream> {
        let mut backoff = Duration::from_micros(50);
        loop {
            let err = match Stream::connect(addr) {
                Ok(s) => return Ok(s),
                Err(e) => e,
            };
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("connect deadline exceeded (last error: {err})"),
                ));
            }
            std::thread::sleep(backoff.min(left));
            backoff = (backoff * 2).min(Duration::from_millis(10));
        }
    }

    /// Clone the underlying descriptor (separate read/write halves).
    pub(crate) fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Uds(s) => Stream::Uds(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    pub(crate) fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Uds(s) => s.set_read_timeout(t),
            Stream::Tcp(s) => s.set_read_timeout(t),
        }
    }

    /// Hard-close both directions (crash-injection and teardown).
    pub(crate) fn shutdown(&self) {
        let _ = match self {
            Stream::Uds(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Uds(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Uds(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Uds(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// A listening socket of either flavor.
pub(crate) enum Listener {
    Uds(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    /// Bind a listener; returns it plus its publishable address string.
    /// UDS sockets live in `dir` under `name.sock`; TCP binds an
    /// ephemeral loopback port (and ignores `dir`/`name`).
    pub(crate) fn bind(
        transport: ProcTransport,
        dir: &Path,
        name: &str,
    ) -> io::Result<(Listener, String)> {
        match transport {
            ProcTransport::Uds => {
                let path = dir.join(format!("{name}.sock"));
                let l = UnixListener::bind(&path)?;
                Ok((Listener::Uds(l), format!("uds:{}", path.display())))
            }
            ProcTransport::Tcp => {
                let l = TcpListener::bind("127.0.0.1:0")?;
                let addr = l.local_addr()?;
                Ok((Listener::Tcp(l), format!("tcp:{addr}")))
            }
        }
    }

    fn raw_fd(&self) -> RawFd {
        match self {
            Listener::Uds(l) => l.as_raw_fd(),
            Listener::Tcp(l) => l.as_raw_fd(),
        }
    }

    /// Accept one connection, blocking until one is pending or
    /// `deadline` passes (`TimedOut`).
    pub(crate) fn accept_deadline(&self, deadline: Instant) -> io::Result<Stream> {
        // Nonblocking, so a connection that vanishes between `poll`
        // reporting it and `accept` cannot block past the deadline.
        match self {
            Listener::Uds(l) => l.set_nonblocking(true)?,
            Listener::Tcp(l) => l.set_nonblocking(true)?,
        }
        loop {
            let got = match self {
                Listener::Uds(l) => l.accept().map(|(s, _)| Stream::Uds(s)),
                Listener::Tcp(l) => l.accept().map(|(s, _)| {
                    let _ = s.set_nodelay(true);
                    Stream::Tcp(s)
                }),
            };
            match got {
                Ok(s) => {
                    // Accepted sockets inherit nonblocking on some
                    // platforms; force blocking mode for framed I/O.
                    match &s {
                        Stream::Uds(u) => u.set_nonblocking(false)?,
                        Stream::Tcp(t) => t.set_nonblocking(false)?,
                    }
                    return Ok(s);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if !wait_readable(self.raw_fd(), deadline)? {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "accept deadline exceeded",
                        ));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// The one system call `std` does not wrap: `poll(2)` on a single
/// descriptor.
mod sys {
    use std::os::raw::{c_int, c_short};

    #[repr(C)]
    pub(super) struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    pub(super) const POLLIN: c_short = 0x1;

    #[cfg(target_os = "linux")]
    pub(super) type NFds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    pub(super) type NFds = std::os::raw::c_uint;

    extern "C" {
        pub(super) fn poll(fds: *mut PollFd, nfds: NFds, timeout: c_int) -> c_int;
    }
}

/// Block until `fd` is readable (`Ok(true)`) or `deadline` passes
/// (`Ok(false)`).
fn wait_readable(fd: RawFd, deadline: Instant) -> io::Result<bool> {
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Ok(false);
        }
        // Round up: a sub-millisecond remainder must block, not spin.
        let ms = left.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32;
        let mut pfd = sys::PollFd {
            fd,
            events: sys::POLLIN,
            revents: 0,
        };
        // SAFETY: `pfd` is one valid, exclusively borrowed `pollfd` that
        // outlives the call, and `nfds` is 1; `poll` only writes its
        // `revents` field.
        let n = unsafe { sys::poll(&mut pfd, 1, ms) };
        if n > 0 {
            return Ok(true);
        }
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
    }
}

/// Hard cap on a single frame — far above any real message, low enough
/// that a corrupt length prefix fails fast instead of OOMing.
const MAX_FRAME: usize = 256 * 1024 * 1024;

/// Write one `[u32 len][body]` frame, in a single `write` so the reader
/// wakes once per frame.
pub(crate) fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)
}

fn check_frame_len(len: usize) -> io::Result<usize> {
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap"),
        ));
    }
    Ok(len)
}

/// Read one `[u32 len][body]` frame. `UnexpectedEof` at the length
/// prefix is the clean-close signal.
pub(crate) fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = check_frame_len(u32::from_le_bytes(len) as usize)?;
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(body)
}

/// Initial receive buffer of a [`FrameReader`]: room for a burst of
/// small frames, or sixteen 4 KiB jacobi rows, per `read` call.
const LINK_BUF: usize = 64 * 1024;

/// Buffered reader of `[u32 len][body]` frames: one `read` call takes
/// in whatever the socket holds (up to the buffer size), and every
/// complete frame it brought is then served without another system
/// call. Yields the same frames and errors as repeated [`read_frame`]
/// calls on the same stream.
pub(crate) struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
    /// Unconsumed bytes are `buf[start..end]`.
    start: usize,
    end: usize,
}

impl<R: Read> FrameReader<R> {
    pub(crate) fn new(inner: R) -> Self {
        FrameReader {
            inner,
            buf: vec![0; LINK_BUF],
            start: 0,
            end: 0,
        }
    }

    /// Body length of the buffered frame at the head, once its length
    /// prefix is in.
    fn head_len(&self) -> io::Result<Option<usize>> {
        if self.end - self.start < 4 {
            return Ok(None);
        }
        let prefix = &self.buf[self.start..self.start + 4];
        check_frame_len(u32::from_le_bytes(prefix.try_into().expect("4 bytes")) as usize).map(Some)
    }

    /// Whether [`next_frame`](Self::next_frame) will return without
    /// reading from the stream.
    pub(crate) fn has_frame(&self) -> bool {
        match self.head_len() {
            Ok(Some(len)) => self.end - self.start >= 4 + len,
            Ok(None) => false,
            Err(_) => true,
        }
    }

    /// The next frame's body. Reads from the stream only when no
    /// complete frame is buffered; `UnexpectedEof` once the stream ends,
    /// whether at a frame boundary or inside a frame.
    pub(crate) fn next_frame(&mut self) -> io::Result<&[u8]> {
        loop {
            let head = self.head_len()?;
            if let Some(len) = head {
                if self.end - self.start >= 4 + len {
                    let body = self.start + 4..self.start + 4 + len;
                    self.start = body.end;
                    return Ok(&self.buf[body]);
                }
            }
            // Move the partial frame to the front, make room for all of
            // it, and read more.
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if let Some(len) = head {
                if 4 + len > self.buf.len() {
                    self.buf.resize(4 + len, 0);
                }
            }
            let n = match self.inner.read(&mut self.buf[self.end..]) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            self.end += n;
        }
    }
}

/// Control-protocol messages between parent and workers. The sequence
/// per worker is `Hello → Go → Ready → Start → (run) → Stopped? → Halt
/// → Final`; `Stopped` comes only from the worker whose node called
/// `CkExit` (or quiesced), and `Final` carries the per-PE telemetry
/// shards the parent merges.
#[derive(Debug)]
pub(crate) enum CtlMsg {
    /// Worker → parent: identity, codec fingerprint, data-mesh address.
    Hello {
        rank: u32,
        fingerprint: u64,
        data_addr: String,
    },
    /// Parent → worker: every worker's data address, indexed by rank.
    Go { peers: Vec<String> },
    /// Worker → parent: data mesh wired, ready to start.
    Ready,
    /// Parent → worker: boot the node and run.
    Start,
    /// Worker → parent: my node stopped the machine; `result` is the
    /// wire-encoded `exit` payload, if one was deposited here.
    Stopped { result: Option<Vec<u8>> },
    /// Parent → worker: stop scheduling and report.
    Halt,
    /// Worker → parent: final report. `metrics` is a wire-encoded
    /// `(slice_ns, PeMetricSet)` shard, `trace` a wire-encoded
    /// `(Vec<TraceEvent>, dropped)` slice.
    Final {
        end_ns: u64,
        stats: Vec<(String, u64)>,
        metrics: Option<Vec<u8>>,
        trace: Option<Vec<u8>>,
    },
}

impl CtlMsg {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            CtlMsg::Hello {
                rank,
                fingerprint,
                data_addr,
            } => {
                out.push(0);
                rank.encode(&mut out);
                fingerprint.encode(&mut out);
                data_addr.encode(&mut out);
            }
            CtlMsg::Go { peers } => {
                out.push(1);
                peers.encode(&mut out);
            }
            CtlMsg::Ready => out.push(2),
            CtlMsg::Start => out.push(3),
            CtlMsg::Stopped { result } => {
                out.push(4);
                result.encode(&mut out);
            }
            CtlMsg::Halt => out.push(5),
            CtlMsg::Final {
                end_ns,
                stats,
                metrics,
                trace,
            } => {
                out.push(6);
                end_ns.encode(&mut out);
                stats.encode(&mut out);
                metrics.encode(&mut out);
                trace.encode(&mut out);
            }
        }
        out
    }

    pub(crate) fn decode(body: &[u8]) -> Option<CtlMsg> {
        if body.is_empty() {
            return None;
        }
        let mut r = WireReader::new(&body[1..]);
        let msg = match body[0] {
            0 => CtlMsg::Hello {
                rank: u32::decode(&mut r),
                fingerprint: u64::decode(&mut r),
                data_addr: String::decode(&mut r),
            },
            1 => CtlMsg::Go {
                peers: Vec::<String>::decode(&mut r),
            },
            2 => CtlMsg::Ready,
            3 => CtlMsg::Start,
            4 => CtlMsg::Stopped {
                result: Option::<Vec<u8>>::decode(&mut r),
            },
            5 => CtlMsg::Halt,
            6 => CtlMsg::Final {
                end_ns: u64::decode(&mut r),
                stats: Vec::<(String, u64)>::decode(&mut r),
                metrics: Option::<Vec<u8>>::decode(&mut r),
                trace: Option::<Vec<u8>>::decode(&mut r),
            },
            _ => return None,
        };
        if r.remaining() != 0 {
            return None;
        }
        Some(msg)
    }
}

/// Send one control message (framed).
pub(crate) fn send_ctl(w: &mut impl Write, msg: &CtlMsg) -> io::Result<()> {
    write_frame(w, &msg.encode())
}

/// Receive one control message (framed); decode failure is an
/// `InvalidData` error.
pub(crate) fn recv_ctl(r: &mut impl Read) -> io::Result<CtlMsg> {
    let body = read_frame(r)?;
    CtlMsg::decode(&body)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed control message"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: CtlMsg) -> CtlMsg {
        CtlMsg::decode(&msg.encode()).expect("decodes")
    }

    #[test]
    fn ctl_messages_roundtrip() {
        match roundtrip(CtlMsg::Hello {
            rank: 3,
            fingerprint: 0xDEAD_BEEF,
            data_addr: "uds:/tmp/x.sock".into(),
        }) {
            CtlMsg::Hello {
                rank,
                fingerprint,
                data_addr,
            } => {
                assert_eq!(rank, 3);
                assert_eq!(fingerprint, 0xDEAD_BEEF);
                assert_eq!(data_addr, "uds:/tmp/x.sock");
            }
            _ => panic!("wrong variant"),
        }
        match roundtrip(CtlMsg::Go {
            peers: vec!["a".into(), "b".into()],
        }) {
            CtlMsg::Go { peers } => assert_eq!(peers, vec!["a", "b"]),
            _ => panic!("wrong variant"),
        }
        assert!(matches!(roundtrip(CtlMsg::Ready), CtlMsg::Ready));
        assert!(matches!(roundtrip(CtlMsg::Start), CtlMsg::Start));
        assert!(matches!(roundtrip(CtlMsg::Halt), CtlMsg::Halt));
        match roundtrip(CtlMsg::Stopped {
            result: Some(vec![1, 2, 3]),
        }) {
            CtlMsg::Stopped { result } => assert_eq!(result, Some(vec![1, 2, 3])),
            _ => panic!("wrong variant"),
        }
        match roundtrip(CtlMsg::Final {
            end_ns: 99,
            stats: vec![("user_sent".into(), 7)],
            metrics: None,
            trace: Some(vec![9]),
        }) {
            CtlMsg::Final {
                end_ns,
                stats,
                metrics,
                trace,
            } => {
                assert_eq!(end_ns, 99);
                assert_eq!(stats, vec![("user_sent".to_string(), 7)]);
                assert_eq!(metrics, None);
                assert_eq!(trace, Some(vec![9]));
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn malformed_ctl_rejected() {
        assert!(CtlMsg::decode(&[]).is_none());
        assert!(CtlMsg::decode(&[42]).is_none());
        // Trailing garbage is a protocol error, not silently ignored.
        let mut bytes = CtlMsg::Ready.encode();
        bytes.push(0);
        assert!(CtlMsg::decode(&bytes).is_none());
    }

    #[test]
    fn frames_roundtrip_over_a_socketpair() {
        let (mut a, mut b) = UnixStream::pair().expect("socketpair");
        write_frame(&mut a, b"hello mesh").unwrap();
        write_frame(&mut a, b"").unwrap();
        assert_eq!(read_frame(&mut b).unwrap(), b"hello mesh");
        assert_eq!(read_frame(&mut b).unwrap(), b"");
        drop(a);
        assert_eq!(
            read_frame(&mut b).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn uds_listener_binds_and_accepts() {
        let dir = std::env::temp_dir().join(format!("ck-transport-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (l, addr) = Listener::bind(ProcTransport::Uds, &dir, "t").unwrap();
        assert!(addr.starts_with("uds:"));
        let addr2 = addr.clone();
        let join = std::thread::spawn(move || {
            let mut s = Stream::connect(&addr2).unwrap();
            send_ctl(&mut s, &CtlMsg::Ready).unwrap();
        });
        let mut s = l
            .accept_deadline(Instant::now() + Duration::from_secs(5))
            .unwrap();
        assert!(matches!(recv_ctl(&mut s).unwrap(), CtlMsg::Ready));
        join.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tcp_listener_binds_and_accepts() {
        let dir = std::env::temp_dir();
        let (l, addr) = Listener::bind(ProcTransport::Tcp, &dir, "t").unwrap();
        assert!(addr.starts_with("tcp:127.0.0.1:"));
        let addr2 = addr.clone();
        let join = std::thread::spawn(move || {
            let mut s = Stream::connect_retry(&addr2, Instant::now() + Duration::from_secs(5))
                .unwrap();
            write_frame(&mut s, &[7; 3]).unwrap();
        });
        let mut s = l
            .accept_deadline(Instant::now() + Duration::from_secs(5))
            .unwrap();
        assert_eq!(read_frame(&mut s).unwrap(), vec![7; 3]);
        join.join().unwrap();
    }

    #[test]
    fn accept_deadline_times_out() {
        let dir = std::env::temp_dir().join(format!("ck-transport-to-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (l, _addr) = Listener::bind(ProcTransport::Uds, &dir, "t").unwrap();
        let wait = Duration::from_millis(30);
        let t0 = Instant::now();
        let err = l.accept_deadline(t0 + wait).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        // It blocked until the deadline rather than giving up early.
        let took = t0.elapsed();
        assert!(
            took >= wait && took < wait + Duration::from_secs(2),
            "accept took {took:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn connect_retry_times_out_at_its_deadline() {
        let dir = std::env::temp_dir().join(format!("ck-transport-dl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let absent = format!("uds:{}", dir.join("nobody.sock").display());
        let wait = Duration::from_millis(100);
        let t0 = Instant::now();
        let err = Stream::connect_retry(&absent, t0 + wait).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        let took = t0.elapsed();
        assert!(
            took >= wait && took < wait + Duration::from_secs(2),
            "connect took {took:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `Read` that hands out `data` in pieces of the given sizes
    /// (cycling), never more than the caller's buffer holds.
    struct Chunked {
        data: Vec<u8>,
        pos: usize,
        sizes: Vec<usize>,
        next: usize,
    }

    impl Chunked {
        fn new(data: &[u8], sizes: Vec<usize>) -> Self {
            Chunked {
                data: data.to_vec(),
                pos: 0,
                sizes,
                next: 0,
            }
        }
    }

    impl Read for Chunked {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let want = self.sizes[self.next % self.sizes.len()];
            self.next += 1;
            let n = want.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// Every frame until the first error, plus that error's kind.
    fn frames_via_read_frame(mut r: impl Read) -> (Vec<Vec<u8>>, io::ErrorKind) {
        let mut out = Vec::new();
        loop {
            match read_frame(&mut r) {
                Ok(body) => out.push(body),
                Err(e) => return (out, e.kind()),
            }
        }
    }

    fn frames_via_frame_reader(r: impl Read) -> (Vec<Vec<u8>>, io::ErrorKind) {
        let mut fr = FrameReader::new(r);
        let mut out = Vec::new();
        loop {
            match fr.next_frame() {
                Ok(body) => out.push(body.to_vec()),
                Err(e) => return (out, e.kind()),
            }
        }
    }

    #[test]
    fn frame_reader_yields_what_read_frame_yields_under_any_chunking() {
        // Empty, tiny, typical and larger-than-the-buffer bodies.
        let bodies: Vec<Vec<u8>> = [0usize, 1, 12, 300, 4096, LINK_BUF + 4000, 7, 0, 65]
            .iter()
            .enumerate()
            .map(|(i, &n)| (0..n).map(|b| (b * 31 + i) as u8).collect())
            .collect();
        let mut stream = Vec::new();
        let mut boundaries = Vec::new();
        for b in &bodies {
            write_frame(&mut stream, b).unwrap();
            boundaries.push(stream.len());
        }
        // One read per frame: split exactly at every frame boundary.
        let mut at_boundaries = vec![boundaries[0]];
        at_boundaries.extend(boundaries.windows(2).map(|w| w[1] - w[0]));
        let chunkings: Vec<(&str, Vec<usize>)> = vec![
            ("one byte at a time", vec![1]),
            ("split at every frame boundary", at_boundaries),
            ("everything in one read", vec![usize::MAX]),
            ("odd sizes straddling prefixes", vec![3, 5, 2, 7, 11, 1]),
        ];
        let (expect, expect_end) = frames_via_read_frame(Chunked::new(&stream, vec![1]));
        assert_eq!(expect, bodies);
        assert_eq!(expect_end, io::ErrorKind::UnexpectedEof);
        for (name, sizes) in chunkings {
            let got = frames_via_frame_reader(Chunked::new(&stream, sizes.clone()));
            assert_eq!(got.0, expect, "{name}");
            assert_eq!(got.1, expect_end, "{name}");
            let old = frames_via_read_frame(Chunked::new(&stream, sizes));
            assert_eq!(old.0, expect, "{name} (read_frame)");
        }
    }

    #[test]
    fn frame_reader_fails_like_read_frame_on_bad_streams() {
        let mut good = Vec::new();
        write_frame(&mut good, b"first").unwrap();
        let mut truncated = good.clone();
        write_frame(&mut truncated, b"cut short").unwrap();
        truncated.truncate(truncated.len() - 3);
        let mut oversize = good.clone();
        oversize.extend_from_slice(&((MAX_FRAME + 1) as u32).to_le_bytes());
        oversize.extend_from_slice(&[0; 16]);
        for (stream, kind) in [
            (truncated, io::ErrorKind::UnexpectedEof),
            (oversize, io::ErrorKind::InvalidData),
        ] {
            for sizes in [vec![1], vec![usize::MAX]] {
                let old = frames_via_read_frame(Chunked::new(&stream, sizes.clone()));
                let new = frames_via_frame_reader(Chunked::new(&stream, sizes));
                assert_eq!(old, (vec![b"first".to_vec()], kind));
                assert_eq!(new, old);
            }
        }
    }

    #[test]
    fn bad_address_is_rejected() {
        assert!(Stream::connect("carrier-pigeon:coop-7").is_err());
    }
}
