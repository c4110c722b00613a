//! The worker side of the multi-process backend: one PE, one process.
//!
//! [`maybe_worker`] is the divert point every `run_procs`-capable binary
//! calls first. In the parent it returns immediately; in a re-invoked
//! worker (`CK_PE_RANK` set) it builds the program from `CK_SPEC`,
//! performs the socket handshake, runs the PE on the real-time driver the
//! thread backend runs too ([`multicomputer::drive`]) and exits the
//! process.
//!
//! The driver owns the scheduling policy: drain arrivals, fire a due
//! alarm, step the node, and block when idle until the next event or the
//! alarm deadline. This file supplies only the transport ([`ProcCtx`]):
//! encoded frames over the data mesh where the thread backend sends on
//! channels, real alarm deadlines, and an after-step hook that delivers
//! self-sends, flushes the per-destination coalescing buffers and runs
//! the crash-injection hook.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use multicomputer::{
    drive, Cost, NetCtx, NodeFactory, NodeProgram, Packet, Payload, Pe, Replayable, StepKind,
    Transport,
};

use crate::envelope::SysMsg;
use crate::metrics::MetricsSink;
use crate::program::Program;
use crate::registry::Registry;
use crate::trace::TraceSink;
use crate::wire::{decode_sys, encode_sys, Wire, WireReader};

use super::shim::LossShim;
use super::transport::{recv_ctl, send_ctl, CtlMsg, FrameReader, Listener, Stream};
use super::{CrashHook, CrashMode, ProcOpts, ENV_ADDR, ENV_CRASH, ENV_OPTS, ENV_RANK, ENV_SPEC};

/// Handshake and teardown I/O deadline.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(30);

/// Worker exit status when the parent's control socket closes before
/// `Halt` (the parent is gone or gave up on the run).
const EXIT_CTL_CLOSED: i32 = 3;

/// Worker exit status when a data-mesh link fails: a malformed frame
/// (an oversize length prefix, or a body shorter than its 12-byte
/// header) or a read error other than the peer closing. The parent
/// reports it as `WorkerExit { code: Some(4) }`. A message that does not
/// decode panics the link's reader, which exits with this status too,
/// unless the build aborts on panic (then the code is `None`).
const EXIT_BAD_LINK: i32 = 4;

/// Divert into the worker loop when this process is a `run_procs`
/// worker; a no-op otherwise.
///
/// Call this before the first [`Program::run_procs`] — in a binary's
/// `main`, or as the first line of the test a
/// [`ProcConfig::for_test`](super::ProcConfig::for_test) re-invokes.
/// `build` must construct the same program the parent runs from the
/// opaque spec string (run-level knobs — reliable delivery, tracing,
/// metrics, RNG seed — are shipped from the parent and applied on top,
/// so only the structural registrations need to match; the fingerprint
/// handshake verifies the wire table did).
///
/// When diverting, this function **never returns**: it runs the PE to
/// completion and exits the process.
pub fn maybe_worker(build: impl FnOnce(&str) -> Program) {
    let Ok(rank) = std::env::var(ENV_RANK) else {
        return;
    };
    let rank: u32 = rank
        .parse()
        .unwrap_or_else(|_| panic!("{ENV_RANK}={rank:?} is not a rank"));
    let spec = std::env::var(ENV_SPEC).unwrap_or_default();
    let mut prog = build(&spec);
    let opts_s =
        std::env::var(ENV_OPTS).unwrap_or_else(|_| panic!("worker {rank}: {ENV_OPTS} missing"));
    let opts = ProcOpts::parse(&opts_s)
        .unwrap_or_else(|| panic!("worker {rank}: malformed {ENV_OPTS}: {opts_s:?}"));
    prog.set_run_overrides(opts.rng_seed, opts.reliable, opts.tracing, opts.metrics);
    let addr =
        std::env::var(ENV_ADDR).unwrap_or_else(|_| panic!("worker {rank}: {ENV_ADDR} missing"));
    let crash = std::env::var(ENV_CRASH)
        .ok()
        .and_then(|s| CrashHook::parse(&s))
        .filter(|h| h.rank == rank);
    run_worker(rank, prog, opts, &addr, crash);
}

/// One decoded data-mesh frame.
struct Frame {
    bytes: u32,
    sent_ns: u64,
    sys: SysMsg,
}

/// Events multiplexed onto the worker's single scheduler channel.
enum Ev {
    /// Every frame one read brought in from peer PE `from`, in link
    /// order.
    Data {
        from: u32,
        frames: Vec<Frame>,
    },
    Start,
    Halt,
    /// The parent's control socket closed — the run is over, one way or
    /// another.
    CtlClosed,
}

/// Write half of one peer link, with its coalescing buffer.
struct PeerOut {
    stream: Stream,
    buf: Vec<u8>,
    frames: usize,
}

/// The worker's [`NetCtx`] and driver [`Transport`]: encodes remote
/// sends onto the mesh, queues self-sends locally, and implements real
/// alarm deadlines.
struct ProcCtx {
    me: Pe,
    npes: usize,
    start: Instant,
    reg: Arc<Registry>,
    ctl: Stream,
    peers: Vec<Option<PeerOut>>,
    local: VecDeque<Packet>,
    stopped: bool,
    /// The parent's `Halt` arrived.
    halted: bool,
    result: Option<Payload>,
    alarm_at: Option<u64>,
    batch_bytes: usize,
    batch_frames: usize,
    shim: Option<LossShim>,
    crash: Option<CrashHook>,
    user_steps: u64,
}

impl ProcCtx {
    fn push_frame(&mut self, to: Pe, frame: &[u8]) {
        let (bb, bf) = (self.batch_bytes, self.batch_frames);
        let Some(peer) = self.peers[to.index()].as_mut() else {
            return; // peer already torn down; late sends are benign
        };
        peer.buf.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        peer.buf.extend_from_slice(frame);
        peer.frames += 1;
        if peer.buf.len() >= bb || peer.frames >= bf {
            Self::flush_peer(peer);
        }
    }

    fn flush_peer(peer: &mut PeerOut) {
        if !peer.buf.is_empty() {
            // A write to a dead peer fails with EPIPE; that is teardown
            // noise (the parent detects the death), not our problem.
            let _ = peer.stream.write_all(&peer.buf);
            peer.buf.clear();
            peer.frames = 0;
        }
    }

    /// Flush every destination's coalescing buffer (called at each
    /// scheduling-step boundary, so batching adds no cross-step latency).
    fn flush_all(&mut self) {
        for peer in self.peers.iter_mut().flatten() {
            Self::flush_peer(peer);
        }
    }

    /// Fire the crash-injection hook once its step count is reached.
    fn maybe_crash(&mut self) {
        let Some(hook) = self.crash else { return };
        if self.user_steps < hook.after {
            return;
        }
        self.crash = None;
        match hook.mode {
            CrashMode::Exit(code) => std::process::exit(code),
            CrashMode::Close => {
                // Hang with every socket closed: the parent must notice
                // the disconnect, not an exit status.
                self.ctl.shutdown();
                for peer in self.peers.iter().flatten() {
                    peer.stream.shutdown();
                }
                std::thread::sleep(Duration::from_secs(600));
                std::process::exit(0);
            }
        }
    }
}

impl NetCtx for ProcCtx {
    fn me(&self) -> Pe {
        self.me
    }
    fn num_pes(&self) -> usize {
        self.npes
    }
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
    fn send(&mut self, to: Pe, bytes: u32, payload: Payload) {
        assert!(to.index() < self.npes, "send to PE out of range");
        let now = self.now_ns();
        if to == self.me {
            self.local.push_back(Packet {
                from: self.me,
                bytes,
                at_ns: now,
                sent_ns: now,
                payload,
            });
            return;
        }
        // Every kernel egress payload is a SysMsg (possibly behind a
        // Replayable retransmission generator); materialize one copy
        // and encode it. Frame body: [sent_ns][declared bytes][sys].
        let payload = Replayable::materialize(payload);
        let sys = payload.downcast::<SysMsg>().unwrap_or_else(|_| {
            panic!("procs backend can only ship kernel SysMsg payloads across PEs")
        });
        let mut body = Vec::with_capacity(bytes as usize + 16);
        body.extend_from_slice(&now.to_le_bytes());
        body.extend_from_slice(&bytes.to_le_bytes());
        encode_sys(&self.reg, &sys, &mut body);
        match self.shim.as_mut() {
            Some(shim) => {
                for frame in shim.outgoing(to.0, body) {
                    self.push_frame(to, &frame);
                }
            }
            None => self.push_frame(to, &body),
        }
    }
    fn charge(&mut self, _cost: Cost) {
        // Real work takes real time, as on the thread backend.
    }
    fn stop(&mut self) {
        self.stopped = true;
    }
    fn deposit(&mut self, result: Payload) {
        self.result = Some(result);
    }
    fn set_alarm(&mut self, after: Cost) {
        self.alarm_at = Some(self.now_ns() + after.as_nanos().max(1));
    }
}

impl Transport for ProcCtx {
    type Event = Ev;

    fn on_event<N: NodeProgram>(&mut self, ev: Ev, node: &mut N) {
        match ev {
            Ev::Data { from, frames } => {
                for f in frames {
                    let now = self.now_ns();
                    node.incoming(Packet {
                        from: Pe(from),
                        bytes: f.bytes,
                        at_ns: now,
                        // Clocks are per-process; clamp so cross-PE
                        // latency metrics never underflow on skew.
                        sent_ns: f.sent_ns.min(now),
                        payload: Box::new(f.sys),
                    });
                }
            }
            Ev::Halt => self.halted = true,
            Ev::CtlClosed => std::process::exit(EXIT_CTL_CLOSED),
            Ev::Start => {}
        }
    }

    /// Deliver the self-sends the handler just made, flush coalescing
    /// buffers (so batching adds no cross-step latency) and count user
    /// steps for the crash hook.
    fn after_step<N: NodeProgram>(&mut self, node: &mut N, kind: Option<StepKind>) {
        while let Some(mut pkt) = self.local.pop_front() {
            pkt.payload = Replayable::materialize(pkt.payload);
            node.incoming(pkt);
        }
        self.flush_all();
        if kind == Some(StepKind::User) {
            self.user_steps += 1;
            self.maybe_crash();
        }
    }

    fn stopped(&self) -> bool {
        self.stopped || self.halted
    }

    fn alarm_at(&self) -> Option<u64> {
        self.alarm_at
    }

    fn disarm(&mut self) {
        self.alarm_at = None;
    }
}

/// Decode one data frame body: `[u64 sent_ns][u32 declared bytes][sys]`.
fn decode_frame(reg: &Arc<Registry>, body: &[u8]) -> io::Result<Frame> {
    if body.len() < 12 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "data frame of {} bytes is shorter than its 12-byte header",
                body.len()
            ),
        ));
    }
    let sent_ns = u64::from_le_bytes(body[0..8].try_into().expect("8 bytes"));
    let bytes = u32::from_le_bytes(body[8..12].try_into().expect("4 bytes"));
    let sys = decode_sys(reg, &mut WireReader::new(&body[12..]));
    Ok(Frame {
        bytes,
        sent_ns,
        sys,
    })
}

/// Hand one link's frames to the scheduler, a read's worth per event,
/// until the peer closes or the scheduler is gone (`Ok`) or the link
/// carries something malformed (`Err`). A peer that exits closes or
/// resets its end; classifying its death is the parent's job.
fn pump_link(
    from: u32,
    link: &mut FrameReader<impl Read>,
    reg: &Arc<Registry>,
    tx: &Sender<Ev>,
) -> io::Result<()> {
    loop {
        let mut frames = Vec::new();
        loop {
            let body = match link.next_frame() {
                Ok(body) => body,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::UnexpectedEof
                            | io::ErrorKind::ConnectionReset
                            | io::ErrorKind::ConnectionAborted
                    ) =>
                {
                    return Ok(())
                }
                Err(e) => return Err(e),
            };
            frames.push(decode_frame(reg, body)?);
            if !link.has_frame() {
                break;
            }
        }
        if tx.send(Ev::Data { from, frames }).is_err() {
            return Ok(());
        }
    }
}

/// One reader thread per link keeps draining its socket while the
/// scheduler computes or blocks in `write_all`, so two workers writing
/// to each other can never both stall on full socket buffers.
fn spawn_data_reader(from: u32, stream: Stream, reg: Arc<Registry>, tx: Sender<Ev>) {
    std::thread::Builder::new()
        .name(format!("ck-mesh-{from}"))
        .spawn(move || {
            let mut link = FrameReader::new(stream);
            // A decode panic is a malformed frame as well.
            let pumped =
                panic::catch_unwind(AssertUnwindSafe(|| pump_link(from, &mut link, &reg, &tx)));
            match pumped {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    eprintln!("ck worker: data link from PE {from}: {e}");
                    std::process::exit(EXIT_BAD_LINK);
                }
                Err(_) => std::process::exit(EXIT_BAD_LINK),
            }
        })
        .expect("spawn mesh reader");
}

fn spawn_ctl_reader(stream: Stream, tx: Sender<Ev>) {
    std::thread::Builder::new()
        .name("ck-ctl".to_string())
        .spawn(move || {
            let mut stream = stream;
            let _ = stream.set_read_timeout(None);
            loop {
                match recv_ctl(&mut stream) {
                    Ok(CtlMsg::Start) => {
                        if tx.send(Ev::Start).is_err() {
                            break;
                        }
                    }
                    Ok(CtlMsg::Halt) => {
                        let _ = tx.send(Ev::Halt);
                        break;
                    }
                    Ok(_) => {} // unexpected but harmless
                    Err(_) => {
                        let _ = tx.send(Ev::CtlClosed);
                        break;
                    }
                }
            }
        })
        .expect("spawn control reader");
}

/// Run worker PE `rank` to completion and exit the process.
fn run_worker(rank: u32, prog: Program, opts: ProcOpts, addr: &str, crash: Option<CrashHook>) -> ! {
    let npes = opts.npes;
    assert!(
        (rank as usize) < npes,
        "worker rank {rank} out of range for {npes} PEs"
    );
    if opts.loss.is_some() && prog.reliable_cfg().is_none() {
        panic!("loss shim requires reliable delivery (worker {rank})");
    }

    // -- control handshake ------------------------------------------------
    let mut ctl = Stream::connect_retry(addr, Instant::now() + HANDSHAKE_TIMEOUT)
        .unwrap_or_else(|e| panic!("worker {rank}: connect control {addr}: {e}"));
    ctl.set_read_timeout(Some(HANDSHAKE_TIMEOUT)).expect("set timeout");

    // The data listener must exist before Hello publishes its address.
    // UDS data sockets live beside the control socket; TCP ignores the
    // directory.
    let dir = addr
        .strip_prefix("uds:")
        .and_then(|p| std::path::Path::new(p).parent().map(|p| p.to_path_buf()))
        .unwrap_or_else(std::env::temp_dir);
    let (listener, data_addr) =
        Listener::bind(super::transport_of(addr), &dir, &format!("data-{rank}"))
            .unwrap_or_else(|e| panic!("worker {rank}: bind data listener: {e}"));

    send_ctl(
        &mut ctl,
        &CtlMsg::Hello {
            rank,
            fingerprint: prog.registry().wire.fingerprint(),
            data_addr,
        },
    )
    .unwrap_or_else(|e| panic!("worker {rank}: send Hello: {e}"));

    let peers_addrs = match recv_ctl(&mut ctl) {
        Ok(CtlMsg::Go { peers }) => peers,
        Ok(_) => panic!("worker {rank}: expected Go"),
        Err(e) => panic!("worker {rank}: waiting for Go: {e}"),
    };
    assert_eq!(peers_addrs.len(), npes, "worker {rank}: Go peer count");

    // -- data mesh ---------------------------------------------------------
    // Worker i accepts from every j > i and connects to every j < i; the
    // connector identifies itself with a 4-byte rank header.
    let expected_in = npes - 1 - rank as usize;
    let accepting = std::thread::Builder::new()
        .name("ck-mesh-accept".to_string())
        .spawn(move || -> std::io::Result<Vec<(u32, Stream)>> {
            let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
            let mut conns = Vec::with_capacity(expected_in);
            for _ in 0..expected_in {
                let mut s = listener.accept_deadline(deadline)?;
                let mut hdr = [0u8; 4];
                s.read_exact(&mut hdr)?;
                conns.push((u32::from_le_bytes(hdr), s));
            }
            Ok(conns)
        })
        .expect("spawn mesh acceptor");

    let mut links: Vec<Option<Stream>> = (0..npes).map(|_| None).collect();
    for (j, peer_addr) in peers_addrs.iter().enumerate().take(rank as usize) {
        let mut s = Stream::connect_retry(peer_addr, Instant::now() + HANDSHAKE_TIMEOUT)
            .unwrap_or_else(|e| panic!("worker {rank}: connect peer {j}: {e}"));
        s.write_all(&rank.to_le_bytes())
            .unwrap_or_else(|e| panic!("worker {rank}: rank header to {j}: {e}"));
        links[j] = Some(s);
    }
    let accepted = accepting
        .join()
        .expect("mesh acceptor panicked")
        .unwrap_or_else(|e| panic!("worker {rank}: accepting mesh peers: {e}"));
    for (j, s) in accepted {
        assert!(
            (j as usize) < npes && links[j as usize].is_none() && j != rank,
            "worker {rank}: bogus mesh peer {j}"
        );
        links[j as usize] = Some(s);
    }

    // -- reader threads and scheduler channel -----------------------------
    let reg = Arc::clone(prog.registry());
    let (tx, rx): (Sender<Ev>, Receiver<Ev>) = mpsc::channel();
    let mut peers: Vec<Option<PeerOut>> = (0..npes).map(|_| None).collect();
    for (j, link) in links.into_iter().enumerate() {
        let Some(link) = link else { continue };
        let read_half = link.try_clone().expect("clone mesh stream");
        spawn_data_reader(j as u32, read_half, Arc::clone(&reg), tx.clone());
        peers[j] = Some(PeerOut {
            stream: link,
            buf: Vec::new(),
            frames: 0,
        });
    }
    let ctl_read = ctl.try_clone().expect("clone control stream");
    spawn_ctl_reader(ctl_read, tx.clone());

    send_ctl(&mut ctl, &CtlMsg::Ready).unwrap_or_else(|e| panic!("worker {rank}: Ready: {e}"));

    // -- node construction -------------------------------------------------
    let sink = prog.tracing_cfg().map(|c| TraceSink::shared(npes, c));
    let msink = prog
        .metrics_cfg()
        .map(|c| MetricsSink::shared(npes, c, 0, 0));
    let factory = prog.factory(opts.topology.clone(), sink.clone(), msink.clone());
    let mut node = factory.build(Pe(rank), npes);
    let mut ctx = ProcCtx {
        me: Pe(rank),
        npes,
        start: Instant::now(),
        reg,
        ctl,
        peers,
        local: VecDeque::new(),
        stopped: false,
        halted: false,
        result: None,
        alarm_at: None,
        batch_bytes: opts.batch_bytes.max(1),
        batch_frames: opts.batch_frames.max(1),
        shim: opts.loss.map(|l| LossShim::new(l, rank, npes)),
        crash,
        user_steps: 0,
    };

    // -- wait for Start (stashing any early peer frames) -------------------
    let mut pending: Vec<Ev> = Vec::new();
    loop {
        match rx.recv_timeout(HANDSHAKE_TIMEOUT) {
            Ok(Ev::Start) => break,
            Ok(Ev::Halt) => {
                ctx.halted = true;
                break;
            }
            Ok(Ev::CtlClosed) => std::process::exit(EXIT_CTL_CLOSED),
            Ok(ev) => pending.push(ev),
            Err(_) => panic!("worker {rank}: no Start within handshake deadline"),
        }
    }

    // -- scheduling --------------------------------------------------------
    if !ctx.halted {
        ctx.start = Instant::now();
        node.boot(&mut ctx);
        ctx.after_step(&mut node, None);
        for ev in pending {
            ctx.on_event(ev, &mut node);
        }
        drive(&mut node, &mut ctx, &rx);
    }

    // -- teardown ----------------------------------------------------------
    // Local stop: report it (with any exit result), then wait for the
    // parent's Halt so the Final exchange stays ordered. Reader threads
    // keep draining peer sockets throughout, so no peer can block on a
    // full pipe while this handshake completes.
    if ctx.stopped && !ctx.halted {
        let result = ctx.result.take().map(|p| {
            let mut out = Vec::new();
            ctx.reg.wire.encode_body("exit result", &*p, &mut out);
            out
        });
        let _ = send_ctl(&mut ctx.ctl, &CtlMsg::Stopped { result });
        loop {
            match rx.recv_timeout(HANDSHAKE_TIMEOUT) {
                Ok(Ev::Halt) => break,
                Ok(Ev::CtlClosed) => std::process::exit(EXIT_CTL_CLOSED),
                Ok(_) => {}
                Err(RecvTimeoutError::Timeout) => break, // parent stuck; report anyway
                Err(RecvTimeoutError::Disconnected) => std::process::exit(EXIT_CTL_CLOSED),
            }
        }
    }

    let end_ns = ctx.now_ns();
    let stats: Vec<(String, u64)> = node
        .stats()
        .counters
        .iter()
        .map(|&(name, v)| (name.to_string(), v))
        .collect();
    // Dropping the node flushes its telemetry recorders into the sinks.
    drop(node);
    let trace = sink.map(|s| {
        let log = s.drain();
        let mut out = Vec::new();
        log.events.encode(&mut out);
        log.dropped.encode(&mut out);
        out
    });
    let metrics = msink.map(|s| {
        let log = s.drain(end_ns);
        let mut out = Vec::new();
        log.slice_ns.encode(&mut out);
        log.per_pe[rank as usize].encode(&mut out);
        out
    });
    let _ = send_ctl(
        &mut ctx.ctl,
        &CtlMsg::Final {
            end_ns,
            stats,
            metrics,
            trace,
        },
    );
    std::process::exit(0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ChareId, EpId};
    use crate::priority::Priority;
    use crate::proc::transport::write_frame;
    use std::io::Cursor;

    /// A data frame whose message carries `tag`.
    fn frame_bytes(reg: &Registry, tag: u64, out: &mut Vec<u8>) {
        let sys = SysMsg::ChareMsg {
            target: ChareId {
                pe: Pe(0),
                local: 1,
            },
            ep: EpId(2),
            body: Box::new(tag),
            bytes: 8,
            prio: Priority::None,
        };
        let mut body = Vec::new();
        body.extend_from_slice(&(1000 + tag).to_le_bytes());
        body.extend_from_slice(&8u32.to_le_bytes());
        encode_sys(reg, &sys, &mut body);
        write_frame(out, &body).unwrap();
    }

    fn tag_of(f: Frame) -> u64 {
        assert_eq!(f.bytes, 8);
        let tag = match f.sys {
            SysMsg::ChareMsg { body, .. } => *body.downcast::<u64>().expect("u64 body"),
            _ => panic!("wrong variant"),
        };
        assert_eq!(f.sent_ns, 1000 + tag, "header and message disagree");
        tag
    }

    #[test]
    fn short_data_frame_is_a_link_error_not_a_close() {
        let reg = Arc::new(Registry::new());
        let mut stream = Vec::new();
        frame_bytes(&reg, 7, &mut stream);
        // A 5-byte body cannot hold the 12-byte frame header.
        write_frame(&mut stream, &[1, 2, 3, 4, 5]).unwrap();
        let (tx, _rx) = mpsc::channel();
        let mut link = FrameReader::new(Cursor::new(stream));
        let err = pump_link(3, &mut link, &reg, &tx).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn clean_close_ends_the_link_quietly() {
        let reg = Arc::new(Registry::new());
        let (tx, rx) = mpsc::channel();
        let mut link = FrameReader::new(Cursor::new(Vec::new()));
        pump_link(0, &mut link, &reg, &tx).expect("EOF at a frame boundary is a close");
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn batched_hand_off_keeps_per_link_fifo_order() {
        // Each link's stream is several read buffers long, so batches end
        // mid-frame and a frame's halves land in different reads.
        const N: u64 = 5000;
        let reg = Arc::new(Registry::new());
        let (tx, rx) = mpsc::channel();
        let mut pumps = Vec::new();
        for from in 0..2u32 {
            let mut stream = Vec::new();
            for i in 0..N {
                frame_bytes(&reg, u64::from(from) << 32 | i, &mut stream);
            }
            let (reg, tx) = (Arc::clone(&reg), tx.clone());
            pumps.push(std::thread::spawn(move || {
                let mut link = FrameReader::new(Cursor::new(stream));
                pump_link(from, &mut link, &reg, &tx).expect("clean stream");
            }));
        }
        drop(tx);
        for p in pumps {
            p.join().unwrap();
        }
        let mut seen = [Vec::new(), Vec::new()];
        let mut batches = 0;
        for ev in rx {
            let Ev::Data { from, frames } = ev else {
                panic!("only data events")
            };
            batches += 1;
            for f in frames {
                let tag = tag_of(f);
                assert_eq!(tag >> 32, u64::from(from), "frame on the wrong link");
                seen[from as usize].push(tag & 0xFFFF_FFFF);
            }
        }
        for s in &seen {
            assert_eq!(*s, (0..N).collect::<Vec<_>>());
        }
        assert!(
            batches > 4,
            "each link spans several reads ({batches} batches)"
        );
        assert!(
            batches < N as usize,
            "frames were batched ({batches} batches)"
        );
    }
}
