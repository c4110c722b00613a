//! Real-parallel backend: one OS thread per PE.
//!
//! This is the stand-in for the paper's shared-memory ports (Sequent
//! Symmetry, Encore Multimax): every PE is an OS thread, message
//! transport is a channel per PE, and wall-clock time is the metric. The
//! same [`NodeProgram`] that runs on the simulator runs here unchanged —
//! the machine-independence the paper demonstrates by porting one kernel
//! across machines.
//!
//! Unlike the simulator, the thread machine cannot observe global
//! quiescence for free; programs end by calling [`NetCtx::stop`] (the
//! kernel's `CkExit`, possibly triggered by its quiescence-detection
//! module). A watchdog deadline ([`ThreadConfig::watchdog`]) guards tests
//! and benchmarks against programs that never stop.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::driver::{drive, Transport};
use crate::pe::Pe;
use crate::program::{NetCtx, NodeFactory, NodeProgram, Packet, Payload, Replayable};
use crate::stats::NodeStats;
use crate::time::Cost;

/// Configuration of the thread-parallel machine.
#[derive(Clone, Debug)]
pub struct ThreadConfig {
    /// Number of PEs (threads).
    pub npes: usize,
    /// Abort the run after this much wall time if the program has not
    /// stopped itself.
    pub watchdog: Duration,
}

impl ThreadConfig {
    /// `npes` threads with a 60-second watchdog.
    pub fn new(npes: usize) -> Self {
        assert!(npes > 0, "machine needs at least one PE");
        ThreadConfig {
            npes,
            watchdog: Duration::from_secs(60),
        }
    }

    /// Override the watchdog deadline.
    pub fn with_watchdog(mut self, watchdog: Duration) -> Self {
        self.watchdog = watchdog;
        self
    }
}

/// Result of a thread-machine run.
pub struct ThreadReport {
    /// Wall-clock duration from launch to last thread exit.
    pub wall: Duration,
    /// The last payload a handler deposited, if any.
    pub result: Option<Payload>,
    /// Per-PE counters reported by the nodes.
    pub node_stats: Vec<NodeStats>,
    /// True if the watchdog fired before the program stopped.
    pub timed_out: bool,
}

impl ThreadReport {
    /// Downcast the deposited result.
    pub fn result_as<T: 'static>(&self) -> Option<&T> {
        self.result.as_deref().and_then(|r| r.downcast_ref::<T>())
    }

    /// Take and downcast the deposited result.
    pub fn take_result<T: 'static>(&mut self) -> Option<T> {
        let r = self.result.take()?;
        match r.downcast::<T>() {
            Ok(b) => Some(*b),
            Err(r) => {
                self.result = Some(r);
                None
            }
        }
    }
}

/// What a PE's channel carries: a packet, or `None` — a wake-up that
/// makes an idle PE look at the stop flag.
type Event = Option<Packet>;

struct Shared {
    stop: AtomicBool,
    result: Mutex<Option<Payload>>,
    start: Instant,
    /// Every PE's channel.
    pes: Vec<Sender<Event>>,
    /// The launcher's channel: woken on stop and as each PE thread ends.
    launcher: Sender<()>,
}

impl Shared {
    /// Set the stop flag and, the first time, wake every PE and the
    /// launcher.
    fn stop(&self) {
        if !self.stop.swap(true, Ordering::AcqRel) {
            for pe in &self.pes {
                // A PE that already left has dropped its receiver; benign.
                let _ = pe.send(None);
            }
            let _ = self.launcher.send(());
        }
    }
}

/// Wakes the launcher when its PE thread ends, by return or by panic.
struct ExitGuard(Sender<()>);

impl Drop for ExitGuard {
    fn drop(&mut self) {
        let _ = self.0.send(());
    }
}

struct ThreadCtx {
    me: Pe,
    npes: usize,
    shared: Arc<Shared>,
}

impl NetCtx for ThreadCtx {
    fn me(&self) -> Pe {
        self.me
    }
    fn num_pes(&self) -> usize {
        self.npes
    }
    fn now_ns(&self) -> u64 {
        self.shared.start.elapsed().as_nanos() as u64
    }
    fn send(&mut self, to: Pe, bytes: u32, payload: Payload) {
        assert!(to.index() < self.npes, "send to PE out of range");
        let now = self.now_ns();
        let pkt = Packet {
            from: self.me,
            bytes,
            // No distinct arrival instant on real channels; stamp the
            // send time (delivery follows almost immediately), so
            // metrics see a zero send→deliver latency here.
            at_ns: now,
            sent_ns: now,
            payload,
        };
        // A send after shutdown has begun may find the receiver gone;
        // that is benign (the machine is being torn down).
        let _ = self.shared.pes[to.index()].send(Some(pkt));
    }
    fn charge(&mut self, _cost: Cost) {
        // Real work takes real time on this backend.
    }
    fn stop(&mut self) {
        self.shared.stop();
    }
    fn deposit(&mut self, result: Payload) {
        let mut slot = self
            .shared
            .result
            .lock()
            .expect("a PE panicked while depositing");
        *slot = Some(result);
    }
}

impl Transport for ThreadCtx {
    type Event = Event;
    fn on_event<N: NodeProgram>(&mut self, ev: Event, node: &mut N) {
        // Resolve replayable payload generators into concrete payloads
        // before the node sees them (the simulator does the same at
        // arrival time).
        if let Some(mut pkt) = ev {
            pkt.payload = Replayable::materialize(pkt.payload);
            node.incoming(pkt);
        }
    }
    fn stopped(&self) -> bool {
        self.shared.stop.load(Ordering::Acquire)
    }
}

fn pe_loop<N: NodeProgram>(mut node: N, rx: Receiver<Event>, mut ctx: ThreadCtx) -> NodeStats {
    let _wake_launcher = ExitGuard(ctx.shared.launcher.clone());
    node.boot(&mut ctx);
    drive(&mut node, &mut ctx, &rx);
    node.stats()
}

/// The thread-parallel machine.
pub struct ThreadMachine;

impl ThreadMachine {
    /// Run `factory`'s node program on `cfg.npes` OS threads until a
    /// handler calls [`NetCtx::stop`] or the watchdog fires. A panic on a
    /// PE thread ends the run at once and is re-raised here.
    pub fn run<F>(cfg: ThreadConfig, factory: &F) -> ThreadReport
    where
        F: NodeFactory,
        F::Node: 'static,
    {
        let npes = cfg.npes;
        let (pes, receivers): (Vec<_>, Vec<_>) = (0..npes).map(|_| mpsc::channel()).unzip();
        let (launcher, launcher_rx) = mpsc::channel();
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            result: Mutex::new(None),
            start: Instant::now(),
            pes,
            launcher,
        });

        let mut handles = Vec::with_capacity(npes);
        for (i, rx) in receivers.into_iter().enumerate() {
            let pe = Pe::from(i);
            let node = factory.build(pe, npes);
            let ctx = ThreadCtx {
                me: pe,
                npes,
                shared: Arc::clone(&shared),
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("pe-{i}"))
                    .spawn(move || pe_loop(node, rx, ctx))
                    .expect("spawn PE thread"),
            );
        }

        // Watchdog: block until a stop, a PE thread ending (only a panic
        // ends one early) or the deadline, then stop everyone and join.
        let left = cfg.watchdog.saturating_sub(shared.start.elapsed());
        let woken = launcher_rx.recv_timeout(left).is_ok();
        let timed_out = !woken && !shared.stop.load(Ordering::Acquire);
        shared.stop();
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        let node_stats = joined
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        let wall = shared.start.elapsed();
        let result = shared
            .result
            .lock()
            .expect("a PE panicked while depositing")
            .take();
        ThreadReport {
            wall,
            result,
            node_stats,
            timed_out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{FnFactory, StepKind};
    use std::collections::VecDeque;

    /// Token ring: passes a counter around all PEs `laps` times, then
    /// PE 0 deposits and stops — same program as the simulator test,
    /// proving backend-independence at this layer.
    struct Relay {
        pe: Pe,
        npes: usize,
        queue: VecDeque<Packet>,
        laps: u32,
        seen: u64,
    }

    impl NodeProgram for Relay {
        fn boot(&mut self, net: &mut dyn NetCtx) {
            if self.pe == Pe::ZERO {
                net.send(Pe::from(1 % self.npes), 8, Box::new(0u64));
            }
        }
        fn incoming(&mut self, pkt: Packet) {
            self.queue.push_back(pkt);
        }
        fn step(&mut self, net: &mut dyn NetCtx) -> Option<StepKind> {
            let pkt = self.queue.pop_front()?;
            self.seen += 1;
            let count = *pkt.payload.downcast::<u64>().unwrap();
            if self.pe == Pe::ZERO && count + 1 >= (self.laps as u64) * self.npes as u64 {
                net.deposit(Box::new(count + 1));
                net.stop();
            } else {
                let next = (self.pe.index() + 1) % self.npes;
                net.send(Pe::from(next), 8, Box::new(count + 1));
            }
            Some(StepKind::User)
        }
        fn has_work(&self) -> bool {
            !self.queue.is_empty()
        }
        fn stats(&self) -> NodeStats {
            let mut s = NodeStats::new();
            s.push("seen", self.seen);
            s
        }
    }

    fn relay(laps: u32) -> FnFactory<impl Fn(Pe, usize) -> Relay> {
        FnFactory(move |pe, npes| Relay {
            pe,
            npes,
            queue: VecDeque::new(),
            laps,
            seen: 0,
        })
    }

    #[test]
    fn ring_completes_on_threads() {
        let mut rep = ThreadMachine::run(ThreadConfig::new(4), &relay(3));
        assert!(!rep.timed_out);
        assert_eq!(rep.take_result::<u64>(), Some(12));
    }

    #[test]
    fn single_pe_machine_works() {
        let mut rep = ThreadMachine::run(ThreadConfig::new(1), &relay(5));
        assert!(!rep.timed_out);
        assert_eq!(rep.take_result::<u64>(), Some(5));
    }

    #[test]
    fn stats_are_collected_per_pe() {
        let rep = ThreadMachine::run(ThreadConfig::new(4), &relay(2));
        assert_eq!(rep.node_stats.len(), 4);
        let total: u64 = rep
            .node_stats
            .iter()
            .map(|s| s.get("seen").unwrap_or(0))
            .sum();
        assert_eq!(total, 8); // one handler execution per hop: 2 laps * 4 PEs
    }

    /// Never has work; the PE named `fail` panics in `boot`.
    struct Idle {
        me: Pe,
        fail: Option<Pe>,
    }

    impl NodeProgram for Idle {
        fn boot(&mut self, _net: &mut dyn NetCtx) {
            assert_ne!(Some(self.me), self.fail, "PE fails to boot");
        }
        fn incoming(&mut self, _pkt: Packet) {}
        fn step(&mut self, _net: &mut dyn NetCtx) -> Option<StepKind> {
            None
        }
        fn has_work(&self) -> bool {
            false
        }
    }

    #[test]
    fn watchdog_fires_on_nonterminating_program() {
        let cfg = ThreadConfig::new(2).with_watchdog(Duration::from_millis(50));
        let rep = ThreadMachine::run(cfg, &FnFactory(|me, _| Idle { me, fail: None }));
        assert!(rep.timed_out);
        assert!(rep.result.is_none());
    }

    #[test]
    fn panicking_pe_ends_the_run_before_the_watchdog() {
        let cfg = ThreadConfig::new(2).with_watchdog(Duration::from_secs(30));
        let failing = FnFactory(|me, _| Idle {
            me,
            fail: Some(Pe::from(1)),
        });
        let t0 = Instant::now();
        let run = std::panic::catch_unwind(|| ThreadMachine::run(cfg, &failing));
        assert!(run.is_err(), "the PE's panic must reach the caller");
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(10), "run ended after {took:?}");
    }

    #[test]
    fn result_downcast_mismatch_is_none() {
        let mut rep = ThreadMachine::run(ThreadConfig::new(2), &relay(1));
        assert!(rep.result_as::<String>().is_none());
        assert_eq!(rep.take_result::<String>(), None);
        // The payload survives a failed take.
        assert_eq!(rep.take_result::<u64>(), Some(2));
    }
}
