//! The real-time PE driver shared by every wall-clock backend.
//!
//! The thread backend ([`crate::thread`]) and the Chare Kernel's
//! multi-process backend run the same scheduling policy on each PE; only
//! the transport differs (channel sends between threads, encoded frames
//! over sockets between processes). [`drive`] is that policy, once:
//!
//! 1. drain every queued arrival first, so priorities act on everything
//!    available;
//! 2. fire a due alarm;
//! 3. step the node, then run the transport's [`Transport::after_step`]
//!    hook;
//! 4. when idle, block until the next event or the alarm deadline.
//!
//! A backend supplies its transport as the node's [`NetCtx`] plus the
//! [`Transport`] hooks, and one channel of its events.

use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::Duration;

use crate::program::{NetCtx, NodeProgram, StepKind};

/// What a real-time backend plugs into [`drive`].
pub trait Transport: NetCtx {
    /// What arrives on the PE's channel: packets, batches of frames,
    /// control messages or wake-ups.
    type Event;

    /// Handle one event: file its packets into `node`, or note a halt.
    fn on_event<N: NodeProgram>(&mut self, ev: Self::Event, node: &mut N);

    /// Runs after every step and every alarm; `kind` is what the step
    /// ran (`None` after an alarm or an empty step).
    fn after_step<N: NodeProgram>(&mut self, _node: &mut N, _kind: Option<StepKind>) {}

    /// Whether the loop must end (a local stop or a halt from outside).
    fn stopped(&self) -> bool;

    /// Deadline of the pending alarm, in [`NetCtx::now_ns`] time.
    /// Backends without timers keep the default: no alarm ever fires.
    fn alarm_at(&self) -> Option<u64> {
        None
    }

    /// Clear the pending alarm just before it fires.
    fn disarm(&mut self) {}
}

/// Run `node` on `ctx` until [`Transport::stopped`] or until every sender
/// of `rx` is gone. The node must already be booted.
pub fn drive<N: NodeProgram, T: Transport>(node: &mut N, ctx: &mut T, rx: &Receiver<T::Event>) {
    while !ctx.stopped() {
        // Drain arrivals first so priorities act on everything available.
        while let Ok(ev) = rx.try_recv() {
            ctx.on_event(ev, node);
        }
        if ctx.stopped() {
            break;
        }
        let alarm = ctx.alarm_at();
        if alarm.is_some_and(|t| ctx.now_ns() >= t) {
            ctx.disarm();
            node.alarm(ctx);
            ctx.after_step(node, None);
        } else if node.has_work() {
            let kind = node.step(ctx);
            ctx.after_step(node, kind);
        } else {
            let ev = match alarm {
                None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                Some(t) => rx.recv_timeout(Duration::from_nanos(t.saturating_sub(ctx.now_ns()))),
            };
            match ev {
                Ok(ev) => ctx.on_event(ev, node),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cost, Packet, Payload, Pe};
    use std::sync::mpsc;
    use std::time::Instant;

    /// A transport whose events are packets (`Some`) or a halt (`None`).
    struct Fake {
        t0: Instant,
        stopped: bool,
        alarm_at: Option<u64>,
        hooks: usize,
    }

    impl NetCtx for Fake {
        fn me(&self) -> Pe {
            Pe::ZERO
        }
        fn num_pes(&self) -> usize {
            1
        }
        fn now_ns(&self) -> u64 {
            self.t0.elapsed().as_nanos() as u64
        }
        fn send(&mut self, _to: Pe, _bytes: u32, _payload: Payload) {}
        fn charge(&mut self, _cost: Cost) {}
        fn stop(&mut self) {
            self.stopped = true;
        }
        fn deposit(&mut self, _result: Payload) {}
        fn set_alarm(&mut self, after: Cost) {
            self.alarm_at = Some(self.now_ns() + after.as_nanos());
        }
    }

    impl Transport for Fake {
        type Event = Option<u32>;
        fn on_event<N: NodeProgram>(&mut self, ev: Option<u32>, node: &mut N) {
            match ev {
                Some(x) => node.incoming(Packet {
                    from: Pe::ZERO,
                    bytes: 4,
                    at_ns: 0,
                    sent_ns: 0,
                    payload: Box::new(x),
                }),
                None => self.stopped = true,
            }
        }
        fn after_step<N: NodeProgram>(&mut self, _node: &mut N, _kind: Option<StepKind>) {
            self.hooks += 1;
        }
        fn stopped(&self) -> bool {
            self.stopped
        }
        fn alarm_at(&self) -> Option<u64> {
            self.alarm_at
        }
        fn disarm(&mut self) {
            self.alarm_at = None;
        }
    }

    /// Logs what the driver does to it; an `endless` node always has
    /// work. Stops the machine at step `stop_at` and on an alarm.
    #[derive(Default)]
    struct Node {
        log: Vec<String>,
        queued: usize,
        steps: usize,
        endless: bool,
        stop_at: usize,
    }

    impl NodeProgram for Node {
        fn boot(&mut self, _net: &mut dyn NetCtx) {}
        fn incoming(&mut self, pkt: Packet) {
            self.log
                .push(format!("in {}", pkt.payload.downcast::<u32>().unwrap()));
            self.queued += 1;
        }
        fn step(&mut self, net: &mut dyn NetCtx) -> Option<StepKind> {
            self.log.push("step".into());
            self.queued = self.queued.saturating_sub(1);
            self.steps += 1;
            if self.steps == self.stop_at {
                net.stop();
            }
            Some(StepKind::User)
        }
        fn has_work(&self) -> bool {
            self.endless || self.queued > 0
        }
        fn alarm(&mut self, net: &mut dyn NetCtx) {
            self.log.push("alarm".into());
            net.stop();
        }
    }

    /// Queue `events`, set an alarm `alarm_ms` out if given, and drive
    /// `node` with the channel's sender still alive.
    fn run(mut node: Node, events: &[Option<u32>], alarm_ms: Option<u64>) -> (Node, Fake) {
        let (tx, rx) = mpsc::channel();
        events.iter().for_each(|&ev| tx.send(ev).unwrap());
        let mut ctx = Fake {
            t0: Instant::now(),
            stopped: false,
            alarm_at: None,
            hooks: 0,
        };
        if let Some(ms) = alarm_ms {
            ctx.set_alarm(Cost::millis(ms));
        }
        drive(&mut node, &mut ctx, &rx);
        (node, ctx)
    }

    #[test]
    fn every_queued_event_arrives_before_the_next_step() {
        let node = Node {
            stop_at: 3,
            ..Node::default()
        };
        let (node, ctx) = run(node, &[Some(0), Some(1), Some(2)], None);
        assert_eq!(node.log, ["in 0", "in 1", "in 2", "step", "step", "step"]);
        assert_eq!(ctx.hooks, 3);
    }

    #[test]
    fn idle_wait_ends_at_the_alarm_deadline() {
        // Only the deadline can end this wait; a hang fails the test.
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            let (node, ctx) = run(Node::default(), &[], Some(50));
            let _ = done_tx.send((node.log, ctx.t0.elapsed(), ctx.alarm_at, ctx.hooks));
        });
        let (log, elapsed, left, hooks) = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("an idle PE must wake at its alarm deadline");
        assert_eq!(log, ["alarm"]);
        assert!(
            elapsed >= Duration::from_millis(50),
            "fired early, after {elapsed:?}"
        );
        assert_eq!(
            (left, hooks),
            (None, 1),
            "fired once, disarmed, then hooked"
        );
    }

    #[test]
    fn a_halt_event_ends_the_loop() {
        let node = Node {
            endless: true,
            ..Node::default()
        };
        let (node, _) = run(node, &[Some(7), None], None);
        assert_eq!(node.log, ["in 7"], "the halt was queued before any step");
    }

    #[test]
    fn stop_inside_a_step_ends_the_loop_after_that_step() {
        let node = Node {
            endless: true,
            stop_at: 4,
            ..Node::default()
        };
        let (node, ctx) = run(node, &[], None);
        assert_eq!(node.steps, 4);
        assert_eq!(ctx.hooks, 4, "the stopping step still gets its hook");
    }
}
