//! Layer probes: small fixed operations timed through each layer's
//! public functions, run after the traced workload.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

use chare_kernel::prelude::*;
use chare_kernel::queueing::SchedQueue;
use chare_kernel::{pool, Wire, WireReader};
use ck_apps::baseline::{kernel_pingpong, raw_pingpong};
use ck_apps::hashes::Digest;
use ck_apps::{fib, jacobi, mmr, spec};
use multicomputer::{
    FnFactory, NetCtx, NodeProgram, Packet, StepKind, ThreadConfig, ThreadMachine,
};

use crate::spans::Tracer;
use crate::stats::{median, ratio};
use crate::workloads::{spawn_join_ns, splitmix, Tally, BATCH_PES};

/// Probe results by metric name, plus the probes' own correctness
/// tally.
#[derive(Default)]
pub struct Probes {
    /// Metric values.
    pub values: BTreeMap<&'static str, f64>,
    /// Probe runs checked.
    pub tally: Tally,
}

/// Repetitions of each timed probe (medians are reported).
const REPS: usize = 7;
/// Ping-pong round trips per run.
const ROUNDS: u32 = 2000;
/// Ping-pong payload bytes.
const BALL_BYTES: u32 = 16;
/// Items pushed then popped per queue probe.
const QUEUE_ITEMS: usize = 4096;

fn ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Run every probe, each inside a span of its layer.
pub fn run(tr: &mut Tracer) -> Probes {
    let mut p = Probes::default();
    let mut op = 1_000_000u64;
    let mut probe =
        |tr: &mut Tracer, name: &str, layer: &'static str, f: &mut dyn FnMut(&mut Probes)| {
            op += 1;
            tr.op(op, "probe", |tr| tr.span(name, layer, |_| f(&mut p)));
        };
    probe(tr, "probe.queueing", "chare_kernel.queueing", &mut queueing);
    probe(tr, "probe.priority", "chare_kernel.priority", &mut priority);
    probe(tr, "probe.wire", "chare_kernel.wire", &mut wire);
    probe(
        tr,
        "probe.pingpong.sim",
        "chare_kernel.node",
        &mut pingpong_sim,
    );
    probe(
        tr,
        "probe.pingpong.threads",
        "chare_kernel.node",
        &mut pingpong_threads,
    );
    probe(
        tr,
        "probe.spawn_join",
        "multicomputer.thread",
        &mut spawn_join,
    );
    probe(
        tr,
        "probe.metrics",
        "chare_kernel.metrics",
        &mut metrics_overhead,
    );
    let s = pool::stats();
    p.values.insert(
        "pool.hit_ratio",
        ratio(s.recycled as f64, (s.recycled + s.allocated) as f64),
    );
    p
}

fn queue_ns(strategy: QueueingStrategy, prios: &[Priority]) -> f64 {
    let mut q: Box<dyn SchedQueue<u64>> = strategy.make();
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let batch = prios.to_vec();
        let t = Instant::now();
        for (i, prio) in batch.into_iter().enumerate() {
            q.push(prio, i as u64);
        }
        let mut sum = 0u64;
        while let Some(x) = q.pop() {
            sum = sum.wrapping_add(x);
        }
        black_box(sum);
        samples.push(ns(t) / prios.len() as f64);
    }
    median(&samples)
}

/// ns per push+pop pair for each queueing strategy.
fn queueing(p: &mut Probes) {
    let mut state = 0x5EED;
    let none = vec![Priority::None; QUEUE_ITEMS];
    let ints: Vec<Priority> = (0..QUEUE_ITEMS)
        .map(|_| Priority::Int((splitmix(&mut state) % 512) as i64))
        .collect();
    let bits: Vec<Priority> = (0..QUEUE_ITEMS)
        .map(|_| {
            let r = splitmix(&mut state);
            Priority::Bits(BitPrio::from_path(&[(r % 8) as u32, (r >> 8) as u32 % 64]))
        })
        .collect();
    let cases = [
        ("queueing.push_pop_ns.fifo", QueueingStrategy::Fifo, &none),
        ("queueing.push_pop_ns.lifo", QueueingStrategy::Lifo, &none),
        (
            "queueing.push_pop_ns.int",
            QueueingStrategy::IntPriority,
            &ints,
        ),
        (
            "queueing.push_pop_ns.bitvec",
            QueueingStrategy::BitvecPriority,
            &bits,
        ),
    ];
    for (name, strategy, prios) in cases {
        p.values.insert(name, queue_ns(strategy, prios));
    }
}

/// ns per `BitPrio::child` and per `BitPrio` comparison.
fn priority(p: &mut Probes) {
    let parents: Vec<BitPrio> = (0..1024u32)
        .map(|i| BitPrio::from_path(&[i % 16, i / 16]))
        .collect();
    let (mut child, mut cmp) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t = Instant::now();
        for (i, parent) in parents.iter().enumerate() {
            black_box(parent.child(i as u32 % 8, 3));
        }
        child.push(ns(t) / parents.len() as f64);
        let t = Instant::now();
        let mut less = 0u32;
        for pair in parents.windows(2) {
            less += (black_box(&pair[0]) < black_box(&pair[1])) as u32;
        }
        black_box(less);
        cmp.push(ns(t) / (parents.len() - 1) as f64);
    }
    p.values.insert("priority.child_ns", median(&child));
    p.values.insert("priority.cmp_ns", median(&cmp));
}

fn roundtrip<T: Wire>(value: &T, buf: &mut Vec<u8>, enc: &mut f64, dec: &mut f64) -> usize {
    const N: usize = 200;
    let t = Instant::now();
    for _ in 0..N {
        buf.clear();
        black_box(value).encode(buf);
    }
    *enc += ns(t);
    let t = Instant::now();
    for _ in 0..N {
        black_box(T::decode(&mut WireReader::new(black_box(&buf[..]))));
    }
    *dec += ns(t);
    buf.len() * N
}

/// Encode/decode ns per byte over the batch programs' message types:
/// a jacobi ghost row, an mmr table block, an mmr result and a fib
/// seed.
fn wire(p: &mut Probes) {
    let ghost = jacobi::GhostMsg {
        iter: 3,
        from_above: true,
        row: (0..258).map(|i| i as f64 * 0.25).collect(),
    };
    let block: Vec<Digest> = (0..16).map(|i| Digest { a: i, b: !i }).collect();
    let result = mmr::MmrResult {
        root: Digest { a: 1, b: 2 },
        peaks: 3,
    };
    // `FibSeed` keeps its fields private; build one through its codec.
    let seed = fib::FibSeed::decode(&mut WireReader::new(&[0u8; 64]));
    let mut buf = Vec::with_capacity(4096);
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let (mut e, mut d) = (0.0, 0.0);
        let mut bytes = roundtrip(&ghost, &mut buf, &mut e, &mut d);
        bytes += roundtrip(&block, &mut buf, &mut e, &mut d);
        bytes += roundtrip(&result, &mut buf, &mut e, &mut d);
        bytes += roundtrip(&seed, &mut buf, &mut e, &mut d);
        enc.push(e / bytes as f64);
        dec.push(d / bytes as f64);
    }
    p.values.insert("wire.encode_ns_per_byte", median(&enc));
    p.values.insert("wire.decode_ns_per_byte", median(&dec));
}

fn pingpong_ok(p: &mut Probes, rep: &mut CkReport, what: &str) {
    p.tally.record(match rep.take_result::<u32>() {
        Some(r) if r == ROUNDS && !rep.timed_out => Ok(()),
        got => Err(format!("{what} ping-pong returned {got:?}")),
    });
}

/// Host ns per message of the kernel ping-pong and the bare-machine
/// ping-pong on the simulator; their difference is kernel dispatch.
fn pingpong_sim(p: &mut Probes) {
    let msgs = 2.0 * ROUNDS as f64;
    let (mut kernel, mut raw) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let prog = kernel_pingpong(ROUNDS, BALL_BYTES);
        let t = Instant::now();
        let mut rep = prog.run_sim_preset(2, MachinePreset::NcubeLike);
        kernel.push(ns(t) / msgs);
        pingpong_ok(p, &mut rep, "sim kernel");
        let t = Instant::now();
        black_box(raw_pingpong(ROUNDS, BALL_BYTES, MachinePreset::NcubeLike));
        raw.push(ns(t) / msgs);
    }
    let (k, r) = (median(&kernel), median(&raw));
    p.values.insert("kernel.pingpong_ns_per_msg.sim", k);
    p.values.insert("machine.pingpong_ns_per_msg.sim", r);
    p.values.insert("kernel.dispatch_ns_per_msg.sim", k - r);
}

/// Bare two-PE ping-pong on the machine layer: `2 * rounds` messages,
/// then PE 0 deposits and stops.
struct Bare {
    pe: Pe,
    rounds: u32,
    queue: VecDeque<Packet>,
}

impl NodeProgram for Bare {
    fn boot(&mut self, net: &mut dyn NetCtx) {
        if self.pe == Pe::ZERO {
            net.send(Pe::from(1usize), BALL_BYTES, Box::new(2 * self.rounds - 1));
        }
    }
    fn incoming(&mut self, pkt: Packet) {
        self.queue.push_back(pkt);
    }
    fn step(&mut self, net: &mut dyn NetCtx) -> Option<StepKind> {
        let pkt = self.queue.pop_front()?;
        let left = *pkt.payload.downcast::<u32>().expect("ball");
        if left == 0 {
            net.deposit(Box::new(self.rounds));
            net.stop();
        } else {
            net.send(pkt.from, BALL_BYTES, Box::new(left - 1));
        }
        Some(StepKind::User)
    }
    fn has_work(&self) -> bool {
        !self.queue.is_empty()
    }
}

fn bare_threads(rounds: u32) -> (f64, Option<u32>) {
    let factory = FnFactory(move |pe, _npes| Bare {
        pe,
        rounds,
        queue: VecDeque::new(),
    });
    let mut rep = ThreadMachine::run(ThreadConfig::new(BATCH_PES), &factory);
    let got = if rep.timed_out {
        None
    } else {
        rep.take_result::<u32>()
    };
    (rep.wall.as_nanos() as f64, got)
}

/// The same two ping-pongs on the thread backend.
fn pingpong_threads(p: &mut Probes) {
    let msgs = 2.0 * ROUNDS as f64;
    let (mut kernel, mut raw) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let mut rep = kernel_pingpong(ROUNDS, BALL_BYTES).run_threads(BATCH_PES);
        kernel.push(rep.time_ns as f64 / msgs);
        pingpong_ok(p, &mut rep, "threads kernel");
        let (wall, got) = bare_threads(ROUNDS);
        raw.push(wall / msgs);
        p.tally.record(if got == Some(ROUNDS) {
            Ok(())
        } else {
            Err(format!("threads bare ping-pong returned {got:?}"))
        });
    }
    let (k, r) = (median(&kernel), median(&raw));
    p.values.insert("kernel.pingpong_ns_per_msg.threads", k);
    p.values.insert("machine.pingpong_ns_per_msg.threads", r);
    p.values.insert("kernel.dispatch_ns_per_msg.threads", k - r);
}

/// Seconds to start and join the thread machine around a program that
/// stops at boot: its per-run spawn/join cost.
fn spawn_join(p: &mut Probes) {
    let samples: Vec<f64> = (0..4 * REPS)
        .map(|_| spawn_join_ns() as f64 / 1e9)
        .collect();
    p.values.insert("threads.spawn_join_s", median(&samples));
}

/// Host time of the batch's fib on the simulator with streaming
/// metrics on, over the same run with them off.
fn metrics_overhead(p: &mut Probes) {
    let spec_str = format!(
        "fib:n={},grain={},bal=random",
        crate::workloads::FIB.n,
        crate::workloads::FIB.grain
    );
    let prog = spec::build_spec(&spec_str);
    let metered = prog.with_metrics(MetricsConfig::default());
    let want = fib::fib_seq(crate::workloads::FIB.n);
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        for (prog, out) in [(&prog, &mut off), (&metered, &mut on)] {
            let t = Instant::now();
            let mut rep = prog.run_sim_preset(BATCH_PES, MachinePreset::NcubeLike);
            out.push(ns(t));
            p.tally.record(match rep.take_result::<u64>() {
                Some(v) if v == want => Ok(()),
                got => Err(format!("metrics probe fib returned {got:?}")),
            });
        }
    }
    p.values
        .insert("metrics.overhead_ratio", ratio(median(&on), median(&off)));
}
