//! The three workloads: input generation from the seed, one repetition
//! of each, and the per-operation correctness gate.
//!
//! Every workload is closed-loop: one client issues one operation at a
//! time. A repetition runs on a fresh thread, so the thread-local run
//! memo (`ck_bench::runner`) and message pool (`chare_kernel::pool`)
//! start cold, as they do in a user's fresh process. The simulator
//! workloads repeat the same operations in every repetition, so their
//! end-to-end times can take each operation's fastest repetition.

use std::collections::BTreeMap;
use std::time::Instant;

use chare_kernel::pool;
use chare_kernel::prelude::*;
use ck_apps::hashes::Digest;
use ck_apps::{fib, jacobi, mmr, spec};
use ck_bench::experiments::{self, Scale};
use ck_bench::{driver, runner};
use ck_desim::{campaign, oracle};
use multicomputer::{
    FnFactory, NetCtx, NodeProgram, Packet, StepKind, ThreadConfig, ThreadMachine,
};

use crate::spans::Tracer;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Full-scale serial `tables --all` regeneration with the run memo on.
    TablesFull,
    /// The 4000-run `ck_desim` campaign of the benchmark seed, once
    /// per repetition.
    DesimCampaign,
    /// The fixed batch on the thread backend (2 PEs) and on the process
    /// backend (2 workers, reliable delivery off and on).
    Backends2pe,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::TablesFull,
        Workload::DesimCampaign,
        Workload::Backends2pe,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TablesFull => "tables-full",
            Workload::DesimCampaign => "desim-campaign",
            Workload::Backends2pe => "backends-2pe",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload drives the simulator (its throughput is
    /// simulator events per host second) rather than the real backends
    /// (user messages received per second of backend run time).
    pub fn on_simulator(self) -> bool {
        matches!(self, Workload::TablesFull | Workload::DesimCampaign)
    }
}

/// Runs in one desim campaign. Run costs are heavy-tailed (median about
/// 1 k simulator events, 90th percentile about 9.5 k, 95th about 25 k),
/// so the 90th-percentile latency of a campaign depends on which runs
/// its seed drew: across seeds it spreads about 0.11 (IQR over median)
/// at 2000 runs and 0.05 at 4000.
pub const CAMPAIGN_RUNS: u64 = 4000;

/// Worker PEs of the real-backend workloads: two, so PE threads or
/// worker processes do not outnumber the CPUs of a 2-CPU host.
pub const BATCH_PES: usize = 2;

/// Attempted and failed operations. A failure is recorded, never
/// raised: the run goes on and the count reaches the result.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// The first few failure reasons.
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one operation with its verdict.
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            if self.notes.len() < 5 {
                self.notes.push(why);
            }
        }
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in &other.notes {
            if self.notes.len() < 5 {
                self.notes.push(n.clone());
            }
        }
    }
}

/// Named per-repetition totals (counts and nanoseconds).
#[derive(Clone, Debug, Default)]
pub struct Sums(BTreeMap<&'static str, f64>);

/// Kernel counters summed over every report of a repetition.
pub const KERNEL_COUNTERS: [&str; 10] = [
    "user_sent",
    "user_recv",
    "entries_executed",
    "seeds_spawned",
    "seeds_forwarded",
    "load_reports",
    "retransmits",
    "acks_sent",
    "dup_dropped",
    "seeds_redirected",
];

impl Sums {
    /// Add `v` to `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.0.entry(key).or_insert(0.0) += v;
    }

    /// Total of `key` (0.0 if never added).
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Add a report's kernel counters, and its simulator packet, byte
    /// and fault tallies when it ran on the simulator.
    pub fn absorb(&mut self, rep: &CkReport) {
        for name in KERNEL_COUNTERS {
            self.add(name, rep.counter_total(name) as f64);
        }
        if let Some(sim) = &rep.sim {
            self.add("sim.packets", sim.packets as f64);
            self.add("sim.bytes", sim.bytes as f64);
            if let Some(f) = &sim.faults {
                self.add("fault.dropped", f.dropped as f64);
                self.add("fault.duplicated", f.duplicated as f64);
                self.add("fault.delayed", f.delayed as f64);
            }
        }
    }
}

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Wall time of the whole repetition.
    pub wall_ns: u64,
    /// Time outside the backend runs (see each workload).
    pub setup_ns: u64,
    /// Latency of every operation, in input order (the simulator
    /// workloads run the same operations in every repetition).
    pub op_ns: Vec<u64>,
    /// Throughput numerator: simulator events or user messages.
    pub work: f64,
    /// Throughput denominator on the real backends: summed backend run
    /// time (the simulator workloads divide by `wall_s`).
    pub work_ns: u64,
    /// Per-layer totals.
    pub sums: Sums,
    /// Correctness tally.
    pub tally: Tally,
    /// Digest of the host-redacted tables (tables-full only).
    pub digest: Option<u64>,
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// SplitMix64 step: the benchmark's only source of randomness.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn pool_hit_ratio() -> f64 {
    let s = pool::stats();
    crate::stats::ratio(s.recycled as f64, (s.recycled + s.allocated) as f64)
}

// ---------------------------------------------------------------------
// tables-full
// ---------------------------------------------------------------------

/// Full-scale standard-suite constructions timed per repetition (the
/// median is the set-up). Each is kept alive until all are timed, so
/// every construction allocates fresh memory: reusing the blocks the
/// previous one freed makes the timing bimodal from process to process.
const SUITE_BUILDS: usize = 25;

/// One full-scale serial regeneration through
/// `driver::run_all_recording`, the repetition's one operation. Its 21
/// table jobs, timed by the driver's own per-job wall clock, are the
/// parts in `op_ns` whose fastest repetitions `wall_s` sums. Set-up is the median of a few standard-suite constructions.
/// Traced, the regeneration is one operation span with a span per job.
/// The correctness gate (every table produced, digest equal across
/// repetitions) is applied by the caller, which sees all repetitions.
pub fn tables_rep(tr: &mut Tracer) -> Rep {
    let start = Instant::now();
    let mut rep = Rep::default();
    let mut builds: Vec<f64> = Vec::new();
    let mut built = Vec::with_capacity(SUITE_BUILDS);
    for _ in 0..SUITE_BUILDS {
        let t = Instant::now();
        let suite = experiments::standard_suite(Scale::Full);
        let progs: Vec<Program> = suite.iter().map(|case| case.build_default()).collect();
        let build_ns = ns(t);
        builds.push(build_ns as f64);
        rep.sums.add("apps.builds", progs.len() as f64);
        rep.sums.add("apps.build_ns", build_ns as f64);
        built.push((suite, progs));
    }
    drop(built);
    rep.setup_ns = crate::stats::median(&builds) as u64;

    let ((tables, records, stats), regen_ns) = tr.op(0, "tables.op", |tr| {
        let mut job_start = Instant::now();
        let out = driver::run_all_recording(Scale::Full, 1, true);
        // The jobs ran back to back; lay their spans out the same way.
        for r in &out.1 {
            tr.record(
                &format!("tables.job.{}", r.name),
                "ck_bench.driver",
                job_start,
                r.wall_ns,
            );
            job_start += std::time::Duration::from_nanos(r.wall_ns);
        }
        out
    });
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    for (table, r) in tables.iter().zip(&records) {
        digest = fnv1a(table.to_string().as_bytes(), digest);
        rep.sums.add("tables.produced", 1.0);
        rep.work += r.events as f64;
        rep.op_ns.push(r.wall_ns);
    }
    rep.sums.add("runner.memo_hits", stats.hits as f64);
    rep.sums.add("runner.memo_misses", stats.misses as f64);
    rep.sums.add("sim.run_ns", regen_ns as f64);
    rep.sums.add("sim.events", rep.work);
    rep.sums.add("pool.hit_ratio", pool_hit_ratio());
    rep.digest = Some(digest);
    rep.wall_ns = ns(start);
    rep
}

// ---------------------------------------------------------------------
// desim-campaign
// ---------------------------------------------------------------------

/// One campaign of [`CAMPAIGN_RUNS`] runs with campaign seed `seed`.
/// Each run is one operation: scenario and storm generation, the
/// memoized fault-free reference, the faulted run (reliable layer and
/// metrics recorder on), and the oracle verdict. Set-up is the time
/// outside the faulted runs: generation plus reference.
pub fn desim_rep(seed: u64, tr: &mut Tracer) -> Rep {
    let start = Instant::now();
    let mut rep = Rep::default();
    multicomputer::take_events_tally();
    let before = runner::cache_stats();
    for index in 0..CAMPAIGN_RUNS {
        let (verdict, op_ns) = tr.op(index, "desim.op", |tr| {
            let ((sc, storm), make_ns) = tr.span("desim.make_run", "ck_desim", |_| {
                campaign::make_run(seed, index)
            });
            let (reference, ref_ns) =
                tr.span("desim.reference", "ck_bench.runner", |_| sc.reference());
            let (report, run_ns) = tr.span("desim.storm_run", "multicomputer.sim", |_| {
                sc.run(&storm, campaign::DEFAULT_MAX_EVENTS)
            });
            rep.sums.add("desim.make_run_ns", make_ns as f64);
            rep.sums.add("desim.reference_ns", ref_ns as f64);
            rep.sums.add("desim.storm_run_ns", run_ns as f64);
            rep.sums.add("sim.run_ns", (ref_ns + run_ns) as f64);
            rep.setup_ns += make_ns + ref_ns;
            rep.sums.absorb(&report);
            let Some(want) = reference else {
                return Err(format!("run {index}: no fault-free reference answer"));
            };
            let (violations, judge_ns) = tr.span("desim.judge", "ck_desim", |_| {
                oracle::judge(&sc, &report, want)
            });
            rep.sums.add("desim.judge_ns", judge_ns as f64);
            match violations.first() {
                None => Ok(()),
                Some(v) => Err(format!("run {index} ({}): {v:?}", sc.spec())),
            }
        });
        rep.op_ns.push(op_ns);
        rep.tally.record(verdict);
    }
    let after = runner::cache_stats();
    rep.sums
        .add("runner.memo_hits", (after.hits - before.hits) as f64);
    rep.sums
        .add("runner.memo_misses", (after.misses - before.misses) as f64);
    rep.work = multicomputer::take_events_tally() as f64;
    rep.sums.add("sim.events", rep.work);
    rep.sums.add("pool.hit_ratio", pool_hit_ratio());
    rep.wall_ns = ns(start);
    rep
}

/// Mean `AppConfig::build` time (ns) over the campaign's first `n`
/// scenarios: the program construction inside every faulted run.
pub fn desim_build_ns(seed: u64, n: u64) -> f64 {
    let scenarios: Vec<_> = (0..n).map(|i| campaign::make_run(seed, i).0).collect();
    let t = Instant::now();
    for sc in &scenarios {
        drop(sc.app.build(sc.queueing, &sc.balance));
    }
    ns(t) as f64 / n.max(1) as f64
}

// ---------------------------------------------------------------------
// backends-2pe: the fixed batch on threads and on procs
// ---------------------------------------------------------------------

/// The expected answer of a batch program, from its serial oracle.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// An exact count (`fib_seq`).
    Count(u64),
    /// A floating-point checksum (`jacobi_seq`), 1e-9 relative.
    Sum(f64),
    /// An MMR root (`mmr_root_seq`).
    Root(Digest),
}

/// One program run of the batch.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchOp {
    /// Backend and app name, `+rel` appended when reliable delivery is
    /// on (the operation's span name), e.g. `procs.fib+rel`.
    pub label: String,
    /// Spec string (`ck_apps::spec`), shipped to procs workers as is.
    pub spec: String,
    /// Run on the process backend rather than the thread backend.
    pub procs: bool,
    /// Run with reliable delivery.
    pub reliable: bool,
    /// Expected answer.
    pub expect: Expect,
}

// Sizes keep the program runs' times apart (threads about 2, 23 and
// 35 ms for mmr, jacobi and fib; procs about 13, 36 and 80-110 ms), so
// the latency percentiles fall inside one program's distribution rather
// than in the gap between two: of the nine runs of a pass, the median
// is threads fib (next to procs jacobi) and the 90th percentile is in
// procs fib.

/// `fib`: many small messages. Random placement keeps the message
/// count fixed from run to run (ACWN moves it by about 2%).
pub const FIB: fib::FibParams = fib::FibParams { n: 27, grain: 8 };
/// `mmr`: table, write-once and accumulator traffic.
pub const MMR_LEAVES: u64 = 4096;
/// Leaves hashed per producer and per leaf-level subtree.
pub const MMR_GRAIN: u64 = 16;
/// `jacobi`: branch-office neighbour exchange of large rows.
pub const JACOBI: jacobi::JacobiParams = jacobi::JacobiParams { n: 512, iters: 60 };

/// The batch for `seed`: `fib`, `mmr` (leaf seed drawn from `seed`) and
/// `jacobi`, each with its serial-oracle answer, once on threads and
/// twice on procs (without and with reliable delivery).
pub fn batch(seed: u64) -> Vec<BatchOp> {
    let mut state = seed;
    let mmr_seed = splitmix(&mut state) >> 1;
    let programs = [
        (
            "fib",
            format!("fib:n={},grain={},bal=random", FIB.n, FIB.grain),
            Expect::Count(fib::fib_seq(FIB.n)),
        ),
        (
            "mmr",
            format!("mmr:leaves={MMR_LEAVES},grain={MMR_GRAIN},seed={mmr_seed},bal=random"),
            Expect::Root(mmr::mmr_root_seq(mmr_seed, MMR_LEAVES)),
        ),
        (
            "jacobi",
            format!("jacobi:n={},iters={}", JACOBI.n, JACOBI.iters),
            Expect::Sum(jacobi::jacobi_seq(JACOBI)),
        ),
    ];
    [(false, false), (true, false), (true, true)]
        .into_iter()
        .flat_map(|(procs, reliable)| {
            programs.iter().map(move |(app, spec, expect)| BatchOp {
                label: format!(
                    "{}.{app}{}",
                    if procs { "procs" } else { "threads" },
                    if reliable { "+rel" } else { "" }
                ),
                spec: spec.clone(),
                procs,
                reliable,
                expect: expect.clone(),
            })
        })
        .collect()
}

/// The order repetition `rep` runs a batch of `n` programs in: a
/// permutation drawn from `(seed, rep)`.
pub fn rep_order(n: usize, seed: u64, rep: u64) -> Vec<usize> {
    let mut state = seed ^ rep.wrapping_mul(0xD1B5_4A32_D192_ED03);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Check a finished run's answer against `expect`.
pub fn check(expect: &Expect, rep: &mut CkReport) -> Result<(), String> {
    match expect {
        Expect::Count(want) => match rep.take_result::<u64>() {
            Some(got) if got == *want => Ok(()),
            got => Err(format!("expected {want}, got {got:?}")),
        },
        Expect::Sum(want) => match rep.take_result::<f64>() {
            Some(got) if (got - want).abs() <= 1e-9 * want.abs().max(1.0) => Ok(()),
            got => Err(format!("expected {want}, got {got:?}")),
        },
        Expect::Root(want) => match rep.take_result::<mmr::MmrResult>() {
            Some(got) if got.root == *want => Ok(()),
            got => Err(format!("expected root {want:?}, got {got:?}")),
        },
    }
}

/// Judge one finished real-backend run: a watchdog timeout or a procs
/// abort fails it before the answer is looked at.
pub fn verdict(expect: &Expect, rep: &mut CkReport) -> Result<(), String> {
    if rep.timed_out {
        return Err("watchdog timed out".into());
    }
    if let Some(reason) = rep.proc.as_ref().and_then(|p| p.aborted.as_ref()) {
        return Err(format!("procs run aborted: {reason}"));
    }
    check(expect, rep)
}

/// Nanoseconds `ThreadMachine` takes to start and join its PE threads
/// around a program that stops at boot: the spawn/join share of every
/// `run_threads` call, whose reported run time includes it.
pub fn spawn_join_ns() -> u64 {
    struct Halt;
    impl NodeProgram for Halt {
        fn boot(&mut self, net: &mut dyn NetCtx) {
            if net.me() == Pe::ZERO {
                net.stop();
            }
        }
        fn incoming(&mut self, _pkt: Packet) {}
        fn step(&mut self, _net: &mut dyn NetCtx) -> Option<StepKind> {
            None
        }
        fn has_work(&self) -> bool {
            false
        }
    }
    let rep = ThreadMachine::run(ThreadConfig::new(BATCH_PES), &FnFactory(|_, _| Halt));
    rep.wall.as_nanos() as u64
}

/// Samples of [`spawn_join_ns`] behind the estimate booked as set-up in
/// each repetition.
const SPAWN_JOIN_SAMPLES: usize = 5;

/// One pass over `ops` in `order`, each on its own backend. Operation
/// ids start at `op_base`. Set-up is program construction plus the
/// backend call's time outside its own run: on procs, process spawn,
/// handshake and teardown (the call time outside the reported run); on
/// threads, thread spawn and join, which the reported run time
/// includes, so the median of a few [`spawn_join_ns`] samples taken
/// before the pass is moved from run time to set-up.
pub fn batch_rep(ops: &[BatchOp], order: &[usize], op_base: u64, tr: &mut Tracer) -> Rep {
    let samples: Vec<f64> = (0..SPAWN_JOIN_SAMPLES)
        .map(|_| spawn_join_ns() as f64)
        .collect();
    let spawn_join = crate::stats::median(&samples) as u64;
    let start = Instant::now();
    let mut rep = Rep::default();
    for (k, &i) in order.iter().enumerate() {
        let op = &ops[i];
        let (verdict, op_ns) = tr.op(op_base + k as u64, &op.label, |tr| {
            let (prog, build_ns) = tr.span("apps.build", "ck_apps", |_| {
                let prog = spec::build_spec(&op.spec);
                if op.reliable {
                    prog.with_reliable(ReliableConfig::default())
                } else {
                    prog
                }
            });
            let (mut report, call_ns) = if op.procs {
                tr.span("procs.run", "chare_kernel.proc", |_| {
                    prog.run_procs(&ProcConfig::new(BATCH_PES, op.spec.clone()))
                })
            } else {
                tr.span("threads.run", "multicomputer.thread", |_| {
                    prog.run_threads(BATCH_PES)
                })
            };
            let booked = if op.procs {
                0
            } else {
                spawn_join.min(report.time_ns)
            };
            let run_ns = report.time_ns - booked;
            let outside_ns = call_ns.saturating_sub(run_ns);
            rep.setup_ns += build_ns + outside_ns;
            rep.sums.add("apps.build_ns", build_ns as f64);
            rep.sums.add("apps.builds", 1.0);
            rep.sums.absorb(&report);
            rep.work += report.counter_total("user_recv") as f64;
            rep.work_ns += run_ns;
            if let Some(detail) = &report.proc {
                let ends = &detail.worker_end_ns;
                let skew = ends.iter().max().unwrap_or(&0) - ends.iter().min().unwrap_or(&0);
                rep.sums.add("procs.runs", 1.0);
                rep.sums.add("procs.run_ns", run_ns as f64);
                rep.sums.add("procs.skew_ns", skew as f64);
                rep.sums.add("procs.spawn_ns", outside_ns as f64);
            } else {
                rep.sums.add("threads.run_ns", run_ns as f64);
            }
            verdict(&op.expect, &mut report)
        });
        rep.op_ns.push(op_ns);
        rep.tally.record(verdict);
    }
    rep.wall_ns = ns(start);
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_is_deterministic_per_seed() {
        assert_eq!(batch(7), batch(7));
        assert_eq!(rep_order(9, 7, 3), rep_order(9, 7, 3));
        let (a, b) = (batch(7), batch(8));
        assert_ne!(a[1].spec, b[1].spec, "the mmr leaf seed follows the seed");
        assert_eq!(a[0], b[0], "fib and jacobi are fixed work");
        assert_eq!(a[2], b[2]);
    }

    #[test]
    fn batch_backends_modes_and_orders() {
        let ops = batch(1);
        assert_eq!(ops.len(), 9);
        assert_eq!(ops.iter().filter(|op| !op.procs).count(), 3);
        assert!(ops.iter().all(|op| op.procs || !op.reliable));
        assert_eq!(ops.iter().filter(|op| op.reliable).count(), 3);
        assert_eq!(ops[8].label, "procs.jacobi+rel");
        let mut order = rep_order(9, 1, 0);
        order.sort_unstable();
        assert_eq!(order, (0..9).collect::<Vec<_>>());
        let distinct: std::collections::BTreeSet<Vec<usize>> =
            (0..20).map(|r| rep_order(9, 1, r)).collect();
        assert!(distinct.len() > 1, "orders vary across repetitions");
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn campaign_inputs_follow_the_seed() {
        let a = campaign::make_run(5, 3).0.spec();
        assert_eq!(a, campaign::make_run(5, 3).0.spec());
        let differs =
            (0..8).any(|i| campaign::make_run(5, i).0.spec() != campaign::make_run(6, i).0.spec());
        assert!(differs);
    }

    fn small_batch_op(expect: Expect) -> BatchOp {
        BatchOp {
            label: "threads.fib".into(),
            spec: "fib:n=12,grain=6,bal=random".into(),
            procs: false,
            reliable: false,
            expect,
        }
    }

    #[test]
    fn wrong_answer_is_counted_not_raised() {
        let good = small_batch_op(Expect::Count(fib::fib_seq(12)));
        let bad = small_batch_op(Expect::Count(fib::fib_seq(12) + 1));
        let mut tr = Tracer::new(false);
        let rep = batch_rep(&[good, bad], &[0, 1, 0], 0, &mut tr);
        assert_eq!(rep.tally.attempted, 3);
        assert_eq!(rep.tally.failed, 1);
        assert!(
            rep.tally.notes[0].contains("expected"),
            "{:?}",
            rep.tally.notes
        );
        assert_eq!(rep.op_ns.len(), 3);
    }

    #[test]
    fn check_rejects_each_kind_of_wrong_answer() {
        let mut rep =
            spec::build_spec("jacobi:n=16,iters=3").run_sim_preset(2, MachinePreset::NcubeLike);
        let want = jacobi::jacobi_seq(jacobi::JacobiParams { n: 16, iters: 3 });
        assert!(check(&Expect::Sum(want + 1.0), &mut rep).is_err());
        let mut rep = spec::build_spec("mmr:leaves=20,grain=4,seed=3")
            .run_sim_preset(2, MachinePreset::NcubeLike);
        assert!(check(&Expect::Root(mmr::mmr_root_seq(4, 20)), &mut rep).is_err());
        let mut rep = spec::build_spec("mmr:leaves=20,grain=4,seed=3")
            .run_sim_preset(2, MachinePreset::NcubeLike);
        assert!(check(&Expect::Root(mmr::mmr_root_seq(3, 20)), &mut rep).is_ok());
    }
}
