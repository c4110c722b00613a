//! The metric catalogue (the names `BENCHMARK.json` declares) and the
//! computation of every metric from a run's repetitions and probes.

use crate::probes::Probes;
use crate::spans::Tracer;
use crate::stats::{median, quantile, ratio};
use crate::workloads::{Rep, Workload};

/// End-to-end metrics: name and unit. Emitted with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("run_ms_p50", "ms"),
    ("run_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Layers whose self time the traced run reports (`bench` is the
/// operations' own time outside every layer call).
pub const SELF_LAYERS: [&str; 8] = [
    "bench",
    "ck_apps",
    "ck_bench.driver",
    "ck_bench.runner",
    "ck_desim",
    "multicomputer.sim",
    "multicomputer.thread",
    "chare_kernel.proc",
];

/// Per-layer metrics with fixed names: name and unit.
const PER_LAYER_FIXED: [(&str, &str); 47] = [
    ("sim.events", "count"),
    ("sim.packets", "count"),
    ("sim.bytes", "bytes"),
    ("sim.run_s", "s"),
    ("sim.ns_per_event", "ns"),
    ("fault.dropped", "count"),
    ("fault.duplicated", "count"),
    ("fault.delayed", "count"),
    ("threads.run_s", "s"),
    ("threads.spawn_join_s", "s"),
    ("machine.pingpong_ns_per_msg.threads", "ns"),
    ("machine.pingpong_ns_per_msg.sim", "ns"),
    ("kernel.user_recv", "count"),
    ("kernel.entries_executed", "count"),
    ("kernel.pingpong_ns_per_msg.sim", "ns"),
    ("kernel.pingpong_ns_per_msg.threads", "ns"),
    ("kernel.dispatch_ns_per_msg.sim", "ns"),
    ("kernel.dispatch_ns_per_msg.threads", "ns"),
    ("queueing.push_pop_ns.fifo", "ns"),
    ("queueing.push_pop_ns.lifo", "ns"),
    ("queueing.push_pop_ns.int", "ns"),
    ("queueing.push_pop_ns.bitvec", "ns"),
    ("priority.child_ns", "ns"),
    ("priority.cmp_ns", "ns"),
    ("pool.hit_ratio", "ratio"),
    ("kernel.seeds_forwarded", "count"),
    ("kernel.load_reports", "count"),
    ("balance.forward_ratio", "ratio"),
    ("reliable.retransmits", "count"),
    ("reliable.acks_sent", "count"),
    ("reliable.dup_dropped", "count"),
    ("reliable.seeds_redirected", "count"),
    ("reliable.useful_ratio", "ratio"),
    ("metrics.overhead_ratio", "ratio"),
    ("wire.encode_ns_per_byte", "ns/B"),
    ("wire.decode_ns_per_byte", "ns/B"),
    ("procs.run_s", "s"),
    ("procs.spawn_s", "s"),
    ("procs.worker_skew_ms", "ms"),
    ("runner.memo_hits", "count"),
    ("runner.memo_misses", "count"),
    ("runner.memo_hit_ratio", "ratio"),
    ("desim.make_run_s", "s"),
    ("desim.reference_s", "s"),
    ("desim.storm_run_s", "s"),
    ("desim.judge_s", "s"),
    ("apps.build_s", "s"),
];

/// Every per-layer metric: name and unit. Emitted with `--trace 1`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    out.extend(
        ck_bench::driver::table_jobs()
            .iter()
            .map(|(job, _)| (format!("tables.job_s.{job}"), "s")),
    );
    out.push(("trace.overhead_ratio".into(), "ratio"));
    out.push(("trace.unattributed_frac".into(), "ratio"));
    out.extend(SELF_LAYERS.iter().map(|l| (format!("self_s.{l}"), "s")));
    out
}

/// One emitted metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Catalogue name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples behind the value (repetitions, operations or probe runs).
    pub samples: usize,
    /// How the value was formed, for the printed report.
    pub how: String,
}

/// Metrics in catalogue order; a name outside the catalogue or a
/// missing one is an error.
pub struct MetricSet {
    catalogue: Vec<(String, &'static str)>,
    values: Vec<Option<Metric>>,
}

impl MetricSet {
    /// An empty set over `catalogue`.
    pub fn new(catalogue: Vec<(String, &'static str)>) -> Self {
        let values = vec![None; catalogue.len()];
        MetricSet { catalogue, values }
    }

    /// Set `name`.
    pub fn set(&mut self, name: &str, value: f64, samples: usize, how: impl Into<String>) {
        let i = self
            .catalogue
            .iter()
            .position(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.values[i] = Some(Metric {
            name: name.to_string(),
            unit: self.catalogue[i].1,
            value,
            samples,
            how: how.into(),
        });
    }

    /// Every metric, or the names left unset.
    pub fn finish(self) -> Result<Vec<Metric>, Vec<String>> {
        let missing: Vec<String> = self
            .catalogue
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| v.is_none())
            .map(|((n, _), _)| n.clone())
            .collect();
        if missing.is_empty() {
            Ok(self.values.into_iter().flatten().collect())
        } else {
            Err(missing)
        }
    }
}

fn med_of(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// Each operation's fastest repetition, in nanoseconds. The simulator
/// workloads run the same operations, with the same simulated work, in
/// every repetition; what differs between repetitions of one operation
/// is the host, whose other tenants slow the CPU in stretches of
/// seconds. The fastest repetition is the operation's own cost.
pub(crate) fn fastest_per_op(reps: &[Rep]) -> Vec<f64> {
    let n = reps.first().map_or(0, |r| r.op_ns.len());
    assert!(
        reps.iter().all(|r| r.op_ns.len() == n),
        "repetitions ran different operations"
    );
    (0..n)
        .map(|i| reps.iter().map(|r| r.op_ns[i]).min().unwrap_or(0) as f64)
        .collect()
}

/// End-to-end metrics from untraced repetitions. On the simulator
/// workloads, wall time, throughput and latency come from each
/// operation's fastest repetition (`fastest_per_op`); on the real
/// backends, whose runs vary with thread and process scheduling, from
/// medians over repetitions and operations.
pub fn end_to_end(w: Workload, reps: &[Rep], peak_rss_kb: u64) -> MetricSet {
    let mut m = MetricSet::new(
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect(),
    );
    let n = reps.len();
    let (ops, per) = if w.on_simulator() {
        let best = fastest_per_op(reps);
        let wall_s = best.iter().sum::<f64>() / 1e9;
        m.set(
            "wall_s",
            wall_s,
            n,
            format!("sum over operations of each one's fastest of {n} repetitions"),
        );
        m.set(
            "throughput_per_s",
            ratio(med_of(reps, |r| r.work), wall_s),
            n,
            "simulator events of a repetition per second of wall_s",
        );
        let ms: Vec<f64> = if w == Workload::TablesFull {
            // The user's operation is the whole regeneration; its jobs
            // differ by orders of magnitude, and a percentile across
            // them jumps between whichever jobs sit at that rank.
            vec![wall_s * 1e3]
        } else {
            best.iter().map(|t| t / 1e6).collect()
        };
        (ms, format!("of each one's fastest of {n} repetitions"))
    } else {
        m.set(
            "wall_s",
            med_of(reps, |r| r.wall_ns as f64 / 1e9),
            n,
            "median repetition wall time",
        );
        m.set(
            "throughput_per_s",
            med_of(reps, |r| ratio(r.work, r.work_ns as f64 / 1e9)),
            n,
            "median per repetition: user messages received per second of backend run time",
        );
        let ms: Vec<f64> = reps
            .iter()
            .flat_map(|r| r.op_ns.iter().map(|&t| t as f64 / 1e6))
            .collect();
        (ms, "over every repetition".to_string())
    };
    m.set(
        "setup_s",
        med_of(reps, |r| r.setup_ns as f64 / 1e9),
        n,
        "median set-up per repetition",
    );
    let op_what = match w {
        Workload::TablesFull => "per regeneration (the sum of its jobs)",
        Workload::DesimCampaign => "per campaign run",
        _ => "per program run",
    };
    m.set(
        "run_ms_p50",
        quantile(&ops, 0.5),
        ops.len(),
        format!("median latency {op_what}, {per}"),
    );
    m.set(
        "run_ms_p90",
        quantile(&ops, 0.9),
        ops.len(),
        format!("90th percentile latency {op_what}, {per}"),
    );
    m.set(
        "peak_rss_mb",
        peak_rss_kb as f64 / 1024.0,
        1,
        "peak resident set of the benchmark process after its first repetition",
    );
    m
}

/// Per-layer metrics from the traced repetitions, the untraced ones
/// run alongside (for the tracing overhead), and the probes.
pub fn per_layer_metrics(
    w: Workload,
    traced: &[Rep],
    plain: &[Rep],
    tr: &Tracer,
    probes: &Probes,
    build_probe_ns: Option<f64>,
) -> MetricSet {
    let mut m = MetricSet::new(per_layer());
    let n = traced.len();
    let sum = |k: &'static str| med_of(traced, |r| r.sums.get(k));
    let per_rep = format!("median over {n} traced repetition(s)");

    // Counts summed over a repetition's reports.
    let counts = [
        ("sim.events", "sim.events"),
        ("sim.packets", "sim.packets"),
        ("sim.bytes", "sim.bytes"),
        ("fault.dropped", "fault.dropped"),
        ("fault.duplicated", "fault.duplicated"),
        ("fault.delayed", "fault.delayed"),
        ("kernel.user_recv", "user_recv"),
        ("kernel.entries_executed", "entries_executed"),
        ("kernel.seeds_forwarded", "seeds_forwarded"),
        ("kernel.load_reports", "load_reports"),
        ("reliable.retransmits", "retransmits"),
        ("reliable.acks_sent", "acks_sent"),
        ("reliable.dup_dropped", "dup_dropped"),
        ("reliable.seeds_redirected", "seeds_redirected"),
        ("runner.memo_hits", "runner.memo_hits"),
        ("runner.memo_misses", "runner.memo_misses"),
    ];
    for (name, key) in counts {
        m.set(name, sum(key), n, format!("{per_rep}, per repetition"));
    }
    let secs = |k: &'static str| sum(k) / 1e9;
    m.set(
        "sim.run_s",
        secs("sim.run_ns"),
        n,
        "host time of the calls driving the simulator",
    );
    m.set(
        "sim.ns_per_event",
        med_of(traced, |r| {
            ratio(r.sums.get("sim.run_ns"), r.sums.get("sim.events"))
        }),
        n,
        per_rep.clone(),
    );
    m.set(
        "threads.run_s",
        secs("threads.run_ns"),
        n,
        "summed reported run time less spawn/join",
    );
    m.set(
        "procs.run_s",
        secs("procs.run_ns"),
        n,
        "summed reported run time",
    );
    let per_procs_run =
        |k: &'static str| med_of(traced, |r| ratio(r.sums.get(k), r.sums.get("procs.runs")));
    m.set(
        "procs.spawn_s",
        per_procs_run("procs.spawn_ns") / 1e9,
        n,
        "mean per run: call time outside the reported run",
    );
    m.set(
        "procs.worker_skew_ms",
        per_procs_run("procs.skew_ns") / 1e6,
        n,
        "mean per run: spread of worker end times",
    );
    m.set(
        "balance.forward_ratio",
        med_of(traced, |r| {
            ratio(r.sums.get("seeds_forwarded"), r.sums.get("seeds_spawned"))
        }),
        n,
        "seeds forwarded / seeds spawned",
    );
    m.set(
        "reliable.useful_ratio",
        med_of(traced, |r| {
            let sent = r.sums.get("user_sent");
            ratio(sent, sent + r.sums.get("retransmits"))
        }),
        n,
        "user_sent / (user_sent + retransmits)",
    );
    m.set(
        "runner.memo_hit_ratio",
        med_of(traced, |r| {
            let hits = r.sums.get("runner.memo_hits");
            ratio(hits, hits + r.sums.get("runner.memo_misses"))
        }),
        n,
        "memo hits / lookups",
    );
    for (name, key) in [
        ("desim.make_run_s", "desim.make_run_ns"),
        ("desim.reference_s", "desim.reference_ns"),
        ("desim.storm_run_s", "desim.storm_run_ns"),
        ("desim.judge_s", "desim.judge_ns"),
    ] {
        m.set(
            name,
            secs(key),
            n,
            format!("{per_rep}, summed over the campaign"),
        );
    }
    let build_s = match build_probe_ns {
        Some(t) => t / 1e9,
        None => {
            med_of(traced, |r| {
                ratio(r.sums.get("apps.build_ns"), r.sums.get("apps.builds"))
            }) / 1e9
        }
    };
    m.set(
        "apps.build_s",
        build_s,
        n,
        "mean seconds per program construction",
    );
    for (job, _) in ck_bench::driver::table_jobs() {
        let (s, k) = tr.median_s(&format!("tables.job.{job}"));
        m.set(
            &format!("tables.job_s.{job}"),
            s,
            k,
            "median traced job span",
        );
    }

    // Probes; pool statistics come from the repetition thread when the
    // workload itself drives the simulator there.
    for (name, value) in &probes.values {
        let value = if *name == "pool.hit_ratio" && w.on_simulator() {
            sum("pool.hit_ratio")
        } else {
            *value
        };
        m.set(
            name,
            value,
            1,
            "layer probe (median of its own repetitions)",
        );
    }

    let traced_wall = med_of(traced, |r| r.wall_ns as f64);
    let plain_wall = med_of(plain, |r| r.wall_ns as f64);
    m.set(
        "trace.overhead_ratio",
        ratio(traced_wall, plain_wall),
        n + plain.len(),
        "median traced / median untraced repetition wall",
    );
    m.set(
        "trace.unattributed_frac",
        tr.unattributed_frac(),
        tr.spans().len(),
        "operation time outside every layer span",
    );
    let by_layer = tr.self_ns_by_layer();
    for layer in SELF_LAYERS {
        let s = by_layer.get(layer).copied().unwrap_or(0) as f64 / 1e9 / n.max(1) as f64;
        m.set(
            &format!("self_s.{layer}"),
            s,
            n,
            "self time per traced repetition",
        );
    }
    m
}

/// The result line: the last line of standard output.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// rendering gives.
pub fn json_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names in one `BENCHMARK.json` section (`"end_to_end"` or
    /// `"per_layer"`), in file order.
    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .split("\"name\":")
            .skip(1)
            .map(|s| {
                s.trim()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(declared("per_layer"), layers);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        all.extend(per_layer().into_iter().map(|(n, _)| n));
        let mut seen = std::collections::BTreeSet::new();
        for n in &all {
            assert!(seen.insert(n.clone()), "duplicate {n}");
            assert!(
                n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        assert!(all.len() - END_TO_END.len() <= 128);
    }

    #[test]
    fn fastest_repetition_per_operation() {
        let rep = |op_ns: Vec<u64>| Rep {
            op_ns,
            ..Rep::default()
        };
        let reps = [rep(vec![5, 3, 9]), rep(vec![4, 6, 9]), rep(vec![7, 8, 2])];
        assert_eq!(fastest_per_op(&reps), vec![4.0, 3.0, 2.0]);
        assert!(fastest_per_op(&[]).is_empty());
    }

    #[test]
    fn metric_set_reports_missing_names() {
        let mut m = MetricSet::new(vec![("a".into(), "s"), ("b".into(), "s")]);
        m.set("a", 1.5, 3, "x");
        assert_eq!(m.finish().err(), Some(vec!["b".to_string()]));
    }

    #[test]
    fn result_line_shape() {
        let m = Metric {
            name: "wall_s".into(),
            unit: "s",
            value: 1.25,
            samples: 3,
            how: String::new(),
        };
        assert_eq!(
            result_json(true, 4, 0, &[m]),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
