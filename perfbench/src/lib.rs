//! # perfbench — end-to-end and per-layer benchmark of the Chare Kernel
//!
//! One invocation runs one workload for a time budget and prints every
//! metric with its unit and sample count, then a one-line JSON result.
//! Untraced runs give the end-to-end metrics; a traced run (`--trace 1`)
//! records spans around the calls into each layer, runs the layer
//! probes, and gives the per-layer metrics. See `README.md` beside this
//! crate for the workloads and the layer-to-metric map.

pub mod probes;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;

use std::time::Instant;

use report::Metric;
use spans::Tracer;
pub use workloads::Workload;
use workloads::{Rep, Tally};

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
    /// Where the detail file and spans go (none: not written).
    pub out_dir: Option<std::path::PathBuf>,
}

impl Args {
    /// Parse `--workload W --seed N --seconds S --trace 0|1 [--out-dir D]`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut out_dir) =
            (None, None, None, None, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&val).ok_or_else(|| format!("unknown workload {val:?}"))?,
                    )
                }
                "--seed" => {
                    seed = Some(val.parse::<u64>().map_err(|e| format!("bad --seed: {e}"))?)
                }
                "--seconds" => {
                    let s: f64 = val.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                    if !s.is_finite() || s <= 0.0 {
                        return Err("--seconds must be a positive number".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match val.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {val:?}")),
                    })
                }
                "--out-dir" => out_dir = Some(std::path::PathBuf::from(val)),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
            out_dir,
        })
    }
}

/// Everything one invocation measured.
pub struct Outcome {
    /// Metrics in catalogue order.
    pub metrics: Vec<Metric>,
    /// Operations attempted and failed (probes included when traced).
    pub tally: Tally,
    /// Untraced and traced repetitions run.
    pub reps: (usize, usize),
    /// Spans of the traced run.
    pub tracer: Option<Tracer>,
    /// Wall seconds of every untraced repetition, in run order.
    pub rep_walls_s: Vec<f64>,
}

/// Run `f` on a fresh thread and wait for it: thread-local memo and
/// message pool start cold.
fn fresh<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().expect("repetition thread panicked"))
}

/// Shares of the budget: traced runs keep the rest for the probes.
const TRACED_WORKLOAD_SHARE: f64 = 0.8;

/// Fewest untraced repetitions behind the end-to-end figures, even when
/// they overrun the budget (tables-full repetitions take about 9 s).
const MIN_UNTRACED_REPS: usize = 3;

/// Run the workload: repetitions until the next one would overrun the
/// budget (untraced: at least [`MIN_UNTRACED_REPS`]; traced runs
/// alternate untraced and traced repetitions, at least one of each),
/// then, when traced, the probes.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let seed = args.seed;
    let ops = match w {
        Workload::Backends2pe => workloads::batch(seed),
        _ => Vec::new(),
    };
    let one = |index: u64, traced: bool| -> (Rep, Tracer) {
        let ops = &ops;
        fresh(move || {
            let mut tr = Tracer::new(traced);
            let rep = match w {
                Workload::TablesFull => workloads::tables_rep(&mut tr),
                Workload::DesimCampaign => workloads::desim_rep(seed, &mut tr),
                Workload::Backends2pe => {
                    let order = workloads::rep_order(ops.len(), seed, index);
                    let base = index * ops.len() as u64;
                    workloads::batch_rep(ops, &order, base, &mut tr)
                }
            };
            (rep, tr)
        })
    };

    let start = Instant::now();
    let budget = if args.trace {
        args.seconds * TRACED_WORKLOAD_SHARE
    } else {
        args.seconds
    };
    let mut master = Tracer::new(args.trace);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut longest = 0.0f64;
    // Peak resident set once the first repetition is done: what a user
    // who runs the workload once sees. Later repetitions on fresh
    // threads leave allocator arenas behind, so the process peak would
    // grow with the number of repetitions the host's speed allowed.
    let mut first_peak_rss_kb = 0;
    for index in 0.. {
        let traced_turn = args.trace && index % 2 == 1;
        let t = Instant::now();
        let (rep, tr) = one(index, traced_turn);
        longest = longest.max(t.elapsed().as_secs_f64());
        if index == 0 {
            first_peak_rss_kb = ck_bench::driver::peak_rss_kb();
        }
        if traced_turn {
            master.absorb(tr);
            traced.push(rep);
        } else {
            plain.push(rep);
        }
        let enough = if args.trace {
            !traced.is_empty()
        } else {
            plain.len() >= MIN_UNTRACED_REPS
        };
        if enough && start.elapsed().as_secs_f64() + longest > budget {
            break;
        }
    }

    let mut tally = Tally::default();
    let all: Vec<&Rep> = plain.iter().chain(&traced).collect();
    if w == Workload::TablesFull {
        // Gate: every repetition produced all tables, byte-identical
        // (host cells redacted) to the first repetition's.
        let first = all[0].digest;
        let jobs = ck_bench::driver::table_jobs().len();
        for rep in &all {
            let produced = rep.sums.get("tables.produced") as usize;
            tally.record(if produced != jobs {
                Err(format!("{produced} of {jobs} tables produced"))
            } else if rep.digest != first {
                Err("tables differ from the first repetition's".into())
            } else {
                Ok(())
            });
        }
    }
    for rep in &all {
        tally.merge(&rep.tally);
    }

    let metrics = if args.trace {
        let mut probe_tracer = Tracer::new(true);
        let probes = fresh(|| probes::run(&mut probe_tracer));
        tally.merge(&probes.tally);
        let build_probe_ns = match w {
            Workload::DesimCampaign => Some(fresh(|| workloads::desim_build_ns(seed, 200))),
            _ => None,
        };
        let m = report::per_layer_metrics(w, &traced, &plain, &master, &probes, build_probe_ns);
        master.absorb(probe_tracer);
        m
    } else {
        report::end_to_end(w, &plain, first_peak_rss_kb)
    };
    let metrics = metrics
        .finish()
        .map_err(|missing| format!("metrics not produced: {missing:?}"))?;
    Ok(Outcome {
        metrics,
        tally,
        reps: (plain.len(), traced.len()),
        tracer: args.trace.then_some(master),
        rep_walls_s: plain.iter().map(|r| r.wall_ns as f64 / 1e9).collect(),
    })
}

fn esc(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// The seed as recorded: tables-full ignores it.
pub fn seed_label(args: &Args) -> String {
    match args.workload {
        Workload::TablesFull => format!("n/a (fixed evaluation; given {})", args.seed),
        _ => args.seed.to_string(),
    }
}

/// The printed report: every metric with unit, sample count and how it
/// was formed.
pub fn render(args: &Args, out: &Outcome) -> String {
    let mut s = format!(
        "perfbench: workload {}, seed {}, budget {} s, {}\n",
        args.workload.name(),
        seed_label(args),
        args.seconds,
        if args.trace {
            "traced (per-layer metrics)"
        } else {
            "untraced (end-to-end metrics)"
        }
    );
    s.push_str(&format!(
        "  repetitions: {} untraced, {} traced; operations: {} attempted, {} failed, fail_ratio {}\n",
        out.reps.0,
        out.reps.1,
        out.tally.attempted,
        out.tally.failed,
        stats::ratio(out.tally.failed as f64, out.tally.attempted as f64)
    ));
    for note in &out.tally.notes {
        s.push_str(&format!("  failure: {note}\n"));
    }
    s.push_str(&format!(
        "  {:<40} {:>16} {:<6} {:>8}  {}\n",
        "metric", "value", "unit", "samples", "how"
    ));
    for m in &out.metrics {
        s.push_str(&format!(
            "  {:<40} {:>16.6} {:<6} {:>8}  {}\n",
            m.name, m.value, m.unit, m.samples, m.how
        ));
    }
    s
}

/// The detail document written beside the result (the wrapper script
/// adds host provenance to it).
pub fn detail_json(args: &Args, out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "    \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}, \"how\": \"{}\"}}",
                m.name,
                report::json_num(m.value),
                m.unit,
                m.samples,
                esc(&m.how)
            )
        })
        .collect();
    let failures: Vec<String> = out
        .tally
        .notes
        .iter()
        .map(|n| format!("\"{}\"", esc(n)))
        .collect();
    let walls: Vec<String> = out
        .rep_walls_s
        .iter()
        .map(|&w| report::json_num(w))
        .collect();
    format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": \"{}\",\n  \"seconds\": {},\n  \"trace\": {},\n  \"repetitions_untraced\": {},\n  \"repetitions_traced\": {},\n  \"repetition_walls_s\": [{}],\n  \"ops_attempted\": {},\n  \"ops_failed\": {},\n  \"fail_ratio\": {},\n  \"failures\": [{}],\n  \"metrics\": {{\n{}\n  }}\n}}\n",
        args.workload.name(),
        esc(&seed_label(args)),
        report::json_num(args.seconds),
        args.trace,
        out.reps.0,
        out.reps.1,
        walls.join(", "),
        out.tally.attempted,
        out.tally.failed,
        report::json_num(stats::ratio(out.tally.failed as f64, out.tally.attempted as f64)),
        failures.join(", "),
        metrics.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        Args::parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "backends-2pe",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::Backends2pe);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 10.0, true));
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "backends-2pe",
            "--seed",
            "1",
            "--seconds",
            "1"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "backends-2pe",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
    }
}
