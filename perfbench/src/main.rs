//! `perfbench --workload W --seed N --seconds S --trace 0|1 [--out-dir D]`
//!
//! Prints the report, then the one-line JSON result as the last line of
//! standard output. Exits 1 if the run could not produce its metrics,
//! 2 on a bad command line.

use std::process::ExitCode;

use perfbench::{Args, Workload};

fn main() -> ExitCode {
    // Procs workers re-invoke this binary; a worker invocation runs its
    // PE loop here and never returns.
    ck_apps::spec::worker_hook();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload W --seed N --seconds S --trace 0|1 [--out-dir D]"
            );
            eprintln!("workloads: {}", Workload::ALL.map(|w| w.name()).join(", "));
            return ExitCode::from(2);
        }
    };
    if args.workload == Workload::TablesFull {
        // Host-measured cells are the only nondeterministic table bytes;
        // redact them so repetitions can be compared byte for byte.
        std::env::set_var("CK_TABLES_REDACT_HOST", "1");
    }
    let out = match perfbench::run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    if let Some(dir) = &args.out_dir {
        let stem = format!(
            "{}-seed{}-trace{}",
            args.workload.name(),
            args.seed,
            u8::from(args.trace)
        );
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| {
                std::fs::write(
                    dir.join(format!("{stem}.json")),
                    perfbench::detail_json(&args, &out),
                )
            })
            .and_then(|()| match &out.tracer {
                Some(tr) => tr.write_jsonl(&dir.join(format!("{stem}.spans.jsonl"))),
                None => Ok(()),
            });
        if let Err(e) = written {
            eprintln!("perfbench: cannot write to {}: {e}", dir.display());
            return ExitCode::from(1);
        }
    }
    print!("{}", perfbench::render(&args, &out));
    println!(
        "{}",
        perfbench::report::result_json(
            out.tally.failed == 0,
            out.tally.attempted,
            out.tally.failed,
            &out.metrics
        )
    );
    ExitCode::SUCCESS
}
