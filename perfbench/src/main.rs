//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! With `--trace 0`, runs one workload untraced and prints its
//! end-to-end metrics; with `--trace 1`, runs the per-layer ledger over
//! all four workloads. The last line of standard output is the result:
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.

use perfbench::{Params, Size, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_dir: Option<PathBuf>,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut spans_dir) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--spans-dir" => spans_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of (0, 600]"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        spans_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let p = Params {
        seed: args.seed,
        size: Size::Paper,
        inject: None,
    };
    let (outcome, want) = if args.trace {
        (perfbench::ledger(&p, args.seconds), PER_LAYER)
    } else {
        (
            perfbench::end_to_end(&args.workload, &p, args.seconds),
            END_TO_END,
        )
    };
    println!(
        "{}",
        perfbench::provenance(&args.workload, args.seed, args.seconds, args.trace)
    );
    for n in &outcome.notes {
        println!("{n}");
    }
    for m in &outcome.metrics {
        println!("  {:<40} {:>14.6e} {}", m.name, m.value, m.unit);
    }
    if let Err(e) = perfbench::check_names(&outcome.metrics, want) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(1);
    }
    if let Some(dir) = &args.spans_dir {
        for (w, spans) in &outcome.spans {
            let path = dir.join(format!("spans-{w}-{}.tsv", args.seed));
            if let Err(e) = perfbench::trace::write_tsv(&path, spans) {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    println!("{}", perfbench::result_json(&outcome));
    ExitCode::SUCCESS
}
