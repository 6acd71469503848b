//! End-to-end and per-layer benchmark of the lclog runtime.
//!
//! ```text
//! lclog-perfbench --workload <ring_wide|lu_nonblocking|serve_mix|explore_faults>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload drives the program through its public API, checks
//! every output against a reference computed apart from the program,
//! and prints one JSON object as its last line of standard output.
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the
//! per-layer ones (see `metrics.rs` and README.md).

mod explore;
mod layers;
mod lu;
mod metrics;
mod reference;
mod ring;
mod serve;
mod util;

use std::process::ExitCode;

use metrics::Output;

/// One invocation's arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed; the same seed gives the same inputs.
    pub seed: u64,
    /// How long the timed repetitions run.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other:?} (0|1)")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = Output::new(args.trace);
    let result = match args.workload.as_str() {
        "ring_wide" => ring::run(&args, &mut out),
        "lu_nonblocking" => lu::run(&args, &mut out),
        "serve_mix" => serve::run(&args, &mut out),
        "explore_faults" => explore::run(&args, &mut out),
        other => Err(format!("unknown workload {other:?}")),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    if args.trace {
        out.set("process.cpu_s", util::cpu_seconds());
        if let Err(e) = out.write_spans(&args) {
            eprintln!("perfbench: writing spans: {e}");
        }
    }
    out.set("peak_rss_mb", util::peak_rss_mib());
    match out.render() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
