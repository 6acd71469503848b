//! `explore_faults`: `explore_dpor` over the exhaustive n=4
//! single-crash matrix of a one-round any-source gather. Thousands of
//! crash/recovery schedules of real kernels run deterministically on
//! one thread each, which separates the kernel and recovery path from
//! thread scheduling. The matrix is fixed, so the seed selects nothing
//! here.

use std::time::Instant;

use lclog_core::ProtocolKind;
use lclog_explore::{
    explore_dpor, explore_exhaustive, run_schedule, ExploreConfig, ExploreReport, FaultBudget,
    FirstDecider, Workload,
};

use crate::layers;
use crate::metrics::Output;
use crate::util::{median, nproc, repeat, secs};
use crate::Args;

/// Ranks in the gather.
const N: usize = 4;
/// Fault-free reference explorations made in set-up (median reported):
/// each takes a few milliseconds, so many are needed for a steady
/// median.
const SETUPS: usize = 150;
/// Timed repetitions a run makes at the least.
const MIN_REPS: usize = 3;
/// Fault-free baseline schedules timed for `explore.baseline_run_us`.
const BASELINE_RUNS: usize = 200;

fn config(crashes: usize, workers: usize) -> ExploreConfig {
    ExploreConfig {
        max_schedules: 1_000_000,
        protocol: ProtocolKind::Tdi,
        faults: FaultBudget {
            crashes,
            ..FaultBudget::none()
        },
        workers,
        ..ExploreConfig::default()
    }
}

/// A matrix agrees with the fault-free reference when it was
/// exhausted, never wedged or diverged, and its digest census is
/// exactly the reference digests.
fn agrees(r: &ExploreReport, reference: &[u64]) -> bool {
    r.exhausted
        && r.wedged == 0
        && r.divergence.is_none()
        && r.baseline_digests == reference
        && r.digests_seen.len() == 1
        && r.digests_seen.contains(reference)
}

/// Run the workload.
pub fn run(args: &Args, out: &mut Output) -> Result<(), String> {
    let w = Workload::rotating_gather(N, 1);

    // The reference: the fault-free brute-force census, which must hold
    // a single digest vector. It runs on one explorer worker: it is too
    // small to split, and with two workers its time moved from run to
    // run with the second CPU's availability.
    let mut setups = Vec::new();
    let mut reference = None;
    for i in 0..=SETUPS {
        let t0 = Instant::now();
        let r = explore_exhaustive(&w, &config(0, 1));
        // The first exploration pays the process's page faults.
        if i > 0 {
            setups.push(secs(t0.elapsed()));
        }
        if !(r.exhausted && r.divergence.is_none() && r.digests_seen.len() == 1) {
            return Err("fault-free reference exploration did not agree".into());
        }
        reference = Some(r.baseline_digests);
    }
    crate::util::log_samples("setup_s", &setups);
    out.set("setup_s", median(&setups));
    let reference = reference.expect("at least one reference exploration");

    let mut walls = Vec::new();
    let mut executions = Vec::new();
    let mut useful = Vec::new();
    repeat(args.seconds, MIN_REPS, |rep| {
        let t0 = Instant::now();
        let r = explore_dpor(&w, &config(1, nproc()));
        let t1 = Instant::now();
        let wall = secs(t1 - t0);
        out.span(0, "explore_dpor", t0, t1);
        out.check(agrees(&r, &reference), || {
            format!(
                "explore_faults: exhausted {} wedged {} diverged {} census {}",
                r.exhausted,
                r.wedged,
                r.divergence.is_some(),
                r.digests_seen.len()
            )
        });
        if rep > 0 {
            walls.push(wall);
            let ex = (r.schedules + r.sleep_blocked) as f64;
            executions.push(ex);
            useful.push(r.schedules as f64 / ex);
        }
        Ok(())
    })?;
    if !args.trace {
        crate::util::log_samples("wall_s", &walls);
        out.set("wall_s", median(&walls));
        return Ok(());
    }
    let wall = median(&walls);
    out.set("trace.wall_s", wall);
    out.set("explore.executions", median(&executions));
    out.set("explore.useful_execution_ratio", median(&useful));
    out.set("explore.executions_per_s", median(&executions) / wall);
    let mut baseline = Vec::new();
    for _ in 0..BASELINE_RUNS {
        let t0 = Instant::now();
        let run = run_schedule(&w, &mut FirstDecider);
        let t1 = Instant::now();
        baseline.push(secs(t1 - t0) * 1e6);
        out.span(0, "run_schedule", t0, t1);
        if run.digests != reference {
            return Err("baseline schedule disagrees with the reference".into());
        }
    }
    out.set("explore.baseline_run_us", median(&baseline));
    layers::kernel_rig(out, N);
    layers::tracking_rig(out, ProtocolKind::Tdi, N);
    layers::not_reached(
        out,
        &[
            "tasks.",
            "fabric.",
            "transport.",
            "tracking.piggyback",
            "tracking.ids",
            "log.",
            "recovery.",
            "replicator.",
            "serve.",
        ],
    );
    Ok(())
}
