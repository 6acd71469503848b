//! `lu_nonblocking`: the NPB LU kernel on the thread engine with
//! non-blocking communication (the paper's Fig. 4b), dense TDI, a
//! direct fabric and four ranks, checkpointing every sixth of the run.
//! Many small messages at small n make the per-message kernel path the
//! cost. The run has no injected failure: with a mid-run kill the
//! thread engine wedges now and then (see README.md), and an operation
//! that fails intermittently cannot be counted steadily.

use std::time::{Duration, Instant};

use lclog_core::ProtocolKind;
use lclog_npb::{run_benchmark, Benchmark, Class};
use lclog_runtime::{CheckpointPolicy, ClusterConfig, CommMode, RunConfig, RunReport};
use lclog_simnet::NetConfig;

use crate::layers;
use crate::metrics::Output;
use crate::util::{median, repeat, secs};
use crate::Args;

/// Ranks (each is an application thread plus a comm thread).
const N: usize = 4;
/// Problem class.
const CLASS: Class = Class::Medium;
/// Fault-free reference runs made in set-up (median reported).
const SETUPS: usize = 9;
/// Timed repetitions a run makes at the least.
const MIN_REPS: usize = 10;

fn config(protocol: ProtocolKind, comm: CommMode, trace: bool) -> ClusterConfig {
    let (_, _, gnz, iters) = CLASS.lu_dims();
    let steps = iters * (2 * gnz as u64 + 1);
    ClusterConfig::new(
        N,
        RunConfig::new(protocol)
            .with_comm(comm)
            .with_checkpoint(CheckpointPolicy::EverySteps((steps / 6).max(2))),
    )
    .with_net(NetConfig::direct())
    .with_trace(trace)
    .with_max_wall(Duration::from_secs(60))
}

/// Per-rank digests and application deliveries of a run.
fn outcome(r: &RunReport) -> (Vec<u64>, Vec<u64>) {
    let delivers = r.per_rank_stats.iter().map(|s| s.delivers).collect();
    (r.digests.clone(), delivers)
}

/// Run the workload. The problem is fixed by the class, so the seed
/// selects nothing here.
pub fn run(args: &Args, out: &mut Output) -> Result<(), String> {
    // The reference: the same problem under another protocol and comm
    // mode. Every TDI run must reproduce its digests (protocol
    // independence) and every rank's delivery count (exactly-once
    // delivery).
    let mut setups = Vec::new();
    let mut reference = None;
    for i in 0..=SETUPS {
        let cfg = config(ProtocolKind::Tag, CommMode::blocking_default(), false);
        let t0 = Instant::now();
        let r = run_benchmark(Benchmark::Lu, CLASS, &cfg)?;
        // The first run pays the process's page faults.
        if i > 0 {
            setups.push(secs(t0.elapsed()));
        }
        let got = outcome(&r);
        if reference.as_ref().is_some_and(|prev| *prev != got) {
            return Err("fault-free reference runs disagree".into());
        }
        reference = Some(got);
    }
    crate::util::log_samples("setup_s", &setups);
    out.set("setup_s", median(&setups));
    let reference = reference.expect("at least one reference run");

    let mut walls = Vec::new();
    let mut layer = layers::Samples::default();
    repeat(args.seconds, MIN_REPS, |rep| {
        let cfg = config(ProtocolKind::Tdi, CommMode::NonBlocking, args.trace);
        let t0 = Instant::now();
        let report = run_benchmark(Benchmark::Lu, CLASS, &cfg);
        let t1 = Instant::now();
        out.span(0, "run_benchmark", t0, t1);
        match &report {
            Ok(r) => out.check(outcome(r) == reference, || {
                format!(
                    "lu_nonblocking: digests and deliveries {:?} differ from the reference {reference:?}",
                    outcome(r)
                )
            }),
            Err(e) => out.check(false, || format!("lu_nonblocking run failed: {e}")),
        }
        if rep > 0 {
            walls.push(secs(t1 - t0));
            if let Ok(r) = &report {
                layer.add_report(r);
            }
        }
        Ok(())
    })?;
    if !args.trace {
        crate::util::log_samples("wall_s", &walls);
        out.set("wall_s", median(&walls));
        return Ok(());
    }
    out.set("trace.wall_s", median(&walls));
    layer.finish(out);
    layers::kernel_rig(out, N);
    layers::tracking_rig(out, ProtocolKind::Tdi, N);
    layers::not_reached(out, &["tasks.", "explore.", "replicator.", "serve."]);
    Ok(())
}
