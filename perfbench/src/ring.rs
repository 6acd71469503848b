//! `ring_wide`: dense-TDI `TaskRing` neighbour exchange at large n on
//! the tasks engine, checkpointing every 8 steps, with one seeded rank
//! killed mid-run. At this n the per-rank O(n) costs (checkpoint
//! fan-out, transport ticks, held-frame release) dominate the wall.

use std::time::{Duration, Instant};

use lclog_bench::apps::TaskRing;
use lclog_core::ProtocolKind;
use lclog_runtime::{
    run_tasks, CheckpointPolicy, ClusterConfig, EngineMode, FailurePlan, RunConfig, RunReport,
    TaskJob,
};

use crate::layers;
use crate::metrics::{Output, Span};
use crate::reference;
use crate::util::{median, nproc, repeat, secs, Rng};
use crate::Args;

/// Ranks per job.
const N: usize = 256;
/// Exchange rounds per job (one step each).
const ROUNDS: u64 = 16;
/// Checkpoint period in steps.
const CKPT_EVERY: u64 = 8;
/// Application payload bytes.
const PAYLOAD: usize = 64;
/// `TaskJob::new` calls timed for `setup_s`: each takes about 10 ms,
/// so many are needed for a steady median.
const SETUPS: usize = 40;
/// Timed repetitions a run makes at the least.
const MIN_REPS: usize = 3;

fn app() -> TaskRing {
    TaskRing {
        rounds: ROUNDS,
        payload: PAYLOAD,
    }
}

/// The job config for repetition `rep`: the victim rank and kill step
/// come from the seed.
fn config(rng_seed: u64, rep: usize, trace: bool) -> ClusterConfig {
    let mut rng = Rng::new(rng_seed, 0x7269_6e67 ^ rep as u64);
    let victim = rng.range(0, N as u64) as usize;
    let step = rng.range(CKPT_EVERY / 2, ROUNDS - 2);
    ClusterConfig::new(
        N,
        RunConfig::new(ProtocolKind::Tdi)
            .with_checkpoint(CheckpointPolicy::EverySteps(CKPT_EVERY))
            .with_engine(EngineMode::Tasks { workers: nproc() }),
    )
    .with_failures(FailurePlan::kill_at(victim, step))
    .with_trace(trace)
    .with_max_wall(Duration::from_secs(120))
}

fn check(out: &mut Output, expected: &[u64], report: &Result<RunReport, String>) {
    match report {
        Ok(r) => out.check(r.kills >= 1 && r.digests == expected, || {
            format!(
                "ring_wide digests differ from the reference (kills {})",
                r.kills
            )
        }),
        Err(e) => out.check(false, || format!("ring_wide job failed: {e}")),
    }
}

/// Run the workload.
pub fn run(args: &Args, out: &mut Output) -> Result<(), String> {
    let expected = reference::task_ring(N, ROUNDS);

    let mut setups = Vec::new();
    for i in 0..=SETUPS {
        let cfg = config(args.seed, i, false);
        let t0 = Instant::now();
        let job = TaskJob::new(&cfg, app())?;
        let t = secs(t0.elapsed());
        drop(job);
        // The first construction pays the process's page faults.
        if i > 0 {
            setups.push(t);
        }
    }
    crate::util::log_samples("setup_s", &setups);
    out.set("setup_s", median(&setups));

    if !args.trace {
        let mut walls = Vec::new();
        repeat(args.seconds, MIN_REPS, |rep| {
            let cfg = config(args.seed, rep, false);
            let t0 = Instant::now();
            let report = run_tasks(&cfg, app());
            let wall = secs(t0.elapsed());
            check(out, &expected, &report);
            if rep > 0 {
                walls.push(wall);
            }
            Ok(())
        })?;
        crate::util::log_samples("wall_s", &walls);
        out.set("wall_s", median(&walls));
        return Ok(());
    }

    let mut traced = Vec::new();
    let mut layer = layers::Samples::default();
    repeat(args.seconds, MIN_REPS, |rep| {
        let cfg = config(args.seed, rep, true);
        let t0 = Instant::now();
        let (report, spans, teardown) = traced_job(&cfg, out.epoch)?;
        let wall = secs(t0.elapsed());
        check(out, &expected, &Ok(report.clone()));
        if rep > 0 {
            traced.push(wall);
            layer.add_tasks(&spans, teardown);
            layer.add_report(&report);
            out.spans.extend(spans);
        }
        Ok(())
    })?;
    out.set("trace.wall_s", median(&traced));
    layer.finish(out);
    layers::kernel_rig(out, N);
    layers::tracking_rig(out, ProtocolKind::Tdi, N);
    layers::not_reached(out, &["explore.", "replicator.", "serve."]);
    Ok(())
}

/// `run_tasks`'s loop replayed with the benchmark's own workers, each
/// `TaskJob` call timed as a span (`sweep` when it progressed,
/// `sweep_noop` when not). Returns the report, the spans, and the time
/// to drop the finished job.
fn traced_job(cfg: &ClusterConfig, epoch: Instant) -> Result<(RunReport, Vec<Span>, f64), String> {
    let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let span = |lane, name, t0: Instant, t1: Instant| Span {
        lane,
        name,
        start_ns: ns(t0),
        end_ns: ns(t1),
    };
    let t_new = Instant::now();
    let job = TaskJob::new(cfg, app())?;
    let mut spans = vec![span(0, "new", t_new, Instant::now())];
    let lanes: Vec<Vec<Span>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..job.shards())
            .map(|w| {
                let job = &job;
                s.spawn(move || {
                    let start = Instant::now();
                    let mut spans = Vec::new();
                    loop {
                        let t0 = Instant::now();
                        let mut progressed = job.sweep(w);
                        let t1 = Instant::now();
                        let name = if progressed { "sweep" } else { "sweep_noop" };
                        spans.push(span(w, name, t0, t1));
                        if w == 0 {
                            progressed |= job.advance();
                            spans.push(span(w, "advance", t1, Instant::now()));
                        }
                        if job.is_finished() {
                            spans.push(span(w, "worker", start, Instant::now()));
                            return spans;
                        }
                        if !progressed {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced sweep worker panicked"))
            .collect()
    });
    spans.extend(lanes.into_iter().flatten());
    let t0 = Instant::now();
    let report = job.report()?;
    let t1 = Instant::now();
    drop(job);
    let t2 = Instant::now();
    spans.push(span(0, "report", t0, t1));
    spans.push(span(0, "teardown", t1, t2));
    Ok((report, spans, secs(t2 - t1)))
}
