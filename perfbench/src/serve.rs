//! `serve_mix`: a fresh `lclog-serve` service per repetition, driven
//! over loopback by a closed loop of at most `nproc` client
//! connections submitting a seeded mix of small `ring`/`pairs` jobs
//! across TDI, TDI-S and TAG. Per block of 20 jobs, 4 carry a mid-job
//! kill and 1 a kill with a storage wipe (node loss). Each job is
//! checked against the reference fold and retired. This is the only
//! workload that reaches the front end, the shared sweep pool over many
//! small jobs, and the replicator.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lclog_core::ProtocolKind;
use lclog_runtime::ReplicatorConfig;
use lclog_serve::{Client, Service, ServiceConfig};

use crate::layers::{self, Samples};
use crate::metrics::Output;
use crate::reference::{self, Kind};
use crate::util::{current_rss_kib, median, nproc, quantile, repeat, secs, Rng};
use crate::Args;

/// Jobs per repetition (one fresh service each).
const JOBS: usize = 400;
/// Jobs per block; each block has `KILLS` kill jobs and `WIPES`
/// kill+wipe jobs, so every batch has the same fault shares.
const BLOCK: usize = 20;
const KILLS: usize = 4;
const WIPES: usize = 1;
/// STATUS poll interval: well below the median job latency (~4 ms),
/// and slow enough that the clients' polling does not take the CPU
/// the service's sweep pool needs.
const POLL: Duration = Duration::from_micros(500);
/// Timed repetitions a run makes at the least.
const MIN_REPS: usize = 3;
/// Give up on a job after this long.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// One submitted job.
struct Job {
    spec: String,
    expected: String,
    /// The job carries a kill, so at least one must fire.
    faulty: bool,
    wipe: bool,
}

impl Job {
    fn new(kind: Kind, n: usize, proto: &str, rounds: u64, fault: &str, wipe: bool) -> Self {
        let expected = reference::service(kind, n, rounds)
            .iter()
            .map(|d| format!("{d:016x}"))
            .collect::<Vec<_>>()
            .join(",");
        Job {
            spec: format!(
                "kind={} n={n} proto={proto} rounds={rounds}{fault}",
                kind.name()
            ),
            expected,
            faulty: !fault.is_empty(),
            wipe,
        }
    }

    /// The fixed, fault-free job that ends a fresh service's set-up,
    /// long enough (~10 ms) that the STATUS poll interval does not
    /// quantize the set-up time.
    fn first() -> Self {
        Job::new(Kind::Ring, 8, "tdi", 64, "", false)
    }
}

/// The seeded batch of repetition `rep`.
fn batch(seed: u64, rep: usize) -> Vec<Job> {
    let mut rng = Rng::new(seed, 0x7365_7276 ^ rep as u64);
    let mut faults = Vec::with_capacity(JOBS);
    for _ in 0..JOBS / BLOCK {
        let mut block = vec![0u8; BLOCK];
        block[..KILLS].fill(1);
        block[KILLS..KILLS + WIPES].fill(2);
        rng.shuffle(&mut block);
        faults.extend(block);
    }
    faults
        .into_iter()
        .map(|fault| {
            let kind = if rng.range(0, 2) == 0 {
                Kind::Ring
            } else {
                Kind::Pairs
            };
            let n = rng.range(4, 9) as usize;
            let proto = ["tdi", "tdis", "tag"][rng.range(0, 3) as usize];
            let rounds = rng.range(16, 33);
            let mut args = String::new();
            if fault > 0 {
                let rank = rng.range(0, n as u64);
                let step = rng.range(2, rounds - 2);
                args = format!(" kill={rank}@{step}");
                if fault == 2 {
                    args.push_str(" wipe=on");
                }
            }
            Job::new(kind, n, proto, rounds, &args, fault == 2)
        })
        .collect()
}

/// What one client saw of one job.
struct Seen {
    lane: usize,
    submitted: Instant,
    finished: Instant,
    submit_rtt_us: f64,
    polls: usize,
    wipe: bool,
    ok: bool,
    net_msgs: u64,
    delivers: u64,
}

impl Seen {
    /// SUBMIT sent to `state=finished` seen.
    fn latency_ms(&self) -> f64 {
        secs(self.finished - self.submitted) * 1e3
    }
}

/// The integer after `key=` in a reply of whitespace- or line-separated
/// `key=value` words (REPORT, METRICS).
fn field(line: &str, key: &str) -> Option<u64> {
    let prefix = format!("{key}=");
    line.split_whitespace()
        .find_map(|w| w.strip_prefix(&prefix))
        .and_then(|v| v.parse().ok())
}

/// Submit, poll to completion, check the digests and that the planned
/// kill fired (and no other), retire. `lane` is the client's index.
fn drive(client: &mut Client, lane: usize, job: &Job, traced: bool) -> Result<Seen, String> {
    let t0 = Instant::now();
    let id = client.request_field(&format!("SUBMIT {}", job.spec), "id")?;
    let submit_rtt_us = secs(t0.elapsed()) * 1e6;
    let mut polls = 0;
    let kills = loop {
        let status = client
            .request(&format!("STATUS {id}"))
            .map_err(|e| e.to_string())?;
        polls += 1;
        if status.contains("state=finished") {
            break field(&status, "kills");
        }
        if !status.starts_with("OK") || status.contains("state=failed") {
            return Err(format!("job {id} ({}): {status}", job.spec));
        }
        if t0.elapsed() > JOB_TIMEOUT {
            return Err(format!("job {id} ({}) timed out", job.spec));
        }
        std::thread::sleep(POLL);
    };
    let finished = Instant::now();
    let digests = client
        .request(&format!("DIGESTS {id}"))
        .map_err(|e| e.to_string())?;
    let ok = digests == format!("OK id={id} {}", job.expected)
        && kills.is_some_and(|k| (k >= 1) == job.faulty);
    let (mut net_msgs, mut delivers) = (0, 0);
    if traced {
        let report = client
            .request(&format!("REPORT {id}"))
            .map_err(|e| e.to_string())?;
        net_msgs = field(&report, "net_msgs").unwrap_or(0);
        delivers = field(&report, "delivers").unwrap_or(0);
    }
    let retired = client
        .request(&format!("RETIRE {id}"))
        .map_err(|e| e.to_string())?;
    if !retired.starts_with("OK") {
        return Err(format!("retire {id}: {retired}"));
    }
    Ok(Seen {
        lane,
        submitted: t0,
        finished,
        submit_rtt_us,
        polls,
        wipe: job.wipe,
        ok,
        net_msgs,
        delivers,
    })
}

/// One repetition's figures.
struct Batch {
    setup_s: f64,
    first_ok: bool,
    seen: Vec<Seen>,
    start: Instant,
    makespan_s: f64,
    rss_quarter_kib: f64,
    rss_end_kib: f64,
    ping_rtt_us: f64,
    snapshot_ms: f64,
    metrics: String,
}

fn run_batch(jobs: &[Job], traced: bool) -> Result<Batch, String> {
    let clients = nproc().clamp(1, 8);
    let t0 = Instant::now();
    let service = Service::start(ServiceConfig {
        workers: nproc(),
        replicator: ReplicatorConfig::default(),
    });
    let result = (|| {
        let addr: SocketAddr = service.listen("127.0.0.1:0").map_err(|e| e.to_string())?;
        let mut first = Client::connect(addr).map_err(|e| e.to_string())?;
        let pong = first.request("PING").map_err(|e| e.to_string())?;
        if pong != "OK pong" {
            return Err(format!("PING answered {pong:?}"));
        }
        // Set-up ends when a fresh service has returned its first result.
        let first_job = drive(&mut first, 0, &Job::first(), false)?;
        let setup_s = secs(t0.elapsed());
        let mut conns = vec![first];
        for _ in 1..clients {
            conns.push(Client::connect(addr).map_err(|e| e.to_string())?);
        }
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let rss_quarter = Mutex::new(0.0);
        let start = Instant::now();
        let per_client: Vec<Result<Vec<Seen>, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(lane, client)| {
                    let (next, done, rss_quarter) = (&next, &done, &rss_quarter);
                    s.spawn(move || {
                        let mut seen = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= jobs.len() {
                                return Ok(seen);
                            }
                            seen.push(drive(client, lane, &jobs[i], traced)?);
                            if done.fetch_add(1, Ordering::Relaxed) + 1 == jobs.len() / 4 {
                                *rss_quarter.lock().expect("rss sample lock") = current_rss_kib();
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("serve client thread panicked"))
                .collect()
        });
        let makespan_s = secs(start.elapsed());
        let rss_end_kib = current_rss_kib();
        let mut seen = Vec::new();
        for r in per_client {
            seen.extend(r?);
        }
        let client = &mut conns[0];
        let mut pings = Vec::new();
        let mut snapshot_ms = 0.0;
        let mut metrics = String::new();
        if traced {
            for _ in 0..21 {
                let t = Instant::now();
                client.request("PING").map_err(|e| e.to_string())?;
                pings.push(secs(t.elapsed()) * 1e6);
            }
            let t = Instant::now();
            let snap = client.request("SNAPSHOT").map_err(|e| e.to_string())?;
            snapshot_ms = secs(t.elapsed()) * 1e3;
            if snap != "OK synced=true" {
                return Err(format!("SNAPSHOT answered {snap:?}"));
            }
            metrics = client.request("METRICS").map_err(|e| e.to_string())?;
        }
        let drained = client.request("DRAIN").map_err(|e| e.to_string())?;
        if !drained.ends_with("synced=true") {
            return Err(format!("DRAIN answered {drained:?}"));
        }
        let rss_quarter_kib = *rss_quarter.lock().expect("rss sample lock");
        Ok(Batch {
            setup_s,
            first_ok: first_job.ok,
            seen,
            start,
            makespan_s,
            rss_quarter_kib,
            rss_end_kib,
            ping_rtt_us: median(&pings),
            snapshot_ms,
            metrics,
        })
    })();
    service.shutdown();
    drop(service);
    // The next batch starts from a fresh service, so this one's freed
    // memory must not stay resident under it: let the connection
    // threads drop their service handles, then hand the allocator's
    // free pages back.
    std::thread::sleep(Duration::from_millis(20));
    crate::util::release_free_memory();
    result
}

/// Run the workload.
pub fn run(args: &Args, out: &mut Output) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut per_job = Vec::new();
    let mut latencies = Vec::new();
    let mut wipe_latencies = Vec::new();
    let mut layer = Samples::default();
    repeat(args.seconds, MIN_REPS, |rep| {
        let jobs = batch(args.seed, rep);
        let b = run_batch(&jobs, args.trace)?;
        for ok in std::iter::once(b.first_ok).chain(b.seen.iter().map(|s| s.ok)) {
            out.check(ok, || {
                "serve_mix: job digests differ from the reference or its kill did not fire".into()
            });
        }
        setups.push(b.setup_s);
        if rep == 0 {
            return Ok(());
        }
        per_job.push(b.makespan_s / b.seen.len() as f64);
        for s in &b.seen {
            out.span(s.lane, "job", s.submitted, s.finished);
            latencies.push(s.latency_ms());
            if s.wipe {
                wipe_latencies.push(s.latency_ms());
            }
        }
        if args.trace {
            add_traced(&mut layer, &b);
        }
        Ok(())
    })?;
    // Every batch starts a fresh service; its first one also pays the
    // process's first-touch costs.
    crate::util::log_samples("setup_s", &setups[1..]);
    out.set("setup_s", median(&setups[1..]));
    // The wall a closed-loop batch spends per job. The median single
    // job latency is per-layer: it moved more between runs with the
    // host's speed.
    if !args.trace {
        crate::util::log_samples("batch wall per job s", &per_job);
        out.set("wall_s", median(&per_job));
        return Ok(());
    }
    out.set("trace.wall_s", median(&per_job));
    out.set("serve.job_p50_ms", median(&latencies));
    out.set("serve.job_p90_ms", quantile(&latencies, 0.9));
    out.set("serve.wipe_job_p50_ms", median(&wipe_latencies));
    layer.finish(out);
    layers::kernel_rig(out, 5);
    layers::tracking_rig(out, ProtocolKind::Tdi, 5);
    layers::not_reached(out, &["tasks.", "log.", "recovery.", "explore."]);
    Ok(())
}

fn add_traced(layer: &mut Samples, b: &Batch) {
    let jobs = b.seen.len() as f64;
    layer.add(
        "serve.status_polls_per_job",
        b.seen.iter().map(|s| s.polls as f64).sum::<f64>() / jobs,
    );
    let submits: Vec<f64> = b.seen.iter().map(|s| s.submit_rtt_us).collect();
    layer.add("serve.submit_rtt_us", median(&submits));
    layer.add("serve.request_rtt_us", b.ping_rtt_us);
    layer.add(
        "serve.rss_growth_kib_per_job",
        (b.rss_end_kib - b.rss_quarter_kib) / (jobs * 0.75),
    );
    let mut finished: Vec<f64> = b.seen.iter().map(|s| secs(s.finished - b.start)).collect();
    finished.sort_by(f64::total_cmp);
    let q = finished.len() / 4;
    let early = q as f64 / finished[q - 1];
    let late = q as f64 / (finished[finished.len() - 1] - finished[finished.len() - 1 - q]);
    layer.add("serve.late_to_early_throughput", late / early);
    layer.add("replicator.snapshot_ms", b.snapshot_ms);

    let m = |key: &str| field(&b.metrics, key).unwrap_or(0) as f64;
    layer.add("replicator.objects_shipped", m("repl_objects_shipped"));
    layer.add("replicator.bytes_shipped", m("repl_bytes_shipped"));
    layer.add("replicator.restores", m("repl_restores"));
    layer.add("replicator.retries", m("repl_retries"));
    layer.add("transport.acks_coalesced", m("acks_coalesced_total"));
    layer.add("transport.retransmit_frames", m("retransmit_frames_total"));
    let delivers = m("delivers_total").max(1.0);
    layer.add(
        "tracking.piggyback_bytes_per_send",
        m("piggyback_bytes_total") / delivers,
    );
    let envelopes: u64 = b.seen.iter().map(|s| s.net_msgs).sum();
    let frames: u64 = b.seen.iter().map(|s| s.delivers).sum();
    layer.add("fabric.envelopes", envelopes as f64);
    layer.add(
        "fabric.envelopes_per_app_frame",
        envelopes as f64 / frames.max(1) as f64,
    );
    // Not exposed by the service's API.
    for name in [
        "fabric.bytes",
        "fabric.bytes_per_app_frame",
        "transport.ack_frames_per_app_frame",
        "transport.payload_bytes_copied",
        "tracking.ids_per_send",
    ] {
        layer.add(name, 0.0);
    }
}
