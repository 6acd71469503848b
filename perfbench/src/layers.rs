//! Per-layer measurements, all taken from outside the program: counts
//! read from the public reports, and standalone rigs that time single
//! public calls of one layer.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use lclog_core::ProtocolKind;
use lclog_runtime::{EventKind, Kernel, RecvSpec, RunConfig, RunReport};
use lclog_simnet::{NetConfig, SimNet};
use lclog_stable::{CheckpointStore, MemStore};

use crate::metrics::{Output, Span, PER_LAYER};
use crate::util::median;

/// Per-repetition samples of per-layer metrics; each metric reports
/// its median over the run's timed repetitions.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Add one sample of `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// One traced tasks-engine job: busy and idle time summed over the
    /// workers, sweep counts, and the finished job's drop time.
    pub fn add_tasks(&mut self, spans: &[Span], teardown_s: f64) {
        let total = |name: &str| -> f64 {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
                .sum()
        };
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as f64;
        let sweep = total("sweep") + total("sweep_noop");
        let advance = total("advance");
        let sweeps = count("sweep") + count("sweep_noop");
        self.add("tasks.sweep_s", sweep);
        self.add("tasks.advance_s", advance);
        self.add("tasks.idle_s", total("worker") - sweep - advance);
        self.add("tasks.sweeps", sweeps);
        self.add("tasks.useful_sweep_ratio", count("sweep") / sweeps.max(1.0));
        self.add("tasks.teardown_s", teardown_s);
    }

    /// Fabric, transport, tracking, log and recovery figures of one
    /// run's report. Recovery spans need a traced (`with_trace`) run.
    pub fn add_report(&mut self, r: &RunReport) {
        let frames = r.stats.delivers.max(1) as f64;
        let sends = r.stats.sends.max(1) as f64;
        self.add("fabric.envelopes", r.net_msgs as f64);
        self.add("fabric.bytes", r.net_bytes as f64);
        self.add("fabric.envelopes_per_app_frame", r.net_msgs as f64 / frames);
        self.add("fabric.bytes_per_app_frame", r.net_bytes as f64 / frames);
        self.add(
            "transport.ack_frames_per_app_frame",
            r.data_plane.ack_frames as f64 / frames,
        );
        self.add(
            "transport.acks_coalesced",
            r.data_plane.acks_coalesced as f64,
        );
        self.add(
            "transport.retransmit_frames",
            r.data_plane.retransmit_frames as f64,
        );
        self.add(
            "transport.payload_bytes_copied",
            r.data_plane.payload_bytes_copied as f64,
        );
        self.add(
            "tracking.piggyback_bytes_per_send",
            r.stats.piggyback_bytes as f64 / sends,
        );
        self.add(
            "tracking.ids_per_send",
            r.stats.piggyback_ids as f64 / sends,
        );
        self.add("log.bytes_peak", r.stats.log_bytes_peak as f64);

        let mut crashed: BTreeMap<usize, u64> = BTreeMap::new();
        let mut recoveries = Vec::new();
        let (mut resent, mut ckpts) = (0usize, 0usize);
        for ev in &r.timeline {
            match ev.kind {
                EventKind::Crashed { .. } => {
                    crashed.insert(ev.rank, ev.at_us);
                }
                EventKind::RecoverySynced { .. } => {
                    if let Some(at) = crashed.remove(&ev.rank) {
                        recoveries.push((ev.at_us - at) as f64 * 1e-3);
                    }
                }
                EventKind::LogResent { count, .. } => resent += count,
                EventKind::Checkpoint { .. } => ckpts += 1,
                _ => {}
            }
        }
        self.add("recovery.crash_to_synced_ms", recoveries.iter().sum());
        self.add("recovery.logs_resent", resent as f64);
        self.add("recovery.checkpoints", ckpts as f64);
    }

    /// Report every collected metric's median.
    pub fn finish(self, out: &mut Output) {
        for (name, v) in self.0 {
            out.set(name, median(&v));
        }
    }
}

/// Per-layer metrics of layers this workload does not reach read 0:
/// every metric whose name starts with one of `prefixes`.
pub fn not_reached(out: &mut Output, prefixes: &[&str]) {
    for (name, _) in PER_LAYER {
        if prefixes.iter().any(|p| name.starts_with(p)) {
            out.set(name, 0.0);
        }
    }
}

/// Deliveries between receiver checkpoints in the two-kernel rig, so
/// the sender log stays bounded.
const RIG_CKPT_EVERY: u64 = 1024;
/// Timed calls per rig measurement.
const RIG_ITERS: u64 = 20_000;
/// Repetitions of each rig measurement (median reported).
const RIG_REPS: usize = 5;

/// Two kernels on a direct fabric: rank 0 sends, rank 1 delivers.
struct Pair {
    _net: SimNet,
    k0: Arc<Kernel>,
    k1: Arc<Kernel>,
    ep0: lclog_simnet::Endpoint,
    ep1: lclog_simnet::Endpoint,
}

impl Pair {
    fn new() -> Self {
        let net = SimNet::new(3, NetConfig::direct());
        let store = CheckpointStore::new(Arc::new(MemStore::new()));
        let (ep0, ep1) = (net.attach(0), net.attach(1));
        let kernel = |rank| {
            Arc::new(Kernel::new(
                rank,
                2,
                RunConfig::new(ProtocolKind::Tdi),
                net.clone(),
                store.clone(),
            ))
        };
        let (k0, k1) = (kernel(0), kernel(1));
        Pair {
            _net: net,
            k0,
            k1,
            ep0,
            ep1,
        }
    }

    /// Ingest rank 1's inbox; returns the ingest time and frame count.
    fn ingest(&self) -> (Duration, usize) {
        let mut batch = Vec::new();
        while let Ok(env) = self.ep1.try_recv() {
            batch.push(env);
        }
        let frames = batch.len();
        let t0 = Instant::now();
        if frames > 0 {
            self.k1.ingest_batch(batch);
        }
        (t0.elapsed(), frames)
    }

    /// Hand rank 1's acks back to rank 0.
    fn return_acks(&self) {
        let mut acks = Vec::new();
        while let Ok(env) = self.ep0.try_recv() {
            acks.push(env);
        }
        if !acks.is_empty() {
            self.k0.ingest_batch(acks);
        }
    }
}

/// The receiver checkpoints every `RIG_CKPT_EVERY` deliveries.
fn maybe_checkpoint(k1: &Kernel, delivered: u64) {
    if delivered.is_multiple_of(RIG_CKPT_EVERY) {
        k1.do_checkpoint(Vec::new(), delivered / RIG_CKPT_EVERY);
    }
}

/// Uncontended `app_send`, `try_deliver` and `ingest_batch` costs:
/// one thread alternates 64-frame chunks of each, timing only the call
/// under measurement. Returns ns per send, per deliver, per ingested
/// frame.
fn uncontended() -> (f64, f64, f64) {
    let data = Bytes::from(vec![7u8; 256]);
    let p = Pair::new();
    let (mut send, mut deliver, mut ingest) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut delivered, mut frames) = (0u64, 0usize);
    while delivered < RIG_ITERS {
        let t0 = Instant::now();
        for _ in 0..64 {
            p.k0.app_send(1, 0, data.clone(), false);
        }
        send += t0.elapsed();
        let (t, f) = p.ingest();
        ingest += t;
        frames += f;
        let t0 = Instant::now();
        for _ in 0..64 {
            assert!(
                p.k1.try_deliver(RecvSpec::any()).is_some(),
                "rig frame lost"
            );
        }
        deliver += t0.elapsed();
        for _ in 0..64 {
            delivered += 1;
            maybe_checkpoint(&p.k1, delivered);
        }
        p.return_acks();
    }
    let per = |d: Duration, k: f64| d.as_nanos() as f64 / k;
    (
        per(send, delivered as f64),
        per(deliver, delivered as f64),
        per(ingest, frames.max(1) as f64),
    )
}

/// `app_send` while a comm thread concurrently ingests, delivers,
/// checkpoints and ticks the same pair (ns per send).
fn send_contended() -> f64 {
    let data = Bytes::from(vec![7u8; 256]);
    let p = Pair::new();
    let k0 = Arc::clone(&p.k0);
    let stop = Arc::new(AtomicBool::new(false));
    let comm = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut delivered = 0u64;
            while !stop.load(Ordering::Relaxed) {
                p.ingest();
                while p.k1.try_deliver(RecvSpec::any()).is_some() {
                    delivered += 1;
                    maybe_checkpoint(&p.k1, delivered);
                }
                p.return_acks();
                p.k0.tick();
                p.k1.tick();
                std::hint::spin_loop();
            }
        })
    };
    let t0 = Instant::now();
    for _ in 0..RIG_ITERS {
        k0.app_send(1, 0, data.clone(), false);
    }
    let ns = t0.elapsed().as_nanos() as f64 / RIG_ITERS as f64;
    stop.store(true, Ordering::Relaxed);
    comm.join().expect("rig comm thread panicked");
    ns
}

/// `try_deliver` while a feeder thread keeps sending and ingesting on
/// the same pair (ns per delivered frame).
fn deliver_contended() -> f64 {
    let data = Bytes::from(vec![7u8; 256]);
    let p = Pair::new();
    let k1 = Arc::clone(&p.k1);
    let stop = Arc::new(AtomicBool::new(false));
    let delivered = Arc::new(AtomicU64::new(0));
    let feeder = {
        let (stop, delivered) = (Arc::clone(&stop), Arc::clone(&delivered));
        std::thread::spawn(move || {
            let mut sent = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // A bounded window in flight keeps the sender log flat.
                if sent.saturating_sub(delivered.load(Ordering::Acquire)) < 4096 {
                    for _ in 0..64 {
                        p.k0.app_send(1, 0, data.clone(), false);
                    }
                    sent += 64;
                }
                p.ingest();
                p.return_acks();
                std::hint::spin_loop();
            }
        })
    };
    let mut done = 0u64;
    let t0 = Instant::now();
    while done < RIG_ITERS {
        if k1.try_deliver(RecvSpec::any()).is_some() {
            done += 1;
            delivered.store(done, Ordering::Release);
            maybe_checkpoint(&k1, done);
        } else {
            std::hint::spin_loop();
        }
    }
    let ns = t0.elapsed().as_nanos() as f64 / RIG_ITERS as f64;
    stop.store(true, Ordering::Relaxed);
    feeder.join().expect("rig feeder thread panicked");
    ns
}

/// One `do_checkpoint` and one idle `tick` of a standalone rank 0 in an
/// `n`-rank fabric; envelopes are counted at the fabric.
fn checkpoint_and_tick(n: usize) -> (f64, f64, f64) {
    let net = SimNet::new(n + 1, NetConfig::direct());
    let endpoints: Vec<_> = (0..n).map(|r| net.attach(r)).collect();
    let store = CheckpointStore::new(Arc::new(MemStore::new()));
    let k = Kernel::new(0, n, RunConfig::new(ProtocolKind::Tdi), net.clone(), store);
    let drain = || {
        for ep in &endpoints {
            while ep.try_recv().is_ok() {}
        }
    };
    let reps = 50;
    let (mut ckpt, mut tick) = (Vec::new(), Vec::new());
    let mut envelopes = 0u64;
    for step in 1..=reps {
        let before = net.stats().msgs_sent();
        let t0 = Instant::now();
        k.do_checkpoint(vec![0u8; 64], step);
        ckpt.push(t0.elapsed().as_secs_f64() * 1e6);
        envelopes += net.stats().msgs_sent() - before;
        drain();
        let t0 = Instant::now();
        k.tick();
        tick.push(t0.elapsed().as_secs_f64() * 1e6);
        drain();
    }
    (median(&ckpt), envelopes as f64 / reps as f64, median(&tick))
}

/// The kernel rigs: the two-kernel message path (as HP1 measures it)
/// and checkpoint/tick at the workload's rank count `n`.
pub fn kernel_rig(out: &mut Output, n: usize) {
    let mut s = Samples::default();
    for _ in 0..RIG_REPS {
        let (send, deliver, ingest) = uncontended();
        s.add("kernel.send_ns", send);
        s.add("kernel.deliver_ns", deliver);
        s.add("kernel.ingest_ns_per_frame", ingest);
        s.add("kernel.send_contended_ns", send_contended());
        s.add("kernel.deliver_contended_ns", deliver_contended());
    }
    let (ckpt_us, envelopes, tick_us) = checkpoint_and_tick(n);
    s.add("kernel.checkpoint_us", ckpt_us);
    s.add("kernel.checkpoint_envelopes", envelopes);
    s.add("kernel.tick_us", tick_us);
    s.finish(out);
}

/// `on_send` + `on_deliver` of the tracking protocol at rank count `n`
/// (a ring neighbour's view, as SC1's `track_us` measures it).
pub fn tracking_rig(out: &mut Output, kind: ProtocolKind, n: usize) {
    use lclog_core::make_protocol;
    let iters = 20_000u64;
    let mut samples = Vec::new();
    for _ in 0..RIG_REPS {
        let mut left = make_protocol(kind, n - 1, n);
        let mut me = make_protocol(kind, 0, n);
        let mut right = make_protocol(kind, 1, n);
        let t0 = Instant::now();
        for i in 1..=iters {
            let sent = me.on_send(1, i);
            right
                .on_deliver(0, i, &sent.piggyback)
                .expect("rig deliver");
            let inbound = left.on_send(0, i);
            me.on_deliver(n - 1, i, &inbound.piggyback)
                .expect("rig deliver");
        }
        samples.push(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    out.set("tracking.send_deliver_ns", median(&samples));
}
