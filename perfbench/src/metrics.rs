//! The metric registry and the result line.
//!
//! `END_TO_END` and `PER_LAYER` are the names and units the command
//! prints; a test checks them against `BENCHMARK.json`. Every metric of
//! the run's mode is printed on every workload: a per-layer metric of a
//! layer the workload does not reach reads 0 (README.md lists which).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::Args;

/// End-to-end metrics (`--trace 0`): `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics (`--trace 1`): `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tasks.sweep_s", "s"),
    ("tasks.advance_s", "s"),
    ("tasks.idle_s", "s"),
    ("tasks.sweeps", "count"),
    ("tasks.useful_sweep_ratio", "ratio"),
    ("tasks.teardown_s", "s"),
    ("fabric.envelopes", "count"),
    ("fabric.bytes", "B"),
    ("fabric.envelopes_per_app_frame", "ratio"),
    ("fabric.bytes_per_app_frame", "B"),
    ("transport.ack_frames_per_app_frame", "ratio"),
    ("transport.acks_coalesced", "count"),
    ("transport.retransmit_frames", "count"),
    ("transport.payload_bytes_copied", "B"),
    ("kernel.send_ns", "ns"),
    ("kernel.deliver_ns", "ns"),
    ("kernel.send_contended_ns", "ns"),
    ("kernel.deliver_contended_ns", "ns"),
    ("kernel.ingest_ns_per_frame", "ns"),
    ("kernel.checkpoint_us", "us"),
    ("kernel.checkpoint_envelopes", "count"),
    ("kernel.tick_us", "us"),
    ("tracking.piggyback_bytes_per_send", "B"),
    ("tracking.ids_per_send", "count"),
    ("tracking.send_deliver_ns", "ns"),
    ("log.bytes_peak", "B"),
    ("recovery.crash_to_synced_ms", "ms"),
    ("recovery.logs_resent", "count"),
    ("recovery.checkpoints", "count"),
    ("explore.executions", "count"),
    ("explore.useful_execution_ratio", "ratio"),
    ("explore.executions_per_s", "1/s"),
    ("explore.baseline_run_us", "us"),
    ("replicator.objects_shipped", "count"),
    ("replicator.bytes_shipped", "B"),
    ("replicator.restores", "count"),
    ("replicator.retries", "count"),
    ("replicator.snapshot_ms", "ms"),
    ("serve.request_rtt_us", "us"),
    ("serve.submit_rtt_us", "us"),
    ("serve.status_polls_per_job", "count"),
    ("serve.job_p50_ms", "ms"),
    ("serve.job_p90_ms", "ms"),
    ("serve.wipe_job_p50_ms", "ms"),
    ("serve.rss_growth_kib_per_job", "KiB"),
    ("serve.late_to_early_throughput", "ratio"),
    ("process.cpu_s", "s"),
    ("trace.wall_s", "s"),
];

/// One timed span of the traced run.
pub struct Span {
    /// Thread-local lane (worker index, or 0 for the main thread).
    pub lane: usize,
    /// What was called.
    pub name: &'static str,
    /// Start, in nanoseconds since the run began.
    pub start_ns: u64,
    /// End, in nanoseconds since the run began.
    pub end_ns: u64,
}

/// The metrics, operation counts and spans of one invocation.
pub struct Output {
    trace: bool,
    values: BTreeMap<&'static str, f64>,
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations whose outputs did not match the reference.
    pub failed: u64,
    /// Spans recorded by the traced run, written out at the end.
    pub spans: Vec<Span>,
    /// Time origin of the spans.
    pub epoch: Instant,
}

impl Output {
    /// An empty result for the given mode.
    pub fn new(trace: bool) -> Self {
        Output {
            trace,
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            spans: Vec::new(),
            epoch: Instant::now(),
        }
    }

    /// Record `value` under a registered metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        let name = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not registered"));
        self.values.insert(name, value);
    }

    /// Record a span of the traced run (dropped in untraced runs).
    pub fn span(&mut self, lane: usize, name: &'static str, t0: Instant, t1: Instant) {
        if self.trace {
            let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                lane,
                name,
                start_ns: ns(t0),
                end_ns: ns(t1),
            });
        }
    }

    /// Count one checked operation; `ok == false` counts it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// The result line: every metric of this run's mode, or an error
    /// naming one that was not measured.
    pub fn render(&self) -> Result<String, String> {
        let list = if self.trace { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in list.iter().enumerate() {
            let v = self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite ({v})"));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        ))
    }

    /// Write the traced run's spans as CSV under `perfbench/out/`.
    pub fn write_spans(&self, args: &Args) -> std::io::Result<()> {
        let dir = std::path::Path::new("perfbench").join("out");
        std::fs::create_dir_all(&dir)?;
        let mut csv = String::from("lane,name,start_ns,end_ns\n");
        for s in &self.spans {
            writeln!(csv, "{},{},{},{}", s.lane, s.name, s.start_ns, s.end_ns)
                .expect("writing to a String cannot fail");
        }
        std::fs::write(
            dir.join(format!("spans-{}-seed{}.csv", args.workload, args.seed)),
            csv,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric list in BENCHMARK.json.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list is closed")];
        let field = |obj: &str, f: &str| -> String {
            let at = obj.find(&format!("\"{f}\"")).expect("field present") + f.len() + 2;
            let rest = &obj[at..];
            let open = rest.find('"').expect("string value") + 1;
            let close = open + rest[open..].find('"').expect("closed string");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_are_exactly_those_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(listed(&json, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&json, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn render_requires_every_metric_of_the_mode() {
        let mut out = Output::new(false);
        out.check(true, String::new);
        out.set("setup_s", 0.5);
        out.set("wall_s", 1.25);
        assert!(out.render().is_err());
        out.set("peak_rss_mb", 10.0);
        let line = out.render().expect("complete");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
    }
}
