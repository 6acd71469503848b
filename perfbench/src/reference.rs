//! Reference digests computed apart from the program: plain folds of
//! the two exchange kernels the benchmark runs, written against the
//! kernels' documented arithmetic and never touching the runtime.

/// The mixer `TaskRing` folds with.
fn ring_mix(x: u64, salt: u64) -> u64 {
    (x ^ salt)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(23)
        .wrapping_add(0x1656_67B1_9E37_79F9)
}

/// Per-rank digests of `TaskRing { rounds, .. }` on `n` ranks: every
/// round each rank sends `mix(acc, round)` to its right neighbour and
/// folds the value from its left.
pub fn task_ring(n: usize, rounds: u64) -> Vec<u64> {
    let mut acc: Vec<u64> = (0..n).map(|r| ring_mix(r as u64, 0x9abc)).collect();
    for round in 0..rounds {
        let out: Vec<u64> = acc.iter().map(|&a| ring_mix(a, round)).collect();
        for r in 0..n {
            let v = out[(r + n - 1) % n];
            acc[r] = ring_mix(acc[r].wrapping_add(v), round);
        }
    }
    acc.iter().map(|&a| ring_mix(a, rounds)).collect()
}

/// splitmix64, the mixer of the service workloads.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The service's submit-able exchange kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Each rank sends right and folds from the left.
    Ring,
    /// Rank `r` swaps with `r ^ 1`; an unpaired last rank folds alone.
    Pairs,
}

impl Kind {
    /// The SUBMIT spelling.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Ring => "ring",
            Kind::Pairs => "pairs",
        }
    }
}

/// Per-rank digests of the service workload `kind` on `n` ranks.
pub fn service(kind: Kind, n: usize, rounds: u64) -> Vec<u64> {
    let salt = (kind as u64) << 32;
    let mut acc: Vec<u64> = (0..n).map(|r| splitmix(r as u64 ^ salt)).collect();
    let source = |r: usize| -> Option<usize> {
        match kind {
            Kind::Ring if n > 1 => Some((r + n - 1) % n),
            Kind::Pairs if (r ^ 1) < n => Some(r ^ 1),
            _ => None,
        }
    };
    for round in 0..rounds {
        let out: Vec<u64> = acc.iter().map(|&a| splitmix(a ^ round)).collect();
        for (r, a) in acc.iter_mut().enumerate() {
            *a = match source(r) {
                Some(s) => splitmix(a.wrapping_add(out[s])),
                None => splitmix(*a ^ round),
            };
        }
    }
    acc.iter().map(|&a| splitmix(a ^ rounds)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lclog_bench::apps::TaskRing;
    use lclog_core::ProtocolKind;
    use lclog_runtime::{run_tasks, CheckpointPolicy, ClusterConfig, EngineMode, RunConfig};

    fn tasks_cfg(n: usize) -> ClusterConfig {
        ClusterConfig::new(
            n,
            RunConfig::new(ProtocolKind::Tdi)
                .with_checkpoint(CheckpointPolicy::EverySteps(4))
                .with_engine(EngineMode::Tasks { workers: 2 }),
        )
    }

    #[test]
    fn task_ring_fold_matches_the_documented_digest() {
        assert_eq!(task_ring(512, 16)[0], 0x0acf_b0ed_2f89_3d5d);
    }

    #[test]
    fn task_ring_fold_agrees_with_small_runs() {
        for (n, rounds) in [(3, 5), (8, 9)] {
            let app = TaskRing {
                rounds,
                payload: 64,
            };
            let run = run_tasks(&tasks_cfg(n), app).expect("small ring run");
            assert_eq!(run.digests, task_ring(n, rounds), "n={n} rounds={rounds}");
        }
    }

    #[test]
    fn service_folds_agree_with_small_runs() {
        use lclog_serve::{Workload, WorkloadKind};
        for (kind, wk) in [
            (Kind::Ring, WorkloadKind::Ring),
            (Kind::Pairs, WorkloadKind::Pairs),
        ] {
            for n in [4, 5] {
                let run = run_tasks(&tasks_cfg(n), Workload::new(wk, 7)).expect("small run");
                assert_eq!(run.digests, service(kind, n, 7), "{kind:?} n={n}");
            }
        }
    }
}
