//! The seeded sample stream the serve workloads ingest.
//!
//! The base is the kernel's own measurement run (the samples the daemon's
//! static analysis also sees). The stream replicates it: copy `k` sits in
//! its own time slot after copy `k - 1`, shifted by a seeded offset
//! inside one CC interval and with its CPU ids rotated by a seeded
//! amount, so every seed gives a different but equally realistic stream
//! and the windowed fold keeps sliding (eviction is active once the
//! stream is longer than the window).

use crate::trace::{run_key, SimTally};
use slopt_ir::interp::SplitMix64;
use slopt_obs::Obs;
use slopt_sample::{Sample, Sampler};
use slopt_sim::CpuId;
use slopt_workload::{baseline_layouts, run_once, AnalysisConfig, Kernel, SdetConfig};

/// The kernel's measurement-run samples, sorted by time (the shard
/// invariant). This is one simulated run, tallied as `sim` work.
pub fn base_samples(
    kernel: &Kernel,
    cfg: &AnalysisConfig,
    obs: &Obs,
    tally: &SimTally,
) -> Vec<Sample> {
    let sdet = SdetConfig::default();
    let table = baseline_layouts(kernel, sdet.line_size);
    let mut sampler = Sampler::new(cfg.machine.cpus(), cfg.sampler);
    tally.run(obs, run_key(kernel, &table, &cfg.machine, cfg.seed), || {
        run_once(kernel, &table, &cfg.machine, &sdet, cfg.seed, &mut sampler)
    });
    let mut samples = sampler.into_samples();
    samples.sort_by_key(|s| s.time);
    samples
}

/// `batches` time-sorted batches of `batch_len` samples replicated from
/// `base` under `seed`. Consecutive batches are consecutive stretches of
/// one globally time-ordered stream.
///
/// # Panics
///
/// Panics if `base` is empty or `interval` is zero.
pub fn stream(
    base: &[Sample],
    seed: u64,
    batches: usize,
    batch_len: usize,
    interval: u64,
) -> Vec<Vec<Sample>> {
    assert!(
        !base.is_empty() && interval > 0,
        "need samples and an interval"
    );
    let cpus = base.iter().map(|s| s.cpu.0).max().unwrap_or(0) + 1;
    let last = base.iter().map(|s| s.time).max().unwrap_or(0);
    // One empty interval between copies keeps them disjoint after the
    // in-interval offset.
    let slot = (last / interval + 2) * interval;
    let want = batches * batch_len;
    let mut rng = SplitMix64::new(seed);
    let mut all: Vec<Sample> = Vec::with_capacity(want + base.len());
    let mut copy = 0u64;
    while all.len() < want {
        let rotate = (rng.next_u64() % u64::from(cpus)) as u16;
        let offset = copy * slot + rng.next_u64() % interval;
        all.extend(base.iter().map(|s| Sample {
            cpu: CpuId((s.cpu.0 + rotate) % cpus),
            time: s.time + offset,
            ..*s
        }));
        copy += 1;
    }
    all.truncate(want);
    all.chunks(batch_len.max(1))
        .map(<[Sample]>::to_vec)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Fnv;
    use slopt_ir::{BlockId, FuncId, SourceLine};

    /// FNV-1a digest over every sample of every batch, in order.
    fn batch_digest(batches: &[Vec<Sample>]) -> u64 {
        let mut h = Fnv::new();
        for b in batches {
            h.eat(&(b.len() as u64).to_le_bytes());
            for s in b {
                h.eat(&s.cpu.0.to_le_bytes());
                h.eat(&s.time.to_le_bytes());
                h.eat(&s.func.0.to_le_bytes());
                h.eat(&s.block.0.to_le_bytes());
                h.eat(&s.line.0.to_le_bytes());
            }
        }
        h.finish()
    }

    fn base() -> Vec<Sample> {
        (0..40u64)
            .map(|i| Sample {
                cpu: CpuId((i % 4) as u16),
                time: i * 700,
                func: FuncId(0),
                block: BlockId((i % 3) as u32),
                line: SourceLine((10 + i % 5) as u32),
            })
            .collect()
    }

    #[test]
    fn same_seed_same_stream_and_seeds_differ() {
        let a = stream(&base(), 1, 6, 16, 6_000);
        let b = stream(&base(), 1, 6, 16, 6_000);
        let c = stream(&base(), 2, 6, 16, 6_000);
        assert_eq!(batch_digest(&a), batch_digest(&b));
        assert_ne!(batch_digest(&a), batch_digest(&c));
        assert_eq!(a.len(), 6);
        assert!(a.iter().all(|batch| batch.len() == 16));
    }

    #[test]
    fn the_stream_is_time_ordered_and_keeps_cpu_ids_in_range() {
        let s = stream(&base(), 7, 10, 13, 6_000);
        let flat: Vec<&Sample> = s.iter().flatten().collect();
        assert!(flat.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(flat.iter().all(|x| x.cpu.0 < 4));
    }
}
