//! Fault-injection tests over the committed `slopt-shard/1` corpus in
//! `tests/data/shards/` (see its README.txt): the shard-directory fold
//! must fold the valid shards, skip each malformed one with a counted
//! warning, and never panic.

use slopt_obs::Obs;
use slopt_sample::{
    concurrency_map, read_shard, shard_files, ConcurrencyConfig, Sample, ShardError,
    WindowedConcurrency,
};
use std::path::{Path, PathBuf};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/shards")
}

const CFG: ConcurrencyConfig = ConcurrencyConfig { interval: 100 };

/// The corpus folded into a window wide enough that nothing in it can
/// be evicted or dropped late, so the window holds every accepted
/// sample.
fn corpus_fold(obs: &Obs) -> WindowedConcurrency {
    let mut win = WindowedConcurrency::new(CFG, 1 << 16);
    win.ingest_dir(&corpus_dir(), obs)
        .expect("listing the corpus dir succeeds");
    assert_eq!(win.evicted_samples() + win.late_dropped(), 0);
    win
}

#[test]
fn corpus_reader_classifies_every_fault() {
    let results: Vec<(PathBuf, Result<Vec<Sample>, ShardError>)> = shard_files(&corpus_dir())
        .unwrap()
        .into_iter()
        .map(|path| {
            let parsed = read_shard(&path);
            (path, parsed)
        })
        .collect();
    let names: Vec<String> = results
        .iter()
        .map(|(p, _)| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    // README.txt is ignored; shards come back in path order.
    assert_eq!(
        names,
        [
            "shard-00000.slshard",
            "shard-00001.slshard",
            "shard-00002.slshard",
            "shard-00003.slshard",
            "shard-00004.slshard",
            "shard-00006.slshard",
        ]
    );
    assert!(matches!(results[0].1, Ok(ref s) if s.len() == 4));
    assert!(matches!(
        results[1].1,
        Err(ShardError::Truncated {
            expected: 128,
            actual: 80
        })
    ));
    assert!(matches!(results[2].1, Err(ShardError::BadMagic)));
    assert!(matches!(
        results[3].1,
        Err(ShardError::Truncated {
            expected: 32,
            actual: 0
        })
    ));
    assert!(matches!(results[4].1, Err(ShardError::OutOfOrder(2))));
    assert!(matches!(results[5].1, Ok(ref s) if s.len() == 2));
}

#[test]
fn corpus_ingestion_skips_faults_and_matches_survivors() {
    let dir = corpus_dir();
    let mut win = corpus_fold(&Obs::disabled());
    assert_eq!(win.accepted(), 6);

    // The result equals the batch CC of exactly the surviving shards.
    let mut survivors = read_shard(&dir.join("shard-00000.slshard")).unwrap();
    survivors.extend(read_shard(&dir.join("shard-00006.slshard")).unwrap());
    let expected = concurrency_map(&survivors, &CFG);
    assert_eq!(win.concurrency_jobs(2), expected);
}

#[test]
fn corpus_skips_surface_as_stats_warnings() {
    let obs = Obs::aggregating();
    corpus_fold(&obs);
    obs.finish();
    let summary = obs.summary();
    // Each skip reason is a warn.shard.skipped.<reason> counter — the
    // rows `--stats` prints.
    assert_eq!(summary.metrics.counter("warn.shard.skipped.truncated"), 2);
    assert_eq!(summary.metrics.counter("warn.shard.skipped.bad_magic"), 1);
    assert_eq!(
        summary.metrics.counter("warn.shard.skipped.out_of_order"),
        1
    );
    assert_eq!(summary.warning_total(), 4);
    let table = summary.to_string();
    assert!(
        table.contains("warn.shard.skipped.truncated"),
        "stats table must list skip counters:\n{table}"
    );
}
