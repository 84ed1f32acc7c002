//! Measures the artifact cache's warm-start payoff and gates its
//! crash-safety determinism guarantee.
//!
//! Over the standard 607-file bench corpus, three end-to-end `run_full`
//! configurations share one cache directory:
//!
//! - `cold`: empty cache — every artifact is parsed, stored, and a solver
//!   checkpoint written;
//! - `warm`: one file receives a trailing comment (its artifact misses,
//!   everything else hits, and the unchanged graph still takes the
//!   full-checkpoint path that skips generation, solving, and extraction);
//! - `faulted`: 20% of cache files damaged by
//!   [`seldon_cache::inject_cache_faults`] before a warm re-run.
//!
//! All three must produce byte-identical specifications; the warm run
//! must beat the cold run by at least 5× wall-clock. `--determinism`
//! runs only the byte-identity gate (exit 1 on divergence) for CI, where
//! wall-clock ratios are too noisy to assert. Emits one JSON object on
//! stdout; `BENCH_cache.json` records a release-build run.

use seldon_bench::median_ms;
use seldon_cache::{inject_cache_faults, ArtifactCache};
use seldon_core::{run_full, AnalyzeOptions, CheckpointOutcome, FaultPolicy, SeldonOptions};
use seldon_corpus::{generate_corpus, Corpus, CorpusOptions, Universe};
use seldon_specs::TaintSpec;
use seldon_telemetry::BenchRecord;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const ROUNDS: usize = 5;
const FAULT_RATE: f64 = 0.2;

fn bench_corpus() -> (Corpus, TaintSpec) {
    let universe = Universe::new();
    let corpus = generate_corpus(
        &universe,
        &CorpusOptions {
            projects: 150,
            files_per_project: (3, 5),
            rng_seed: 0xC0FFEE,
            ..Default::default()
        },
    );
    (corpus, universe.seed_spec())
}

/// One timed end-to-end run over `dir`'s cache; returns the learned spec
/// text, the wall-clock milliseconds, and checkpoint/fault observations.
fn timed_run(
    corpus: &Corpus,
    seed: &TaintSpec,
    dir: &Path,
) -> (String, f64, CheckpointOutcome, usize) {
    let (cache, _) = ArtifactCache::open(dir).expect("cache opens");
    let opts = AnalyzeOptions {
        policy: FaultPolicy::Recover,
        threads: 4,
        cache: Some(Arc::new(cache)),
        ..Default::default()
    };
    let t = Instant::now();
    let full = run_full(corpus, seed, "learn", &opts, &SeldonOptions::default())
        .expect("bench corpus analyzes");
    let ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(!full.report.is_degraded(), "cache faults must not degrade the run");
    (
        full.run.extraction.spec.to_text(),
        ms,
        full.checkpoint.outcome,
        full.report.cache_faults.len(),
    )
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seldon-cache-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The incremental edit: a trailing comment on the first file. Its cache
/// key changes (content bytes differ) but its propagation graph does not,
/// so the warm run re-parses exactly one file and replays the checkpoint.
fn touch_one_file(corpus: &Corpus) -> Corpus {
    let mut edited = corpus.clone();
    edited.projects[0].files[0].content.push_str("# cache-bench incremental edit\n");
    edited
}

fn main() {
    let determinism_only = std::env::args().any(|a| a == "--determinism");
    let (corpus, seed) = bench_corpus();
    let files = corpus.file_count();
    assert!(files >= 500, "bench corpus too small: {files} files");
    let edited = touch_one_file(&corpus);

    let mut cold_ms = Vec::with_capacity(ROUNDS);
    let mut warm_ms = Vec::with_capacity(ROUNDS);
    let mut faulted_ms = Vec::with_capacity(ROUNDS);
    let mut faults_contained = 0usize;
    let rounds = if determinism_only { 1 } else { ROUNDS };
    for round in 0..rounds {
        let dir = fresh_dir(&format!("r{round}"));

        let (cold_spec, cold, outcome, _) = timed_run(&corpus, &seed, &dir);
        assert_eq!(outcome, CheckpointOutcome::MissCold, "round {round} starts cold");
        cold_ms.push(cold);

        let (warm_spec, warm, outcome, _) = timed_run(&edited, &seed, &dir);
        assert_eq!(
            outcome,
            CheckpointOutcome::HitFull,
            "a comment-only edit leaves the graph (and checkpoint key) unchanged"
        );
        assert_eq!(warm_spec, cold_spec, "round {round}: warm spec diverged");
        warm_ms.push(warm);

        let injected = inject_cache_faults(&dir, FAULT_RATE, 0xBE2C ^ round as u64);
        assert!(!injected.is_empty(), "20% of {files} entries damages something");
        let (faulted_spec, faulted, _, faults) = timed_run(&edited, &seed, &dir);
        assert_eq!(
            faulted_spec, cold_spec,
            "round {round}: spec diverged under {} injected cache faults",
            injected.len()
        );
        assert!(faults > 0, "injected damage is detected and reported");
        faults_contained += faults;
        faulted_ms.push(faulted);

        let _ = std::fs::remove_dir_all(&dir);
    }

    if determinism_only {
        println!(
            "determinism gate passed: cold, warm, and {FAULT_RATE}-faulted warm runs \
             over {files} files produced byte-identical specs ({faults_contained} fault(s) contained)"
        );
        return;
    }

    let cold = median_ms(cold_ms);
    let warm = median_ms(warm_ms);
    let faulted = median_ms(faulted_ms);
    let speedup = cold / warm;
    let mut r = BenchRecord::new(
        "cache",
        "cache_bench",
        format!(
            "medians of {ROUNDS} rounds, release build; end-to-end run_full in ms; \
             warm = 1-file comment edit over a populated cache"
        ),
    );
    r.num("corpus", "files", files as f64)
        .num("cache", "cold_ms", cold)
        .num("cache", "warm_ms", warm)
        .num("cache", "faulted_warm_ms", faulted)
        .num("cache", "warm_speedup", speedup)
        .num("cache", "fault_rate", FAULT_RATE)
        .num("cache", "faults_contained", faults_contained as f64);
    println!("{}", r.to_json());
    assert!(
        speedup >= 5.0,
        "warm re-run must be at least 5x faster than cold (got {speedup:.2}x: \
         cold {cold:.2}ms, warm {warm:.2}ms)"
    );
}
