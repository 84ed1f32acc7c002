//! Measures the incremental daemon's delta latency against a cold batch
//! build, and gates its determinism guarantee.
//!
//! Over the standard 607-file bench corpus, one [`ServeEngine`] serves a
//! sequence of deltas per round:
//!
//! - `cold`: the initial full build (fresh engine, fresh cache) — the
//!   price `seldon learn` pays on every invocation;
//! - `noop`: an empty delta (served from the resident checkpoint);
//! - `unchanged`: a one-file comment edit (re-parse + fingerprint, no
//!   rebuild);
//! - `edit`: a one-file structural edit (incremental rebuild: fragment
//!   reuse for the other 606 files, warm-started solve).
//!
//! The delta speedup gate asserts the `unchanged` one-file edit beats
//! the cold build by at least 20×. `--determinism` instead verifies the
//! served spec is byte-identical to a cold batch `run_full` over the
//! same corpus state at 1 and 4 solver threads (exit on divergence),
//! which is what CI runs. Emits one JSON object on stdout;
//! `BENCH_serve.json` records a release-build run.

use seldon_bench::median_ms;
use seldon_cache::ArtifactCache;
use seldon_core::{run_full, AnalyzeOptions, FaultPolicy, SeldonOptions, WarmStartOptions};
use seldon_corpus::{generate_corpus, Corpus, CorpusOptions, Project, SourceFile, Universe};
use seldon_serve::{Delta, EngineConfig, ServeEngine};
use seldon_solver::SolveOptions;
use seldon_specs::TaintSpec;
use seldon_telemetry::BenchRecord;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const ROUNDS: usize = 5;

/// The 607-file bench corpus, flattened to sorted `(path, content)`
/// pairs (project-qualified paths, the order `seldon learn` analyzes).
fn bench_files() -> (Vec<(PathBuf, String)>, TaintSpec) {
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
    let mut files: Vec<(PathBuf, String)> = corpus
        .projects
        .iter()
        .flat_map(|p| {
            p.files
                .iter()
                .map(|f| (PathBuf::from(format!("{}/{}", p.name, f.path)), f.content.clone()))
        })
        .collect();
    files.sort_by(|a, b| a.0.cmp(&b.0));
    (files, universe.seed_spec())
}

fn batch_corpus(files: &[(PathBuf, String)]) -> Corpus {
    Corpus {
        projects: vec![Project {
            name: "cli".into(),
            files: files
                .iter()
                .map(|(p, c)| SourceFile { path: p.display().to_string(), content: c.clone() })
                .collect(),
        }],
        ..Default::default()
    }
}

fn seldon_opts(threads: usize) -> SeldonOptions {
    SeldonOptions {
        solve: SolveOptions { threads, ..Default::default() },
        warm_start: Some(WarmStartOptions::default()),
        ..Default::default()
    }
}

fn fresh_engine(files: &[(PathBuf, String)], seed: &TaintSpec, threads: usize, tag: &str) -> (ServeEngine, f64, PathBuf) {
    let dir =
        std::env::temp_dir().join(format!("seldon-serve-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = Arc::new(ArtifactCache::open(&dir).expect("cache opens").0);
    let cfg = EngineConfig {
        seed: seed.clone(),
        analyze: AnalyzeOptions {
            policy: FaultPolicy::Recover,
            threads: 4,
            cache: Some(cache),
            ..Default::default()
        },
        seldon: seldon_opts(threads),
        dynamic_cutoff: false,
    };
    let mut engine = ServeEngine::new(cfg);
    let t = Instant::now();
    engine
        .apply_delta(&Delta { add: files.to_vec(), ..Default::default() })
        .expect("initial build");
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;
    (engine, cold_ms, dir)
}

/// A comment-only edit: cache key changes, graph fingerprint does not.
const COMMENT_EDIT: &str = "# serve-bench incremental edit\n";

/// A structural edit: adds events, forcing an incremental rebuild.
const STRUCTURAL_EDIT: &str = "
@app.route('/handler_bench_added', methods=['GET', 'POST'])
def handler_bench_added():
    z0 = bottle_request.query.get('bench')
    z1 = flask.make_response(z0)
    return z1
";

/// Byte-identity gate: the engine's served spec after each delta kind
/// must equal a cold batch `run_full` over the same corpus state.
fn determinism_gate(files: &[(PathBuf, String)], seed: &TaintSpec, threads: usize) {
    let batch = |state: &[(PathBuf, String)]| {
        run_full(
            &batch_corpus(state),
            seed,
            "learn",
            &AnalyzeOptions { policy: FaultPolicy::Recover, threads: 4, ..Default::default() },
            &seldon_opts(threads),
        )
        .expect("batch run")
        .run
        .extraction
        .spec
        .to_text()
    };
    let (mut engine, _, dir) = fresh_engine(files, seed, threads, &format!("det-{threads}"));
    assert_eq!(engine.spec().unwrap(), batch(files), "initial build diverged ({threads} threads)");

    let mut edited = files.to_vec();
    edited[0].1.push_str(COMMENT_EDIT);
    let out = engine
        .apply_delta(&Delta { change: vec![edited[0].clone()], ..Default::default() })
        .expect("comment delta");
    assert_eq!(out.solve, "unchanged", "comment edit must take the unchanged path");
    assert_eq!(out.spec, batch(&edited), "comment edit diverged ({threads} threads)");

    edited[1].1.push_str(STRUCTURAL_EDIT);
    let out = engine
        .apply_delta(&Delta { change: vec![edited[1].clone()], ..Default::default() })
        .expect("structural delta");
    assert_eq!(out.spec, batch(&edited), "structural edit diverged ({threads} threads)");
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    let determinism_only = std::env::args().any(|a| a == "--determinism");
    let (files, seed) = bench_files();
    assert!(files.len() >= 500, "bench corpus too small: {} files", files.len());

    if determinism_only {
        for threads in [1, 4] {
            determinism_gate(&files, &seed, threads);
        }
        println!(
            "determinism gate passed: served specs over {} files are byte-identical \
             to cold batch runs at 1 and 4 solver threads",
            files.len()
        );
        return;
    }

    let mut cold_ms = Vec::with_capacity(ROUNDS);
    let mut noop_ms = Vec::with_capacity(ROUNDS);
    let mut unchanged_ms = Vec::with_capacity(ROUNDS);
    let mut edit_ms = Vec::with_capacity(ROUNDS);
    let mut fragments_reused = 0usize;
    for round in 0..ROUNDS {
        let (mut engine, cold, dir) = fresh_engine(&files, &seed, 4, &format!("r{round}"));
        cold_ms.push(cold);

        let t = Instant::now();
        let out = engine.apply_delta(&Delta::default()).expect("noop delta");
        noop_ms.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(out.solve, "noop");

        let mut commented = files[0].clone();
        commented.1.push_str(COMMENT_EDIT);
        let t = Instant::now();
        let out = engine
            .apply_delta(&Delta { change: vec![commented], ..Default::default() })
            .expect("comment delta");
        unchanged_ms.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(out.solve, "unchanged", "comment edit must skip the rebuild");

        let mut structural = files[1].clone();
        structural.1.push_str(STRUCTURAL_EDIT);
        let t = Instant::now();
        let out = engine
            .apply_delta(&Delta { change: vec![structural], ..Default::default() })
            .expect("structural delta");
        edit_ms.push(t.elapsed().as_secs_f64() * 1e3);
        assert!(
            matches!(out.solve, "scores" | "warm" | "cold"),
            "structural edit must rebuild, got {}",
            out.solve
        );
        assert_eq!(
            out.fragments_reused,
            files.len() - 1,
            "every untouched file's fragment is reused"
        );
        fragments_reused += out.fragments_reused;
        let _ = std::fs::remove_dir_all(&dir);
    }

    let cold = median_ms(cold_ms);
    let noop = median_ms(noop_ms);
    let unchanged = median_ms(unchanged_ms);
    let edit = median_ms(edit_ms);
    let speedup = cold / unchanged;
    let mut r = BenchRecord::new(
        "serve",
        "serve_bench",
        format!(
            "medians of {ROUNDS} rounds, release build; ServeEngine delta latency in ms \
             over the 607-file corpus; unchanged = 1-file comment edit, edit = 1-file \
             structural edit with fragment reuse and warm-started solve"
        ),
    );
    r.num("corpus", "files", files.len() as f64)
        .num("serve", "cold_ms", cold)
        .num("serve", "noop_ms", noop)
        .num("serve", "unchanged_ms", unchanged)
        .num("serve", "edit_ms", edit)
        .num("serve", "delta_speedup", speedup)
        .num("serve", "edit_speedup", cold / edit)
        .num("serve", "fragments_reused", fragments_reused as f64);
    println!("{}", r.to_json());
    assert!(
        speedup >= 20.0,
        "a 1-file unchanged delta must be at least 20x faster than a cold build \
         (got {speedup:.2}x: cold {cold:.2}ms, delta {unchanged:.2}ms)"
    );
}
