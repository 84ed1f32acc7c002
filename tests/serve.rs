//! Integration suite for the incremental analysis daemon (`seldon
//! serve`): the determinism gate (every served spec is byte-identical to
//! a cold batch run over the same corpus state, at 1 and 4 solver
//! threads), the delta fast paths (no-op, fingerprint-unchanged,
//! replay), remove-with-eviction, interner stability under repeated
//! deltas, warm-start byte-identity from perturbed checkpoints, and
//! daemon survival of malformed requests and mid-delta cache faults.

use proptest::prelude::*;
use seldon_cache::{inject_cache_faults, ArtifactCache, CheckpointLookup};
use seldon_constraints::GenOptions;
use seldon_core::{
    run_full, run_seldon_cached, AnalyzeOptions, CheckpointOutcome, FaultPolicy, SeldonOptions,
    WarmStartOptions,
};
use seldon_corpus::{generate_corpus, Corpus, CorpusOptions, Project, SourceFile, Universe};
use seldon_serve::{client_request, run_daemon, Delta, EngineConfig, ServeDaemon, ServeEngine};
use seldon_solver::{EarlyStop, SolveOptions};
use seldon_specs::TaintSpec;
use seldon_telemetry::{json, MetricsRegistry, MetricValue, Telemetry};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("seldon-serve-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A generated corpus flattened to `(path, content)` pairs in the sorted
/// order both the `learn` CLI and the engine's file table use.
fn fixture(projects: usize, rng_seed: u64) -> (Vec<(PathBuf, String)>, TaintSpec) {
    let universe = Universe::new();
    let corpus = generate_corpus(
        &universe,
        &CorpusOptions { projects, rng_seed, ..Default::default() },
    );
    let mut files: Vec<(PathBuf, String)> = corpus
        .projects
        .iter()
        .flat_map(|p| {
            // Paths repeat across generated projects; qualify them the way
            // a checkout would, with the project directory.
            p.files
                .iter()
                .map(|f| (PathBuf::from(format!("{}/{}", p.name, f.path)), f.content.clone()))
        })
        .collect();
    files.sort_by(|a, b| a.0.cmp(&b.0));
    (files, universe.seed_spec())
}

/// The same file set as a single-project batch corpus, preserving the
/// sorted order so [`seldon_propgraph::FileId`]s agree with the engine.
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
        gen: GenOptions { rep_cutoff: 2, ..Default::default() },
        solve: SolveOptions { threads, ..Default::default() },
        warm_start: Some(WarmStartOptions::default()),
        ..Default::default()
    }
}

fn analyze_opts(cache: Option<Arc<ArtifactCache>>) -> AnalyzeOptions {
    AnalyzeOptions { policy: FaultPolicy::Recover, cache, ..Default::default() }
}

/// The spec a cold batch run (`seldon learn`, no cache) prints over
/// `files`.
fn cold_batch_spec(files: &[(PathBuf, String)], seed: &TaintSpec, threads: usize) -> String {
    let full = run_full(
        &batch_corpus(files),
        seed,
        "learn",
        &analyze_opts(None),
        &seldon_opts(threads),
    )
    .expect("batch run succeeds");
    full.run.extraction.spec.to_text()
}

fn engine_with(
    files: &[(PathBuf, String)],
    seed: &TaintSpec,
    threads: usize,
    cache_dir: Option<&Path>,
) -> ServeEngine {
    let cache =
        cache_dir.map(|d| Arc::new(ArtifactCache::open(d).expect("cache opens").0));
    let cfg = EngineConfig {
        seed: seed.clone(),
        analyze: analyze_opts(cache),
        seldon: seldon_opts(threads),
        dynamic_cutoff: false,
    };
    let mut engine = ServeEngine::new(cfg);
    let delta = Delta { add: files.to_vec(), ..Default::default() };
    engine.apply_delta(&delta).expect("initial load");
    engine
}

/// A syntactically valid handler appended as a *structural* edit: it
/// adds events, so the file's graph fingerprint must change.
const STRUCTURAL_EDIT: &str = "
@app.route('/handler_added', methods=['GET', 'POST'])
def handler_added():
    z0 = bottle_request.query.get('added')
    z1 = flask.make_response(z0)
    return z1
";

/// A comment-only edit: the frontend drops it, so the graph fingerprint
/// is unchanged.
const COMMENT_EDIT: &str = "# serve-test incremental edit\n";

/// The core determinism gate: after every delta — initial load, a
/// structural edit, an added file, a removed file — the served spec is
/// byte-identical to a cold batch run over the same corpus state.
fn delta_sequence_matches_cold_batch(threads: usize) {
    let dir = temp_dir(&format!("gate-{threads}"));
    let (mut files, seed) = fixture(8, 42);
    let mut engine = engine_with(&files, &seed, threads, Some(&dir));
    assert_eq!(engine.spec().unwrap(), cold_batch_spec(&files, &seed, threads), "initial build");

    // Structural edit of one file.
    files[3].1.push_str(STRUCTURAL_EDIT);
    let delta = Delta { change: vec![files[3].clone()], ..Default::default() };
    let out = engine.apply_delta(&delta).expect("edit delta");
    assert!(
        matches!(out.solve, "scores" | "warm" | "cold"),
        "structural edit must re-solve, got {}",
        out.solve
    );
    assert!(out.fragments_reused > 0, "untouched files reuse their fragments");
    assert_eq!(out.spec, cold_batch_spec(&files, &seed, threads), "after edit");

    // Added file.
    let added = (
        PathBuf::from("zz_added/extra.py"),
        format!("from bottle import request as bottle_request\nimport flask\n{STRUCTURAL_EDIT}"),
    );
    files.push(added.clone());
    files.sort_by(|a, b| a.0.cmp(&b.0));
    let out = engine
        .apply_delta(&Delta { add: vec![added], ..Default::default() })
        .expect("add delta");
    assert_eq!(out.spec, cold_batch_spec(&files, &seed, threads), "after add");

    // Removed file.
    let victim = files.remove(1);
    let out = engine
        .apply_delta(&Delta { remove: vec![victim.0], ..Default::default() })
        .expect("remove delta");
    assert_eq!(out.spec, cold_batch_spec(&files, &seed, threads), "after remove");
}

#[test]
fn delta_sequence_matches_cold_batch_one_thread() {
    delta_sequence_matches_cold_batch(1);
}

#[test]
fn delta_sequence_matches_cold_batch_four_threads() {
    delta_sequence_matches_cold_batch(4);
}

#[test]
fn empty_delta_is_a_true_noop() {
    let dir = temp_dir("noop");
    let (files, seed) = fixture(4, 7);
    let mut engine = engine_with(&files, &seed, 1, Some(&dir));
    let spec_before = engine.spec().unwrap().to_string();
    let stats_before = engine.config().analyze.cache.as_deref().unwrap().stats();
    let counters_before = engine.counters();

    let out = engine.apply_delta(&Delta::default()).expect("empty delta");
    assert_eq!(out.solve, "noop");
    assert_eq!(out.spec, spec_before);
    assert_eq!(out.reparsed, 0);
    let stats_after = engine.config().analyze.cache.as_deref().unwrap().stats();
    assert_eq!(stats_after.stores, stats_before.stores, "no-op writes nothing");
    assert_eq!(stats_after.misses, stats_before.misses, "no-op reads nothing");
    assert_eq!(engine.counters().noops, counters_before.noops + 1);
    assert_eq!(engine.counters().rebuilds, counters_before.rebuilds);
}

#[test]
fn comment_edit_skips_rebuild_entirely() {
    let dir = temp_dir("unchanged");
    let (mut files, seed) = fixture(4, 9);
    let mut engine = engine_with(&files, &seed, 1, Some(&dir));
    let rebuilds_before = engine.counters().rebuilds;

    files[0].1.push_str(COMMENT_EDIT);
    let out = engine
        .apply_delta(&Delta { change: vec![files[0].clone()], ..Default::default() })
        .expect("comment delta");
    assert_eq!(out.solve, "unchanged", "fingerprint-identical edit skips the rebuild");
    assert_eq!(out.reparsed, 1);
    assert_eq!(engine.counters().rebuilds, rebuilds_before);
    // ... and it still matches a cold batch run of the commented corpus.
    assert_eq!(out.spec, cold_batch_spec(&files, &seed, 1));
}

#[test]
fn remove_only_delta_evicts_artifacts_and_matches_cold() {
    let dir = temp_dir("remove");
    let (mut files, seed) = fixture(5, 13);
    let mut engine = engine_with(&files, &seed, 1, Some(&dir));

    let removed: Vec<PathBuf> = vec![files.remove(0).0, files.remove(0).0];
    let out = engine
        .apply_delta(&Delta { remove: removed, ..Default::default() })
        .expect("remove delta");
    assert_eq!(out.removed, 2);
    assert_eq!(out.evicted, 2, "each dropped file's artifact is evicted");
    assert_eq!(out.files, files.len());
    assert_eq!(out.spec, cold_batch_spec(&files, &seed, 1));
}

#[test]
fn invalid_deltas_are_rejected_without_state_changes() {
    let (files, seed) = fixture(3, 21);
    let mut engine = engine_with(&files, &seed, 1, None);
    let spec_before = engine.spec().unwrap().to_string();
    let counters_before = engine.counters();

    // Adding a tracked file, changing/removing an untracked one, and a
    // duplicated path must all be rejected atomically.
    let bad: Vec<Delta> = vec![
        Delta { add: vec![files[0].clone()], ..Default::default() },
        Delta { change: vec![(PathBuf::from("nope.py"), String::new())], ..Default::default() },
        Delta { remove: vec![PathBuf::from("nope.py")], ..Default::default() },
        Delta {
            remove: vec![files[0].0.clone(), files[0].0.clone()],
            ..Default::default()
        },
    ];
    for delta in bad {
        engine.apply_delta(&delta).expect_err("delta must be rejected");
    }
    assert_eq!(engine.spec().unwrap(), spec_before);
    assert_eq!(engine.counters(), counters_before, "rejected deltas leave no trace");
    assert_eq!(engine.file_count(), files.len());
}

#[test]
fn repeated_identical_deltas_do_not_grow_the_interner() {
    let dir = temp_dir("intern");
    let (mut files, seed) = fixture(4, 31);
    let mut engine = engine_with(&files, &seed, 1, Some(&dir));

    // One full edit cycle interns whatever the edited content mentions…
    let original = files[1].1.clone();
    files[1].1.push_str(STRUCTURAL_EDIT);
    let edited = files[1].1.clone();
    for content in [&edited, &original, &edited] {
        let delta = Delta {
            change: vec![(files[1].0.clone(), content.clone())],
            ..Default::default()
        };
        engine.apply_delta(&delta).expect("edit cycle");
    }
    let symbols_after_cycle = seldon_intern::len();

    // …after which repeating the identical cycle must not intern anything.
    for _ in 0..3 {
        for content in [&original, &edited] {
            let delta = Delta {
                change: vec![(files[1].0.clone(), content.clone())],
                ..Default::default()
            };
            engine.apply_delta(&delta).expect("repeat cycle");
        }
    }
    assert_eq!(
        seldon_intern::len(),
        symbols_after_cycle,
        "repeated identical deltas grew the interner"
    );

    // The non-volatile gauge reports the same figure.
    let mut reg = MetricsRegistry::default();
    engine.fill_metrics(&mut reg);
    let gauge = reg.get("intern_symbols").expect("gauge present");
    assert!(!gauge.volatile, "intern_symbols must be non-volatile");
    match gauge.value {
        MetricValue::Gauge(v) => assert_eq!(v as usize, seldon_intern::len()),
        ref other => panic!("intern_symbols is {other:?}, not a gauge"),
    }
}

#[test]
fn daemon_restart_replays_from_the_persisted_checkpoint() {
    let dir = temp_dir("restart");
    let (files, seed) = fixture(4, 55);
    let engine = engine_with(&files, &seed, 1, Some(&dir));
    let spec = engine.spec().unwrap().to_string();
    drop(engine);

    // A new engine over the same cache dir: the initial load re-unions
    // but the input fingerprint matches the stored checkpoint, so no
    // selection/solve runs and the identical spec is served.
    let cache = Arc::new(ArtifactCache::open(&dir).expect("cache reopens").0);
    let cfg = EngineConfig {
        seed: seed.clone(),
        analyze: analyze_opts(Some(cache)),
        seldon: seldon_opts(1),
        dynamic_cutoff: false,
    };
    let mut engine = ServeEngine::new(cfg);
    let out = engine
        .apply_delta(&Delta { add: files.clone(), ..Default::default() })
        .expect("restart load");
    assert_eq!(out.solve, "replayed", "restart over an unchanged corpus replays");
    assert_eq!(out.spec, spec);
}

/// `seldon learn` and `seldon serve` write the same checkpoint: either one
/// replays what the other stored over the same cache directory.
#[test]
fn batch_and_served_runs_replay_each_others_checkpoint() {
    let (files, seed) = fixture(4, 55);
    let open = |dir: &Path| Arc::new(ArtifactCache::open(dir).expect("cache opens").0);
    let batch = |dir: &Path| {
        let analyze = analyze_opts(Some(open(dir)));
        run_full(&batch_corpus(&files), &seed, "learn", &analyze, &seldon_opts(1))
            .expect("batch run succeeds")
    };

    // Batch first: a fresh engine's initial load replays its checkpoint.
    let dir = temp_dir("cross-batch-first");
    let spec = batch(&dir).run.extraction.spec.to_text();
    let mut engine = ServeEngine::new(EngineConfig {
        seed: seed.clone(),
        analyze: analyze_opts(Some(open(&dir))),
        seldon: seldon_opts(1),
        dynamic_cutoff: false,
    });
    let out = engine
        .apply_delta(&Delta { add: files.clone(), ..Default::default() })
        .expect("initial load");
    assert_eq!(out.solve, "replayed", "the engine replays the batch checkpoint");
    assert_eq!(out.spec, spec);

    // Engine first: a batch run over its cache takes the full-reuse path.
    let dir = temp_dir("cross-serve-first");
    let served = engine_with(&files, &seed, 1, Some(&dir)).spec().unwrap().to_string();
    let full = batch(&dir);
    assert_eq!(
        full.checkpoint.outcome,
        CheckpointOutcome::HitFull,
        "batch replays the engine's checkpoint"
    );
    assert_eq!(full.run.extraction.spec.to_text(), served);
    assert_eq!(served, spec);
}

#[test]
fn mid_delta_cache_faults_are_contained_and_spec_stays_correct() {
    let dir = temp_dir("faults");
    let (mut files, seed) = fixture(5, 77);
    let mut engine = engine_with(&files, &seed, 1, Some(&dir));

    // Damage every cache entry (artifacts and the checkpoint), then
    // apply a structural delta: the engine must neither crash nor serve
    // a stale or corrupt spec.
    let injected = inject_cache_faults(&dir, 1.0, 99);
    assert!(!injected.is_empty(), "fixture stored cache entries to damage");
    files[2].1.push_str(STRUCTURAL_EDIT);
    let out = engine
        .apply_delta(&Delta { change: vec![files[2].clone()], ..Default::default() })
        .expect("faulted delta");
    assert_eq!(out.spec, cold_batch_spec(&files, &seed, 1), "spec correct despite faults");

    // And the next delta still works (the damaged checkpoint slot was
    // quarantined and rewritten).
    files[0].1.push_str(STRUCTURAL_EDIT);
    let out = engine
        .apply_delta(&Delta { change: vec![files[0].clone()], ..Default::default() })
        .expect("post-fault delta");
    assert_eq!(out.spec, cold_batch_spec(&files, &seed, 1));
}

#[test]
fn daemon_survives_malformed_requests_and_mid_delta_failures() {
    let dir = temp_dir("daemon");
    let sock = dir.join("seldon.sock");
    let (files, seed) = fixture(3, 101);
    // The daemon reads delta contents from disk; materialize the corpus.
    let mut disk_files = Vec::new();
    for (path, content) in &files {
        let flat = path.display().to_string().replace('/', "_");
        let on_disk = dir.join(flat);
        std::fs::write(&on_disk, content).unwrap();
        disk_files.push((on_disk, content.clone()));
    }
    disk_files.sort_by(|a, b| a.0.cmp(&b.0));
    let engine = engine_with(&disk_files, &seed, 1, None);
    let spec = engine.spec().unwrap().to_string();
    let mut daemon = ServeDaemon::new(engine);
    let sock_for_daemon = sock.clone();
    let handle = std::thread::spawn(move || {
        run_daemon(&mut daemon, &sock_for_daemon).expect("daemon runs");
        daemon
    });

    let wait = Duration::from_secs(10);
    let ask = |line: &str| client_request(&sock, line, wait).expect("request answered");

    // Garbage, unknown ops, and unreadable delta paths all get error
    // responses — and the daemon keeps serving.
    for bad in [
        "this is not json",
        "{\"op\": 12}",
        "{\"op\": \"explode\"}",
        "{\"op\": \"delta\", \"add\": 7}",
        "{\"op\": \"delta\", \"add\": [\"/definitely/not/a/file.py\"]}",
        "{\"op\": \"delta\", \"remove\": [\"untracked.py\"]}",
    ] {
        let response = json::parse(&ask(bad)).expect("response is JSON");
        assert_eq!(response.get("ok").and_then(|v| v.as_bool()), Some(false), "{bad}");
    }

    // Still alive, still serving the same spec.
    let pong = json::parse(&ask("{\"op\": \"ping\"}")).unwrap();
    assert_eq!(pong.get("ok").and_then(|v| v.as_bool()), Some(true));
    let spec_resp = json::parse(&ask("{\"op\": \"spec\"}")).unwrap();
    assert_eq!(spec_resp.get("spec").and_then(|v| v.as_str()), Some(spec.as_str()));

    // A real delta over the socket: edit one on-disk file.
    let edited = &disk_files[0].0;
    let mut content = std::fs::read_to_string(edited).unwrap();
    content.push_str(STRUCTURAL_EDIT);
    std::fs::write(edited, &content).unwrap();
    let delta_line = format!(
        "{{\"op\": \"delta\", \"change\": [\"{}\"]}}",
        edited.display().to_string().replace('\\', "\\\\")
    );
    let delta_resp = json::parse(&ask(&delta_line)).unwrap();
    assert_eq!(delta_resp.get("ok").and_then(|v| v.as_bool()), Some(true));
    let mut expected = disk_files.clone();
    expected[0].1 = content;
    assert_eq!(
        delta_resp.get("spec").and_then(|v| v.as_str()),
        Some(cold_batch_spec(&expected, &seed, 1).as_str()),
        "socket-served spec matches a cold batch run"
    );

    let bye = json::parse(&ask("{\"op\": \"shutdown\"}")).unwrap();
    assert_eq!(bye.get("ok").and_then(|v| v.as_bool()), Some(true));
    let daemon = handle.join().expect("daemon thread exits cleanly");
    assert!(daemon.errors >= 6, "protocol errors were counted");
    assert!(!sock.exists(), "socket file removed on shutdown");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Warm-started solves from *perturbed* checkpoints still produce a
    /// spec byte-identical to an uncached cold run: the extraction-margin
    /// guard either accepts a warm solution far enough from every
    /// threshold to agree with cold, or falls back to the cold solve
    /// itself. Covers 1 and 4 solver threads and the early-stop path.
    #[test]
    fn warm_start_from_perturbed_checkpoint_is_byte_identical(
        scale_milli in 0u32..600,
        threads_pick in 0usize..2,
        early_stop_pick in 0usize..2,
    ) {
        let scale = f64::from(scale_milli) / 1000.0;
        let threads = if threads_pick == 0 { 1 } else { 4 };
        let early_stop =
            if early_stop_pick == 0 { None } else { Some(EarlyStop::default()) };
        let dir = temp_dir(&format!("warmprop-{threads}-{early_stop_pick}"));
        let (mut files, seed) = fixture(4, 171);
        let mut opts = seldon_opts(threads);
        opts.solve.early_stop = early_stop;

        // Seed the cache with a checkpoint for the base corpus.
        let cache = Arc::new(ArtifactCache::open(&dir).expect("cache opens").0);
        run_full(&batch_corpus(&files), &seed, "learn", &analyze_opts(Some(cache.clone())), &opts)
            .expect("base run");

        // Perturb every stored score, then edit the corpus so the next
        // run is a system-fingerprint miss that warm-starts from the
        // damaged-but-plausible vector.
        let CheckpointLookup::Hit(mut ckpt) = cache.load_checkpoint() else {
            panic!("base run stored a checkpoint");
        };
        for (i, s) in ckpt.scores.iter_mut().enumerate() {
            let wiggle = ((i as f64 * 0.7371).sin()) * scale;
            *s = (*s + wiggle).clamp(0.0, 1.0);
        }
        prop_assert!(cache.store_checkpoint(&ckpt).is_none());

        files[1].1.push_str(STRUCTURAL_EDIT);
        let corpus = batch_corpus(&files);
        let (analyzed, _) = seldon_core::analyze_corpus_with(
            &corpus,
            &analyze_opts(Some(cache.clone())),
        )
        .expect("analyze");
        let (run, _use) = run_seldon_cached(
            &analyzed.graph,
            &seed,
            &opts,
            &Telemetry::disabled(),
            Some(&cache),
        );
        let mut cold_opts = opts.clone();
        cold_opts.warm_start = None;
        let expected = cold_batch_spec_with(&files, &seed, &cold_opts);
        prop_assert_eq!(run.extraction.spec.to_text(), expected);
    }
}

/// Cold uncached batch spec under explicit options.
fn cold_batch_spec_with(
    files: &[(PathBuf, String)],
    seed: &TaintSpec,
    opts: &SeldonOptions,
) -> String {
    let full = run_full(&batch_corpus(files), seed, "learn", &analyze_opts(None), opts)
        .expect("batch run succeeds");
    full.run.extraction.spec.to_text()
}
