//! The end-to-end Seldon pipeline (§7.1): parse a corpus of source files
//! (Python by default, JS-like for `.js` paths — see [`Frontend`]),
//! extract per-file propagation graphs (in parallel), union them into the
//! global graph, generate the linear constraint system, solve it with
//! projected Adam, and extract the learned specification. Everything past
//! per-file lowering is language-blind.
//!
//! ## Fault tolerance
//!
//! Real big-code corpora contain files that are malformed, pathological, or
//! that expose analysis bugs. [`analyze_corpus_with`] isolates every file:
//! a [`FaultPolicy`] decides whether a bad file aborts the run, is retried
//! leniently, or is quarantined; an optional per-file
//! [`Budget`](seldon_propgraph::Budget) bounds each file's cost; and a
//! panic during one file's analysis is contained and quarantines only that
//! file. The per-file verdicts come back in an
//! [`AnalysisReport`](crate::AnalysisReport).

use crate::error::PipelineError;
use crate::report::{AnalysisReport, CacheFaultReport, FileOutcome, FileReport};
use seldon_cache::{
    file_key, graph_fingerprint, input_fingerprint, system_fingerprint, ArtifactCache,
    ArtifactLookup, CacheFault, Checkpoint, CheckpointLookup, FaultClass, Fnv64, SystemSummary,
    CHECKPOINT_NAME,
};
use seldon_constraints::{generate_with_stats, ConstraintSystem, GenOptions, GenStats};
use seldon_corpus::Corpus;
use seldon_jsfront::{build_js_source, build_js_source_lenient_timed, build_js_source_timed};
use seldon_propgraph::{
    build_source, build_source_lenient_timed, build_source_timed, Budget, BuildError,
    BuildTimings, FileId, PropagationGraph,
};
use seldon_solver::{
    extract, extraction_margin, solve_compiled, solve_compiled_warm, CompiledSystem,
    ExtractOptions, Extraction, SolveOptions, Solution,
};
use seldon_specs::TaintSpec;
use seldon_telemetry::{stage, Histogram, ParseHistogram, Telemetry, PARSE_HIST_BOUNDS};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which language frontend analyzes a file, decided by its extension.
///
/// Everything past the IR boundary — graph construction, representations,
/// constraints, solver, extraction, taint — is language-blind; the
/// frontend choice only selects which lowering pass produces the
/// [`seldon_ir::IrProgram`](seldon_ir) trace for a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Frontend {
    /// The Python frontend (`seldon-pyast` lexer/parser + Python
    /// lowering). The default for every extension other than `.js`.
    #[default]
    Python,
    /// The JS-like frontend (`seldon-jsfront`).
    Js,
}

impl Frontend {
    /// Picks the frontend for a file path: `.js` files go to the JS
    /// frontend, everything else to Python.
    pub fn of_path(path: &str) -> Frontend {
        if Path::new(path).extension().is_some_and(|e| e == "js") {
            Frontend::Js
        } else {
            Frontend::Python
        }
    }

    /// Stable tag mixed into [`file_key`] so byte-identical sources
    /// analyzed by different frontends never alias a cached artifact.
    pub fn salt_tag(self) -> u64 {
        match self {
            Frontend::Python => 0,
            Frontend::Js => 1,
        }
    }

    /// Manifest/telemetry label.
    pub fn label(self) -> &'static str {
        match self {
            Frontend::Python => "python",
            Frontend::Js => "js",
        }
    }

    /// Dense index for per-frontend arrays.
    fn index(self) -> usize {
        self.salt_tag() as usize
    }

    /// All frontends, indexed by [`Frontend::index`].
    const ALL: [Frontend; 2] = [Frontend::Python, Frontend::Js];
}

/// Metadata for one analyzed file.
#[derive(Debug, Clone)]
pub struct FileMeta {
    /// Index of the project the file belongs to.
    pub project: usize,
    /// Path within the project.
    pub path: String,
}

/// A corpus parsed and converted into a global propagation graph.
#[derive(Debug)]
pub struct AnalyzedCorpus {
    /// The global propagation graph (union of per-file graphs; event sets
    /// of different files stay disjoint, §4). Quarantined files contribute
    /// no events but keep their [`FileId`] slot in `files`.
    pub graph: PropagationGraph,
    /// Per-[`FileId`] metadata, indexed by `FileId.0`.
    pub files: Vec<FileMeta>,
    /// Wall-clock time spent parsing and building graphs.
    pub build_time: Duration,
    /// Per-frontend parse-time buckets. Only populated when the analysis
    /// ran with active telemetry and only for frontends that parsed at
    /// least one file; cache-served files skip the front end and are never
    /// tallied.
    pub parse_histograms: Vec<ParseHistogram>,
    /// Per-file graph-construction time distribution (microseconds, same
    /// buckets as the parse histograms). Empty unless telemetry was active
    /// during analysis; cache-served files skip construction and are never
    /// tallied.
    pub build_histogram: Histogram,
}

impl AnalyzedCorpus {
    /// The project index of a file.
    pub fn project_of(&self, file: FileId) -> usize {
        self.files[file.0 as usize].project
    }
}

/// How the pipeline reacts to a file that cannot be analyzed cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultPolicy {
    /// Abort the whole run on the first bad file (legacy behaviour).
    #[default]
    FailFast,
    /// Retry strict-parse failures with the lenient front end; quarantine
    /// only files that defeat recovery (budget trips, panics).
    Recover,
    /// Quarantine every bad file without retrying; the run always
    /// completes on whatever parses cleanly.
    Skip,
}

/// Options controlling a fault-tolerant corpus analysis.
#[derive(Debug, Clone, Default)]
pub struct AnalyzeOptions {
    /// What to do with files that fail analysis.
    pub policy: FaultPolicy,
    /// Per-file resource budget; `None` analyzes without limits.
    pub budget: Option<Budget>,
    /// Worker threads for per-file graph extraction (0 and 1 both mean
    /// sequential; union order is deterministic either way).
    pub threads: usize,
    /// Honor [`seldon_corpus::PANIC_MARKER`] by panicking inside the
    /// per-file guard. Only the fault-injection harness sets this; it
    /// exercises panic containment without a real analysis bug.
    pub fault_markers: bool,
    /// Telemetry handle for stage spans and stderr logging. The per-file
    /// builders always time their parse and build phases (four clock reads
    /// per file); the default (disabled) handle records no spans and
    /// tallies no histograms.
    pub telemetry: Telemetry,
    /// On-disk artifact cache. When attached, per-file analysis is served
    /// from validated cache entries where possible and recomputed (then
    /// stored) otherwise; every detected cache fault is contained,
    /// quarantined, and reported in
    /// [`AnalysisReport::cache_faults`](crate::AnalysisReport). `None`
    /// analyzes everything from source.
    pub cache: Option<Arc<ArtifactCache>>,
}

/// Folds every analysis option that changes what a file's cached artifact
/// *is* — the fault policy decides strict-vs-lenient graphs, the budget
/// decides quarantine outcomes, and fault markers decide injected panics —
/// into the [`file_key`] salt, so entries from different configurations
/// can never satisfy each other.
fn option_salt(opts: &AnalyzeOptions) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(match opts.policy {
        FaultPolicy::FailFast => 0,
        FaultPolicy::Recover => 1,
        FaultPolicy::Skip => 2,
    });
    match &opts.budget {
        None => {
            h.write_u64(0);
        }
        Some(b) => {
            h.write_u64(1)
                .write_u64(b.max_source_bytes as u64)
                .write_u64(b.max_statements as u64)
                .write_u64(b.max_depth as u64);
            // The wall deadline makes outcomes timing-dependent; fold it in
            // so runs with different deadlines never share entries.
            match b.max_wall {
                None => h.write_u64(0),
                Some(d) => h.write_u64(1).write_u64(d.as_nanos() as u64),
            };
        }
    }
    h.write_u64(u64::from(opts.fault_markers));
    h.finish()
}

/// Analyzes one file under the options' budget and policy. Never panics:
/// a panic inside extraction is contained and reported as
/// [`FileOutcome::Panicked`].
///
/// The builders always report the parse/build phase split of the
/// successful attempt (four clock reads per file); the caller only tallies
/// it when telemetry is active.
fn analyze_one(
    path: &str,
    content: &str,
    id: FileId,
    frontend: Frontend,
    opts: &AnalyzeOptions,
) -> (Option<PropagationGraph>, FileOutcome, BuildTimings) {
    let guarded = catch_unwind(AssertUnwindSafe(|| {
        if opts.fault_markers && content.contains(seldon_corpus::PANIC_MARKER) {
            panic!("injected panic ({})", seldon_corpus::PANIC_MARKER);
        }
        let strict = match frontend {
            Frontend::Python => build_source_timed(content, id, opts.budget.as_ref()),
            Frontend::Js => build_js_source_timed(content, id, opts.budget.as_ref()),
        };
        let over_budget = |limit| {
            let error = PipelineError::OverBudget { path: path.to_string(), limit };
            (None, FileOutcome::OverBudget { error }, BuildTimings::default())
        };
        match strict {
            Ok((g, timings)) => (Some(g), FileOutcome::Ok, timings),
            Err(BuildError::OverBudget(limit)) => over_budget(limit),
            Err(BuildError::Frontend(_)) if opts.policy == FaultPolicy::Recover => {
                // Lenient retry; only a budget trip can still fail.
                let lenient = match frontend {
                    Frontend::Python => {
                        build_source_lenient_timed(content, id, opts.budget.as_ref())
                    }
                    Frontend::Js => {
                        build_js_source_lenient_timed(content, id, opts.budget.as_ref())
                    }
                };
                match lenient {
                    Ok((g, errors, timings)) => (
                        Some(g),
                        FileOutcome::Recovered { errors: errors.len().max(1) },
                        timings,
                    ),
                    Err(limit) => over_budget(limit),
                }
            }
            Err(BuildError::Frontend(e)) => {
                let error = PipelineError::Parse {
                    path: path.to_string(),
                    message: e.to_string(),
                };
                (None, FileOutcome::Skipped { error }, BuildTimings::default())
            }
        }
    }));
    match guarded {
        Ok(result) => result,
        Err(payload) => {
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            let error = PipelineError::Panicked { path: path.to_string(), message };
            (None, FileOutcome::Panicked { error }, BuildTimings::default())
        }
    }
}

/// Everything one file's (possibly cached) analysis produced.
struct FileSlot {
    graph: Option<PropagationGraph>,
    outcome: FileOutcome,
    timings: BuildTimings,
    /// Which frontend (was or would have been) used for this file.
    frontend: Frontend,
    /// Wall-clock spent on cache lookup + store for this file.
    cache_time: Duration,
    /// Cache faults hit while serving this file (lookup and/or store).
    faults: Vec<CacheFault>,
    /// Whether the graph came from a validated cache entry (no parse ran).
    from_cache: bool,
}

/// [`analyze_one`] behind the artifact cache: a validated entry skips the
/// front end entirely; a miss (or any contained fault) recomputes and
/// stores the fresh artifact. Only analyzed outcomes are cached —
/// quarantine verdicts are cheap to re-derive and keeping them out of the
/// store means a fixed budget or policy never serves a stale verdict.
fn analyze_one_cached(
    path: &str,
    content: &str,
    id: FileId,
    opts: &AnalyzeOptions,
    salt: u64,
) -> FileSlot {
    let frontend = Frontend::of_path(path);
    let Some(cache) = opts.cache.as_deref() else {
        let (graph, outcome, timings) = analyze_one(path, content, id, frontend, opts);
        return FileSlot {
            graph,
            outcome,
            timings,
            frontend,
            cache_time: Duration::ZERO,
            faults: Vec::new(),
            from_cache: false,
        };
    };
    let key = file_key(content, salt, frontend.salt_tag());
    let mut faults = Vec::new();
    let t0 = Instant::now();
    let looked = cache.load_artifact(key, id);
    let mut cache_time = t0.elapsed();
    match looked {
        ArtifactLookup::Hit(graph, recovered) => {
            let outcome = if recovered == 0 {
                FileOutcome::Ok
            } else {
                FileOutcome::Recovered { errors: recovered }
            };
            return FileSlot {
                graph: Some(graph),
                outcome,
                timings: BuildTimings::default(),
                frontend,
                cache_time,
                faults,
                from_cache: true,
            };
        }
        ArtifactLookup::Miss => {}
        ArtifactLookup::Fault(f) => faults.push(f),
    }
    let (graph, outcome, timings) = analyze_one(path, content, id, frontend, opts);
    if let Some(g) = &graph {
        let recovered = match &outcome {
            FileOutcome::Recovered { errors } => *errors,
            _ => 0,
        };
        let t1 = Instant::now();
        if let Some(f) = cache.store_artifact(key, g, recovered) {
            faults.push(f);
        }
        cache_time += t1.elapsed();
    }
    FileSlot { graph, outcome, timings, frontend, cache_time, faults, from_cache: false }
}

/// One file's (possibly cached) analysis, as returned by [`analyze_file`].
#[derive(Debug)]
pub struct FileAnalysis {
    /// The file's propagation graph, stamped with the requested
    /// [`FileId`]; `None` when the file was quarantined.
    pub graph: Option<PropagationGraph>,
    /// The per-file verdict (ok, recovered, skipped, over budget,
    /// panicked).
    pub outcome: FileOutcome,
    /// Whether the graph came from a validated cache entry (no parse
    /// ran).
    pub from_cache: bool,
    /// Contained cache faults hit serving this file.
    pub faults: Vec<CacheFault>,
}

/// Analyzes a single file exactly as [`analyze_corpus_with`] would —
/// same budget/policy guard rails, same artifact-cache keying — without
/// requiring the rest of the corpus. This is the unit of re-work for the
/// incremental daemon: on a delta, only the touched files go through
/// here; every untouched file keeps its previous graph.
pub fn analyze_file(path: &str, content: &str, id: FileId, opts: &AnalyzeOptions) -> FileAnalysis {
    let salt = if opts.cache.is_some() { option_salt(opts) } else { 0 };
    let slot = analyze_one_cached(path, content, id, opts, salt);
    FileAnalysis {
        graph: slot.graph,
        outcome: slot.outcome,
        from_cache: slot.from_cache,
        faults: slot.faults,
    }
}

/// The artifact-cache key [`analyze_file`] files this path/content under
/// for `opts` — exposed so a caller that knows a file left the corpus can
/// [`ArtifactCache::evict`] its entry (content keys of deleted files are
/// never looked up again, so nothing else would ever reclaim them).
pub fn analysis_cache_key(path: &str, content: &str, opts: &AnalyzeOptions) -> u64 {
    let salt = if opts.cache.is_some() { option_salt(opts) } else { 0 };
    file_key(content, salt, Frontend::of_path(path).salt_tag())
}

/// Parses every file of `corpus` under `opts`, unions the graphs of
/// successfully analyzed files, and reports a per-file verdict for each.
///
/// File identity is stable: the [`FileId`] of every file equals its index
/// in corpus order even when earlier files are quarantined, so the union
/// order — and therefore event identity — is deterministic and independent
/// of the thread count.
///
/// # Errors
///
/// Under [`FaultPolicy::FailFast`], the error of the first (lowest-index)
/// bad file; the other policies only fail on corpus-level errors.
pub fn analyze_corpus_with(
    corpus: &Corpus,
    opts: &AnalyzeOptions,
) -> Result<(AnalyzedCorpus, AnalysisReport), PipelineError> {
    let started = Instant::now();
    let inputs: Vec<(usize, &str, &str)> = corpus
        .files()
        .map(|(project, f)| (project, f.path.as_str(), f.content.as_str()))
        .collect();
    let n = inputs.len();
    let threads = opts.threads.max(1).min(n.max(1));
    let salt = if opts.cache.is_some() { option_salt(opts) } else { 0 };

    // Each worker folds its contiguous chunk into its own shard as each
    // file finishes, so at most one per-file graph per worker is alive.
    // A single chunk runs inline on this thread.
    let chunk = n.div_ceil(threads);
    let timed = opts.telemetry.is_active();
    let analyze_chunk = |t: usize, chunk_inputs: &[(usize, &str, &str)]| {
        let base = t * chunk;
        let mut shard = Shard {
            graph: PropagationGraph::new(),
            slots: Vec::with_capacity(chunk_inputs.len()),
            fold_time: Duration::ZERO,
        };
        // Drain the whole chunk: a bad file never starves the files
        // behind it of analysis.
        for (off, (_, path, content)) in chunk_inputs.iter().enumerate() {
            let i = base + off;
            let mut slot = analyze_one_cached(path, content, FileId(i as u32), opts, salt);
            if let Some(g) = slot.graph.take() {
                let folded = timed.then(Instant::now);
                shard.graph.append(g);
                shard.fold_time += folded.map_or(Duration::ZERO, |t| t.elapsed());
            }
            shard.slots.push(slot);
        }
        shard
    };
    let mut shards: Vec<Shard> = if threads <= 1 {
        vec![analyze_chunk(0, &inputs)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = inputs
                .chunks(chunk)
                .enumerate()
                .map(|(t, chunk_inputs)| scope.spawn(move || analyze_chunk(t, chunk_inputs)))
                .collect();
            // Joining in spawn order keeps the shards in chunk (and
            // therefore corpus) order.
            handles.into_iter().map(|h| h.join().expect("analysis worker panicked")).collect()
        })
    };
    let slots = shards.iter_mut().flat_map(|s| std::mem::take(&mut s.slots));

    let mut files = Vec::with_capacity(n);
    let mut reports = Vec::with_capacity(n);
    let mut cache_faults = Vec::new();
    let mut timings = BuildTimings::default();
    let mut cache_time = Duration::ZERO;
    // Per-project (parse time, files parsed) for the parse.project child
    // spans; cache-served files skip the front end and contribute nothing.
    let mut project_parse: Vec<(Duration, usize)> =
        vec![(Duration::ZERO, 0); corpus.projects.len()];
    // Per-frontend parse-time buckets, tallied only under active
    // telemetry so manifests and their redaction stay as they were.
    let mut parse_hist: Vec<ParseHistogram> =
        Frontend::ALL.iter().map(|f| ParseHistogram::new(f.label())).collect();
    let mut build_hist = Histogram::with_u64_bounds(&PARSE_HIST_BOUNDS);
    for ((project, path, _), slot) in inputs.iter().zip(slots) {
        if opts.policy == FaultPolicy::FailFast {
            // Deterministic: the lowest-index bad file wins regardless of
            // which worker finished first.
            match &slot.outcome {
                FileOutcome::Ok | FileOutcome::Recovered { .. } => {}
                FileOutcome::Skipped { error }
                | FileOutcome::OverBudget { error }
                | FileOutcome::Panicked { error } => return Err(error.clone()),
            }
        }
        timings.add(slot.timings);
        if !slot.from_cache {
            let slot_project = &mut project_parse[*project];
            slot_project.0 += slot.timings.parse;
            slot_project.1 += 1;
            if timed && slot.outcome.is_analyzed() {
                parse_hist[slot.frontend.index()]
                    .record(slot.timings.parse.as_micros() as u64);
                build_hist.observe(slot.timings.build.as_micros() as f64);
            }
        }
        cache_time += slot.cache_time;
        for fault in slot.faults {
            cache_faults.push(CacheFaultReport { path: path.to_string(), fault });
        }
        files.push(FileMeta { project: *project, path: path.to_string() });
        reports.push(FileReport {
            project: *project,
            path: path.to_string(),
            outcome: slot.outcome,
        });
    }
    let tele = &opts.telemetry;
    // Parse and graph construction run per file across workers, so their
    // cost is the summed per-file time (aggregate spans), not a driver
    // wall-clock interval. Per-project parse shares nest as children of
    // the parse stage span; its `threads` counter says over how many
    // workers the parse and propgraph times are summed.
    let parse_idx = tele.aggregate_span(
        stage::PARSE,
        timings.parse,
        &[("files", n as f64), ("threads", threads as f64)],
    );
    if parse_idx.is_some() {
        for (project, (dur, parsed)) in project_parse.iter().enumerate() {
            if *parsed == 0 {
                continue;
            }
            tele.aggregate_child(
                parse_idx,
                stage::PARSE_PROJECT,
                *dur,
                &[("project", project as f64), ("files", *parsed as f64)],
            );
        }
    }
    let analyzed_files = reports.iter().filter(|r| r.outcome.is_analyzed()).count();
    tele.aggregate_span(
        stage::PROPGRAPH,
        timings.build,
        &[("files_analyzed", analyzed_files as f64)],
    );
    if let Some(cache) = opts.cache.as_deref() {
        let s = cache.stats();
        tele.aggregate_span(
            stage::CACHE,
            cache_time,
            &[
                ("hits", s.hits as f64),
                ("misses", s.misses as f64),
                ("stores", s.stores as f64),
                ("corrupt", s.corrupt as f64),
                ("stale", s.stale as f64),
                ("evicted", s.evicted as f64),
            ],
        );
    }
    let union_span = tele.span(stage::UNION);
    let union_idx = union_span.index();
    let shard_stats: Vec<(Duration, usize)> =
        shards.iter().map(|s| (s.fold_time, s.graph.event_count())).collect();
    let graph = union_all(shards.into_iter().map(|s| s.graph).collect());
    union_span.counter("events", graph.event_count() as f64);
    union_span.counter("edges", graph.edge_count() as f64);
    union_span.counter("symbols", seldon_intern::len() as f64);
    drop(union_span);
    // One child per shard: the time spent folding its per-file graphs
    // in, and the events it contributed.
    for (i, (fold_time, events)) in shard_stats.iter().enumerate() {
        tele.aggregate_child(
            union_idx,
            stage::UNION_SHARD,
            *fold_time,
            &[("shard", i as f64), ("events", *events as f64)],
        );
    }
    Ok((
        AnalyzedCorpus {
            graph,
            files,
            build_time: started.elapsed(),
            parse_histograms: parse_hist.into_iter().filter(|h| h.total() > 0).collect(),
            build_histogram: build_hist,
        },
        AnalysisReport { files: reports, cache_faults },
    ))
}

/// One contiguous chunk's output: its graphs folded into one shard, and
/// its graph-less slots in file order.
struct Shard {
    graph: PropagationGraph,
    slots: Vec<FileSlot>,
    /// Time spent folding per-file graphs into `graph` (zero when
    /// telemetry is off).
    fold_time: Duration,
}

/// Folds the worker shards into one global graph, in corpus order.
///
/// `union` is an order-preserving concatenation (event ids shift by the
/// running event count), so it is associative: folding contiguous chunks
/// into per-worker shards and then folding the shards in chunk order
/// produces byte-identical event identity to the sequential left fold.
/// The first part becomes the global graph and the others are moved onto
/// it ([`PropagationGraph::append`]), so no adjacency list is copied.
fn union_all(parts: Vec<PropagationGraph>) -> PropagationGraph {
    let total: usize = parts.iter().map(PropagationGraph::event_count).sum();
    let mut parts = parts.into_iter();
    let mut graph = parts.next().unwrap_or_default();
    graph.reserve_events(total - graph.event_count());
    for part in parts {
        graph.append(part);
    }
    graph
}

/// Parses every file of `corpus` and unions the per-file graphs.
///
/// Equivalent to [`analyze_corpus_with`] under [`FaultPolicy::FailFast`]
/// with no budget — the legacy strict pipeline.
///
/// # Errors
///
/// Returns [`PipelineError::Parse`] if any generated file fails to parse —
/// the corpus generator guarantees parseable output, so this indicates a
/// front-end bug.
pub fn analyze_corpus(corpus: &Corpus, threads: usize) -> Result<AnalyzedCorpus, PipelineError> {
    let opts = AnalyzeOptions { threads, ..AnalyzeOptions::default() };
    Ok(analyze_corpus_with(corpus, &opts)?.0)
}

/// Analyzes a single project of the corpus (used for the Q5 experiment).
///
/// # Errors
///
/// Returns [`PipelineError::Parse`] on front-end failure, or
/// [`PipelineError::NoSuchProject`] for an out-of-range index.
pub fn analyze_project(corpus: &Corpus, project: usize) -> Result<AnalyzedCorpus, PipelineError> {
    if project >= corpus.projects.len() {
        return Err(PipelineError::NoSuchProject(project));
    }
    let started = Instant::now();
    let mut graph = PropagationGraph::new();
    let mut files = Vec::new();
    for f in &corpus.projects[project].files {
        let id = FileId(files.len() as u32);
        let g = match Frontend::of_path(&f.path) {
            Frontend::Python => build_source(&f.content, id),
            Frontend::Js => build_js_source(&f.content, id),
        }
        .map_err(|e| PipelineError::Parse {
            path: f.path.clone(),
            message: e.to_string(),
        })?;
        graph.union(&g);
        files.push(FileMeta { project, path: f.path.clone() });
    }
    Ok(AnalyzedCorpus {
        graph,
        files,
        build_time: started.elapsed(),
        parse_histograms: Vec::new(),
        build_histogram: Histogram::with_u64_bounds(&PARSE_HIST_BOUNDS),
    })
}

/// Hyperparameters of a full Seldon run; defaults follow the paper.
#[derive(Debug, Clone, Default)]
pub struct SeldonOptions {
    /// Constraint-generation options (cutoff 5, C = 0.75).
    pub gen: GenOptions,
    /// Solver options (λ = 0.1, projected Adam).
    pub solve: SolveOptions,
    /// Extraction options (t = 0.1, decay 0.8).
    pub extract: ExtractOptions,
    /// When true (and telemetry records), the manifest carries the full
    /// per-representation score dump with backoff levels — the Fig. 11
    /// dataset. Off by default: the dump scales with the learned spec.
    pub score_dump: bool,
    /// Opt-in near-miss checkpoint reuse for [`run_seldon_cached`]: when
    /// set and the system fingerprint misses, the solver is seeded from
    /// the previous checkpoint's scores (remapped by representation and
    /// role). `None` (the default) keeps the historical exact-match-only
    /// behavior, so existing cached runs are untouched.
    pub warm_start: Option<WarmStartOptions>,
}

/// The §4.3 representation cutoff `seldon learn` and `seldon serve` use
/// when none is given: 2 for corpora below 50 files, 5 otherwise.
pub fn default_rep_cutoff(files: usize) -> usize {
    if files < 50 {
        2
    } else {
        5
    }
}

/// Margin used by [`WarmStartOptions::default`]: a warm solution is only
/// accepted when every extraction decision clears the threshold by at
/// least this much, comfortably above the score wobble between a warm and
/// a cold convergence (both stop at relative tolerance `1e-6`).
pub const DEFAULT_WARM_MARGIN: f64 = 0.02;

/// Policy for near-miss checkpoint warm-starting (see
/// [`SeldonOptions::warm_start`]).
///
/// Warm and cold solves converge to the same optimum region but not to
/// bit-identical scores, so a warm solution is only *accepted* when its
/// extraction margin — the smallest distance between any decayed score
/// and its role threshold, over every (event, role, backoff level)
/// decision — is at least `min_margin`. A tighter margin means the tiny
/// warm-vs-cold score difference could flip a spec entry, so the run
/// falls back to a cold solve on the same compiled system and the output
/// stays byte-identical to an uncached run by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmStartOptions {
    /// Minimum extraction margin below which the warm solution is
    /// discarded in favor of a cold solve.
    pub min_margin: f64,
}

impl Default for WarmStartOptions {
    fn default() -> Self {
        WarmStartOptions { min_margin: DEFAULT_WARM_MARGIN }
    }
}

/// The artifacts of a full Seldon run.
#[derive(Debug)]
pub struct SeldonRun {
    /// The generated constraint system.
    pub system: ConstraintSystem,
    /// The solved scores.
    pub solution: Solution,
    /// The extracted specification and per-event roles.
    pub extraction: Extraction,
    /// Time spent generating constraints.
    pub gen_time: Duration,
    /// Time spent solving.
    pub solve_time: Duration,
    /// Phase timings and drop counters of constraint generation.
    pub gen_stats: GenStats,
}

impl SeldonRun {
    /// Number of candidate events that entered the constraint system.
    pub fn candidate_count(&self) -> usize {
        self.system.event_reps.len()
    }
}

/// Convergence-trace stride used when telemetry records but the caller
/// left [`SolveOptions::trace_stride`] at 0: every 10th epoch plus the
/// final one — dense enough to plot, sparse enough to keep the Adam hot
/// loop cheap.
pub const DEFAULT_TRACE_STRIDE: usize = 10;

/// Runs constraint generation, solving, and extraction over a graph.
pub fn run_seldon(graph: &PropagationGraph, seed: &TaintSpec, opts: &SeldonOptions) -> SeldonRun {
    run_seldon_cached(graph, seed, opts, &Telemetry::disabled(), None).0
}

/// Emits the `representation` and `constraints` stage spans for a system
/// of shape `s`. `times` holds the selection and collection durations;
/// `None` marks both spans as replayed from a checkpoint. `extra`
/// counters go on the `constraints` span.
fn gen_spans(
    tele: &Telemetry,
    s: &SystemSummary,
    times: Option<(Duration, Duration)>,
    extra: &[(&'static str, f64)],
) {
    let (select_time, collect_time) = times.unwrap_or_default();
    let replayed: &[(&'static str, f64)] =
        if times.is_none() { &[("replayed", 1.0)] } else { &[] };
    let representation = [
        ("candidate_events", s.candidates as f64),
        ("surviving_reps", s.surviving_reps as f64),
        ("dropped_by_cutoff", s.dropped_by_cutoff as f64),
        ("dropped_by_blacklist", s.dropped_by_blacklist as f64),
    ];
    tele.aggregate_span(
        stage::REPRESENTATION,
        select_time,
        &[&representation[..], replayed].concat(),
    );
    let constraints = [
        ("constraints", s.constraints as f64),
        ("vars", s.vars as f64),
        ("pinned", s.pinned as f64),
        ("template_a", s.by_template[0] as f64),
        ("template_b", s.by_template[1] as f64),
        ("template_c", s.by_template[2] as f64),
    ];
    tele.aggregate_span(
        stage::CONSTRAINTS,
        collect_time,
        &[&constraints[..], replayed, extra].concat(),
    );
}

/// The `solve` span counters every rung of the solve ladder reports.
fn solve_counters(solution: &Solution, threads: usize) -> [(&'static str, f64); 7] {
    [
        ("threads", threads.max(1) as f64),
        ("iterations", solution.iterations as f64),
        ("restarts", solution.restarts as f64),
        ("objective", solution.objective),
        ("violation", solution.violation),
        ("stop_reason", solution.stop.code() as f64),
        ("epochs_saved", solution.epochs_saved as f64),
    ]
}

/// What [`learn_system`] produced from one constraint system.
#[derive(Debug)]
pub struct Learned {
    /// The solved scores.
    pub solution: Solution,
    /// The extracted specification and per-event roles.
    pub extraction: Extraction,
    /// The solve-ladder rung that produced `solution`:
    /// [`CheckpointOutcome::HitScores`], [`CheckpointOutcome::HitWarm`] or
    /// [`CheckpointOutcome::MissCold`].
    pub rung: CheckpointOutcome,
    /// Extraction margin of the warm solution, when a warm start was
    /// tried (accepted or not).
    pub warm_margin: Option<f64>,
    /// Wall-clock of the solve stage.
    pub solve_time: Duration,
    /// The run packed for reuse; `None` unless an input fingerprint was
    /// given.
    pub checkpoint: Option<Checkpoint>,
}

/// The learn path `seldon learn` and `seldon serve` share once a
/// constraint system exists.
///
/// Emits the `representation` and `constraints` spans (`extra` counters
/// go on the latter), climbs the solve ladder, extracts the
/// specification, and — given the run's `input_fp` — packs the checkpoint
/// the next run reuses. The ladder reuses `prior`'s score vector when the
/// system fingerprint matches; otherwise, with
/// [`SeldonOptions::warm_start`] set, it seeds Adam from `prior`'s
/// remapped scores and accepts the warm solution only when its
/// extraction margin clears the policy (so the spec stays byte-identical
/// to a cold run); otherwise it solves cold. The system is compiled at
/// most once.
pub fn learn_system(
    system: &ConstraintSystem,
    gen_stats: &GenStats,
    input_fp: Option<u64>,
    prior: Option<&Checkpoint>,
    opts: &SeldonOptions,
    tele: &Telemetry,
    extra: &[(&'static str, f64)],
) -> Learned {
    if tele.is_active() {
        let times = (gen_stats.select_time, gen_stats.collect_time);
        gen_spans(tele, &SystemSummary::of(system, gen_stats), Some(times), extra);
    }
    let system_fp = input_fp.map(|_| system_fingerprint(system, &opts.solve));
    let t0 = Instant::now();
    let (solution, rung, warm_margin) = solve_stage(system, system_fp, prior, opts, tele);
    let solve_time = t0.elapsed();
    let extraction = extract_stage(system, &solution, opts, tele);
    let checkpoint = input_fp.zip(system_fp).map(|(input_fp, system_fp)| {
        Checkpoint::pack(input_fp, system_fp, system, gen_stats, &solution, &extraction)
    });
    Learned { solution, extraction, rung, warm_margin, solve_time, checkpoint }
}

/// The solve ladder with its `solve` span: a score hit (counter
/// `replayed`), else CSR compilation (the nested `compile` span) and a
/// margin-guarded warm solve (counters `warm_accepted`, `warm_margin`),
/// else a cold solve on the same compiled system. When `tele` records
/// and the caller left the solver trace stride at 0, the stride defaults
/// to [`DEFAULT_TRACE_STRIDE`] so the manifest always carries a
/// convergence curve.
fn solve_stage(
    system: &ConstraintSystem,
    system_fp: Option<u64>,
    prior: Option<&Checkpoint>,
    opts: &SeldonOptions,
    tele: &Telemetry,
) -> (Solution, CheckpointOutcome, Option<f64>) {
    let mut solve_opts = opts.solve.clone();
    if tele.is_recording() && solve_opts.trace_stride == 0 {
        solve_opts.trace_stride = DEFAULT_TRACE_STRIDE;
    }
    let solve_span = tele.span(stage::SOLVE);
    let (solution, rung, warm_margin) = match prior {
        Some(ckpt) if system_fp == Some(ckpt.system_fp) => {
            (ckpt.solution(), CheckpointOutcome::HitScores, None)
        }
        _ => {
            let compile_span = tele.span(stage::COMPILE);
            let compiled = CompiledSystem::compile(system);
            compile_span.counter("constraints", compiled.constraint_count() as f64);
            compile_span.counter("rows", compiled.row_count() as f64);
            compile_span.counter("terms", compiled.term_count() as f64);
            compile_span.counter("lanes", compiled.lane_count() as f64);
            drop(compile_span);
            let warm = opts.warm_start.as_ref().and_then(|policy| {
                let init = prior?.warm_init_for(system)?;
                let warm = solve_compiled_warm(&compiled, &solve_opts, &init);
                let margin = extraction_margin(system, &warm, &opts.extract);
                Some((warm, margin, margin >= policy.min_margin))
            });
            match warm {
                Some((warm, margin, true)) => (warm, CheckpointOutcome::HitWarm, Some(margin)),
                rejected => (
                    solve_compiled(&compiled, &solve_opts),
                    CheckpointOutcome::MissCold,
                    rejected.map(|(_, margin, _)| margin),
                ),
            }
        }
    };
    for (name, value) in solve_counters(&solution, solve_opts.threads) {
        solve_span.counter(name, value);
    }
    if let Some(margin) = warm_margin {
        solve_span.counter("warm_accepted", f64::from(rung == CheckpointOutcome::HitWarm));
        solve_span.counter("warm_margin", margin);
    }
    if rung == CheckpointOutcome::HitScores {
        solve_span.counter("replayed", 1.0);
    }
    (solution, rung, warm_margin)
}

/// Specification extraction with its `extract` span.
fn extract_stage(
    system: &ConstraintSystem,
    solution: &Solution,
    opts: &SeldonOptions,
    tele: &Telemetry,
) -> Extraction {
    let extract_span = tele.span(stage::EXTRACT);
    let extraction = extract(system, solution, &opts.extract);
    extract_span.counter("learned_entries", extraction.spec.role_count() as f64);
    extract_span.counter("events_with_roles", extraction.event_roles.len() as f64);
    drop(extract_span);
    extraction
}

/// How [`run_seldon_cached`] used the solver warm-start checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointOutcome {
    /// No cache attached; the run was fully cold.
    #[default]
    Disabled,
    /// Checkpoint absent, damaged, or fingerprint-mismatched; solved from
    /// zero and stored a fresh checkpoint.
    MissCold,
    /// The system fingerprint matched: the stored score vector was reused
    /// bit-for-bit and the solve was skipped.
    HitScores,
    /// The input fingerprint matched: generation, solving, and extraction
    /// were all skipped and the stored outputs replayed.
    HitFull,
    /// The system changed, but ([`SeldonOptions::warm_start`] being set)
    /// the solver was seeded from the previous checkpoint's remapped
    /// scores and the warm solution cleared the extraction-margin guard.
    HitWarm,
}

impl CheckpointOutcome {
    /// The manifest's `cache.checkpoint` string.
    pub fn label(self) -> &'static str {
        match self {
            CheckpointOutcome::Disabled => "off",
            CheckpointOutcome::MissCold => "cold",
            CheckpointOutcome::HitScores => "scores",
            CheckpointOutcome::HitFull => "full",
            CheckpointOutcome::HitWarm => "warm",
        }
    }
}

/// What the checkpoint path of one run did, for reports and the manifest.
#[derive(Debug, Default)]
pub struct CheckpointUse {
    /// How the checkpoint was used.
    pub outcome: CheckpointOutcome,
    /// Contained faults hit loading or storing the checkpoint.
    pub faults: Vec<CacheFault>,
    /// System shape replayed from the checkpoint on a full hit (the
    /// in-memory [`SeldonRun::system`] is empty then).
    pub summary: Option<SystemSummary>,
}

/// Rebuilds a [`SeldonRun`] from a full-hit checkpoint without touching
/// the solver, replaying the skipped stages as zero-duration aggregate
/// spans so the manifest keeps its full stage set. Returns `None` when the
/// stored spec text fails to parse (the entry checksummed clean but its
/// content is unusable — the caller treats that as a corrupt entry).
fn replay_full(
    ckpt: &Checkpoint,
    opts: &SeldonOptions,
    tele: &Telemetry,
    load_time: Duration,
) -> Option<SeldonRun> {
    let spec = TaintSpec::parse(&ckpt.spec_text).ok()?;
    let s = &ckpt.summary;
    gen_spans(tele, s, None, &[]);
    let solution = ckpt.solution();
    tele.aggregate_span(
        stage::SOLVE,
        load_time,
        &[&solve_counters(&solution, opts.solve.threads)[..], &[("replayed", 1.0)]].concat(),
    );
    tele.aggregate_span(
        stage::EXTRACT,
        Duration::ZERO,
        &[
            ("learned_entries", spec.role_count() as f64),
            ("events_with_roles", ckpt.event_roles.len() as f64),
            ("replayed", 1.0),
        ],
    );
    Some(SeldonRun {
        system: ConstraintSystem::new(opts.gen.c),
        solution,
        extraction: Extraction {
            spec,
            event_roles: ckpt.event_role_map(),
            backoff_hits: ckpt.backoff_hits.clone(),
            ..Extraction::default()
        },
        gen_time: Duration::ZERO,
        solve_time: load_time,
        gen_stats: GenStats {
            candidate_events: s.candidates as usize,
            surviving_reps: s.surviving_reps as usize,
            dropped_by_cutoff: s.dropped_by_cutoff as usize,
            dropped_by_blacklist: s.dropped_by_blacklist as usize,
            ..GenStats::default()
        },
    })
}

/// [`learn_system`] over `graph`, behind the solver warm-start checkpoint
/// when a cache is attached; with `cache: None` it is the plain traced
/// run.
///
/// With a cache attached, the run is keyed by two exact fingerprints
/// (see [`seldon_cache::checkpoint`]): a full input-fingerprint match
/// replays the stored scores, spec, and roles without generating or
/// solving anything; a system-fingerprint match reuses the score vector
/// and skips only the solve; anything else runs cold and stores a fresh
/// checkpoint. Reuse is all-or-nothing by default, so the returned spec
/// and scores are byte-identical to what the cold run would produce — a
/// damaged or mismatched checkpoint costs time, never output fidelity.
///
/// With [`SeldonOptions::warm_start`] set, a system-fingerprint miss
/// additionally tries a *near-miss* warm solve seeded from the previous
/// checkpoint's scores (remapped by `(representation, role)`), accepted
/// only when the extraction margin clears the policy's threshold — below
/// it, the run falls back to a cold solve on the same system.
pub fn run_seldon_cached(
    graph: &PropagationGraph,
    seed: &TaintSpec,
    opts: &SeldonOptions,
    tele: &Telemetry,
    cache: Option<&ArtifactCache>,
) -> (SeldonRun, CheckpointUse) {
    let mut usage = CheckpointUse::default();
    let mut input_fp = None;
    let mut prior = None;
    if let Some(cache) = cache {
        usage.outcome = CheckpointOutcome::MissCold;
        let fp = input_fingerprint(
            graph_fingerprint(graph),
            seed,
            &opts.gen,
            &opts.solve,
            &opts.extract,
        );
        let t0 = Instant::now();
        prior = match cache.load_checkpoint() {
            CheckpointLookup::Hit(ckpt) => Some(ckpt),
            CheckpointLookup::Miss => None,
            CheckpointLookup::Fault(f) => {
                usage.faults.push(f);
                None
            }
        };
        let load_time = t0.elapsed();
        if let Some(ckpt) = prior.as_deref().filter(|ckpt| ckpt.input_fp == fp) {
            match replay_full(ckpt, opts, tele, load_time) {
                Some(run) => {
                    usage.outcome = CheckpointOutcome::HitFull;
                    usage.summary = Some(ckpt.summary);
                    return (run, usage);
                }
                None => usage.faults.push(CacheFault {
                    entry: CHECKPOINT_NAME.to_string(),
                    class: FaultClass::Corrupt,
                    detail: "stored spec text failed to parse".to_string(),
                }),
            }
        }
        input_fp = Some(fp);
    }

    let t0 = Instant::now();
    let (system, gen_stats) = generate_with_stats(graph, seed, &opts.gen);
    let gen_time = t0.elapsed();
    let learned = learn_system(&system, &gen_stats, input_fp, prior.as_deref(), opts, tele, &[]);
    // Store (or re-key) the checkpoint so the next identical run takes the
    // full-reuse path.
    if let (Some(cache), Some(ckpt)) = (cache, &learned.checkpoint) {
        usage.outcome = learned.rung;
        if let Some(f) = cache.store_checkpoint(ckpt) {
            usage.faults.push(f);
        }
    }
    let Learned { solution, extraction, solve_time, .. } = learned;
    (SeldonRun { system, solution, extraction, gen_time, solve_time, gen_stats }, usage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seldon_corpus::{generate_corpus, CorpusOptions, Project, SourceFile, Universe};

    fn corpus() -> Corpus {
        generate_corpus(
            &Universe::new(),
            &CorpusOptions { projects: 8, ..Default::default() },
        )
    }

    /// A corpus with one clean and one malformed file.
    fn mixed_corpus() -> Corpus {
        Corpus {
            projects: vec![Project {
                name: "p0".into(),
                files: vec![
                    SourceFile {
                        path: "good.py".into(),
                        content: "import flask\nx = flask.request.args.get('q')\n".into(),
                    },
                    SourceFile {
                        path: "bad.py".into(),
                        content: "def broken(:\n".into(),
                    },
                ],
            }],
            ..Default::default()
        }
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let c = corpus();
        let a = analyze_corpus(&c, 1).unwrap();
        let b = analyze_corpus(&c, 4).unwrap();
        assert_eq!(a.graph.event_count(), b.graph.event_count());
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
        assert_eq!(a.files.len(), b.files.len());
        // Event identity must match exactly (deterministic union order).
        for (id, ev) in a.graph.events() {
            assert_eq!(ev.reps, b.graph.event(id).reps);
        }
    }

    #[test]
    fn file_metadata_attributes_projects() {
        let c = corpus();
        let a = analyze_corpus(&c, 2).unwrap();
        assert_eq!(a.files.len(), c.file_count());
        let projects: std::collections::HashSet<usize> =
            a.files.iter().map(|f| f.project).collect();
        assert_eq!(projects.len(), c.projects.len());
    }

    #[test]
    fn single_project_analysis() {
        let c = corpus();
        let a = analyze_project(&c, 0).unwrap();
        assert_eq!(a.files.len(), c.projects[0].files.len());
        assert!(a.graph.event_count() > 0);
        assert!(matches!(
            analyze_project(&c, 999),
            Err(PipelineError::NoSuchProject(999))
        ));
    }

    #[test]
    fn failfast_aborts_on_malformed_file() {
        let c = mixed_corpus();
        let err = analyze_corpus(&c, 1).unwrap_err();
        assert!(matches!(err, PipelineError::Parse { ref path, .. } if path == "bad.py"));
        // Same error regardless of thread count.
        assert_eq!(err, analyze_corpus(&c, 4).unwrap_err());
    }

    #[test]
    fn skip_quarantines_malformed_file() {
        let c = mixed_corpus();
        let opts = AnalyzeOptions { policy: FaultPolicy::Skip, ..Default::default() };
        let (analyzed, report) = analyze_corpus_with(&c, &opts).unwrap();
        assert_eq!(analyzed.files.len(), 2, "quarantined files keep their FileId slot");
        assert!(analyzed.graph.event_count() > 0);
        assert_eq!(report.ok(), 1);
        assert_eq!(report.skipped(), 1);
        assert!(report.is_degraded());
        let quarantined: Vec<&str> =
            report.quarantined().map(|f| f.path.as_str()).collect();
        assert_eq!(quarantined, ["bad.py"]);
    }

    #[test]
    fn recover_retries_malformed_file() {
        let c = mixed_corpus();
        let opts = AnalyzeOptions { policy: FaultPolicy::Recover, ..Default::default() };
        let (analyzed, report) = analyze_corpus_with(&c, &opts).unwrap();
        assert_eq!(report.ok(), 1);
        assert_eq!(report.recovered(), 1);
        assert_eq!(report.quarantined().count(), 0);
        assert_eq!(analyzed.files.len(), 2);
    }

    #[test]
    fn recover_equals_failfast_on_clean_corpus() {
        let c = corpus();
        let strict = analyze_corpus(&c, 2).unwrap();
        let opts = AnalyzeOptions {
            policy: FaultPolicy::Recover,
            threads: 2,
            ..Default::default()
        };
        let (lenient, report) = analyze_corpus_with(&c, &opts).unwrap();
        assert!(!report.is_degraded());
        assert_eq!(strict.graph.event_count(), lenient.graph.event_count());
        assert_eq!(strict.graph.edge_count(), lenient.graph.edge_count());
        for (id, ev) in strict.graph.events() {
            assert_eq!(ev.reps, lenient.graph.event(id).reps);
        }
    }

    #[test]
    fn budget_quarantines_oversized_file() {
        let mut c = mixed_corpus();
        c.projects[0].files[1] = SourceFile {
            path: "huge.py".into(),
            content: format!("# {}\n", "x".repeat(4096)),
        };
        let opts = AnalyzeOptions {
            policy: FaultPolicy::Skip,
            budget: Some(Budget { max_source_bytes: 1024, ..Budget::default() }),
            ..Default::default()
        };
        let (_, report) = analyze_corpus_with(&c, &opts).unwrap();
        assert_eq!(report.over_budget(), 1);
        assert!(matches!(
            report.files[1].outcome,
            FileOutcome::OverBudget {
                error: PipelineError::OverBudget { .. }
            }
        ));
    }

    #[test]
    fn panic_marker_is_contained_under_skip() {
        let mut c = mixed_corpus();
        c.projects[0].files[1] = SourceFile {
            path: "panics.py".into(),
            content: format!("x = 1\n{}\n", seldon_corpus::PANIC_MARKER),
        };
        let opts = AnalyzeOptions {
            policy: FaultPolicy::Skip,
            fault_markers: true,
            ..Default::default()
        };
        let (analyzed, report) = analyze_corpus_with(&c, &opts).unwrap();
        assert_eq!(report.panicked(), 1);
        assert_eq!(report.ok(), 1);
        assert!(analyzed.graph.event_count() > 0);
    }

    /// A corpus with one Python and one JS file, exercising both frontends.
    fn mixed_lang_corpus() -> Corpus {
        Corpus {
            projects: vec![Project {
                name: "p0".into(),
                files: vec![
                    SourceFile {
                        path: "a.py".into(),
                        content: "import flask\nx = flask.request.args.get('q')\n".into(),
                    },
                    SourceFile {
                        path: "b.js".into(),
                        content: "const db = require('db');\n\
                                  function handler(req) { return db.query(req); }\n"
                            .into(),
                    },
                ],
            }],
            ..Default::default()
        }
    }

    #[test]
    fn frontend_dispatches_by_extension() {
        assert_eq!(Frontend::of_path("app/views.py"), Frontend::Python);
        assert_eq!(Frontend::of_path("app/views.js"), Frontend::Js);
        assert_eq!(Frontend::of_path("README"), Frontend::Python);
        assert_ne!(Frontend::Python.salt_tag(), Frontend::Js.salt_tag());
    }

    #[test]
    fn mixed_language_corpus_analyzes_both_frontends() {
        let analyzed = analyze_corpus(&mixed_lang_corpus(), 1).unwrap();
        assert_eq!(analyzed.files.len(), 2);
        // Both files contributed events to the one global graph.
        let with_events: std::collections::HashSet<u32> =
            analyzed.graph.events().map(|(_, ev)| ev.file.0).collect();
        assert_eq!(with_events, [0u32, 1].into_iter().collect());
    }

    #[test]
    fn identical_bytes_never_alias_across_frontends() {
        // Parses under both frontends (JS semicolons are optional), but
        // must still occupy two distinct cache entries.
        let content = "x = db.query(req)\n";
        let c = Corpus {
            projects: vec![Project {
                name: "p0".into(),
                files: vec![
                    SourceFile { path: "same.py".into(), content: content.into() },
                    SourceFile { path: "same.js".into(), content: content.into() },
                ],
            }],
            ..Default::default()
        };
        let dir = std::env::temp_dir()
            .join(format!("seldon-frontend-alias-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (cache, _) = seldon_cache::ArtifactCache::open(&dir).unwrap();
        let opts = AnalyzeOptions { cache: Some(Arc::new(cache)), ..Default::default() };
        let (_, report) = analyze_corpus_with(&c, &opts).unwrap();
        assert_eq!(report.ok(), 2);
        let s = opts.cache.as_deref().unwrap().stats();
        assert_eq!((s.hits, s.misses, s.stores), (0, 2, 2), "no cross-frontend aliasing");
        // Warm run: each file is served from its own frontend's entry.
        let (cache, _) = seldon_cache::ArtifactCache::open(&dir).unwrap();
        let opts = AnalyzeOptions { cache: Some(Arc::new(cache)), ..Default::default() };
        analyze_corpus_with(&c, &opts).unwrap();
        let s = opts.cache.as_deref().unwrap().stats();
        assert_eq!((s.hits, s.misses), (2, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_histograms_tally_per_frontend_when_timed() {
        let opts = AnalyzeOptions { telemetry: Telemetry::recording(), ..Default::default() };
        let (analyzed, _) = analyze_corpus_with(&mixed_lang_corpus(), &opts).unwrap();
        let mut labels: Vec<&str> =
            analyzed.parse_histograms.iter().map(|h| h.frontend.as_str()).collect();
        labels.sort_unstable();
        assert_eq!(labels, ["js", "python"]);
        for h in &analyzed.parse_histograms {
            assert_eq!(h.total(), 1, "one file per frontend");
        }
        // Without active telemetry nothing is tallied.
        let (analyzed, _) =
            analyze_corpus_with(&mixed_lang_corpus(), &AnalyzeOptions::default()).unwrap();
        assert!(analyzed.parse_histograms.is_empty());
    }

    #[test]
    fn full_run_learns_something() {
        let c = corpus();
        let analyzed = analyze_corpus(&c, 2).unwrap();
        let universe = Universe::new();
        let seed = universe.seed_spec();
        let run = run_seldon(&analyzed.graph, &seed, &SeldonOptions::default());
        assert!(run.system.constraint_count() > 0, "no constraints generated");
        assert!(run.candidate_count() > 0);
        assert!(
            run.extraction.spec.role_count() > 0,
            "nothing learned from {} constraints over {} vars",
            run.system.constraint_count(),
            run.system.var_count()
        );
    }

    #[test]
    fn empty_seed_learns_nothing() {
        let c = corpus();
        let analyzed = analyze_corpus(&c, 2).unwrap();
        let run = run_seldon(&analyzed.graph, &TaintSpec::new(), &SeldonOptions::default());
        assert_eq!(
            run.extraction.spec.role_count(),
            0,
            "empty seed must yield the all-zeros solution (paper Q6)"
        );
    }
}
