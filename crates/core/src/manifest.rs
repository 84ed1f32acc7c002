//! Full-pipeline driver with telemetry: runs all eight stages — parse,
//! propgraph, union, representation, constraints, solve, extract, taint —
//! and assembles the machine-readable [`RunManifest`] the `--telemetry`
//! flag writes.
//!
//! [`run_full`] is [`analyze_corpus_with`] + [`run_seldon_cached`] plus a
//! final taint pass with the learned specification. With a recording
//! [`Telemetry`] handle in [`AnalyzeOptions`], the manifest captures the
//! corpus shape, per-file fault outcomes, every stage span with its
//! counters, the per-template constraint counts (Fig. 4a/b/c), the
//! solver's sampled convergence curve, the §7.1 extraction backoff sweep,
//! and the taint verdict. With a disabled handle the pipeline runs
//! telemetry-free and no manifest is produced.
//!
//! The section builders ([`solver_summary`], [`extraction_summary`],
//! [`constraint_summary`], [`cache_summary`], [`memory_summary`],
//! [`set_intern_gauge`]) are shared with the `seldon serve` manifest.

use crate::error::PipelineError;
use crate::pipeline::{
    analyze_corpus_with, run_seldon_cached, AnalyzeOptions, AnalyzedCorpus, CheckpointUse,
    SeldonOptions, SeldonRun,
};
use crate::report::{AnalysisReport, CacheFaultReport};
use seldon_cache::{ArtifactCache, SystemSummary};
use seldon_constraints::constraint_gap;
use seldon_corpus::Corpus;
use seldon_solver::{ExtractOptions, Solution};
use seldon_specs::{Role, TaintSpec};
use seldon_taint::{TaintAnalyzer, Violation};
use seldon_telemetry::{
    stage, CacheSummary, ConstraintSummary, CorpusShape, ExtractionSummary, MemoryGauge,
    MemorySummary, MetricsRegistry, OutcomeCounts, RunManifest, ScoreDumpEntry, SolverSummary,
    TaintSummary, Telemetry,
};

/// Everything one full pipeline run produces.
#[derive(Debug)]
pub struct FullRun {
    /// The analyzed corpus (global graph + file metadata).
    pub analyzed: AnalyzedCorpus,
    /// Per-file fault/budget outcomes.
    pub report: AnalysisReport,
    /// Constraint system, solution, and extraction.
    pub run: SeldonRun,
    /// Unsanitized source→sink flows found with the seed + learned spec.
    pub violations: Vec<Violation>,
    /// How the solver warm-start checkpoint was used (outcome
    /// `Disabled` when no cache was attached).
    pub checkpoint: CheckpointUse,
    /// The assembled manifest; `None` unless the telemetry handle in
    /// [`AnalyzeOptions`] was recording.
    pub manifest: Option<RunManifest>,
}

/// Runs the complete eight-stage pipeline over `corpus` and assembles the
/// run manifest from whatever the telemetry handle recorded.
///
/// The taint stage merges the learned specification over the seed and
/// reuses the extraction's per-event role assignments, so backoff-learned
/// roles reach the analyzer even for representations below the cutoff.
///
/// # Errors
///
/// Propagates [`analyze_corpus_with`] errors (first bad file under
/// [`FaultPolicy::FailFast`](crate::FaultPolicy::FailFast)).
pub fn run_full(
    corpus: &Corpus,
    seed: &TaintSpec,
    command: &str,
    analyze: &AnalyzeOptions,
    seldon: &SeldonOptions,
) -> Result<FullRun, PipelineError> {
    let tele = analyze.telemetry.clone();
    let (analyzed, mut report) = analyze_corpus_with(corpus, analyze)?;
    let (run, checkpoint) =
        run_seldon_cached(&analyzed.graph, seed, seldon, &tele, analyze.cache.as_deref());
    report.cache_faults.extend(checkpoint.faults.iter().map(|fault| CacheFaultReport {
        path: "<checkpoint>".to_string(),
        fault: fault.clone(),
    }));

    let mut full_spec = seed.clone();
    full_spec.merge(&run.extraction.spec);
    let taint_span = tele.span(stage::TAINT);
    let analyzer =
        TaintAnalyzer::with_event_roles(&analyzed.graph, &full_spec, &run.extraction.event_roles);
    let violations = analyzer.find_violations();
    taint_span.counter("violations", violations.len() as f64);
    drop(taint_span);

    let manifest = tele.is_recording().then(|| {
        assemble_manifest(
            command,
            corpus,
            &analyzed,
            &report,
            &run,
            seldon,
            &violations,
            &tele,
            analyze,
            &checkpoint,
        )
    });
    Ok(FullRun { analyzed, report, run, violations, checkpoint, manifest })
}

/// Folds the recorded spans and pipeline artifacts into a [`RunManifest`].
/// Drains the telemetry recorder.
#[allow(clippy::too_many_arguments)]
fn assemble_manifest(
    command: &str,
    corpus: &Corpus,
    analyzed: &AnalyzedCorpus,
    report: &AnalysisReport,
    run: &SeldonRun,
    seldon: &SeldonOptions,
    violations: &[Violation],
    tele: &Telemetry,
    analyze: &AnalyzeOptions,
    checkpoint: &CheckpointUse,
) -> RunManifest {
    let mut m = RunManifest::new(command);
    m.corpus = CorpusShape {
        files: corpus.file_count() as u64,
        projects: corpus.projects.len() as u64,
        events: analyzed.graph.event_count() as u64,
        edges: analyzed.graph.edge_count() as u64,
        symbols: seldon_intern::len() as u64,
    };
    m.outcomes = OutcomeCounts {
        ok: report.ok() as u64,
        recovered: report.recovered() as u64,
        skipped: report.skipped() as u64,
        over_budget: report.over_budget() as u64,
        panicked: report.panicked() as u64,
    };
    m.stages = tele.take_spans().into_iter().map(Into::into).collect();
    m.parse_histograms = analyzed.parse_histograms.clone();
    // Full checkpoint reuse leaves the in-memory system empty, so the
    // shape comes from the checkpoint's replay summary.
    let shape =
        checkpoint.summary.unwrap_or_else(|| SystemSummary::of(&run.system, &run.gen_stats));
    m.constraints = constraint_summary(&shape);
    m.cache = cache_summary(analyze.cache.as_deref(), checkpoint.outcome.label());
    m.solver = solver_summary(&run.solution, seldon.solve.threads);
    m.extraction =
        extraction_summary(&run.extraction.spec, &run.extraction.backoff_hits, &seldon.extract);
    m.taint = TaintSummary { violations: violations.len() as u64 };
    m.memory = memory_summary();
    fill_metrics(&mut m, analyzed, run, analyze, report);
    if seldon.score_dump {
        m.score_dump = score_dump(run);
    }
    m
}

/// The manifest's `constraints` section for a system of shape `s`.
pub fn constraint_summary(s: &SystemSummary) -> ConstraintSummary {
    ConstraintSummary {
        total: s.constraints,
        vars: s.vars,
        pinned: s.pinned,
        by_template: s.by_template,
    }
}

/// The manifest's `solver` section for `solution`, solved on `threads`
/// threads.
pub fn solver_summary(solution: &Solution, threads: usize) -> SolverSummary {
    SolverSummary {
        iterations: solution.iterations as u64,
        restarts: solution.restarts as u64,
        diverged: solution.diverged,
        final_lr: solution.final_lr,
        objective: solution.objective,
        violation: solution.violation,
        threads: threads.max(1) as u64,
        stop_reason: solution.stop.as_str().to_string(),
        epochs_saved: solution.epochs_saved as u64,
        curve: solution.trace.clone(),
    }
}

/// The manifest's `extraction` section: the §7.1 options, the backoff
/// sweep, and the learned entries per role of `spec`.
pub fn extraction_summary(
    spec: &TaintSpec,
    backoff_hits: &[usize],
    opts: &ExtractOptions,
) -> ExtractionSummary {
    let mut learned = [0u64; 3];
    for (_, roles) in spec.iter() {
        for role in Role::ALL {
            if roles.contains(role) {
                learned[role.index()] += 1;
            }
        }
    }
    ExtractionSummary {
        thresholds: opts.thresholds,
        decay: opts.decay,
        backoff_hits: backoff_hits.iter().map(|&n| n as u64).collect(),
        learned,
    }
}

/// The manifest's `cache` section; `checkpoint` names how the solver
/// checkpoint was used. Disabled when no cache is attached.
pub fn cache_summary(cache: Option<&ArtifactCache>, checkpoint: &str) -> CacheSummary {
    let Some(cache) = cache else {
        return CacheSummary::default();
    };
    let s = cache.stats();
    CacheSummary {
        enabled: true,
        hits: s.hits,
        misses: s.misses,
        stores: s.stores,
        corrupt: s.corrupt,
        stale: s.stale,
        evicted: s.evicted,
        checkpoint: checkpoint.to_string(),
    }
}

/// The manifest's `memory` section, read now.
pub fn memory_summary() -> MemorySummary {
    MemorySummary {
        tracked: true,
        current_bytes: MemoryGauge::current_bytes(),
        peak_bytes: MemoryGauge::peak_bytes(),
        peak_rss_bytes: MemoryGauge::peak_rss_bytes().unwrap_or(0),
    }
}

/// Sets the `intern_symbols` gauge. Non-volatile: interning is
/// deterministic per corpus, so two runs over the same inputs must agree.
/// In a long-lived daemon this is the leak detector — repeated identical
/// deltas must not grow it.
pub fn set_intern_gauge(reg: &mut MetricsRegistry) {
    reg.set_gauge(
        "intern_symbols",
        "Global interner size (symbols live for the process lifetime).",
        false,
        seldon_intern::len() as f64,
    );
}

/// Representation-frequency buckets: how many backoff options a
/// representation backs across the whole graph (§4.3 cutoff input).
const REP_FREQ_BOUNDS: [f64; 10] =
    [1.0, 2.0, 3.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0];

/// Constraint-gap buckets: `lhs − rhs` per constraint under the solved
/// assignment (violation is `max(0, gap − C)`, so mass above `C` ≈ 0.75
/// means unsatisfied constraints).
const GAP_BOUNDS: [f64; 10] =
    [-1.0, -0.5, -0.25, -0.1, 0.0, 0.1, 0.25, 0.5, 0.75, 1.0];

/// Populates the manifest's metrics registry from the finished pipeline
/// artifacts. Runs once per manifest — never on the per-file hot path —
/// so the no-telemetry overhead budget is untouched.
fn fill_metrics(
    m: &mut RunManifest,
    analyzed: &AnalyzedCorpus,
    run: &SeldonRun,
    analyze: &AnalyzeOptions,
    report: &AnalysisReport,
) {
    let reg = &mut m.metrics;
    reg.inc_counter(
        "files_analyzed",
        "Files that produced a propagation graph (ok + recovered).",
        false,
        (report.ok() + report.recovered()) as f64,
    );
    set_intern_gauge(reg);
    // Representation frequency distribution over the union graph: every
    // rep counted once per backoff option it appears in. Present even
    // when empty so `validate_manifest --require-full` can demand it.
    let mut rep_freq = seldon_telemetry::Histogram::new(&REP_FREQ_BOUNDS);
    for &count in analyzed.graph.rep_frequency_counts().iter().filter(|&&c| c > 0) {
        rep_freq.observe(count as f64);
    }
    reg.put_histogram(
        "rep_frequency",
        "Occurrences per representation across all backoff options (§4.3).",
        false,
        rep_freq,
    );
    // Constraint gaps under the solved assignment. A full checkpoint hit
    // replays outputs without rebuilding the system, so the distribution
    // is unavailable (and the metric absent) on that path.
    if !run.system.constraints.is_empty()
        && run.solution.scores.len() >= run.system.var_count()
    {
        for c in &run.system.constraints {
            reg.observe(
                "constraint_gap",
                "Per-constraint lhs−rhs under the solved scores (violated above C).",
                false,
                &GAP_BOUNDS,
                constraint_gap(c, &run.solution.scores),
            );
        }
    }
    if !analyzed.build_histogram.is_empty() {
        reg.put_histogram(
            "build_time_us",
            "Per-file graph-construction time (µs), analyzed files only.",
            true,
            analyzed.build_histogram.clone(),
        );
    }
    // Solver epoch timing and CSR occupancy. Rows/lanes come from the
    // compile child span; checkpoint-served solves never compiled and
    // simply omit them.
    if run.solution.iterations > 0 {
        reg.set_gauge(
            "solver_epoch_us",
            "Mean wall-clock per solver epoch (µs).",
            true,
            run.solve_time.as_micros() as f64 / run.solution.iterations as f64,
        );
        reg.set_gauge(
            "solver_iterations",
            "Projected-Adam epochs run (or replayed) this run.",
            false,
            run.solution.iterations as f64,
        );
        reg.set_gauge(
            "solver_stop_reason",
            "Stop-reason code (0 max_iters, 1 stall, 2 plateau, 3 diverged, \
             4 invalid_options).",
            false,
            run.solution.stop.code() as f64,
        );
        reg.set_gauge(
            "solver_epochs_saved",
            "Epochs the convergence exit saved against the max_iters budget.",
            false,
            run.solution.epochs_saved as f64,
        );
    }
    if let Some(compile) = m.stages.iter().find(|s| s.name == stage::COMPILE) {
        for (key, gauge, help) in [
            ("rows", "solver_rows", "CSR rows after compilation."),
            ("lanes", "solver_lanes", "SIMD lanes occupied by the CSR kernel."),
        ] {
            if let Some(&(_, v)) = compile.counters.iter().find(|(k, _)| k == key) {
                reg.set_gauge(gauge, help, false, v);
            }
        }
    }
    if let Some(cache) = analyze.cache.as_deref() {
        let s = cache.stats();
        let faults = s.corrupt + s.stale + s.evicted;
        for (name, help, v) in [
            ("cache_hits", "Artifact lookups served from the cache.", s.hits),
            ("cache_misses", "Artifact lookups that recomputed from source.", s.misses),
            ("cache_stores", "Entries written (artifacts + checkpoints).", s.stores),
            ("cache_faults", "Contained cache faults (corrupt + stale + evicted).", faults),
            ("cache_bytes_read", "Decoded payload bytes served by hits.", s.bytes_read),
            ("cache_bytes_written", "Encoded frame bytes written by stores.", s.bytes_written),
        ] {
            reg.inc_counter(name, help, true, v as f64);
        }
        let lookups = s.hits + s.misses;
        if lookups > 0 {
            reg.set_gauge(
                "cache_hit_rate",
                "hits / (hits + misses) for artifact lookups.",
                true,
                s.hits as f64 / lookups as f64,
            );
        }
    }
}

/// The Fig. 11 dataset: every learned `(rep, role)` with its effective
/// score and winning backoff level, in deterministic (rep, role) order.
fn score_dump(run: &SeldonRun) -> Vec<ScoreDumpEntry> {
    let mut entries: Vec<ScoreDumpEntry> = run
        .extraction
        .scores
        .iter()
        .map(|(&(rep, role), &score)| ScoreDumpEntry {
            rep: rep.as_str().to_string(),
            role: role.short().to_string(),
            score,
            backoff_level: u64::from(
                run.extraction.levels.get(&(rep, role)).copied().unwrap_or(0),
            ),
        })
        .collect();
    entries.sort_by(|a, b| a.rep.cmp(&b.rep).then_with(|| a.role.cmp(&b.role)));
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::FaultPolicy;
    use seldon_corpus::{generate_corpus, CorpusOptions, Universe};

    fn small_corpus() -> (Corpus, TaintSpec) {
        let universe = Universe::new();
        let corpus = generate_corpus(
            &universe,
            &CorpusOptions { projects: 6, ..Default::default() },
        );
        let seed = universe.seed_spec();
        (corpus, seed)
    }

    #[test]
    fn disabled_telemetry_produces_no_manifest() {
        let (corpus, seed) = small_corpus();
        let full = run_full(
            &corpus,
            &seed,
            "learn",
            &AnalyzeOptions::default(),
            &SeldonOptions::default(),
        )
        .unwrap();
        assert!(full.manifest.is_none());
        assert!(full.run.system.constraint_count() > 0);
    }

    #[test]
    fn recording_run_emits_complete_manifest() {
        let (corpus, seed) = small_corpus();
        let opts = AnalyzeOptions {
            policy: FaultPolicy::Recover,
            threads: 2,
            telemetry: Telemetry::recording(),
            ..Default::default()
        };
        let full =
            run_full(&corpus, &seed, "learn", &opts, &SeldonOptions::default()).unwrap();
        let m = full.manifest.expect("recording handle yields a manifest");
        assert!(m.has_all_stages(), "stages: {:?}",
            m.stages.iter().map(|s| s.name.clone()).collect::<Vec<_>>());
        assert!(!m.solver.curve.is_empty(), "default stride traces the solver");
        assert_eq!(
            m.constraints.by_template.iter().sum::<u64>(),
            m.constraints.total
        );
        assert_eq!(m.corpus.files, corpus.file_count() as u64);
        assert_eq!(m.outcomes.ok, corpus.file_count() as u64);
        // Every parsed file lands in exactly one parse-time bucket, tagged
        // by the frontend that parsed it (all Python here).
        assert_eq!(m.parse_histograms.len(), 1);
        assert_eq!(m.parse_histograms[0].frontend, "python");
        assert_eq!(m.parse_histograms[0].total(), corpus.file_count() as u64);
        // The manifest round-trips through its JSON form losslessly.
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
    }
}
