//! The resident incremental analysis engine behind `seldon serve`.
//!
//! [`ServeEngine`] keeps the whole learned state of a corpus in memory —
//! one per-file slot (graph, fingerprint, constraint fragment) per
//! tracked file plus the last solver checkpoint — and exposes one
//! operation, [`ServeEngine::apply_delta`], that moves that state to a
//! new corpus version and returns the updated specification.
//!
//! # Determinism contract
//!
//! Every delta must serve the specification a **cold batch run** (`seldon
//! learn`) over the same corpus state would print. The engine earns its
//! speed only from work that provably cannot change the output:
//!
//! * Per-file reuse is keyed by the file's content-based graph
//!   fingerprint — an unchanged fingerprint means an identical per-file
//!   graph, so the union is identical by construction.
//! * Constraint fragments are reused only when the file's slice of the
//!   §4.3 selection (`event_reps`) is unchanged; Fig. 4 rows reference
//!   only events of their own file, so an identical slice over an
//!   identical graph reproduces identical rows.
//! * The solve is warm-started from the previous score vector but
//!   accepted only when the extraction margin clears
//!   [`WarmStartOptions::min_margin`]; below it the engine re-solves
//!   cold on the same compiled system, making the output byte-identical
//!   to a batch run by construction.
//!
//! # Failure semantics
//!
//! Cache faults are contained: a damaged artifact re-parses, a damaged
//! checkpoint cold-solves. A panic inside `apply_delta` (contained by the
//! daemon) may leave the per-file table updated while the checkpoint
//! still describes the previous corpus; the `built` flag is cleared
//! first, so the next delta rebuilds from the per-file slots instead of
//! serving the stale spec.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use seldon_cache::{graph_fingerprint, input_fingerprint, Checkpoint, CheckpointLookup};
use seldon_constraints::{
    collect_rows, select, ConstraintSystem, FlowConstraint, GenStats, RepId, Selection, Template,
    Term,
};
use seldon_core::{
    analysis_cache_key, analyze_file, cache_summary, constraint_summary, default_rep_cutoff,
    extraction_summary, learn_system, memory_summary, set_intern_gauge, solver_summary,
    AnalyzeOptions, CheckpointOutcome, FileOutcome, SeldonOptions,
};
use seldon_propgraph::{FileId, PropagationGraph};
use seldon_specs::Role;
use seldon_specs::TaintSpec;
use seldon_telemetry::manifest::{stage, CorpusShape, OutcomeCounts, RunManifest, TaintSummary};

/// Configuration fixed for the lifetime of a [`ServeEngine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The seed specification pinning known roles (§3).
    pub seed: TaintSpec,
    /// Per-file analysis options; `cache` (when set) persists per-file
    /// artifacts and the solver checkpoint across daemon restarts.
    pub analyze: AnalyzeOptions,
    /// Learning options. `warm_start` should normally be `Some` — the
    /// engine falls back to cold solves without it.
    pub seldon: SeldonOptions,
    /// When true, the §4.3 cutoff follows the `seldon learn` CLI default
    /// ([`default_rep_cutoff`]) as the corpus grows and shrinks; when
    /// false, `seldon.gen.rep_cutoff` is used as-is.
    pub dynamic_cutoff: bool,
}

/// One tracked corpus file.
#[derive(Debug)]
struct FileState {
    /// Artifact-cache key of the current content (for eviction).
    cache_key: u64,
    /// The per-file propagation graph; `None` when quarantined.
    graph: Option<PropagationGraph>,
    /// The [`FileId`] the graph's events currently carry. Graphs arrive
    /// stamped `FileId(0)` and are restamped in corpus order on rebuild.
    stamped: u32,
    /// Content-based fingerprint of the graph **at stamp `FileId(0)`**.
    /// [`graph_fingerprint`] hashes the stamp, so fingerprints are only
    /// comparable at the same stamp; the engine computes them once on
    /// the freshly analyzed graph and never after restamping.
    graph_fp: u64,
    /// Per-file verdict, kept for the served manifest.
    outcome: FileOutcome,
    /// Reusable constraint fragment from the last rebuild.
    frag: Option<Fragment>,
}

/// A constraint row with variables resolved to `(representation, role)`
/// keys instead of system-local [`seldon_constraints::VarId`]s, so it can
/// be re-anchored into a freshly selected system.
#[derive(Debug)]
struct SymRow {
    template: Template,
    lhs: Vec<(RepId, Role, f64)>,
    rhs: Vec<(RepId, Role, f64)>,
}

/// The per-file constraint fragment: the selection slice it was collected
/// under plus the symbolized Fig. 4a/4b and Fig. 4c rows.
#[derive(Debug)]
struct Fragment {
    /// The file's `event_reps` slice at collection time. Fragment reuse
    /// requires the current slice to compare equal.
    sel: Vec<Option<Vec<RepId>>>,
    ab: Vec<SymRow>,
    c: Vec<SymRow>,
}

impl Fragment {
    /// Symbolizes freshly collected rows against the system that
    /// collected them.
    fn capture(
        sel: &[Option<Vec<RepId>>],
        ab: &[FlowConstraint],
        c: &[FlowConstraint],
        sys: &ConstraintSystem,
    ) -> Fragment {
        let side = |terms: &[Term]| {
            terms
                .iter()
                .map(|t| {
                    let (rep, role) = sys.var_info(t.var);
                    (rep, role, t.coeff)
                })
                .collect()
        };
        let rows = |rows: &[FlowConstraint]| {
            rows.iter()
                .map(|r| SymRow { template: r.template, lhs: side(&r.lhs), rhs: side(&r.rhs) })
                .collect()
        };
        Fragment { sel: sel.to_vec(), ab: rows(ab), c: rows(c) }
    }

    /// Re-anchors the fragment's rows into `sys`. Returns `None` when any
    /// `(rep, role)` key is absent from the new system — the caller falls
    /// back to collecting the file's rows from scratch.
    fn remap(&self, sys: &ConstraintSystem) -> Option<(Vec<FlowConstraint>, Vec<FlowConstraint>)> {
        let side = |terms: &[(RepId, Role, f64)]| {
            terms
                .iter()
                .map(|&(rep, role, coeff)| {
                    sys.lookup_var(rep, role).map(|var| Term { var, coeff })
                })
                .collect::<Option<Vec<Term>>>()
        };
        let rows = |rows: &[SymRow]| {
            rows.iter()
                .map(|r| {
                    Some(FlowConstraint {
                        lhs: side(&r.lhs)?,
                        rhs: side(&r.rhs)?,
                        template: r.template,
                    })
                })
                .collect::<Option<Vec<FlowConstraint>>>()
        };
        Some((rows(&self.ab)?, rows(&self.c)?))
    }
}

/// A corpus delta: files to start tracking, re-analyze, or drop.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    /// New files with their contents.
    pub add: Vec<(PathBuf, String)>,
    /// Tracked files with replacement contents.
    pub change: Vec<(PathBuf, String)>,
    /// Tracked files to drop (their cache artifacts are evicted).
    pub remove: Vec<PathBuf>,
}

impl Delta {
    /// Whether the delta names no files at all.
    pub fn is_empty(&self) -> bool {
        self.add.is_empty() && self.change.is_empty() && self.remove.is_empty()
    }
}

/// What one [`ServeEngine::apply_delta`] call did and served.
#[derive(Debug, Clone)]
pub struct DeltaOutcome {
    /// The served specification text (canonical [`TaintSpec::to_text`]).
    pub spec: String,
    /// How the spec was obtained: `"noop"` (empty delta), `"unchanged"`
    /// (edits left every graph fingerprint intact), `"replayed"` (input
    /// fingerprint matched the checkpoint), `"scores"` (system
    /// fingerprint matched; extraction re-ran on stored scores),
    /// `"warm"` (margin-accepted warm solve), or `"cold"`.
    pub solve: &'static str,
    /// Files tracked after the delta.
    pub files: usize,
    /// Events in the unioned graph after the delta.
    pub events: usize,
    /// Edges in the unioned graph after the delta.
    pub edges: usize,
    /// Files re-analyzed by this delta (adds + changes).
    pub reparsed: usize,
    /// Files dropped by this delta.
    pub removed: usize,
    /// Cache artifacts evicted for dropped files.
    pub evicted: usize,
    /// Per-file fragments reused structurally (no re-collection).
    pub fragments_reused: usize,
    /// Per-file fragments re-collected from the graph.
    pub fragments_collected: usize,
    /// Constraints in the solved system (0 on reuse fast paths).
    pub constraints: usize,
    /// Role variables in the solved system (0 on reuse fast paths).
    pub vars: usize,
    /// Entries in the served specification.
    pub learned_entries: usize,
    /// Extraction margin of the warm solution, when one was attempted.
    pub warm_margin: Option<f64>,
    /// Contained cache faults hit during the delta.
    pub faults: Vec<String>,
    /// Wall-clock of the whole delta.
    pub elapsed: Duration,
}

/// A rejected delta; the engine state is unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The delta was internally inconsistent (duplicate path) or named
    /// files inconsistent with the tracked corpus (adding a tracked
    /// file, changing or removing an untracked one).
    Validation(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Validation(msg) => write!(f, "invalid delta: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Monotonic counters over a [`ServeEngine`]'s lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Deltas accepted (including fast-path ones).
    pub deltas: usize,
    /// Empty deltas served from the cached spec.
    pub noops: usize,
    /// Change-only deltas whose graphs were fingerprint-identical.
    pub unchanged: usize,
    /// Full rebuilds (union + selection re-ran).
    pub rebuilds: usize,
    /// Rebuilds short-circuited by an input-fingerprint match.
    pub replays: usize,
    /// Solves skipped via a system-fingerprint score hit.
    pub solves_scores: usize,
    /// Warm solves accepted by the margin guard.
    pub solves_warm: usize,
    /// Cold solves (including margin-rejected warm attempts).
    pub solves_cold: usize,
    /// Files re-analyzed across all deltas.
    pub reparsed: usize,
    /// Files dropped across all deltas.
    pub removed: usize,
    /// Cache artifacts evicted across all deltas.
    pub evicted: usize,
    /// Fragments reused structurally across all rebuilds.
    pub fragments_reused: usize,
    /// Fragments re-collected across all rebuilds.
    pub fragments_collected: usize,
}

/// The resident incremental engine. See the module docs for the
/// determinism contract.
pub struct ServeEngine {
    cfg: EngineConfig,
    /// Tracked files in corpus order ([`PathBuf`] ordering matches the
    /// sorted file list `seldon learn` analyzes, so [`FileId`]s — and
    /// with them every fingerprint — agree with a batch run).
    files: BTreeMap<PathBuf, FileState>,
    /// The last finished build (also persisted via the artifact cache).
    ckpt: Option<Checkpoint>,
    /// Whether `ckpt` describes exactly the current `files` table.
    built: bool,
    last_events: usize,
    last_edges: usize,
    last_solve: &'static str,
    counters: ServeCounters,
}

impl ServeEngine {
    /// Creates an engine with no tracked files. When the config carries a
    /// cache, a persisted checkpoint is loaded eagerly so the first delta
    /// can replay or warm-start across a daemon restart.
    pub fn new(cfg: EngineConfig) -> ServeEngine {
        let ckpt = match cfg.analyze.cache.as_deref().map(|c| c.load_checkpoint()) {
            Some(CheckpointLookup::Hit(ckpt)) => Some(*ckpt),
            _ => None,
        };
        ServeEngine {
            cfg,
            files: BTreeMap::new(),
            ckpt,
            built: false,
            last_events: 0,
            last_edges: 0,
            last_solve: "cold",
            counters: ServeCounters::default(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Files currently tracked.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// The current specification text, if a build has completed.
    pub fn spec(&self) -> Option<&str> {
        self.ckpt.as_ref().map(|c| c.spec_text.as_str())
    }

    /// Lifetime counters.
    pub fn counters(&self) -> ServeCounters {
        self.counters
    }

    /// How the last delta obtained its spec.
    pub fn last_solve(&self) -> &'static str {
        self.last_solve
    }

    /// Applies a corpus delta and returns the updated specification.
    /// On `Err` the engine state is untouched.
    pub fn apply_delta(&mut self, delta: &Delta) -> Result<DeltaOutcome, EngineError> {
        let t0 = Instant::now();
        self.validate(delta)?;
        self.counters.deltas += 1;
        let mut faults = Vec::new();

        // Empty delta against a finished build: true no-op.
        if delta.is_empty() && self.built {
            self.counters.noops += 1;
            return Ok(self.reuse_outcome("noop", t0, 0, 0, 0, faults));
        }

        // From here the corpus may change shape; a panic below must not
        // leave `built` claiming the checkpoint matches the file table.
        // (A checkpoint loaded from disk on startup starts with `built ==
        // false` — it only becomes servable through a rebuild, where the
        // input fingerprint proves it matches the tracked corpus.)
        let was_built = self.built;
        self.built = false;

        // Removes: drop the slot and evict its cache artifact.
        let removed = delta.remove.len();
        let mut evicted = 0usize;
        for path in &delta.remove {
            let state = self.files.remove(path).expect("validated remove");
            if let Some(cache) = self.cfg.analyze.cache.as_deref() {
                if cache.evict(state.cache_key) {
                    evicted += 1;
                }
            }
        }
        self.counters.removed += removed;
        self.counters.evicted += evicted;

        // Adds and changes: analyze at stamp FileId(0) and fingerprint
        // there (the stamp is part of the fingerprint, so per-file
        // fingerprints are always compared at stamp 0).
        let reparsed = delta.add.len() + delta.change.len();
        self.counters.reparsed += reparsed;
        let mut structural = removed > 0 || !delta.add.is_empty();
        for (path, content) in delta.add.iter().chain(delta.change.iter()) {
            let display = path.display().to_string();
            let analysis = analyze_file(&display, content, FileId(0), &self.cfg.analyze);
            for fault in &analysis.faults {
                faults.push(format!("{display}: {fault}"));
            }
            let graph_fp = analysis.graph.as_ref().map_or(0, graph_fingerprint);
            let cache_key = analysis_cache_key(&display, content, &self.cfg.analyze);
            match self.files.get_mut(path) {
                Some(slot) if slot.graph_fp == graph_fp => {
                    // The edit left the graph identical (e.g. a comment
                    // or formatting change): keep the restamped graph and
                    // its fragment, refresh the bookkeeping.
                    slot.cache_key = cache_key;
                    slot.outcome = analysis.outcome;
                }
                Some(slot) => {
                    structural = true;
                    *slot = FileState {
                        cache_key,
                        graph: analysis.graph,
                        stamped: 0,
                        graph_fp,
                        outcome: analysis.outcome,
                        frag: None,
                    };
                }
                None => {
                    self.files.insert(
                        path.clone(),
                        FileState {
                            cache_key,
                            graph: analysis.graph,
                            stamped: 0,
                            graph_fp,
                            outcome: analysis.outcome,
                            frag: None,
                        },
                    );
                }
            }
        }

        // Change-only delta with every fingerprint intact: the union —
        // and everything downstream — is unchanged by construction. Only
        // valid when the checkpoint was built (or replay-verified) against
        // this very file table.
        if !structural && was_built && self.ckpt.is_some() {
            self.built = true;
            self.counters.unchanged += 1;
            return Ok(self.reuse_outcome("unchanged", t0, reparsed, removed, evicted, faults));
        }

        self.rebuild(t0, reparsed, removed, evicted, faults)
    }

    /// Rejects inconsistent deltas before any state changes.
    fn validate(&self, delta: &Delta) -> Result<(), EngineError> {
        let mut seen: std::collections::BTreeSet<&std::path::Path> =
            std::collections::BTreeSet::new();
        fn claim<'a>(
            seen: &mut std::collections::BTreeSet<&'a std::path::Path>,
            path: &'a std::path::Path,
        ) -> Result<(), EngineError> {
            if !seen.insert(path) {
                return Err(EngineError::Validation(format!(
                    "path `{}` appears more than once in the delta",
                    path.display()
                )));
            }
            Ok(())
        }
        for (path, _) in &delta.add {
            claim(&mut seen, path)?;
            if self.files.contains_key(path) {
                return Err(EngineError::Validation(format!(
                    "cannot add `{}`: already tracked (use change)",
                    path.display()
                )));
            }
        }
        for (path, _) in &delta.change {
            claim(&mut seen, path)?;
            if !self.files.contains_key(path) {
                return Err(EngineError::Validation(format!(
                    "cannot change `{}`: not tracked (use add)",
                    path.display()
                )));
            }
        }
        for path in &delta.remove {
            claim(&mut seen, path)?;
            if !self.files.contains_key(path) {
                return Err(EngineError::Validation(format!(
                    "cannot remove `{}`: not tracked",
                    path.display()
                )));
            }
        }
        Ok(())
    }

    /// Serves the checkpointed spec without rebuilding anything.
    fn reuse_outcome(
        &mut self,
        label: &'static str,
        t0: Instant,
        reparsed: usize,
        removed: usize,
        evicted: usize,
        faults: Vec<String>,
    ) -> DeltaOutcome {
        let ckpt = self.ckpt.as_ref().expect("reuse requires a checkpoint");
        self.last_solve = label;
        DeltaOutcome {
            spec: ckpt.spec_text.clone(),
            solve: label,
            files: self.files.len(),
            events: self.last_events,
            edges: self.last_edges,
            reparsed,
            removed,
            evicted,
            fragments_reused: 0,
            fragments_collected: 0,
            constraints: ckpt.summary.constraints as usize,
            vars: ckpt.summary.vars as usize,
            learned_entries: TaintSpec::parse(&ckpt.spec_text)
                .map(|s| s.role_count())
                .unwrap_or(0),
            warm_margin: None,
            faults,
            elapsed: t0.elapsed(),
        }
    }

    /// The effective learning options for the current corpus size.
    fn effective_seldon(&self) -> SeldonOptions {
        let mut seldon = self.cfg.seldon.clone();
        if self.cfg.dynamic_cutoff {
            seldon.gen.rep_cutoff = default_rep_cutoff(self.files.len());
        }
        seldon
    }

    /// Union → select → collect/remap, then the shared learn path
    /// ([`learn_system`]: solve ladder → extract → checkpoint).
    fn rebuild(
        &mut self,
        t0: Instant,
        reparsed: usize,
        removed: usize,
        evicted: usize,
        mut faults: Vec<String>,
    ) -> Result<DeltaOutcome, EngineError> {
        let tele = self.cfg.analyze.telemetry.clone();
        let seldon = self.effective_seldon();
        self.counters.rebuilds += 1;

        // Restamp per-file graphs to their corpus-order FileId, then
        // union by reference. Restamping happens before fingerprint use
        // ever again — per-file fingerprints were taken at stamp 0 and
        // are never recomputed here.
        let t_union = Instant::now();
        for (index, state) in self.files.values_mut().enumerate() {
            if let Some(graph) = state.graph.as_mut() {
                if state.stamped != index as u32 {
                    graph.restamp_file(FileId(index as u32));
                    state.stamped = index as u32;
                }
            }
        }
        let total_events: usize =
            self.files.values().map(|s| s.graph.as_ref().map_or(0, |g| g.event_count())).sum();
        let mut union = PropagationGraph::new();
        union.reserve_events(total_events);
        let mut ranges: Vec<Range<usize>> = Vec::with_capacity(self.files.len());
        for state in self.files.values() {
            let start = union.event_count();
            if let Some(graph) = state.graph.as_ref() {
                union.union(graph);
            }
            ranges.push(start..union.event_count());
        }
        self.last_events = union.event_count();
        self.last_edges = union.edge_count();
        tele.aggregate_span(
            stage::UNION,
            t_union.elapsed(),
            &[
                ("events", union.event_count() as f64),
                ("edges", union.edge_count() as f64),
                ("files", self.files.len() as f64),
            ],
        );

        // Full replay: the corpus state hashes to exactly what the
        // checkpoint was built from (e.g. an edit was reverted, or the
        // daemon restarted over an unchanged corpus).
        let union_fp = graph_fingerprint(&union);
        let input_fp =
            input_fingerprint(union_fp, &self.cfg.seed, &seldon.gen, &seldon.solve, &seldon.extract);
        if self.ckpt.as_ref().is_some_and(|c| c.input_fp == input_fp) {
            self.built = true;
            self.counters.replays += 1;
            return Ok(self.reuse_outcome("replayed", t0, reparsed, removed, evicted, faults));
        }

        // §4.3 selection is global (corpus-wide frequency counts) and
        // always re-runs; what it yields decides per-file row reuse.
        let Selection { sys: mut system, event_reps, stats } = select(&union, &self.cfg.seed, &seldon.gen);

        // Fig. 4 rows per file: reuse the stored fragment when the
        // file's selection slice is unchanged, re-collect otherwise.
        // Batch order is all 4a/4b rows file-ordered, then all 4c rows
        // file-ordered — exactly `generate`'s order.
        let t_collect = Instant::now();
        let mut ab_pool: Vec<FlowConstraint> = Vec::new();
        let mut c_pool: Vec<FlowConstraint> = Vec::new();
        let mut reused = 0usize;
        let mut collected = 0usize;
        for (state, range) in self.files.values_mut().zip(&ranges) {
            if range.is_empty() {
                state.frag = None;
                continue;
            }
            let slice = &event_reps[range.clone()];
            let remapped = state
                .frag
                .as_ref()
                .filter(|frag| frag.sel == slice)
                .and_then(|frag| frag.remap(&system));
            match remapped {
                Some((ab, c)) => {
                    reused += 1;
                    ab_pool.extend(ab);
                    c_pool.extend(c);
                }
                None => {
                    let (ab, c) =
                        collect_rows(&union, &system, &event_reps, &seldon.gen, range.clone());
                    state.frag = Some(Fragment::capture(slice, &ab, &c, &system));
                    collected += 1;
                    ab_pool.extend(ab);
                    c_pool.extend(c);
                }
            }
        }
        for row in ab_pool.into_iter().chain(c_pool) {
            system.add_constraint(row);
        }
        self.counters.fragments_reused += reused;
        self.counters.fragments_collected += collected;
        let gen_stats = GenStats { collect_time: t_collect.elapsed(), ..stats };

        let fragments =
            [("fragments_reused", reused as f64), ("fragments_collected", collected as f64)];
        let learned = learn_system(
            &system,
            &gen_stats,
            Some(input_fp),
            self.ckpt.as_ref(),
            &seldon,
            &tele,
            &fragments,
        );
        let label = match learned.rung {
            CheckpointOutcome::HitScores => {
                self.counters.solves_scores += 1;
                "scores"
            }
            CheckpointOutcome::HitWarm => {
                self.counters.solves_warm += 1;
                "warm"
            }
            _ => {
                self.counters.solves_cold += 1;
                "cold"
            }
        };
        let ckpt = learned.checkpoint.expect("an input fingerprint packs a checkpoint");
        if let Some(cache) = self.cfg.analyze.cache.as_deref() {
            if let Some(fault) = cache.store_checkpoint(&ckpt) {
                faults.push(format!("checkpoint store: {fault}"));
            }
        }
        let spec_text = ckpt.spec_text.clone();
        let learned_entries = learned.extraction.spec.role_count();
        let (constraints, vars) = (system.constraint_count(), system.var_count());
        self.ckpt = Some(ckpt);
        self.built = true;
        self.last_solve = label;
        Ok(DeltaOutcome {
            spec: spec_text,
            solve: label,
            files: self.files.len(),
            events: self.last_events,
            edges: self.last_edges,
            reparsed,
            removed,
            evicted,
            fragments_reused: reused,
            fragments_collected: collected,
            constraints,
            vars,
            learned_entries,
            warm_margin: learned.warm_margin,
            faults,
            elapsed: t0.elapsed(),
        })
    }

    /// Assembles a `mode: "served-incremental"` run manifest describing
    /// the engine's current state. Drains the telemetry recorder.
    pub fn manifest(&self, command: &str) -> RunManifest {
        let mut m = RunManifest::new(command);
        m.mode = "served-incremental".to_string();
        m.corpus = CorpusShape {
            files: self.files.len() as u64,
            projects: 1,
            events: self.last_events as u64,
            edges: self.last_edges as u64,
            symbols: seldon_intern::len() as u64,
        };
        let mut outcomes = OutcomeCounts::default();
        for state in self.files.values() {
            match state.outcome {
                FileOutcome::Ok => outcomes.ok += 1,
                FileOutcome::Recovered { .. } => outcomes.recovered += 1,
                FileOutcome::Skipped { .. } => outcomes.skipped += 1,
                FileOutcome::OverBudget { .. } => outcomes.over_budget += 1,
                FileOutcome::Panicked { .. } => outcomes.panicked += 1,
            }
        }
        m.outcomes = outcomes;
        m.stages = self.cfg.analyze.telemetry.take_spans().into_iter().map(Into::into).collect();
        if let Some(ckpt) = self.ckpt.as_ref() {
            m.constraints = constraint_summary(&ckpt.summary);
            m.solver = solver_summary(&ckpt.solution(), self.cfg.seldon.solve.threads);
            let spec = TaintSpec::parse(&ckpt.spec_text).unwrap_or_default();
            m.extraction =
                extraction_summary(&spec, &ckpt.backoff_hits, &self.cfg.seldon.extract);
        }
        m.taint = TaintSummary { violations: 0 };
        m.cache = cache_summary(self.cfg.analyze.cache.as_deref(), self.last_solve);
        m.memory = memory_summary();
        self.fill_metrics(&mut m.metrics);
        m
    }

    /// Serve-specific metrics (plus the interner leak detector shared
    /// with batch manifests).
    pub fn fill_metrics(&self, reg: &mut seldon_telemetry::MetricsRegistry) {
        let c = &self.counters;
        let counter = |reg: &mut seldon_telemetry::MetricsRegistry, name, help, v: usize| {
            reg.inc_counter(name, help, false, v as f64);
        };
        counter(reg, "serve_deltas", "Corpus deltas accepted by the daemon.", c.deltas);
        counter(reg, "serve_noops", "Empty deltas served from the cached spec.", c.noops);
        counter(
            reg,
            "serve_unchanged",
            "Deltas whose edits left every graph fingerprint intact.",
            c.unchanged,
        );
        counter(reg, "serve_rebuilds", "Deltas that re-ran union and selection.", c.rebuilds);
        counter(reg, "serve_replays", "Rebuilds replayed from an input-fingerprint hit.", c.replays);
        counter(reg, "serve_solves_scores", "Solves skipped via a system-fingerprint hit.", c.solves_scores);
        counter(reg, "serve_solves_warm", "Warm solves accepted by the margin guard.", c.solves_warm);
        counter(reg, "serve_solves_cold", "Cold solves (including rejected warm attempts).", c.solves_cold);
        counter(reg, "serve_files_reparsed", "Files re-analyzed across all deltas.", c.reparsed);
        counter(reg, "serve_files_removed", "Files dropped across all deltas.", c.removed);
        counter(reg, "serve_artifacts_evicted", "Cache artifacts evicted for dropped files.", c.evicted);
        counter(reg, "serve_fragments_reused", "Constraint fragments reused structurally.", c.fragments_reused);
        counter(reg, "serve_fragments_collected", "Constraint fragments re-collected.", c.fragments_collected);
        reg.set_gauge(
            "serve_files_tracked",
            "Files tracked by the daemon after the last delta.",
            false,
            self.files.len() as f64,
        );
        // The daemon's leak detector: repeated identical deltas must not
        // grow the interner.
        set_intern_gauge(reg);
    }
}
