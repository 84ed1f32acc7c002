//! The traced run: replays each workload's seeded operations in-process,
//! with a span around every call into a layer's public function, and
//! reports the per-layer metrics.
//!
//! A staged operation makes, one by one, the calls the `seldon` binary
//! makes inside `run_full` (per-file parse, lower and build, union,
//! constraint generation, compile, solve, extract, taint), so each call
//! can carry a span; its outputs are checked against the binary's. Calls
//! that hide other layers' work (`analyze_corpus_with`, `run_full`,
//! `ServeEngine::apply_delta`) are timed whole, apart from the staged
//! operations.

use crate::corpus::{self, DeltaKind, ServeStream};
use crate::report::Outcome;
use crate::stats::median;
use crate::sys;
use crate::trace::{layer_shares, per_op_ms, Tracer};
use crate::workloads::{self, Written};
use crate::Ctx;
use seldon_cache::{ArtifactCache, ArtifactLookup};
use seldon_constraints::{generate_with_stats, GenOptions};
use seldon_core::{
    analysis_cache_key, analyze_corpus_with, run_full, AnalyzeOptions, FaultPolicy, Frontend,
    SeldonOptions, WarmStartOptions,
};
use seldon_corpus::{Corpus, Project, SourceFile};
use seldon_propgraph::{build_ir, lower_module, Budget, FileId, PropagationGraph};
use seldon_serve::{Delta, EngineConfig, ServeEngine};
use seldon_solver::{
    extract, solve_compiled, CompiledSystem, EarlyStop, ExtractOptions, SolveOptions,
};
use seldon_specs::TaintSpec;
use seldon_taint::{reports_to_json, TaintAnalyzer, TaintOptions};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Res<T> = Result<T, String>;

/// Rounds of a traced run, at most (each round replays every operation
/// once); at least one always runs.
const MAX_ROUNDS: usize = 4;
/// Deltas the traced serve run sends through the daemon to measure the
/// protocol's share of a round trip.
const PROTOCOL_DELTAS: usize = 40;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The analysis options every `seldon` command uses (lenient, default
/// budgets), at `threads`.
fn cli_analyze(threads: usize, cache: Option<Arc<ArtifactCache>>) -> AnalyzeOptions {
    AnalyzeOptions {
        policy: FaultPolicy::Recover,
        budget: Some(Budget::default()),
        threads,
        cache,
        ..Default::default()
    }
}

/// `seldon learn --solver-threads 0` on a corpus of 50 files or more.
fn cli_seldon() -> SeldonOptions {
    SeldonOptions {
        gen: GenOptions {
            rep_cutoff: 5,
            ..Default::default()
        },
        solve: SolveOptions {
            threads: nproc(),
            early_stop: Some(EarlyStop::default()),
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Per-metric samples, one per operation or round; reported as medians.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    fn finish(&self, out: &mut Outcome) {
        for (name, v) in &self.0 {
            out.set(name, median(v).unwrap_or(0.0));
        }
    }
}

/// What one staged operation produced.
#[derive(Default)]
struct Staged {
    /// The learned spec text, or the check report JSON.
    output: String,
    files: usize,
    parsed_bytes: usize,
    events: usize,
    edges: usize,
    rows: usize,
    vars: usize,
    compiled_rows: usize,
    iterations: usize,
    select_ms: f64,
    violations: usize,
}

/// The `seldon` walker: every `.py`/`.js` file under `dir`, sorted.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "py" || e == "js") {
            out.push(path);
        }
    }
    Ok(())
}

/// The `cli` layer's input side: walk, read, wrap as one project.
fn read_cli(tr: &mut Tracer, dir: &Path) -> Res<Corpus> {
    tr.span("cli.read", |_| {
        let mut paths = Vec::new();
        walk(dir, &mut paths).map_err(|e| e.to_string())?;
        paths.sort();
        let files = paths
            .iter()
            .map(|p| {
                let content = std::fs::read_to_string(p).map_err(|e| e.to_string())?;
                Ok(SourceFile {
                    path: p.display().to_string(),
                    content,
                })
            })
            .collect::<Res<Vec<_>>>()?;
        Ok(Corpus {
            projects: vec![Project {
                name: "cli".into(),
                files,
            }],
            ..Default::default()
        })
    })
}

/// The per-file fan-out, one file at a time: cache lookup, front end,
/// graph build, cache store.
fn fanout(
    tr: &mut Tracer,
    corpus: &Corpus,
    cache: Option<&AnalyzeOptions>,
    staged: &mut Staged,
) -> Res<Vec<PropagationGraph>> {
    tr.span("core.fanout", |tr| {
        let mut graphs = Vec::with_capacity(corpus.file_count());
        for (i, (_, f)) in corpus.files().enumerate() {
            let id = FileId(i as u32);
            let store = cache.map(|opts| {
                let c = opts.cache.as_deref().expect("cache options carry a cache");
                (c, analysis_cache_key(&f.path, &f.content, opts))
            });
            if let Some((c, key)) = store {
                if let ArtifactLookup::Hit(g, _) =
                    tr.span("cache.load", |_| c.load_artifact(key, id))
                {
                    graphs.push(g);
                    continue;
                }
            }
            staged.parsed_bytes += f.content.len();
            let bad = |e: seldon_pyast::FrontendError| format!("{}: {e}", f.path);
            let ir = match Frontend::of_path(&f.path) {
                Frontend::Python => {
                    let module = tr
                        .span("pyast.parse", |_| seldon_pyast::parse(&f.content))
                        .map_err(bad)?;
                    tr.span("propgraph.lower", |_| lower_module(&module))
                }
                Frontend::Js => {
                    let program = tr
                        .span("jsfront.parse", |_| seldon_jsfront::parse(&f.content))
                        .map_err(bad)?;
                    tr.span("jsfront.lower", |_| {
                        seldon_jsfront::lower_js_program(&program)
                    })
                }
            };
            let g = tr.span("propgraph.build", |_| build_ir(&ir, id));
            if let Some((c, key)) = store {
                tr.span("cache.store", |_| c.store_artifact(key, &g, 0));
            }
            graphs.push(g);
        }
        Ok(graphs)
    })
}

fn union(tr: &mut Tracer, graphs: &[PropagationGraph], staged: &mut Staged) -> PropagationGraph {
    let graph = tr.span("core.union", |_| {
        let mut graph = PropagationGraph::new();
        graph.reserve_events(graphs.iter().map(PropagationGraph::event_count).sum());
        for g in graphs {
            graph.union(g);
        }
        graph
    });
    staged.events = graph.event_count();
    staged.edges = graph.edge_count();
    graph
}

/// One `seldon learn`, staged.
fn learn_op(
    tr: &mut Tracer,
    dir: &Path,
    seed: &TaintSpec,
    cache: Option<&AnalyzeOptions>,
    out_file: &Path,
) -> Res<Staged> {
    let opts = cli_seldon();
    let mut s = Staged::default();
    tr.span("op.learn", |tr| -> Res<()> {
        let corpus = read_cli(tr, dir)?;
        s.files = corpus.file_count();
        let graphs = fanout(tr, &corpus, cache, &mut s)?;
        let graph = union(tr, &graphs, &mut s);
        let (system, stats) = tr.span("constraints.gen", |_| {
            generate_with_stats(&graph, seed, &opts.gen)
        });
        let compiled = tr.span("solver.compile", |_| CompiledSystem::compile(&system));
        let solution = tr.span("solver.solve", |_| solve_compiled(&compiled, &opts.solve));
        let extraction = tr.span("solver.extract", |_| {
            extract(&system, &solution, &ExtractOptions::default())
        });
        let violations = tr.span("taint.find", |_| {
            let mut full = seed.clone();
            full.merge(&extraction.spec);
            TaintAnalyzer::with_event_roles(&graph, &full, &extraction.event_roles)
                .find_violations()
        });
        s.output = tr.span("cli.write", |_| {
            let text = extraction.spec.to_text();
            std::fs::write(out_file, &text)
                .map(|()| text)
                .map_err(|e| e.to_string())
        })?;
        s.rows = system.constraint_count();
        s.vars = system.var_count();
        s.compiled_rows = compiled.row_count();
        s.iterations = solution.iterations;
        s.select_ms = ms(stats.select_time);
        s.violations = violations.len();
        Ok(())
    })?;
    Ok(s)
}

/// One `seldon check --format json`, staged.
fn check_op(tr: &mut Tracer, dir: &Path, spec: &TaintSpec) -> Res<Staged> {
    let mut s = Staged::default();
    tr.span("op.check", |tr| -> Res<()> {
        let corpus = read_cli(tr, dir)?;
        s.files = corpus.file_count();
        let graphs = fanout(tr, &corpus, None, &mut s)?;
        let graph = union(tr, &graphs, &mut s);
        let violations = tr.span("taint.find", |_| {
            TaintAnalyzer::with_options(
                &graph,
                spec,
                TaintOptions {
                    param_sensitive: false,
                },
            )
            .find_violations()
        });
        s.violations = violations.len();
        s.output = tr.span("cli.write", |_| reports_to_json(&violations, &graph));
        Ok(())
    })?;
    Ok(s)
}

/// `analyze_corpus_with` at one thread and at all cores, with the CPU
/// time of the all-cores call.
fn analyze_scaling(
    corpus: &Corpus,
    cache: Option<Arc<ArtifactCache>>,
    acc: &mut Samples,
) -> Res<()> {
    let t = Instant::now();
    analyze_corpus_with(corpus, &cli_analyze(1, cache.clone())).map_err(|e| e.to_string())?;
    let one = t.elapsed();
    let threads = nproc();
    let cpu = sys::cpu_time();
    let t = Instant::now();
    analyze_corpus_with(corpus, &cli_analyze(threads, cache)).map_err(|e| e.to_string())?;
    let all = t.elapsed();
    let cpu = sys::cpu_time().saturating_sub(cpu);
    acc.push("core.analyze_ms_1t", ms(one));
    acc.push("core.analyze_ms_nt", ms(all));
    acc.push(
        "core.analyze_speedup",
        one.as_secs_f64() / all.as_secs_f64(),
    );
    acc.push("core.analyze_cpu_ms", ms(cpu));
    acc.push(
        "core.analyze_efficiency",
        cpu.as_secs_f64() / (all.as_secs_f64() * threads as f64),
    );
    Ok(())
}

fn staged_counts(s: &Staged, acc: &mut Samples) {
    acc.push("cli.files", s.files as f64);
    acc.push("propgraph.events", s.events as f64);
    acc.push("propgraph.edges", s.edges as f64);
    acc.push("taint.violations", s.violations as f64);
    if s.rows > 0 {
        acc.push("constraints.rows", s.rows as f64);
        acc.push("constraints.vars", s.vars as f64);
        acc.push("constraints.select_ms", s.select_ms);
        acc.push("solver.iterations", s.iterations as f64);
        acc.push("solver.row_ratio", s.compiled_rows as f64 / s.rows as f64);
    }
}

/// Medians of the per-operation span totals, the layer self-time
/// shares, and the trace overhead.
fn span_metrics(tr: &Tracer, untraced_ms: &[f64], out: &mut Outcome) {
    let spans = tr.spans();
    for (span, metric) in [
        ("pyast.parse", "pyast.parse_ms"),
        ("jsfront.parse", "jsfront.parse_ms"),
        ("jsfront.lower", "jsfront.lower_ms"),
        ("propgraph.lower", "propgraph.lower_ms"),
        ("propgraph.build", "propgraph.build_ms"),
        ("core.union", "core.union_ms"),
        ("cache.load", "cache.load_ms"),
        ("cache.store", "cache.store_ms"),
        ("constraints.gen", "constraints.gen_ms"),
        ("solver.compile", "solver.compile_ms"),
        ("solver.solve", "solver.solve_ms"),
        ("solver.extract", "solver.extract_ms"),
        ("taint.find", "taint.find_ms"),
    ] {
        if let Some(v) = median(&per_op_ms(spans, span)) {
            out.set(metric, v);
        }
    }
    if let (Some(solve), Some(&iters)) = (
        out.metrics.get("solver.solve_ms"),
        out.metrics.get("solver.iterations"),
    ) {
        if iters > 0.0 {
            out.set("solver.ms_per_iter", solve / iters);
        }
    }
    let mut shares: Vec<(&str, f64)> = layer_shares(spans).into_iter().collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (layer, share) in &shares {
        let name = crate::report::PER_LAYER
            .iter()
            .find(|(n, _)| n.strip_suffix(".self_share") == Some(layer))
            .map(|(n, _)| *n);
        if let Some(name) = name {
            out.set(name, *share);
        }
    }
    out.lines.push(format!(
        "self-time shares: {}",
        shares
            .iter()
            .map(|(l, s)| format!("{l} {:.1}%", s * 100.0))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let traced: Vec<f64> = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.layer() == "op")
        .map(|s| ms(s.duration()))
        .collect();
    if let (Some(t), Some(u)) = (median(&traced), median(untraced_ms)) {
        out.set("trace.overhead_pct", (t - u) / u * 100.0);
    }
}

fn rounds(ctx: &Ctx) -> impl FnMut(usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    move |done| done == 0 || (done < MAX_ROUNDS && Instant::now() < deadline)
}

/// Traced `learn-cold` and `learn-warm`.
pub fn learn(ctx: &Ctx, warm: bool) -> Res<Outcome> {
    let mut out = Outcome::new();
    let w = workloads::write_corpus(ctx, &corpus::BIG, ctx.seed, ctx.work.clone(), &mut out)?;
    let spec_out = ctx.work.join("staged.txt");
    let cache_dir = ctx.work.join("cache");
    let mut edits = workloads::WarmEdits::default();
    let mut edit_it = 0u64;
    let mut next_edits = |w: &Written| -> Res<()> {
        if warm {
            edits.next(ctx, w, edit_it)?;
            edit_it += 1;
        }
        Ok(())
    };
    let cache_arg = warm.then_some(cache_dir.as_path());
    // The child learn fills the cache the staged operations then use.
    let (f, first_spec) = workloads::learn(ctx, &w, cache_arg)?;
    workloads::require_exit(&f, &[0], "seldon learn")?;
    let cache = warm.then(|| ArtifactCache::open(&cache_dir).map(|(c, _)| Arc::new(c)));
    let cache = cache.transpose().map_err(|e| e.to_string())?;
    let opts = cli_analyze(1, cache.clone());
    let cache_opts = warm.then_some(&opts);

    let (mut tr, mut quiet) = (Tracer::new(true), Tracer::new(false));
    let mut acc = Samples::default();
    let mut untraced = Vec::new();
    let mut more = rounds(ctx);
    let mut round = 0;
    while more(round) {
        next_edits(&w)?;
        let t = Instant::now();
        learn_op(&mut quiet, &w.dir, &w.seed, cache_opts, &spec_out)?;
        untraced.push(ms(t.elapsed()));

        next_edits(&w)?;
        let before = cache.as_deref().map(ArtifactCache::stats);
        tr.set_op(round as u32);
        let s = learn_op(&mut tr, &w.dir, &w.seed, cache_opts, &spec_out)?;
        staged_counts(&s, &mut acc);
        let parse_ms = per_op_ms(tr.spans(), "pyast.parse")
            .last()
            .copied()
            .unwrap_or(0.0);
        if parse_ms > 0.0 {
            acc.push(
                "pyast.mb_per_s",
                s.parsed_bytes as f64 / 1e6 / (parse_ms / 1e3),
            );
        }
        if let (Some(c), Some(b)) = (cache.as_deref(), before) {
            let a = c.stats();
            let lookups = (a.hits + a.misses - b.hits - b.misses).max(1);
            acc.push("cache.hit_ratio", (a.hits - b.hits) as f64 / lookups as f64);
            acc.push("cache.mb_read", (a.bytes_read - b.bytes_read) as f64 / 1e6);
        }
        acc.push("intern.symbols", seldon_intern::len() as f64);
        // The staged operation must learn what `seldon learn` learns on
        // the same corpus state.
        let reference = if warm {
            batch_spec(&w.dir, &w.seed)?
        } else {
            first_spec.clone()
        };
        out.check(s.output == reference, || {
            format!("staged learn {round} differs")
        });

        analyze_scaling(&read_cli(&mut quiet, &w.dir)?, cache.clone(), &mut acc)?;

        next_edits(&w)?;
        let (f, child_spec) = workloads::learn(ctx, &w, cache_arg)?;
        out.check(f.code == 0, || {
            format!("child learn {round} exited {}", f.code)
        });
        next_edits(&w)?;
        let corpus = read_cli(&mut quiet, &w.dir)?;
        let t = Instant::now();
        let full = run_full(
            &corpus,
            &w.seed,
            "learn",
            &cli_analyze(1, cache.clone()),
            &cli_seldon(),
        )
        .map_err(|e| e.to_string())?;
        acc.push("cli.overhead_ms", ms(f.wall) - ms(t.elapsed()));
        if !warm {
            out.check(child_spec == first_spec, || {
                format!("child learn {round} differs")
            });
            out.check(full.run.extraction.spec.to_text() == first_spec, || {
                format!("run_full {round} differs from seldon learn")
            });
        }
        round += 1;
    }
    acc.finish(&mut out);
    span_metrics(&tr, &untraced, &mut out);
    out.lines.push(format!("{round} traced rounds"));
    Ok(out)
}

/// The spec an uncached in-process `run_full` learns from `dir`.
fn batch_spec(dir: &Path, seed: &TaintSpec) -> Res<String> {
    let corpus = read_cli(&mut Tracer::new(false), dir)?;
    run_full_spec(&corpus, seed)
}

/// The spec an uncached in-process `run_full` learns from `files`.
fn batch_spec_of(files: Vec<(PathBuf, String)>, seed: &TaintSpec) -> Res<String> {
    let files = files
        .into_iter()
        .map(|(p, content)| SourceFile {
            path: p.display().to_string(),
            content,
        })
        .collect();
    run_full_spec(
        &Corpus {
            projects: vec![Project {
                name: "cli".into(),
                files,
            }],
            ..Default::default()
        },
        seed,
    )
}

fn run_full_spec(corpus: &Corpus, seed: &TaintSpec) -> Res<String> {
    let full = run_full(
        corpus,
        seed,
        "learn",
        &cli_analyze(nproc(), None),
        &cli_seldon(),
    )
    .map_err(|e| e.to_string())?;
    Ok(full.run.extraction.spec.to_text())
}

/// Traced `check-js`.
pub fn check(ctx: &Ctx) -> Res<Outcome> {
    let mut out = Outcome::new();
    let w = workloads::write_corpus(ctx, &corpus::BIG_JS, ctx.seed, ctx.work.clone(), &mut out)?;
    let spec = corpus::truth_spec(&ctx.universe);
    let spec_file = ctx.work.join("truth_spec.txt");
    std::fs::write(&spec_file, spec.to_text()).map_err(|e| e.to_string())?;
    let args = [
        "check",
        w.dir.to_str().expect("UTF-8"),
        "--spec",
        spec_file.to_str().expect("UTF-8"),
        "--format",
        "json",
    ];

    let (mut tr, mut quiet) = (Tracer::new(true), Tracer::new(false));
    let mut acc = Samples::default();
    let mut untraced = Vec::new();
    let mut more = rounds(ctx);
    let mut round = 0;
    while more(round) {
        let t = Instant::now();
        check_op(&mut quiet, &w.dir, &spec)?;
        untraced.push(ms(t.elapsed()));

        tr.set_op(round as u32);
        let s = check_op(&mut tr, &w.dir, &spec)?;
        staged_counts(&s, &mut acc);
        acc.push("intern.symbols", seldon_intern::len() as f64);

        let corpus = read_cli(&mut quiet, &w.dir)?;
        analyze_scaling(&corpus, None, &mut acc)?;

        let f = ctx
            .seldon
            .run(&args)
            .map_err(|e| format!("seldon check: {e}"))?;
        out.check(
            matches!(f.code, 0 | 1) && f.stdout.trim_end() == s.output,
            || format!("staged check {round} differs from seldon check"),
        );
        // The in-process equivalent of the check command.
        let t = Instant::now();
        let (analyzed, _) =
            analyze_corpus_with(&corpus, &cli_analyze(1, None)).map_err(|e| e.to_string())?;
        let v = TaintAnalyzer::with_options(
            &analyzed.graph,
            &spec,
            TaintOptions {
                param_sensitive: false,
            },
        )
        .find_violations();
        let json = reports_to_json(&v, &analyzed.graph);
        acc.push("cli.overhead_ms", ms(f.wall) - ms(t.elapsed()));
        out.check(json == s.output, || {
            format!("in-process check {round} differs")
        });
        round += 1;
    }
    acc.finish(&mut out);
    span_metrics(&tr, &untraced, &mut out);
    out.lines.push(format!("{round} traced rounds"));
    Ok(out)
}

/// The engine `seldon serve --solver-threads 0` builds (no cache, warm
/// starts on, cutoff following the corpus size).
fn cli_engine(seed: &TaintSpec) -> ServeEngine {
    let mut seldon = cli_seldon();
    seldon.warm_start = Some(WarmStartOptions::default());
    ServeEngine::new(EngineConfig {
        seed: seed.clone(),
        analyze: cli_analyze(1, None),
        seldon,
        dynamic_cutoff: true,
    })
}

/// Traced `serve-edits`: every session's seeded delta stream, as the
/// untraced run sends it, applied to an in-process engine (spans around
/// `apply_delta`, plus a separate per-file front-end pass over each
/// delta's file); then the first session's first deltas sent to a
/// `seldon serve` daemon for the protocol cost.
pub fn serve(ctx: &Ctx) -> Res<Outcome> {
    let mut out = Outcome::new();
    let per_session =
        workloads::serve_edits_target(ctx.seconds).div_ceil(workloads::SERVE_SESSIONS);
    let mut acc = Samples::default();
    let mut tr = Tracer::new(true);
    let mut rungs: BTreeMap<&'static str, usize> = BTreeMap::new();
    let (mut warm_tries, mut warm_ok, mut reused, mut fragments) = (0usize, 0usize, 0usize, 0usize);
    let (mut engine_ms, mut edit_ms, mut cosmetic_ms) = (0.0, Vec::new(), Vec::new());
    let (mut n, mut symbols_added, mut parsed_bytes) = (0usize, 0usize, 0usize);
    let mut first = None;
    for i in 0..workloads::SERVE_SESSIONS {
        let seed = workloads::session_seed(ctx.seed, i);
        let w = workloads::write_corpus(
            ctx,
            &corpus::SERVE,
            seed,
            workloads::session_home(ctx, i),
            &mut out,
        )?;
        let mut engine = cli_engine(&w.seed);
        engine
            .apply_delta(&Delta {
                add: w.files.clone(),
                ..Default::default()
            })
            .map_err(|e| e.to_string())?;
        let symbols_after_build = seldon_intern::len();
        analyze_scaling(&read_cli(&mut Tracer::new(false), &w.dir)?, None, &mut acc)?;
        let mut stream = ServeStream::new(&ctx.universe, seed, w.files.clone());
        let mut edits = 0;
        while edits < per_session {
            let d = stream.next_delta();
            let delta = Delta {
                add: d.add.clone(),
                change: d.change.clone(),
                remove: d.remove.clone(),
            };
            tr.set_op(n as u32);
            let start = Instant::now();
            let o = tr
                .span("op.delta", |tr| {
                    tr.span("serve.apply_delta", |_| engine.apply_delta(&delta))
                })
                .map_err(|e| format!("delta {n}: {e}"))?;
            let took = ms(start.elapsed());
            match d.kind {
                DeltaKind::Edit => {
                    edit_ms.push(took);
                    edits += 1;
                }
                DeltaKind::Cosmetic => cosmetic_ms.push(took),
            }
            engine_ms += ms(o.elapsed);
            *rungs.entry(o.solve).or_default() += 1;
            if o.warm_margin.is_some() {
                warm_tries += 1;
                warm_ok += usize::from(o.solve == "warm");
            }
            reused += o.fragments_reused;
            fragments += o.fragments_reused + o.fragments_collected;
            acc.push("propgraph.events", o.events as f64);
            acc.push("propgraph.edges", o.edges as f64);
            acc.push("constraints.rows", o.constraints as f64);
            acc.push("constraints.vars", o.vars as f64);
            acc.push("cli.files", o.files as f64);
            // The front end's share of the delta, replayed on its own.
            for (path, content) in d.add.iter().chain(&d.change) {
                parsed_bytes += content.len();
                tr.span("pass.frontend", |tr| -> Res<()> {
                    let m = tr
                        .span("pyast.parse", |_| seldon_pyast::parse(content))
                        .map_err(|e| format!("{}: {e}", path.display()))?;
                    let ir = tr.span("propgraph.lower", |_| lower_module(&m));
                    tr.span("propgraph.build", |_| build_ir(&ir, FileId(0)));
                    Ok(())
                })?;
            }
            n += 1;
        }
        symbols_added += seldon_intern::len() - symbols_after_build;
        let batch = batch_spec_of(stream.files(), &w.seed)?;
        out.check(engine.spec() == Some(batch.as_str()), || {
            format!("session {i}: in-process served spec differs from run_full on the final corpus")
        });
        first.get_or_insert(w);
    }
    for (rung, metric) in [
        ("noop", "serve.rung.noop"),
        ("unchanged", "serve.rung.unchanged"),
        ("replayed", "serve.rung.replayed"),
        ("scores", "serve.rung.scores"),
        ("warm", "serve.rung.warm"),
        ("cold", "serve.rung.cold"),
    ] {
        out.set(
            metric,
            rungs.get(rung).copied().unwrap_or(0) as f64 / n as f64,
        );
    }
    if warm_tries > 0 {
        out.set(
            "serve.warm_accept_ratio",
            warm_ok as f64 / warm_tries as f64,
        );
    }
    if fragments > 0 {
        out.set(
            "serve.fragment_reuse_ratio",
            reused as f64 / fragments as f64,
        );
    }
    out.set("serve.apply_edit_ms", median(&edit_ms).unwrap_or(0.0));
    out.set(
        "serve.apply_cosmetic_ms",
        median(&cosmetic_ms).unwrap_or(0.0),
    );
    out.set("intern.symbols", seldon_intern::len() as f64);
    out.set("intern.growth_per_delta", symbols_added as f64 / n as f64);
    let parse_ms: f64 = tr
        .spans()
        .iter()
        .filter(|s| s.name == "pyast.parse")
        .map(|s| ms(s.duration()))
        .sum();
    if parse_ms > 0.0 {
        out.set(
            "pyast.mb_per_s",
            parsed_bytes as f64 / 1e6 / (parse_ms / 1e3),
        );
    }
    out.lines.push(format!(
        "{n} in-process deltas: rungs {rungs:?}; warm solves {warm_ok} accepted of {warm_tries} attempted"
    ));

    // The first session's stream through the daemon: the protocol's share
    // of a round trip is the round trip minus the daemon's own elapsed_us.
    // The in-process pass left the files on disk untouched.
    let w = first.expect("SERVE_SESSIONS > 0");
    let (daemon, mut conn, _) = workloads::start_daemon(ctx, &w)?;
    let mut stream = ServeStream::new(
        &ctx.universe,
        workloads::session_seed(ctx.seed, 0),
        w.files.clone(),
    );
    let mut protocol = Vec::new();
    while protocol.len() < PROTOCOL_DELTAS {
        let a = workloads::send_delta(&mut conn, &stream.next_delta())?;
        let k = protocol.len();
        out.check(a.ok, || format!("daemon delta {k} answered ok: false"));
        protocol.push(ms(a.rtt) - a.elapsed_us / 1e3);
    }
    workloads::stop_daemon(daemon, conn)?;
    acc.push("serve.protocol_ms", median(&protocol).unwrap_or(0.0));
    acc.finish(&mut out);

    let op_total: f64 = tr
        .spans()
        .iter()
        .filter(|s| s.name == "op.delta")
        .map(|s| ms(s.duration()))
        .sum();
    span_metrics(&tr, &[], &mut out);
    out.set(
        "trace.overhead_pct",
        (op_total - engine_ms) / engine_ms * 100.0,
    );
    Ok(out)
}
