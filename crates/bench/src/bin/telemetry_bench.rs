//! Measures the overhead the telemetry instrumentation adds to the
//! interning hot paths (graph union + constraint generation). Three
//! variants run over the `BENCH_intern.json` corpus:
//!
//! - `baseline`: the bare union fold + `generate`, as `intern_bench`;
//! - `noop_sink`: the same work through the pipeline's span/counter call
//!   sites with a disabled [`Telemetry`] handle — the cost every
//!   telemetry-free run pays;
//! - `recording`: a recording handle, for the opt-in `--telemetry` cost.
//!
//! Emits one JSON object on stdout (medians of 5 rounds, milliseconds);
//! `BENCH_telemetry.json` records a release-build run.

use seldon_bench::median_ms;
use seldon_constraints::{generate, generate_with_stats, GenOptions};
use seldon_corpus::{generate_corpus, CorpusOptions, Universe};
use seldon_propgraph::{build_source, FileId, PropagationGraph};
use seldon_specs::TaintSpec;
use seldon_telemetry::{stage, BenchRecord, Telemetry};
use std::time::Instant;

const ROUNDS: usize = 5;

fn bare_gen_union(graphs: &[PropagationGraph], seed: &TaintSpec) -> usize {
    let mut global = PropagationGraph::new();
    global.reserve_events(graphs.iter().map(PropagationGraph::event_count).sum());
    for pg in graphs {
        global.union(pg);
    }
    generate(&global, seed, &GenOptions::default()).constraint_count()
}

/// The union + generation work instrumented exactly as the pipeline does
/// it (union span with counters, representation/constraints aggregates).
fn instrumented_gen_union(
    graphs: &[PropagationGraph],
    seed: &TaintSpec,
    tele: &Telemetry,
) -> usize {
    let union_span = tele.span(stage::UNION);
    let mut global = PropagationGraph::new();
    global.reserve_events(graphs.iter().map(PropagationGraph::event_count).sum());
    for pg in graphs {
        global.union(pg);
    }
    union_span.counter("events", global.event_count() as f64);
    union_span.counter("edges", global.edge_count() as f64);
    drop(union_span);
    let (sys, stats) = generate_with_stats(&global, seed, &GenOptions::default());
    tele.aggregate_span(
        stage::REPRESENTATION,
        stats.select_time,
        &[
            ("candidate_events", stats.candidate_events as f64),
            ("surviving_reps", stats.surviving_reps as f64),
        ],
    );
    tele.aggregate_span(
        stage::CONSTRAINTS,
        stats.collect_time,
        &[("constraints", sys.constraint_count() as f64)],
    );
    sys.constraint_count()
}

fn main() {
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
    let files = corpus.file_count();
    assert!(files >= 500, "bench corpus too small: {files} files");
    let graphs: Vec<PropagationGraph> = corpus
        .files()
        .enumerate()
        .map(|(i, (_, f))| build_source(&f.content, FileId(i as u32)).expect("parses"))
        .collect();
    let seed = universe.seed_spec();

    let mut baseline = Vec::with_capacity(ROUNDS);
    let mut constraints = 0usize;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        constraints = bare_gen_union(&graphs, &seed);
        baseline.push(t.elapsed().as_secs_f64() * 1e3);
    }

    let disabled = Telemetry::disabled();
    let mut noop = Vec::with_capacity(ROUNDS);
    let mut noop_constraints = 0usize;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        noop_constraints = instrumented_gen_union(&graphs, &seed, &disabled);
        noop.push(t.elapsed().as_secs_f64() * 1e3);
    }
    assert_eq!(constraints, noop_constraints, "instrumentation must not change output");

    let mut recording = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let tele = Telemetry::recording();
        let t = Instant::now();
        instrumented_gen_union(&graphs, &seed, &tele);
        recording.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(tele.take_spans().len(), 3, "union + two aggregates");
    }

    let baseline_ms = median_ms(baseline);
    let noop_ms = median_ms(noop);
    let recording_ms = median_ms(recording);
    let overhead_pct = (noop_ms - baseline_ms) / baseline_ms * 100.0;
    let mut r = BenchRecord::new(
        "telemetry",
        "telemetry_bench",
        format!("medians of {ROUNDS} rounds, release build; gen+union stage in ms"),
    );
    r.num("corpus", "files", files as f64)
        .num("corpus", "constraints", constraints as f64)
        .num("overhead", "baseline_ms", baseline_ms)
        .num("overhead", "noop_sink_ms", noop_ms)
        .num("overhead", "recording_ms", recording_ms)
        .num("overhead", "noop_overhead_pct", overhead_pct);
    println!("{}", r.to_json());
}
