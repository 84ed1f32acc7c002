//! Measures the cost of the telemetry instrumentation on the interning
//! hot paths (graph union + constraint generation). The disabled-handle
//! variant runs the exact span/counter calls the pipeline makes, so any
//! regression against the bare baseline is overhead the zero-telemetry
//! path would pay on every run.
//!
//! The corpus matches `BENCH_intern.json` / `BENCH_telemetry.json`
//! (150 projects ≈ 600+ files) so criterion numbers are comparable with
//! the recorded medians.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use seldon_constraints::{generate, generate_with_stats, GenOptions};
use seldon_corpus::{generate_corpus, CorpusOptions, Universe};
use seldon_propgraph::{build_source, BuildOptions, FileId, PropagationGraph};
use seldon_specs::TaintSpec;
use seldon_telemetry::{stage, Telemetry};

fn corpus_graphs() -> (Vec<PropagationGraph>, usize) {
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
    let opts = BuildOptions::default();
    let graphs: Vec<PropagationGraph> = corpus
        .files()
        .enumerate()
        .map(|(i, (_, f))| build_source(&f.content, FileId(i as u32), &opts).expect("parses").graph)
        .collect();
    let files = graphs.len();
    (graphs, files)
}

/// The bare hot path: union fold + constraint generation, no telemetry.
fn bare_gen_union(graphs: &[PropagationGraph], seed: &TaintSpec) -> usize {
    let mut global = PropagationGraph::new();
    global.reserve_events(graphs.iter().map(PropagationGraph::event_count).sum());
    for pg in graphs {
        global.union(pg);
    }
    generate(&global, seed, &GenOptions::default()).constraint_count()
}

/// The same work instrumented exactly as the pipeline does it: a union
/// span with counters, then `generate_with_stats` feeding the
/// representation and constraints aggregate spans.
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

fn bench_overhead(c: &mut Criterion) {
    let (graphs, files) = corpus_graphs();
    let seed = Universe::new().seed_spec();
    let mut g = c.benchmark_group("telemetry_overhead");
    g.throughput(Throughput::Elements(files as u64));
    g.bench_function("baseline_gen_union", |b| b.iter(|| bare_gen_union(&graphs, &seed)));
    let disabled = Telemetry::disabled();
    g.bench_function("disabled_sink_gen_union", |b| {
        b.iter(|| instrumented_gen_union(&graphs, &seed, &disabled))
    });
    g.bench_function("recording_sink_gen_union", |b| {
        b.iter(|| {
            let tele = Telemetry::recording();
            let n = instrumented_gen_union(&graphs, &seed, &tele);
            // Drain so the recorder never grows across iterations.
            let spans = tele.take_spans();
            n + spans.len()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
