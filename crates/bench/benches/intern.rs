//! Benchmarks for the interned (Symbol-keyed) pipeline hot paths this
//! refactor targets: per-file graph union into the global graph and
//! constraint generation with the memoized blacklist matcher.
//!
//! The corpus matches `BENCH_intern.json` (150 projects ≈ 600+ files) so
//! criterion numbers are comparable with the recorded before/after medians.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use seldon_constraints::{generate, GenOptions};
use seldon_corpus::{generate_corpus, CorpusOptions, Universe};
use seldon_propgraph::{build_source, BuildOptions, FileId, PropagationGraph};

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

fn bench_union(c: &mut Criterion) {
    let (graphs, files) = corpus_graphs();
    let mut g = c.benchmark_group("intern_union");
    g.throughput(Throughput::Elements(files as u64));
    g.bench_function("sequential_fold", |b| {
        b.iter(|| {
            let mut global = PropagationGraph::new();
            global.reserve_events(graphs.iter().map(PropagationGraph::event_count).sum());
            for pg in &graphs {
                global.union(pg);
            }
            global.event_count()
        })
    });
    g.finish();
}

fn bench_generation(c: &mut Criterion) {
    let (graphs, files) = corpus_graphs();
    let mut global = PropagationGraph::new();
    for pg in &graphs {
        global.union(pg);
    }
    let seed = Universe::new().seed_spec();
    let mut g = c.benchmark_group("intern_generation");
    g.throughput(Throughput::Elements(files as u64));
    g.bench_function("symbol_keyed_gen", |b| {
        b.iter(|| generate(&global, &seed, &GenOptions::default()).constraint_count())
    });
    g.finish();
}

criterion_group!(benches, bench_union, bench_generation);
criterion_main!(benches);
