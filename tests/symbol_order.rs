//! Outputs never depend on `Symbol` numbering.
//!
//! Symbols are numbered in first-intern order, and with several analysis
//! workers that order follows thread scheduling. This test renumbers the
//! corpus's strings on purpose: a child run of this same binary learns in
//! natural order and dumps every string it interned; this process, whose
//! global interner is still fresh (the file is its own test binary with a
//! single test), interns those strings in *reverse* order first, then
//! learns again. The learned spec and the taint report must match byte
//! for byte.

use seldon_core::{run_full, AnalyzeOptions, FaultPolicy, SeldonOptions};
use seldon_corpus::{generate_corpus, Corpus, CorpusOptions, Universe};
use seldon_intern::{intern, resolve, Symbol};
use seldon_specs::TaintSpec;
use std::process::Command;

/// Set in the child run: the file to dump the natural-order results to.
const DUMP_ENV: &str = "SELDON_SYMBOL_ORDER_DUMP";
const TEST_NAME: &str = "learned_outputs_are_independent_of_symbol_numbering";

fn fixture() -> (Corpus, TaintSpec) {
    let universe = Universe::new();
    let corpus = generate_corpus(
        &universe,
        &CorpusOptions { projects: 30, rng_seed: 23, ..Default::default() },
    );
    (corpus, universe.seed_spec())
}

/// The learned spec text and the JSON taint report of one full run.
fn learn(corpus: &Corpus, seed: &TaintSpec) -> (String, String) {
    let opts = AnalyzeOptions { policy: FaultPolicy::Recover, threads: 2, ..Default::default() };
    let full = run_full(corpus, seed, "learn", &opts, &SeldonOptions::default())
        .expect("fixture corpus analyzes");
    let report = seldon_taint::reports_to_json(&full.violations, &full.analyzed.graph);
    (full.run.extraction.spec.to_text(), report)
}

#[test]
fn learned_outputs_are_independent_of_symbol_numbering() {
    let (corpus, seed) = fixture();
    if let Ok(path) = std::env::var(DUMP_ENV) {
        let (spec, report) = learn(&corpus, &seed);
        // NUL never occurs in source-derived text, so it separates fields.
        let mut fields = vec![spec, report];
        fields.extend((0..seldon_intern::len()).map(|i| resolve(Symbol(i as u32)).to_string()));
        std::fs::write(path, fields.join("\0")).expect("write dump");
        return;
    }
    let dump = std::env::temp_dir().join(format!("seldon-symbol-order-{}", std::process::id()));
    let child = Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--exact", TEST_NAME, "--test-threads=1"])
        .env(DUMP_ENV, &dump)
        .output()
        .expect("child run starts");
    assert!(
        child.status.success(),
        "natural-order child run failed: {}",
        String::from_utf8_lossy(&child.stdout)
    );
    let text = std::fs::read_to_string(&dump).expect("child wrote its dump");
    let _ = std::fs::remove_file(&dump);
    let mut fields = text.split('\0');
    let natural_spec = fields.next().expect("spec field");
    let natural_report = fields.next().expect("report field");
    let natural: Vec<&str> = fields.collect();
    assert!(natural.len() > 100, "the fixture interns a real vocabulary");

    assert_eq!(seldon_intern::len(), 0, "fresh process, empty global interner");
    for text in natural.iter().rev() {
        intern(text);
    }
    let last = natural.len() - 1;
    assert!(
        natural.iter().enumerate().all(|(i, text)| intern(text).index() == last - i),
        "every string now carries the mirror image of its natural symbol"
    );

    let (spec, report) = learn(&corpus, &seed);
    assert!(!spec.is_empty(), "the fixture learns entries");
    assert_eq!(spec, natural_spec, "learned spec depends on symbol numbering");
    assert_eq!(report, natural_report, "taint report depends on symbol numbering");
    assert_eq!(seldon_intern::len(), natural.len(), "both runs intern the same strings");
}
