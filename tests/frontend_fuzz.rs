//! Mutational fuzz over both frontends: seeded truncations, single-character
//! replacements and splices of generated corpus files. Every mutant goes
//! through `Frontend::build` strict and lenient under the default budget
//! with no panic guard, so a front-end panic fails the test instead of
//! being contained the way the pipeline contains it.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use seldon_cache::graph_fingerprint;
use seldon_core::Frontend;
use seldon_corpus::{generate_corpus, CorpusOptions, Lang, Universe};
use seldon_propgraph::{Budget, BuildOptions, FileId};

/// Mutants per frontend; sized for the debug test build.
const MUTANTS: usize = 2000;

/// What a single-character replacement writes: brackets, quotes, `:`,
/// newline, tab and indentation (the empty string deletes the character).
const REPLACEMENTS: [&str; 14] =
    ["(", ")", "[", "]", "{", "}", "'", "\"", ":", "\n", "\t", "    ", "\n    ", ""];

/// One seeded mutant of `files[rng-chosen]`, plus a label for failures.
/// The files are ASCII, so every byte offset is a char boundary.
fn mutate(files: &[String], rng: &mut SmallRng) -> (String, String) {
    let a = &files[rng.gen_range(0..files.len())];
    let at = rng.gen_range(0..=a.len());
    match rng.gen_range(0..3) {
        0 => (a[..at].to_string(), format!("truncate at {at}")),
        1 => {
            let with = REPLACEMENTS[rng.gen_range(0..REPLACEMENTS.len())];
            let end = (at + 1).min(a.len());
            (format!("{}{with}{}", &a[..at], &a[end..]), format!("replace at {at} with {with:?}"))
        }
        _ => {
            let b = &files[rng.gen_range(0..files.len())];
            let from = rng.gen_range(0..=b.len());
            (format!("{}{}", &a[..at], &b[from..]), format!("splice at {at} from {from}"))
        }
    }
}

fn fuzz(lang: Lang) {
    let corpus = generate_corpus(
        &Universe::new(),
        &CorpusOptions { projects: 12, rng_seed: 7, lang, ..Default::default() },
    );
    let files: Vec<String> = corpus.files().map(|(_, f)| f.content.clone()).collect();
    assert!(files.iter().all(|f| f.is_ascii()), "byte-offset mutations need ASCII files");
    let frontend = Frontend::of_path(&corpus.files().next().expect("corpus has files").1.path);
    let strict = BuildOptions { lenient: false, budget: Some(Budget::default()) };
    let lenient = BuildOptions { lenient: true, ..strict.clone() };
    let mut rng = SmallRng::seed_from_u64(0x5e1d_0f22);
    let mut strict_failures = 0;
    for case in 0..MUTANTS {
        let (src, how) = mutate(&files, &mut rng);
        let what = format!("{lang:?} mutant {case} ({how}):\n{src}");
        let s = frontend.build(&src, FileId(0), &strict);
        let l = frontend
            .build(&src, FileId(0), &lenient)
            .unwrap_or_else(|e| panic!("lenient build failed ({e}) on {what}"));
        assert_eq!(
            s.is_err(),
            !l.errors.is_empty(),
            "strict fails ({:?}) but lenient reports {} error(s) on {what}",
            s.as_ref().err(),
            l.errors.len()
        );
        match s {
            Ok(s) => assert_eq!(
                graph_fingerprint(&s.graph),
                graph_fingerprint(&l.graph),
                "strict and lenient graphs differ on {what}"
            ),
            Err(_) => strict_failures += 1,
        }
    }
    // The mutations must actually break sources for the properties to bite.
    assert!(strict_failures > MUTANTS / 4, "{lang:?}: only {strict_failures} broken mutants");
}

#[test]
fn python_mutants_build_consistently() {
    fuzz(Lang::Py);
}

#[test]
fn js_mutants_build_consistently() {
    fuzz(Lang::Js);
}
