//! Seeded inputs: corpora written to disk with `seldon-corpus`, and the
//! seeded edit streams the warm-learn and serve workloads replay.
//!
//! Every edit *replaces* the previous edit of its file, and added files
//! are capped and later removed, so however long a run lasts the corpus
//! never grows past its base size plus a fixed allowance.

use seldon_corpus::{generate_corpus, ApiShape, Corpus, CorpusOptions, Lang, Universe};
use seldon_specs::{Role, TaintSpec};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// SplitMix64: a small, seedable, platform-independent generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `1 / n`.
    pub fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }
}

/// A corpus's shape as `seldon-corpus` generates it.
pub struct Shape {
    pub projects: usize,
    pub files_per_project: (usize, usize),
    pub lang: Lang,
}

/// The 1800-project corpus of the learn and check workloads.
pub const BIG: Shape = Shape {
    projects: 1800,
    files_per_project: (2, 5),
    lang: Lang::Py,
};
/// The same corpus rendered in the JS-like language (check-js).
pub const BIG_JS: Shape = Shape {
    projects: 1800,
    files_per_project: (2, 5),
    lang: Lang::Js,
};
/// The ≈600-file corpus the serve workload edits.
pub const SERVE: Shape = Shape {
    projects: 150,
    files_per_project: (3, 5),
    lang: Lang::Py,
};

/// Generates the corpus of `shape` for `seed`.
pub fn generate(universe: &Universe, shape: &Shape, seed: u64) -> Corpus {
    generate_corpus(
        universe,
        &CorpusOptions {
            projects: shape.projects,
            files_per_project: shape.files_per_project,
            rng_seed: seed,
            lang: shape.lang,
            ..Default::default()
        },
    )
}

/// Writes `corpus` under `dir` as `seldon-corpus`'s `gen_corpus` lays it
/// out (`<project>/<path>`); returns the files sorted by path, the order
/// the `seldon` walker reads them in.
pub fn write(corpus: &Corpus, dir: &Path) -> io::Result<Vec<(PathBuf, String)>> {
    let mut files = Vec::with_capacity(corpus.file_count());
    for project in &corpus.projects {
        for file in &project.files {
            let path = dir.join(&project.name).join(&file.path);
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent)?;
            }
            std::fs::write(&path, &file.content)?;
            files.push((path, file.content.clone()));
        }
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(files)
}

/// The check-js specification: the JS seed spec plus every universe API
/// under its ground-truth role (built from the truth, not learned).
pub fn truth_spec(universe: &Universe) -> TaintSpec {
    let mut spec = universe.seed_spec_js();
    for api in universe.apis() {
        if let Some(role) = api.role {
            spec.add(api.rep, role);
        }
    }
    spec
}

/// A structural edit: a new Flask handler (with its imports) whose
/// source, optional sanitizer and sink are drawn from the API universe,
/// so it adds events and flows the solver must account for.
pub fn structural_block(universe: &Universe, rng: &mut Rng, tag: &str) -> String {
    let pick = |rng: &mut Rng, role: Role, shapes: &[ApiShape]| {
        let apis: Vec<_> = universe
            .apis()
            .iter()
            .filter(|a| {
                a.role == Some(role) && shapes.contains(&a.shape) && !a.import_line.is_empty()
            })
            .collect();
        apis[rng.below(apis.len())]
    };
    let source = pick(
        rng,
        Role::Source,
        &[ApiShape::SourceCall, ApiShape::SourceRead],
    );
    let sanitizer = rng
        .one_in(2)
        .then(|| pick(rng, Role::Sanitizer, &[ApiShape::UnaryCall]));
    let sink = pick(rng, Role::Sink, &[ApiShape::UnaryCall]);
    let fill = |template: &str, var: &str| template.replace("{L}", "'key'").replace("{V}", var);

    let mut imports: Vec<&str> = vec![
        "from flask import app",
        source.import_line,
        sink.import_line,
    ];
    let mut body = format!("    w0 = {}\n", fill(source.template, ""));
    let mut last = "w0";
    if let Some(s) = sanitizer {
        imports.push(s.import_line);
        body.push_str(&format!("    w1 = {}\n", fill(s.template, "w0")));
        last = "w1";
    }
    body.push_str(&format!("    return {}\n", fill(sink.template, last)));
    imports.sort_unstable();
    imports.dedup();
    format!(
        "\n{}\n\n@app.route('/bench_{tag}', methods=['GET', 'POST'])\ndef bench_{tag}():\n{body}",
        imports.join("\n")
    )
}

/// Files edited before each timed learn of the learn-warm workload.
pub const WARM_EDITED_FILES: usize = 8;

/// The learn-warm edits of one iteration: `WARM_EDITED_FILES` distinct
/// file indices into a corpus of `file_count` files, each with the
/// structural block appended to its base content. A pure function of
/// `(seed, iteration)`.
pub fn warm_edits(
    universe: &Universe,
    seed: u64,
    iteration: u64,
    file_count: usize,
) -> Vec<(usize, String)> {
    let mut rng = Rng::new(seed ^ iteration.wrapping_mul(0xD1B5_4A32_D192_ED03));
    let mut picked: Vec<usize> = Vec::with_capacity(WARM_EDITED_FILES);
    while picked.len() < WARM_EDITED_FILES.min(file_count) {
        let i = rng.below(file_count);
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked
        .into_iter()
        .enumerate()
        .map(|(k, i)| {
            (
                i,
                structural_block(universe, &mut rng, &format!("w{iteration}_{k}")),
            )
        })
        .collect()
}

/// Whether a serve delta is an edit (structural change, added file or
/// removed file) or cosmetic (comment or whitespace only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    Edit,
    Cosmetic,
}

/// One planned one-file serve delta, with the file contents it writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedDelta {
    pub kind: DeltaKind,
    pub add: Vec<(PathBuf, String)>,
    pub change: Vec<(PathBuf, String)>,
    pub remove: Vec<PathBuf>,
}

/// At most this many benchmark-added files exist at once.
pub const MAX_ADDED: usize = 4;
/// Edits per cosmetic delta, on average.
pub const EDITS_PER_COSMETIC: usize = 3;

/// The serve workload's seeded delta stream over a base corpus.
pub struct ServeStream<'u> {
    universe: &'u Universe,
    rng: Rng,
    base: Vec<(PathBuf, String)>,
    structural: BTreeMap<usize, String>,
    cosmetic: BTreeMap<usize, String>,
    added: BTreeMap<PathBuf, String>,
    next: u64,
}

impl<'u> ServeStream<'u> {
    pub fn new(universe: &'u Universe, seed: u64, base: Vec<(PathBuf, String)>) -> Self {
        ServeStream {
            universe,
            rng: Rng::new(seed ^ 0x5EB7_E000),
            base,
            structural: BTreeMap::new(),
            cosmetic: BTreeMap::new(),
            added: BTreeMap::new(),
            next: 0,
        }
    }

    fn content(&self, i: usize) -> String {
        let mut s = self.base[i].1.clone();
        s.push_str(self.structural.get(&i).map_or("", String::as_str));
        s.push_str(self.cosmetic.get(&i).map_or("", String::as_str));
        s
    }

    /// The next delta; the stream's corpus state advances past it.
    pub fn next_delta(&mut self) -> PlannedDelta {
        let n = self.next;
        self.next += 1;
        let none = PlannedDelta {
            kind: DeltaKind::Edit,
            add: Vec::new(),
            change: Vec::new(),
            remove: Vec::new(),
        };
        if self.rng.one_in(EDITS_PER_COSMETIC + 1) {
            let i = self.rng.below(self.base.len());
            let text = if self.rng.one_in(2) {
                format!("\n# reviewed in change {n}\n")
            } else {
                "\n".repeat(1 + (n % 3) as usize)
            };
            self.cosmetic.insert(i, text);
            let path = self.base[i].0.clone();
            return PlannedDelta {
                kind: DeltaKind::Cosmetic,
                change: vec![(path, self.content(i))],
                ..none
            };
        }
        match self.rng.below(3) {
            2 if !self.added.is_empty() => {
                let k = self.rng.below(self.added.len());
                let path = self.added.keys().nth(k).expect("k < len").clone();
                self.added.remove(&path);
                PlannedDelta {
                    remove: vec![path],
                    ..none
                }
            }
            1 if self.added.len() < MAX_ADDED => {
                let anchor = &self.base[self.rng.below(self.base.len())].0;
                let dir = anchor
                    .parent()
                    .expect("corpus files live in a project directory");
                let path = dir.join(format!("bench_added_{n}.py"));
                let content = structural_block(self.universe, &mut self.rng, &format!("a{n}"));
                self.added.insert(path.clone(), content.clone());
                PlannedDelta {
                    add: vec![(path, content)],
                    ..none
                }
            }
            _ => {
                let i = self.rng.below(self.base.len());
                let block = structural_block(self.universe, &mut self.rng, &format!("s{n}"));
                self.structural.insert(i, block);
                let path = self.base[i].0.clone();
                PlannedDelta {
                    change: vec![(path, self.content(i))],
                    ..none
                }
            }
        }
    }

    /// The corpus state after every delta so far, sorted by path.
    pub fn files(&self) -> Vec<(PathBuf, String)> {
        let mut files: Vec<(PathBuf, String)> = (0..self.base.len())
            .map(|i| (self.base[i].0.clone(), self.content(i)))
            .collect();
        files.extend(self.added.iter().map(|(p, c)| (p.clone(), c.clone())));
        files.sort_by(|a, b| a.0.cmp(&b.0));
        files
    }
}

/// Applies a planned delta to the files on disk.
pub fn apply_to_disk(delta: &PlannedDelta) -> io::Result<()> {
    for (path, content) in delta.add.iter().chain(&delta.change) {
        std::fs::write(path, content)?;
    }
    for path in &delta.remove {
        std::fs::remove_file(path)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Vec<(PathBuf, String)> {
        (0..20)
            .map(|i| {
                (
                    PathBuf::from(format!("c/p{}/f{i}.py", i % 4)),
                    format!("x{i} = {i}\n"),
                )
            })
            .collect()
    }

    fn total_bytes(files: &[(PathBuf, String)]) -> usize {
        files.iter().map(|(_, c)| c.len()).sum()
    }

    #[test]
    fn serve_stream_is_deterministic() {
        let u = Universe::new();
        let mut a = ServeStream::new(&u, 7, base());
        let mut b = ServeStream::new(&u, 7, base());
        let mut c = ServeStream::new(&u, 8, base());
        let da: Vec<_> = (0..200).map(|_| a.next_delta()).collect();
        let db: Vec<_> = (0..200).map(|_| b.next_delta()).collect();
        let dc: Vec<_> = (0..200).map(|_| c.next_delta()).collect();
        assert_eq!(da, db);
        assert_ne!(da, dc, "another seed gives another stream");
    }

    #[test]
    fn serve_stream_never_grows_the_corpus() {
        let u = Universe::new();
        let base = base();
        let longest_block = 400;
        let bound = total_bytes(&base) + (base.len() + MAX_ADDED) * (longest_block + 64);
        let mut s = ServeStream::new(&u, 3, base.clone());
        let (mut edits, mut cosmetic) = (0, 0);
        for _ in 0..2000 {
            let d = s.next_delta();
            assert_eq!(
                d.add.len() + d.change.len() + d.remove.len(),
                1,
                "one-file deltas"
            );
            match d.kind {
                DeltaKind::Edit => edits += 1,
                DeltaKind::Cosmetic => cosmetic += 1,
            }
            let files = s.files();
            assert!(files.len() <= base.len() + MAX_ADDED);
            assert!(
                total_bytes(&files) <= bound,
                "corpus grew to {} bytes",
                total_bytes(&files)
            );
        }
        // About three edits per cosmetic delta.
        let ratio = edits as f64 / cosmetic as f64;
        assert!((2.5..3.5).contains(&ratio), "edit:cosmetic ratio {ratio}");
    }

    #[test]
    fn cosmetic_deltas_change_only_comments_and_whitespace() {
        let u = Universe::new();
        let mut s = ServeStream::new(&u, 11, base());
        for _ in 0..300 {
            let before: BTreeMap<_, _> = s.files().into_iter().collect();
            let d = s.next_delta();
            if d.kind != DeltaKind::Cosmetic {
                continue;
            }
            let (path, after) = &d.change[0];
            let strip = |t: &str| -> String {
                t.lines()
                    .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
                    .collect::<Vec<_>>()
                    .join("\n")
            };
            assert_eq!(strip(&before[path]), strip(after));
        }
    }

    #[test]
    fn warm_edits_are_deterministic_and_fixed_size() {
        let u = Universe::new();
        for it in 0..20 {
            let a = warm_edits(&u, 5, it, 100);
            assert_eq!(a, warm_edits(&u, 5, it, 100));
            assert_eq!(a.len(), WARM_EDITED_FILES);
            let mut idx: Vec<usize> = a.iter().map(|(i, _)| *i).collect();
            idx.sort_unstable();
            idx.dedup();
            assert_eq!(idx.len(), WARM_EDITED_FILES, "distinct files");
        }
        assert_ne!(warm_edits(&u, 5, 0, 100), warm_edits(&u, 5, 1, 100));
    }

    #[test]
    fn structural_block_parses_and_adds_a_flow() {
        let u = Universe::new();
        let mut rng = Rng::new(1);
        for k in 0..50 {
            let block = structural_block(&u, &mut rng, &format!("t{k}"));
            let module = seldon_pyast::parse(&block).expect("the edit is valid Python");
            assert!(!module.body.is_empty());
            assert!(block.contains(&format!("def bench_t{k}():")));
        }
    }
}
