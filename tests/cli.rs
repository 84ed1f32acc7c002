//! Integration tests for the `seldon` command-line tool, driving the real
//! binary against Python files on disk.

use std::path::PathBuf;
use std::process::Command;

fn seldon() -> Command {
    Command::new(env!("CARGO_BIN_EXE_seldon"))
}

fn write_app(dir: &std::path::Path) -> PathBuf {
    let app = dir.join("app.py");
    std::fs::write(
        &app,
        "from flask import request\nimport os\n\ndef run():\n    cmd = request.args.get('c')\n    os.system(cmd)\n",
    )
    .expect("write temp app");
    app
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seldon-cli-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn check_reports_command_injection() {
    let dir = temp_dir("check");
    write_app(&dir);
    let out = seldon().arg("check").arg(&dir).output().expect("runs");
    // Findings exit with code 1 (0 is reserved for clean runs).
    assert_eq!(out.status.code(), Some(1), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Command Injection"), "{stdout}");
    assert!(stdout.contains("os.system()"), "{stdout}");
    assert!(stdout.contains("violation(s) total"), "{stdout}");
}

#[test]
fn check_clean_file_reports_nothing() {
    let dir = temp_dir("clean");
    std::fs::write(dir.join("ok.py"), "import os\nprint(os.getcwd())\n").unwrap();
    let out = seldon().arg("check").arg(&dir).output().expect("runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no violations found"), "{stdout}");
}

#[test]
fn graph_lists_events_and_dot() {
    let dir = temp_dir("graph");
    let app = write_app(&dir);
    let out = seldon().arg("graph").arg(&app).output().expect("runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("events"), "{stdout}");
    assert!(stdout.contains("os.system()"), "{stdout}");

    let out = seldon().arg("graph").arg(&app).arg("--dot").output().expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("digraph propagation"), "{stdout}");
}

#[test]
fn learn_writes_spec_file() {
    let dir = temp_dir("learn");
    // Several files using the same unknown wrapper so the cutoff keeps it.
    for i in 0..6 {
        std::fs::write(
            dir.join(format!("m{i}.py")),
            "from flask import request\nimport webresp, htmlutils\n\ndef page():\n    q = request.args.get('x')\n    return webresp.render_page(htmlutils.sanitize(q))\n",
        )
        .unwrap();
    }
    let out_path = dir.join("learned.txt");
    let out = seldon()
        .arg("learn")
        .arg(&dir)
        .arg("--out")
        .arg(&out_path)
        .output()
        .expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&out_path).expect("spec written");
    // The learned spec parses in the App. B format.
    let spec = seldon_specs::TaintSpec::parse(&text).expect("learned spec parses");
    let _ = spec.role_count();
}

#[test]
fn learn_solver_threads_is_output_invariant() {
    // The same learn run at 1 and 4 solver threads must write identical
    // spec files (the compiled kernel's summation order is fixed), and a
    // malformed thread count is a usage error.
    let dir = temp_dir("threads");
    for i in 0..6 {
        std::fs::write(
            dir.join(format!("m{i}.py")),
            "from flask import request\nimport webresp, htmlutils\n\ndef page():\n    q = request.args.get('x')\n    return webresp.render_page(htmlutils.sanitize(q))\n",
        )
        .unwrap();
    }
    let spec_at = |threads: &str| {
        let out_path = dir.join(format!("learned-{threads}.txt"));
        let out = seldon()
            .arg("learn")
            .arg(&dir)
            .arg("--solver-threads")
            .arg(threads)
            .arg("--out")
            .arg(&out_path)
            .output()
            .expect("runs");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        std::fs::read_to_string(&out_path).expect("spec written")
    };
    assert_eq!(spec_at("1"), spec_at("4"), "spec must not depend on --solver-threads");

    let out = seldon()
        .arg("learn")
        .arg(&dir)
        .arg("--solver-threads")
        .arg("lots")
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2), "bad thread count is a usage error");
}

/// Writes a seeded generated corpus in `lang` under `dir/corpus` plus its
/// seed spec; returns `(tree, seed spec path)`.
fn write_generated(dir: &std::path::Path, lang: seldon_corpus::Lang) -> (PathBuf, PathBuf) {
    use seldon_corpus::{generate_corpus, CorpusOptions, Universe};
    let universe = Universe::new();
    let corpus = generate_corpus(
        &universe,
        &CorpusOptions { projects: 30, rng_seed: 11, lang, ..Default::default() },
    );
    let tree = dir.join("corpus");
    for project in &corpus.projects {
        for file in &project.files {
            let path = tree.join(&project.name).join(&file.path);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &file.content).unwrap();
        }
    }
    let spec = dir.join("seed_spec.txt");
    std::fs::write(&spec, universe.seed_spec().to_text()).unwrap();
    (tree, spec)
}

#[test]
fn learn_and_check_are_analysis_thread_invariant() {
    // Symbol numbering follows which worker interns a string first, so
    // this is the gate that no output depends on it: the learned spec and
    // the JSON check report are byte-identical at 1, 2 and 4 analysis
    // threads, for both frontends.
    for lang in [seldon_corpus::Lang::Py, seldon_corpus::Lang::Js] {
        let dir = temp_dir(&format!("analysis-threads-{}", lang.extension()));
        let (tree, seed) = write_generated(&dir, lang);
        let learn_at = |threads: &str| {
            let out_path = dir.join(format!("learned-{threads}.txt"));
            let out = seldon()
                .arg("learn")
                .arg(&tree)
                .arg("--seed")
                .arg(&seed)
                .arg("--threads")
                .arg(threads)
                .arg("--out")
                .arg(&out_path)
                .output()
                .expect("runs");
            assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
            std::fs::read(&out_path).expect("spec written")
        };
        let check_at = |threads: &str| {
            let out = seldon()
                .arg("check")
                .arg(&tree)
                .arg("--spec")
                .arg(&seed)
                .arg("--format")
                .arg("json")
                .arg("--threads")
                .arg(threads)
                .output()
                .expect("runs");
            assert_eq!(out.status.code(), Some(1), "the corpus has flows to report");
            out.stdout
        };
        let spec = learn_at("1");
        assert!(!spec.is_empty(), "{lang:?}: the fixture learns entries");
        let report = check_at("1");
        assert!(report.len() > 100, "{lang:?}: the fixture has findings");
        for threads in ["2", "4"] {
            assert!(spec == learn_at(threads), "{lang:?}: spec differs at --threads {threads}");
            assert!(report == check_at(threads), "{lang:?}: report differs at --threads {threads}");
        }
    }
    let out = seldon().arg("check").arg(".").arg("--threads").arg("all").output().expect("runs");
    assert_eq!(out.status.code(), Some(2), "bad thread count is a usage error");
}

#[test]
fn report_labels_worker_summed_stages() {
    // With several analysis workers, parse and propgraph add up per-file
    // times across workers; the report must not print that as wall time.
    let dir = temp_dir("summed");
    let (tree, seed) = write_generated(&dir, seldon_corpus::Lang::Py);
    let report_at = |threads: &str| {
        let manifest = dir.join(format!("run-{threads}.json"));
        let out = seldon()
            .arg("learn")
            .arg(&tree)
            .arg("--seed")
            .arg(&seed)
            .arg("--threads")
            .arg(threads)
            .arg("--telemetry")
            .arg(&manifest)
            .output()
            .expect("runs");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let out = seldon().arg("report").arg(&manifest).output().expect("runs");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let two = report_at("2");
    let summed: Vec<&str> = two.lines().filter(|l| l.ends_with("summed over 2 workers")).collect();
    assert_eq!(summed.len(), 2, "parse and propgraph rows: {two}");
    assert!(summed[0].trim_start().starts_with("parse"), "{two}");
    assert!(summed[1].trim_start().starts_with("propgraph"), "{two}");
    assert!(!report_at("1").contains("summed over"), "one worker: times are wall times");
}

#[test]
fn check_with_custom_spec_and_param_sensitivity() {
    let dir = temp_dir("custom");
    std::fs::write(
        dir.join("app.py"),
        "from flask import request\nimport subprocess\nx = request.args.get('p')\nsubprocess.call(['ls'], env=x)\n",
    )
    .unwrap();
    let spec_path = dir.join("spec.txt");
    std::fs::write(
        &spec_path,
        "o: flask.request.args.get()\ni: subprocess.call()\np: subprocess.call() 0\n",
    )
    .unwrap();
    // Baseline: reported.
    let out = seldon()
        .arg("check")
        .arg(&dir)
        .arg("--spec")
        .arg(&spec_path)
        .output()
        .expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 violation(s) total"), "{stdout}");
    // Param-sensitive: env= is harmless.
    let out = seldon()
        .arg("check")
        .arg(&dir)
        .arg("--spec")
        .arg(&spec_path)
        .arg("--param-sensitive")
        .output()
        .expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no violations found"), "{stdout}");
}

#[test]
fn malformed_file_degrades_gracefully() {
    let dir = temp_dir("broken");
    std::fs::write(
        dir.join("broken.py"),
        "from flask import request\nimport os\nx = = broken = =\nos.system(request.args.get('c'))\n",
    )
    .unwrap();
    let out = seldon().arg("check").arg(&dir).output().expect("runs");
    // Degraded analysis (and findings) exit with code 1.
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("warning"), "lenient parse warns: {stderr}");
    assert!(stderr.contains("degraded analysis"), "summary printed: {stderr}");
    assert!(stdout.contains("Command Injection"), "analysis continues: {stdout}");
}

#[test]
fn strict_mode_aborts_on_malformed_file() {
    let dir = temp_dir("strict");
    std::fs::write(dir.join("broken.py"), "x = = broken\n").unwrap();
    let out = seldon().arg("check").arg(&dir).arg("--strict").output().expect("runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error"), "{stderr}");
    // Mutually exclusive flags are a usage error.
    let out = seldon()
        .arg("check")
        .arg(&dir)
        .arg("--strict")
        .arg("--lenient")
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn missing_inputs_are_usage_errors() {
    let dir = temp_dir("empty");
    let out = seldon().arg("check").arg(&dir).output().expect("runs");
    assert_eq!(out.status.code(), Some(2), "no .py files is a usage error");
    let out = seldon().arg("check").arg(dir.join("nope")).output().expect("runs");
    assert_eq!(out.status.code(), Some(2), "missing path is a usage error");
}

#[cfg(unix)]
#[test]
fn symlink_cycle_terminates() {
    let dir = temp_dir("cycle");
    let sub = dir.join("sub");
    std::fs::create_dir_all(&sub).unwrap();
    write_app(&sub);
    // sub/loop -> dir: walking dir would recurse forever without the guard.
    std::os::unix::fs::symlink(&dir, sub.join("loop")).expect("symlink");
    let out = seldon().arg("check").arg(&dir).output().expect("runs");
    // Terminates and still finds the vulnerable app exactly once.
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Command Injection"), "{stdout}");
}

#[test]
fn check_json_format() {
    let dir = temp_dir("json");
    write_app(&dir);
    let out = seldon()
        .arg("check")
        .arg(&dir)
        .arg("--format")
        .arg("json")
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1), "findings exit 1 in json mode too");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let trimmed = stdout.trim();
    assert!(trimmed.starts_with('[') && trimmed.ends_with(']'), "{stdout}");
    assert!(trimmed.contains("\"class\":\"Command Injection\""), "{stdout}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = seldon().arg("frobnicate").output().expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn learn_telemetry_writes_manifest_and_trace() {
    let dir = temp_dir("telemetry");
    write_app(&dir);
    let manifest_path = dir.join("run.json");
    let trace_path = dir.join("run.trace.json");
    let out = seldon()
        .arg("learn")
        .arg(&dir)
        .arg("--telemetry")
        .arg(&manifest_path)
        .arg("--trace")
        .arg(&trace_path)
        .output()
        .expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("wrote run manifest"), "{stderr}");
    assert!(stderr.contains("wrote Chrome trace"), "{stderr}");

    let json = std::fs::read_to_string(&manifest_path).expect("manifest written");
    let m = seldon_telemetry::RunManifest::from_json(&json).expect("manifest parses");
    assert!(m.has_all_stages(), "all eight stages recorded");
    assert_eq!(m.command, "learn");
    assert_eq!(m.corpus.files, 1);
    assert!(!m.solver.curve.is_empty(), "convergence curve sampled");

    // Chrome's JSON-array trace format: one complete "X" event per stage.
    let trace = std::fs::read_to_string(&trace_path).expect("trace written");
    assert!(trace.trim_start().starts_with('['), "{trace}");
    assert!(trace.contains("\"ph\": \"X\"") && trace.contains("\"solve\""), "{trace}");
}

#[test]
fn log_level_controls_stage_lines() {
    let dir = temp_dir("loglevel");
    write_app(&dir);
    let out = seldon().arg("check").arg(&dir).arg("--log-level").arg("info").output().expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("[seldon] parse:"), "{stderr}");
    assert!(stderr.contains("[seldon] union:"), "{stderr}");

    // Default stays silent about stages.
    let out = seldon().arg("check").arg(&dir).output().expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("[seldon]"), "{stderr}");

    // An unknown level is a usage error.
    let out = seldon().arg("check").arg(&dir).arg("--log-level").arg("loud").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown log level"), "{stderr}");
}

#[test]
fn learn_empty_corpus_is_a_clean_run() {
    // No .py files is a vacuous but legitimate corpus for `learn`: the
    // empty specification is learned and the run exits 0 (unlike `check`,
    // where nothing to check is a usage error).
    let dir = temp_dir("learnempty");
    let out_path = dir.join("spec.txt");
    let out = seldon()
        .arg("learn")
        .arg(&dir)
        .arg("--out")
        .arg(&out_path)
        .output()
        .expect("runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no .py or .js files found"), "{stderr}");
    assert_eq!(
        std::fs::read_to_string(&out_path).expect("spec written"),
        "",
        "the empty spec is the empty file"
    );
}

#[test]
fn learn_exit_codes_are_pinned() {
    // 0 = clean (empty corpus, above), 1 = degraded-but-complete analysis,
    // 1 = strict abort, 2 = usage error. Scripts depend on these.
    let dir = temp_dir("learncodes");
    std::fs::write(
        dir.join("broken.py"),
        "from flask import request\nimport os\nx = = broken = =\nos.system(request.args.get('c'))\n",
    )
    .unwrap();
    let lenient = seldon().arg("learn").arg(&dir).output().expect("runs");
    assert_eq!(lenient.status.code(), Some(1), "lenient run over faults is degraded");
    let stderr = String::from_utf8_lossy(&lenient.stderr);
    assert!(stderr.contains("degraded analysis"), "{stderr}");

    let strict = seldon().arg("learn").arg(&dir).arg("--strict").output().expect("runs");
    assert_eq!(strict.status.code(), Some(1), "strict run aborts on the first fault");

    let usage = seldon()
        .arg("learn")
        .arg(&dir)
        .arg("--cache-dir")
        .arg(dir.join("cache"))
        .arg("--no-cache")
        .output()
        .expect("runs");
    assert_eq!(usage.status.code(), Some(2), "contradictory cache flags are a usage error");
    let stderr = String::from_utf8_lossy(&usage.stderr);
    assert!(stderr.contains("mutually exclusive"), "{stderr}");
}

#[test]
fn cache_dir_warms_across_processes() {
    // Two separate `seldon` processes sharing a cache directory: the
    // second must reuse the first's artifacts and checkpoint (a true
    // cross-process re-intern of every stored representation string) and
    // print a byte-identical specification.
    let dir = temp_dir("cachewarm");
    for i in 0..6 {
        // Distinct contents per file: identical files would share one
        // content-keyed entry and turn cold misses into same-run hits.
        std::fs::write(
            dir.join(format!("m{i}.py")),
            format!("from flask import request\nimport webresp, htmlutils\n\ndef page{i}():\n    q = request.args.get('x{i}')\n    return webresp.render_page(htmlutils.sanitize(q))\n"),
        )
        .unwrap();
    }
    let cache = dir.join("cache");
    // The cache/checkpoint summary lines go through the stage logger, so
    // the assertions below need `--log-level info`.
    let learn = || {
        seldon()
            .arg("learn")
            .arg(&dir)
            .arg("--cache-dir")
            .arg(&cache)
            .arg("--log-level")
            .arg("info")
            .output()
            .expect("runs")
    };
    let cold = learn();
    assert!(cold.status.success(), "stderr: {}", String::from_utf8_lossy(&cold.stderr));
    let cold_err = String::from_utf8_lossy(&cold.stderr);
    assert!(cold_err.contains("6 miss(es)"), "cold run misses everything: {cold_err}");
    assert!(cold_err.contains("checkpoint: cold"), "{cold_err}");

    let warm = learn();
    assert!(warm.status.success(), "stderr: {}", String::from_utf8_lossy(&warm.stderr));
    let warm_err = String::from_utf8_lossy(&warm.stderr);
    assert!(warm_err.contains("6 hit(s)"), "warm run reuses every artifact: {warm_err}");
    assert!(warm_err.contains("checkpoint: full"), "{warm_err}");
    assert!(warm_err.contains("checkpoint full hit"), "{warm_err}");
    assert_eq!(
        String::from_utf8_lossy(&warm.stdout),
        String::from_utf8_lossy(&cold.stdout),
        "specs from cold and warm processes are byte-identical"
    );

    // A damaged cache never poisons the output: corrupt every entry and
    // re-run — faults are warned, contained, and the spec is unchanged.
    let injected = seldon_cache::inject_cache_faults(&cache, 1.0, 7);
    assert!(!injected.is_empty());
    let hurt = learn();
    assert!(hurt.status.success(), "stderr: {}", String::from_utf8_lossy(&hurt.stderr));
    let hurt_err = String::from_utf8_lossy(&hurt.stderr);
    assert!(hurt_err.contains("warning: cache fault"), "{hurt_err}");
    assert!(hurt_err.contains("fault(s) contained"), "{hurt_err}");
    assert_eq!(
        String::from_utf8_lossy(&hurt.stdout),
        String::from_utf8_lossy(&cold.stdout),
        "spec survives a fully corrupted cache"
    );

    // At the default log level (off) the cache summary stays silent.
    let quiet = seldon()
        .arg("learn")
        .arg(&dir)
        .arg("--cache-dir")
        .arg(&cache)
        .output()
        .expect("runs");
    assert!(quiet.status.success(), "stderr: {}", String::from_utf8_lossy(&quiet.stderr));
    let quiet_err = String::from_utf8_lossy(&quiet.stderr);
    assert!(!quiet_err.contains("cache:"), "silent by default: {quiet_err}");
    assert!(!quiet_err.contains("checkpoint"), "silent by default: {quiet_err}");
}

#[test]
fn score_dump_flag_requires_telemetry() {
    let dir = temp_dir("scoredumpflag");
    write_app(&dir);
    let out = seldon().arg("learn").arg(&dir).arg("--score-dump").output().expect("runs");
    assert_eq!(out.status.code(), Some(2), "score dump without a manifest is a usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--score-dump needs --telemetry"), "{stderr}");
}

/// Writes a seeded synthetic corpus (the same fixture the telemetry
/// tests use, so it demonstrably learns entries) to disk, runs
/// `learn --seed --telemetry --score-dump`, and returns the manifest path.
fn learn_manifest(dir: &std::path::Path, name: &str) -> PathBuf {
    use seldon_corpus::{generate_corpus, CorpusOptions, Universe};
    let universe = Universe::new();
    let corpus = generate_corpus(
        &universe,
        &CorpusOptions { projects: 8, rng_seed: 7, ..Default::default() },
    );
    let tree = dir.join("corpus");
    for project in &corpus.projects {
        for file in &project.files {
            let path = tree.join(&project.name).join(&file.path);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &file.content).unwrap();
        }
    }
    let spec = dir.join("seed_spec.txt");
    std::fs::write(&spec, universe.seed_spec().to_text()).unwrap();
    let manifest = dir.join(name);
    let out = seldon()
        .arg("learn")
        .arg(&tree)
        .arg("--seed")
        .arg(&spec)
        .arg("--telemetry")
        .arg(&manifest)
        .arg("--score-dump")
        .output()
        .expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    manifest
}

#[test]
fn report_renders_the_fig11_summary() {
    let dir = temp_dir("report");
    let manifest = learn_manifest(&dir, "run.json");
    let out = seldon().arg("report").arg(&manifest).arg("--top").arg("5").output().expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("stage breakdown"), "{stdout}");
    assert!(stdout.contains("score vs backoff (Fig. 11)"), "{stdout}");
    assert!(stdout.contains("learned representations by score"), "{stdout}");
    assert!(stdout.contains("memory"), "{stdout}");
    assert!(stdout.contains(" src  "), "learned rep rows carry a role label: {stdout}");
    // A missing manifest is a usage error.
    let out = seldon().arg("report").arg(dir.join("nope.json")).output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn metrics_dump_emits_prometheus_text() {
    let dir = temp_dir("metricsdump");
    let manifest = learn_manifest(&dir, "run.json");
    let out = seldon().arg("metrics-dump").arg(&manifest).output().expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("# TYPE seldon_rep_frequency histogram"), "{stdout}");
    assert!(stdout.contains("seldon_stage_duration_us{stage=\"solve\"}"), "{stdout}");
    assert!(stdout.contains("seldon_mem_peak_bytes"), "{stdout}");
    assert!(stdout.contains("le=\"+Inf\""), "{stdout}");
}

#[test]
fn diff_runs_exit_codes_are_pinned() {
    let dir = temp_dir("diffruns");
    let a = learn_manifest(&dir, "a.json");
    let b = dir.join("b.json");
    std::fs::copy(&a, &b).unwrap();

    // Identical manifests: exit 0.
    let same = seldon().arg("diff-runs").arg(&a).arg(&b).output().expect("runs");
    assert_eq!(
        same.status.code(),
        Some(0),
        "stdout: {}",
        String::from_utf8_lossy(&same.stdout)
    );
    assert!(String::from_utf8_lossy(&same.stdout).contains("0 regression(s)"));

    // Perturb an identity field (taint violation count): exit 1. The last
    // `"violations"` key is the taint section's; the first is a stage-span
    // counter, which diff-runs deliberately does not gate on.
    let text = std::fs::read_to_string(&a).unwrap();
    let needle = "\"violations\": ";
    let at = text.rfind(needle).expect("manifest has a taint section") + needle.len();
    let end = at + text[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
    let bumped: u64 = text[at..end].parse::<u64>().unwrap() + 1;
    std::fs::write(&b, format!("{}{bumped}{}", &text[..at], &text[end..])).unwrap();
    let regressed = seldon().arg("diff-runs").arg(&a).arg(&b).output().expect("runs");
    assert_eq!(
        regressed.status.code(),
        Some(1),
        "stdout: {}",
        String::from_utf8_lossy(&regressed.stdout)
    );
    assert!(
        String::from_utf8_lossy(&regressed.stdout).contains("REGRESSION"),
        "{}",
        String::from_utf8_lossy(&regressed.stdout)
    );

    // One path is a usage error.
    let usage = seldon().arg("diff-runs").arg(&a).output().expect("runs");
    assert_eq!(usage.status.code(), Some(2));
}

#[test]
fn strict_learn_reports_solver_restarts() {
    let dir = temp_dir("strictlearn");
    write_app(&dir);
    let out = seldon().arg("learn").arg(&dir).arg("--strict").output().expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("restart(s), final learning rate"), "{stderr}");
}
