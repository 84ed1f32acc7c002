//! The untraced runs: each workload drives the release `seldon` binary
//! the way users do and reports the end-to-end metrics.

use crate::child::{Conn, Daemon, Finished};
use crate::corpus::{self, DeltaKind, PlannedDelta, ServeStream};
use crate::eval::{report_precision, spec_precision};
use crate::report::Outcome;
use crate::stats::{median, percentile, tail};
use crate::Ctx;
use seldon_core::GroundTruth;
use seldon_specs::TaintSpec;
use seldon_telemetry::json::{self, Json};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;
/// Timed learns and checks per run, at least.
const MIN_OPS: usize = 3;
/// Serve runs send edits until at least this many round trips exist, so
/// at least ten lie beyond p90.
const MIN_EDITS: usize = 100;

/// Warm learns per learn-warm run: a count fixed by `--seconds` (one per
/// 1.5 s), not by the clock, so the last spec — and its precision — is a
/// function of the seed alone.
pub fn warm_iterations(seconds: f64) -> usize {
    MIN_OPS.max((seconds / 1.5).ceil() as usize)
}

/// Edit deltas per serve-edits run (eight per second of `--seconds`),
/// fixed for the same reason as [`warm_iterations`].
pub fn serve_edits_target(seconds: f64) -> usize {
    MIN_EDITS.max((seconds * 8.0).ceil() as usize)
}

type Res<T> = Result<T, String>;

fn path_str(p: &Path) -> &str {
    p.to_str().expect("benchmark paths are UTF-8")
}

/// A written corpus and its seed specification file, in `home`.
pub struct Written {
    pub home: PathBuf,
    pub corpus: seldon_corpus::Corpus,
    pub dir: PathBuf,
    pub files: Vec<(PathBuf, String)>,
    pub seed: TaintSpec,
    pub seed_file: PathBuf,
}

/// Generates the corpus of `shape` for `seed` and writes it under
/// `home`; prints how long that took (reported apart from `setup_s`).
pub fn write_corpus(
    ctx: &Ctx,
    shape: &corpus::Shape,
    seed: u64,
    home: PathBuf,
    out: &mut Outcome,
) -> Res<Written> {
    let started = Instant::now();
    let generated = corpus::generate(&ctx.universe, shape, seed);
    let dir = home.join("corpus");
    let files = corpus::write(&generated, &dir).map_err(|e| format!("writing corpus: {e}"))?;
    let seed = match shape.lang {
        seldon_corpus::Lang::Py => ctx.universe.seed_spec(),
        seldon_corpus::Lang::Js => ctx.universe.seed_spec_js(),
    };
    let seed_file = home.join("seed_spec.txt");
    std::fs::write(&seed_file, seed.to_text()).map_err(|e| e.to_string())?;
    out.lines.push(format!(
        "corpus: {} projects, {} files, {:.1} MB; generated in {:.3} s (not part of setup_s)",
        generated.projects.len(),
        files.len(),
        files.iter().map(|(_, c)| c.len()).sum::<usize>() as f64 / 1e6,
        started.elapsed().as_secs_f64()
    ));
    Ok(Written {
        home,
        corpus: generated,
        dir,
        files,
        seed,
        seed_file,
    })
}

fn learn_args<'a>(w: &'a Written, out: &'a Path, cache: Option<&'a Path>) -> Vec<&'a str> {
    let mut args = vec![
        "learn",
        path_str(&w.dir),
        "--seed",
        path_str(&w.seed_file),
        "--solver-threads",
        "0",
        "--out",
        path_str(out),
    ];
    if let Some(dir) = cache {
        args.extend(["--cache-dir", path_str(dir)]);
    }
    args
}

/// Runs one `seldon learn`; returns the child and the spec it wrote.
pub fn learn(ctx: &Ctx, w: &Written, cache: Option<&Path>) -> Res<(Finished, String)> {
    let out = w.home.join("learned.txt");
    let _ = std::fs::remove_file(&out);
    let f = ctx
        .seldon
        .run(&learn_args(w, &out, cache))
        .map_err(|e| format!("seldon learn: {e}"))?;
    let spec = std::fs::read_to_string(&out).unwrap_or_default();
    Ok((f, spec))
}

pub fn require_exit(f: &Finished, allowed: &[i32], what: &str) -> Res<()> {
    if allowed.contains(&f.code) {
        Ok(())
    } else {
        Err(format!("{what} exited {}: {}", f.code, f.stderr.trim()))
    }
}

/// The corpus shape `seldon learn` reports on stderr.
fn shape_line(stderr: &str) -> String {
    stderr
        .lines()
        .filter(|l| l.starts_with("analyzed ") || l.contains(" constraints over "))
        .map(|l| l.split(" solved in ").next().unwrap_or(l))
        .collect::<Vec<_>>()
        .join("; ")
}

/// `spec_precision` of a learned spec text over corpus `w`.
fn precision_of(ctx: &Ctx, w: &Written, spec_text: &str) -> Res<(f64, usize)> {
    let learned = TaintSpec::parse(spec_text).map_err(|e| format!("learned spec: {e}"))?;
    let truth = GroundTruth::new(&ctx.universe, &w.corpus);
    Ok(spec_precision(&learned, &w.seed, &truth))
}

fn precision_line(ctx: &Ctx, w: &Written, spec_text: &str, out: &mut Outcome) -> Res<()> {
    let (p, n) = precision_of(ctx, w, spec_text)?;
    out.set("precision", p);
    out.lines
        .push(format!("spec_precision   {p:.4}  ({n} non-seed entries)"));
    Ok(())
}

/// Whether a timed loop that has run `n` operations goes on: until
/// `--seconds` have passed and at least `MIN_OPS` operations ran.
fn op_loop(ctx: &Ctx) -> impl FnMut(usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    move |n| Instant::now() < deadline || n < MIN_OPS
}

fn timing_lines(name: &str, samples: &[f64], rss_kb: &[f64], out: &mut Outcome) {
    let p50 = median(samples).unwrap_or(0.0);
    out.set("op_p50_ms", p50 * 1e3);
    out.set("peak_rss_mb", median(rss_kb).unwrap_or(0.0) / 1024.0);
    out.lines.push(format!(
        "{name:<16} {p50:.4} s  (median of {} child runs)",
        samples.len()
    ));
    out.lines.push(format!(
        "peak_rss_mb      {:.1} MB  (median of per-child peaks)",
        median(rss_kb).unwrap_or(0.0) / 1024.0
    ));
}

fn setup_line(samples: &[f64], what: &str, out: &mut Outcome) {
    let s = median(samples).unwrap_or(0.0);
    out.set("setup_s", s);
    out.lines.push(format!(
        "setup_s          {s:.4} s  (median of {} {what})",
        samples.len()
    ));
}

/// `learn-cold`: repeated uncached `seldon learn` on the 1800-project
/// corpus; every spec must be byte-identical.
pub fn learn_cold(ctx: &Ctx) -> Res<Outcome> {
    let mut out = Outcome::new();
    let w = write_corpus(ctx, &corpus::BIG, ctx.seed, ctx.work.clone(), &mut out)?;
    let mut setup = Vec::new();
    let mut reference = None;
    for _ in 0..SETUP_REPEATS {
        let (f, spec) = learn(ctx, &w, None)?;
        require_exit(&f, &[0], "warm-up learn")?;
        setup.push(f.wall.as_secs_f64());
        if reference.is_none() {
            out.lines.push(format!("shape: {}", shape_line(&f.stderr)));
            reference = Some(spec);
        }
    }
    let reference = reference.expect("SETUP_REPEATS > 0");
    let (mut wall, mut rss) = (Vec::new(), Vec::new());
    let mut more = op_loop(ctx);
    while more(wall.len()) {
        let (f, spec) = learn(ctx, &w, None)?;
        out.check(f.code == 0 && spec == reference, || {
            format!(
                "learn {} exited {} or its spec differs from the first",
                wall.len(),
                f.code
            )
        });
        wall.push(f.wall.as_secs_f64());
        rss.push(f.max_rss_kb as f64);
    }
    timing_lines("learn_s", &wall, &rss, &mut out);
    setup_line(&setup, "warm-up learns", &mut out);
    precision_line(ctx, &w, &reference, &mut out)?;
    Ok(out)
}

/// `learn-warm`: `seldon learn --cache-dir` after fresh structural edits
/// to 8 files (the previous iteration's edits reverted); the last spec
/// must equal an uncached learn of the same corpus state.
pub fn learn_warm(ctx: &Ctx) -> Res<Outcome> {
    let mut out = Outcome::new();
    let w = write_corpus(ctx, &corpus::BIG, ctx.seed, ctx.work.clone(), &mut out)?;
    let cache = ctx.work.join("cache");
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let _ = std::fs::remove_dir_all(&cache);
        let (f, _) = learn(ctx, &w, Some(&cache))?;
        require_exit(&f, &[0], "cache-filling learn")?;
        setup.push(f.wall.as_secs_f64());
    }
    let (mut wall, mut rss) = (Vec::new(), Vec::new());
    let mut edited = WarmEdits::default();
    let mut last = String::new();
    for it in 0..warm_iterations(ctx.seconds) {
        edited.next(ctx, &w, it as u64)?;
        let (f, spec) = learn(ctx, &w, Some(&cache))?;
        out.check(f.code == 0, || format!("warm learn {it} exited {}", f.code));
        wall.push(f.wall.as_secs_f64());
        rss.push(f.max_rss_kb as f64);
        last = spec;
    }
    let (f, cold) = learn(ctx, &w, None)?;
    require_exit(&f, &[0], "uncached reference learn")?;
    out.check(cold == last, || {
        "the last warm spec differs from an uncached learn".into()
    });
    timing_lines("learn_s", &wall, &rss, &mut out);
    setup_line(&setup, "cache-filling learns", &mut out);
    precision_line(ctx, &w, &last, &mut out)?;
    Ok(out)
}

/// The learn-warm edit state: which files currently carry an edit.
#[derive(Default)]
pub struct WarmEdits {
    edited: Vec<usize>,
}

impl WarmEdits {
    /// Reverts the current edits and writes iteration `it`'s.
    pub fn next(&mut self, ctx: &Ctx, w: &Written, it: u64) -> Res<()> {
        for &i in &self.edited {
            std::fs::write(&w.files[i].0, &w.files[i].1).map_err(|e| e.to_string())?;
        }
        let edits = corpus::warm_edits(&ctx.universe, ctx.seed, it, w.files.len());
        for (i, block) in &edits {
            let (path, base) = &w.files[*i];
            std::fs::write(path, format!("{base}{block}")).map_err(|e| e.to_string())?;
        }
        self.edited = edits.into_iter().map(|(i, _)| i).collect();
        Ok(())
    }
}

/// The `delta` request line for a planned delta.
pub fn delta_request(d: &PlannedDelta) -> String {
    let paths =
        |v: Vec<&PathBuf>| Json::Arr(v.into_iter().map(|p| Json::str(path_str(p))).collect());
    Json::Obj(vec![
        ("op".into(), Json::str("delta")),
        ("add".into(), paths(d.add.iter().map(|(p, _)| p).collect())),
        (
            "change".into(),
            paths(d.change.iter().map(|(p, _)| p).collect()),
        ),
        ("remove".into(), paths(d.remove.iter().collect())),
    ])
    .compact()
}

/// Starts `seldon serve` on the written corpus and returns it with an
/// open connection once it answers a ping, plus the time that took.
pub fn start_daemon(ctx: &Ctx, w: &Written) -> Res<(Daemon, Conn, Duration)> {
    let socket = w.home.join("serve.sock");
    let args = [
        "serve",
        path_str(&w.dir),
        "--seed",
        path_str(&w.seed_file),
        "--socket",
        path_str(&socket),
        "--solver-threads",
        "0",
    ];
    let started = Instant::now();
    let daemon = ctx
        .seldon
        .spawn(&args)
        .map_err(|e| format!("seldon serve: {e}"))?;
    let mut conn = Conn::connect(&socket, Duration::from_secs(60))
        .map_err(|e| format!("connecting to seldon serve: {e}"))?;
    let (pong, _) = conn
        .request(r#"{"op":"ping"}"#)
        .map_err(|e| e.to_string())?;
    if !pong.contains("\"pong\":true") {
        return Err(format!("unexpected ping response: {pong}"));
    }
    Ok((daemon, conn, started.elapsed()))
}

/// Sends `shutdown` and reaps the daemon.
pub fn stop_daemon(daemon: Daemon, mut conn: Conn) -> Res<crate::sys::Reaped> {
    let _ = conn.request(r#"{"op":"shutdown"}"#);
    daemon
        .finish(Duration::from_secs(20))
        .map_err(|e| e.to_string())
}

/// One answered delta.
pub struct Answer {
    pub ok: bool,
    pub solve: String,
    pub rtt: Duration,
    pub elapsed_us: f64,
    pub warm_margin: Option<f64>,
    pub spec: String,
}

/// Writes a planned delta to disk and sends it.
pub fn send_delta(conn: &mut Conn, d: &PlannedDelta) -> Res<Answer> {
    corpus::apply_to_disk(d).map_err(|e| format!("applying delta: {e}"))?;
    let (line, rtt) = conn
        .request(&delta_request(d))
        .map_err(|e| format!("delta: {e}"))?;
    let v = json::parse(&line).map_err(|e| format!("daemon response: {e}"))?;
    let num = |k: &str| v.get(k).and_then(Json::as_f64);
    Ok(Answer {
        ok: v.get("ok").and_then(Json::as_bool) == Some(true),
        solve: v
            .get("solve")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
        rtt,
        elapsed_us: num("elapsed_us").unwrap_or(0.0),
        warm_margin: num("warm_margin"),
        spec: v
            .get("spec")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
    })
}

/// Daemon sessions per serve-edits run, each over its own seeded corpus:
/// pooling them keeps one corpus's solver behaviour from setting the
/// whole run's figures.
pub const SERVE_SESSIONS: usize = 3;

/// The corpus seed of serve session `i` of a run with `seed`.
pub fn session_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(SERVE_SESSIONS as u64)
        .wrapping_add(i as u64)
}

/// Where serve session `i` keeps its corpus, socket and specs.
pub fn session_home(ctx: &Ctx, i: usize) -> PathBuf {
    ctx.work.join(format!("session{i}"))
}

/// `serve-edits`: in each session one client sends seeded one-file
/// deltas to a `seldon serve` daemon, closed loop; every response must be
/// ok and the final served spec must equal a `seldon learn` of the final
/// corpus state.
pub fn serve_edits(ctx: &Ctx) -> Res<Outcome> {
    let mut out = Outcome::new();
    let per_session = serve_edits_target(ctx.seconds).div_ceil(SERVE_SESSIONS);
    let (mut edit, mut cosmetic, mut setup, mut rss, mut precision) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut rungs: std::collections::BTreeMap<String, usize> = Default::default();
    let (mut warm_tries, mut warm_ok) = (0usize, 0usize);
    for i in 0..SERVE_SESSIONS {
        let seed = session_seed(ctx.seed, i);
        let w = write_corpus(ctx, &corpus::SERVE, seed, session_home(ctx, i), &mut out)?;
        let (daemon, mut conn, took) = start_daemon(ctx, &w)?;
        setup.push(took.as_secs_f64());
        let mut stream = ServeStream::new(&ctx.universe, seed, w.files.clone());
        let mut served = String::new();
        let mut edits = 0;
        while edits < per_session {
            let d = stream.next_delta();
            let a = send_delta(&mut conn, &d)?;
            let n = out.attempted;
            out.check(a.ok, || format!("delta {n} answered ok: false"));
            match d.kind {
                DeltaKind::Edit => {
                    edit.push(a.rtt.as_secs_f64());
                    edits += 1;
                }
                DeltaKind::Cosmetic => cosmetic.push(a.rtt.as_secs_f64()),
            }
            *rungs.entry(a.solve.clone()).or_default() += 1;
            if a.warm_margin.is_some() {
                warm_tries += 1;
                warm_ok += usize::from(a.solve == "warm");
            }
            served = a.spec;
        }
        rss.push(stop_daemon(daemon, conn)?.max_rss_kb as f64 / 1024.0);
        let (f, batch) = learn(ctx, &w, None)?;
        require_exit(&f, &[0], "reference learn of the final corpus")?;
        out.check(batch == served, || {
            format!("session {i}: final served spec differs from seldon learn")
        });
        precision.push(precision_of(ctx, &w, &served)?.0);
    }

    let ms = |v: &[f64]| median(v).unwrap_or(0.0) * 1e3;
    out.set("op_p50_ms", ms(&edit));
    out.set("peak_rss_mb", median(&rss).unwrap_or(0.0));
    out.lines.push(format!(
        "edit_p50_ms      {:.3} ms  ({} edits)",
        ms(&edit),
        edit.len()
    ));
    if let Some((p90, beyond)) = percentile(&edit, 90.0).filter(|(_, b)| *b >= 10) {
        out.lines.push(format!(
            "edit_p90_ms      {:.3} ms  ({beyond} samples beyond)",
            p90 * 1e3
        ));
    }
    if let Some((p, v)) = tail(&edit, 10) {
        out.lines
            .push(format!("edit tail        p{p} = {:.3} ms", v * 1e3));
    }
    out.lines.push(format!(
        "cosmetic_p50_ms  {:.3} ms  ({} cosmetic deltas)",
        ms(&cosmetic),
        cosmetic.len()
    ));
    out.lines.push(format!(
        "peak_rss_mb      {:.1} MB  (median of {SERVE_SESSIONS} daemons)",
        median(&rss).unwrap_or(0.0)
    ));
    out.lines.push(format!("rungs            {rungs:?}"));
    out.lines.push(format!(
        "warm solves      {warm_ok} accepted of {warm_tries} attempted"
    ));
    setup_line(&setup, "daemon starts to first ping", &mut out);
    let p = precision.iter().sum::<f64>() / precision.len() as f64;
    out.set("precision", p);
    out.lines.push(format!(
        "spec_precision   {p:.4}  (mean over {SERVE_SESSIONS} final served specs)"
    ));
    Ok(out)
}

/// `check-js`: repeated `seldon check --format json` on the 1800-project
/// JS corpus with the ground-truth spec; every report must be
/// byte-identical.
pub fn check_js(ctx: &Ctx) -> Res<Outcome> {
    let mut out = Outcome::new();
    let w = write_corpus(ctx, &corpus::BIG_JS, ctx.seed, ctx.work.clone(), &mut out)?;
    let spec_file = ctx.work.join("truth_spec.txt");
    std::fs::write(&spec_file, corpus::truth_spec(&ctx.universe).to_text())
        .map_err(|e| e.to_string())?;
    // `check` runs no solver, so it takes no --solver-threads.
    let args = [
        "check",
        path_str(&w.dir),
        "--spec",
        path_str(&spec_file),
        "--format",
        "json",
    ];
    let check = || {
        ctx.seldon
            .run(&args)
            .map_err(|e| format!("seldon check: {e}"))
    };
    let mut setup = Vec::new();
    let mut reference = None;
    for _ in 0..SETUP_REPEATS {
        let f = check()?;
        // Exit 1 means "findings", the expected verdict on this corpus.
        require_exit(&f, &[0, 1], "warm-up check")?;
        setup.push(f.wall.as_secs_f64());
        reference.get_or_insert(f.stdout);
    }
    let reference = reference.expect("SETUP_REPEATS > 0");
    let (mut wall, mut rss) = (Vec::new(), Vec::new());
    let mut more = op_loop(ctx);
    while more(wall.len()) {
        let f = check()?;
        out.check(matches!(f.code, 0 | 1) && f.stdout == reference, || {
            format!(
                "check {} exited {} or its report differs from the first",
                wall.len(),
                f.code
            )
        });
        wall.push(f.wall.as_secs_f64());
        rss.push(f.max_rss_kb as f64);
    }
    timing_lines("check_s", &wall, &rss, &mut out);
    setup_line(&setup, "warm-up checks", &mut out);
    let findings = json::parse(reference.trim()).map_err(|e| format!("check output: {e}"))?;
    let truth = GroundTruth::new(&ctx.universe, &w.corpus);
    let (p, n) = report_precision(&findings, &truth).ok_or("check output is not an array")?;
    out.set("precision", p);
    out.lines
        .push(format!("report_precision {p:.4}  ({n} findings)"));
    Ok(out)
}
