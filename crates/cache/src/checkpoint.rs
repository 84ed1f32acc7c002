//! The solver warm-start checkpoint.
//!
//! A checkpoint captures the downstream half of a run — the solved score
//! vector plus the extracted specification — keyed by two fingerprints:
//!
//! * **input fingerprint** — the global propagation graph (by
//!   representation *string*, so it is stable across processes), the seed
//!   specification, and every generation/solve/extraction option that can
//!   influence scores or the spec. A match means generation, solving, and
//!   extraction would reproduce the stored outputs bit for bit, so all
//!   three stages are skipped.
//! * **system fingerprint** — the generated constraint system plus the
//!   solver options. When only the input fingerprint misses (say the
//!   extraction thresholds changed), a system match still lets the solver
//!   reuse the stored score vector exactly.
//!
//! Both are **exact-match** keys. A near-miss warm start (seeding Adam
//! with stale scores) converges to *almost* the same solution, and
//! "almost" breaks the byte-identical-spec guarantee the *replay* path
//! is held to; a fingerprint miss therefore never silently reuses
//! anything. Callers that can tolerate (and police) near-miss reuse —
//! the incremental daemon guards warm solves with an extraction-margin
//! check and falls back to a cold solve when a decision is close — opt
//! in explicitly through [`Checkpoint::warm_init_for`], which remaps the
//! stored scores onto a *different* constraint system by matching
//! variables on their process-stable `(representation, role)` keys
//! recorded in [`Checkpoint::var_keys`].
//!
//! Scores and every other float are serialized as IEEE-754 bit patterns
//! (`%016x`), never as decimal text, so a load returns the exact f64s the
//! solver produced.

use crate::entry::EntryError;
use crate::hash::Fnv64;
use seldon_constraints::{ConstraintSystem, GenOptions, GenStats, Template};
use seldon_propgraph::{EventId, PropagationGraph};
use seldon_solver::{ExtractOptions, Extraction, Solution, SolveOptions, StopReason};
use seldon_specs::{Role, RoleSet, TaintSpec};
use seldon_telemetry::json::{self, Json};
use seldon_telemetry::EpochSample;

/// Shape counters of the constraint system a checkpoint was solved from,
/// replayed into stage spans and the manifest when generation is skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SystemSummary {
    /// Total flow constraints.
    pub constraints: u64,
    /// Role variables.
    pub vars: u64,
    /// Seed-pinned variables.
    pub pinned: u64,
    /// Constraints per Fig. 4 template.
    pub by_template: [u64; 3],
    /// Candidate events that entered the system.
    pub candidates: u64,
    /// Representations surviving the §4.3 cutoff.
    pub surviving_reps: u64,
    /// Representations dropped by the frequency cutoff.
    pub dropped_by_cutoff: u64,
    /// Representations dropped by the blacklist.
    pub dropped_by_blacklist: u64,
}

impl SystemSummary {
    /// The shape of `system`, generated with `stats`.
    pub fn of(system: &ConstraintSystem, stats: &GenStats) -> SystemSummary {
        SystemSummary {
            constraints: system.constraint_count() as u64,
            vars: system.var_count() as u64,
            pinned: system.pinned_count() as u64,
            by_template: system.template_counts().map(|n| n as u64),
            candidates: stats.candidate_events as u64,
            surviving_reps: stats.surviving_reps as u64,
            dropped_by_cutoff: stats.dropped_by_cutoff as u64,
            dropped_by_blacklist: stats.dropped_by_blacklist as u64,
        }
    }
}

/// A persisted solver/extraction outcome with its fingerprints.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Fingerprint of graph + seed + options (full-reuse key).
    pub input_fp: u64,
    /// Fingerprint of the constraint system + solver options (score-reuse
    /// key).
    pub system_fp: u64,
    /// The solved score vector, indexed by `VarId`.
    pub scores: Vec<f64>,
    /// Per-variable identity keys, parallel to `scores`: the
    /// representation string and [`Role`] index of each `VarId`. These
    /// survive re-numbering, so a later run whose system assigns
    /// different `VarId`s can still seed Adam from these scores via
    /// [`Checkpoint::warm_init_for`]. Empty on checkpoints written
    /// before warm-starting landed (parse is lenient).
    pub var_keys: Vec<(String, u8)>,
    /// Final objective value.
    pub objective: f64,
    /// Final total hinge violation.
    pub violation: f64,
    /// Adam iterations run.
    pub iterations: usize,
    /// Divergence restarts taken.
    pub restarts: usize,
    /// Learning rate of the final run.
    pub final_lr: f64,
    /// Whether the solve diverged.
    pub diverged: bool,
    /// Why the solve stopped ([`seldon_solver::StopReason`] string form;
    /// `"max_iters"` when replaying a pre-early-stop checkpoint).
    pub stop_reason: String,
    /// Epochs the stop saved against the `max_iters` budget.
    pub epochs_saved: usize,
    /// Sampled convergence curve.
    pub curve: Vec<EpochSample>,
    /// The extracted (learned) specification, in its canonical text form.
    pub spec_text: String,
    /// Per-event role assignments from extraction.
    pub event_roles: Vec<(u32, u8)>,
    /// Selections per backoff level.
    pub backoff_hits: Vec<usize>,
    /// System shape for spans/manifest on full reuse.
    pub summary: SystemSummary,
}

fn hash_solve_opts(h: &mut Fnv64, solve: &SolveOptions) {
    // `threads` and `trace_stride` are cost/observability knobs; scores
    // are byte-identical across both, so they stay out of the key. The
    // early-stop configuration changes *where* the solve stops, so it is
    // part of the key (presence tag + every field).
    h.write_f64(solve.lambda)
        .write_u64(solve.max_iters as u64)
        .write_f64(solve.tol)
        .write_f64(solve.adam.lr)
        .write_f64(solve.adam.beta1)
        .write_f64(solve.adam.beta2)
        .write_f64(solve.adam.eps);
    match &solve.early_stop {
        None => {
            h.write_u64(0);
        }
        Some(es) => {
            h.write_u64(1)
                .write_u64(es.patience as u64)
                .write_f64(es.rel_tol)
                .write_u64(es.min_iters as u64);
        }
    }
}

/// Fingerprints a propagation graph by content: events (kind, span, file,
/// representation strings) and edges (endpoints, kind, argument position)
/// in deterministic graph order. Interner-independent: two processes that
/// built the same graph from the same corpus agree on this value.
pub fn graph_fingerprint(graph: &PropagationGraph) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(graph.event_count() as u64);
    for (_, event) in graph.events() {
        h.write_u64(event.kind as u64)
            .write_u32(event.file.0)
            .write_u32(event.span.start)
            .write_u32(event.span.end)
            .write_u32(event.span.line)
            .write_u32(event.span.col)
            .write_u64(event.reps.len() as u64);
        for rep in &event.reps {
            h.write_str(rep.as_str());
        }
    }
    h.write_u64(graph.edge_count() as u64);
    for (from, to) in graph.edges() {
        h.write_u32(from.0).write_u32(to.0);
        h.write_u64(graph.edge_kind(from, to).map_or(u64::MAX, |k| k as u64));
        match graph.arg_position(from, to) {
            None => h.write_u64(0),
            Some(seldon_propgraph::ArgPos::Receiver) => h.write_u64(1),
            Some(seldon_propgraph::ArgPos::Positional(i)) => {
                h.write_u64(2).write_u64(u64::from(*i))
            }
            Some(seldon_propgraph::ArgPos::Keyword(name)) => h.write_u64(3).write_str(name),
        };
    }
    h.finish()
}

/// The full-reuse key: graph + seed spec + every option that shapes the
/// constraint system, the solve, or the extraction.
pub fn input_fingerprint(
    graph_fp: u64,
    seed: &TaintSpec,
    gen: &GenOptions,
    solve: &SolveOptions,
    extract: &ExtractOptions,
) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(graph_fp).write_str(&seed.to_text());
    h.write_u64(gen.rep_cutoff as u64)
        .write_f64(gen.c)
        .write_u64(gen.max_rhs_terms as u64)
        .write_u64(gen.max_reach as u64)
        .write_u64(gen.templates.iter().fold(0, |acc, &t| acc << 1 | u64::from(t)))
        .write_u64(gen.max_backoff as u64);
    hash_solve_opts(&mut h, solve);
    for t in extract.thresholds {
        h.write_f64(t);
    }
    h.write_f64(extract.decay).write_u64(u64::from(extract.exclude_seeded));
    h.finish()
}

/// The score-reuse key: the generated constraint system (variables by
/// representation string and role, constraints by template and terms,
/// seed pins) plus the solver options.
pub fn system_fingerprint(system: &ConstraintSystem, solve: &SolveOptions) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(system.var_count() as u64);
    for (_, rep, role) in system.variables() {
        h.write_str(rep).write_u64(role.index() as u64);
    }
    h.write_u64(system.constraint_count() as u64);
    for c in &system.constraints {
        let tag = match c.template {
            Template::A => 0u64,
            Template::B => 1,
            Template::C => 2,
        };
        h.write_u64(tag);
        for side in [&c.lhs, &c.rhs] {
            h.write_u64(side.len() as u64);
            for term in side {
                h.write_u32(term.var.0).write_f64(term.coeff);
            }
        }
    }
    for (var, value) in system.pinned_sorted() {
        h.write_u32(var).write_f64(value);
    }
    h.write_f64(system.c);
    hash_solve_opts(&mut h, solve);
    h.finish()
}

fn hex64(v: u64) -> Json {
    Json::str(format!("{v:016x}"))
}

fn hex_f64(v: f64) -> Json {
    hex64(v.to_bits())
}

fn parse_hex64(v: &Json, what: &str) -> Result<u64, EntryError> {
    v.as_str()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| EntryError::Corrupt(format!("{what} not a hex u64")))
}

fn parse_hex_f64(v: &Json, what: &str) -> Result<f64, EntryError> {
    Ok(f64::from_bits(parse_hex64(v, what)?))
}

impl Checkpoint {
    /// Packs one finished run — `system` generated with `stats`, solved
    /// into `solution`, extracted into `extraction` — into the checkpoint
    /// the next run (batch or served) reuses.
    pub fn pack(
        input_fp: u64,
        system_fp: u64,
        system: &ConstraintSystem,
        stats: &GenStats,
        solution: &Solution,
        extraction: &Extraction,
    ) -> Checkpoint {
        let mut event_roles: Vec<(u32, u8)> = extraction
            .event_roles
            .iter()
            .map(|(&id, &roles)| (id.0, Checkpoint::role_bits(roles)))
            .collect();
        event_roles.sort_unstable();
        Checkpoint {
            input_fp,
            system_fp,
            scores: solution.scores.clone(),
            var_keys: system
                .variables()
                .map(|(_, rep, role)| (rep.to_string(), role.index() as u8))
                .collect(),
            objective: solution.objective,
            violation: solution.violation,
            iterations: solution.iterations,
            restarts: solution.restarts,
            final_lr: solution.final_lr,
            diverged: solution.diverged,
            stop_reason: solution.stop.as_str().to_string(),
            epochs_saved: solution.epochs_saved,
            curve: solution.trace.clone(),
            spec_text: extraction.spec.to_text(),
            event_roles,
            backoff_hits: extraction.backoff_hits.clone(),
            summary: SystemSummary::of(system, stats),
        }
    }

    /// The stored solve as a [`Solution`] over the system it was packed
    /// from (no per-epoch history; an unknown stop reason reads as the
    /// default).
    pub fn solution(&self) -> Solution {
        Solution {
            scores: self.scores.clone(),
            objective: self.objective,
            violation: self.violation,
            iterations: self.iterations,
            history: Vec::new(),
            diverged: self.diverged,
            restarts: self.restarts,
            final_lr: self.final_lr,
            stop: StopReason::parse(&self.stop_reason).unwrap_or_default(),
            epochs_saved: self.epochs_saved,
            trace: self.curve.clone(),
        }
    }

    /// Packs a [`RoleSet`] into the stored bitmask.
    pub fn role_bits(roles: RoleSet) -> u8 {
        roles.iter().fold(0, |acc, role| acc | 1 << role.index())
    }

    /// Unpacks a stored bitmask into a [`RoleSet`].
    pub fn roles_from_bits(bits: u8) -> RoleSet {
        Role::ALL
            .iter()
            .filter(|role| bits & (1 << role.index()) != 0)
            .fold(RoleSet::EMPTY, |set, &role| set.with(role))
    }

    /// Remaps the stored scores onto a (possibly different) constraint
    /// system, producing an initial point for
    /// [`seldon_solver::solve_compiled_warm`]: each variable of `system`
    /// takes the old score of the variable with the same
    /// `(representation, role)` key, and variables with no predecessor
    /// start at the cold default `0.0`. Scores of variables that no
    /// longer exist are dropped.
    ///
    /// Returns `None` when this checkpoint carries no usable key table
    /// (legacy payload, or one whose keys do not line up with its
    /// scores) — callers should then solve cold.
    pub fn warm_init_for(&self, system: &ConstraintSystem) -> Option<Vec<f64>> {
        if self.var_keys.len() != self.scores.len() {
            return None;
        }
        let old: std::collections::HashMap<(&str, u8), f64> = self
            .var_keys
            .iter()
            .zip(&self.scores)
            .map(|((rep, role), &score)| ((rep.as_str(), *role), score))
            .collect();
        Some(
            system
                .variables()
                .map(|(_, rep, role)| {
                    old.get(&(rep, role.index() as u8)).copied().unwrap_or(0.0)
                })
                .collect(),
        )
    }

    /// Per-event roles as the `HashMap` the extraction API uses.
    pub fn event_role_map(&self) -> std::collections::HashMap<EventId, RoleSet> {
        self.event_roles
            .iter()
            .map(|&(id, bits)| (EventId(id), Checkpoint::roles_from_bits(bits)))
            .collect()
    }

    /// Serializes to the JSON payload framed by
    /// [`crate::entry::encode_entry`].
    ///
    /// The three size-proportional tables — scores, convergence curve,
    /// per-event roles — are packed into single delimited strings (rows
    /// split by `;`, fields by `,`, floats as IEEE-754 bit patterns in
    /// hex) so warm-start load cost stays dominated by I/O, not JSON
    /// token parsing.
    pub fn to_payload(&self) -> Vec<u8> {
        use std::fmt::Write;
        let mut scores = String::with_capacity(self.scores.len() * 17);
        for (i, v) in self.scores.iter().enumerate() {
            if i > 0 {
                scores.push(';');
            }
            let _ = write!(scores, "{:016x}", v.to_bits());
        }
        let mut curve = String::new();
        for (i, e) in self.curve.iter().enumerate() {
            if i > 0 {
                curve.push(';');
            }
            let _ = write!(
                curve,
                "{},{:016x},{:016x},{},{:016x},{:016x}",
                e.epoch,
                e.objective.to_bits(),
                e.hinge_loss.to_bits(),
                e.violated,
                e.grad_norm.to_bits(),
                e.lr.to_bits()
            );
        }
        let mut event_roles = String::with_capacity(self.event_roles.len() * 8);
        for (i, &(id, bits)) in self.event_roles.iter().enumerate() {
            if i > 0 {
                event_roles.push(';');
            }
            let _ = write!(event_roles, "{id},{bits}");
        }
        let s = &self.summary;
        // Variable keys ride as a JSON array of "<role digit><rep>"
        // strings rather than a delimited table: representation strings
        // are arbitrary source-derived text, and JSON string escaping is
        // the only framing here that cannot collide with their content.
        let var_keys = Json::Arr(
            self.var_keys
                .iter()
                .map(|(rep, role)| Json::str(format!("{role}{rep}")))
                .collect(),
        );
        Json::Obj(vec![
            ("input_fp".into(), hex64(self.input_fp)),
            ("system_fp".into(), hex64(self.system_fp)),
            ("scores".into(), Json::str(scores)),
            ("var_keys".into(), var_keys),
            ("objective".into(), hex_f64(self.objective)),
            ("violation".into(), hex_f64(self.violation)),
            ("iterations".into(), Json::num(self.iterations as f64)),
            ("restarts".into(), Json::num(self.restarts as f64)),
            ("final_lr".into(), hex_f64(self.final_lr)),
            ("diverged".into(), Json::Bool(self.diverged)),
            ("stop_reason".into(), Json::str(&self.stop_reason)),
            ("epochs_saved".into(), Json::num(self.epochs_saved as f64)),
            ("curve".into(), Json::str(curve)),
            ("spec".into(), Json::str(&self.spec_text)),
            ("event_roles".into(), Json::str(event_roles)),
            (
                "backoff_hits".into(),
                Json::Arr(self.backoff_hits.iter().map(|&n| Json::num(n as f64)).collect()),
            ),
            (
                "summary".into(),
                Json::Obj(vec![
                    ("constraints".into(), Json::num(s.constraints as f64)),
                    ("vars".into(), Json::num(s.vars as f64)),
                    ("pinned".into(), Json::num(s.pinned as f64)),
                    (
                        "by_template".into(),
                        Json::Arr(s.by_template.iter().map(|&n| Json::num(n as f64)).collect()),
                    ),
                    ("candidates".into(), Json::num(s.candidates as f64)),
                    ("surviving_reps".into(), Json::num(s.surviving_reps as f64)),
                    ("dropped_by_cutoff".into(), Json::num(s.dropped_by_cutoff as f64)),
                    (
                        "dropped_by_blacklist".into(),
                        Json::num(s.dropped_by_blacklist as f64),
                    ),
                ]),
            ),
        ])
        .compact()
        .into_bytes()
    }

    /// Parses a payload produced by [`Checkpoint::to_payload`].
    ///
    /// # Errors
    ///
    /// [`EntryError::Corrupt`] on malformed JSON or schema mismatch.
    pub fn from_payload(payload: &[u8]) -> Result<Checkpoint, EntryError> {
        let corrupt = |what: &str| EntryError::Corrupt(what.to_string());
        let text = std::str::from_utf8(payload).map_err(|_| corrupt("payload not UTF-8"))?;
        let v = json::parse(text).map_err(|e| corrupt(&format!("payload JSON: {e}")))?;
        let field = |key: &str| v.get(key).ok_or_else(|| corrupt(&format!("missing `{key}`")));
        let count = |key: &str| -> Result<usize, EntryError> {
            field(key)?
                .as_u64()
                .map(|u| u as usize)
                .ok_or_else(|| corrupt(&format!("`{key}` not a count")))
        };
        let arr = |key: &str| {
            field(key)?.as_arr().ok_or_else(|| corrupt(&format!("`{key}` not an array")))
        };
        let table = |key: &str| -> Result<&str, EntryError> {
            field(key)?.as_str().ok_or_else(|| corrupt(&format!("`{key}` not a string")))
        };
        fn rows(table: &str) -> impl Iterator<Item = &str> {
            table.split(';').filter(|r| !r.is_empty())
        }
        let hex_field = |field: &str, what: &str| -> Result<f64, EntryError> {
            u64::from_str_radix(field, 16)
                .map(f64::from_bits)
                .map_err(|_| corrupt(&format!("{what} not a hex f64")))
        };
        let scores = rows(table("scores")?)
            .map(|s| hex_field(s, "score"))
            .collect::<Result<Vec<_>, _>>()?;
        // Lenient: absent from checkpoints written before warm-starting
        // landed. Those still replay on exact fingerprint matches; they
        // just cannot seed a warm solve (`warm_init_for` returns None).
        let mut var_keys = Vec::new();
        if let Some(entries) = v.get("var_keys").and_then(Json::as_arr) {
            for entry in entries {
                let s = entry.as_str().ok_or_else(|| corrupt("var_keys entry not a string"))?;
                let role = s
                    .chars()
                    .next()
                    .and_then(|c| c.to_digit(10))
                    .filter(|&d| d < 3)
                    .ok_or_else(|| corrupt("var_keys entry missing role digit"))?;
                var_keys.push((s[1..].to_string(), role as u8));
            }
        }
        let mut curve = Vec::new();
        for row in rows(table("curve")?) {
            let fields: Vec<&str> = row.split(',').collect();
            if fields.len() != 6 {
                return Err(corrupt("curve row must have 6 fields"));
            }
            curve.push(EpochSample {
                epoch: fields[0].parse().map_err(|_| corrupt("epoch not a u64"))?,
                objective: hex_field(fields[1], "curve objective")?,
                hinge_loss: hex_field(fields[2], "curve hinge_loss")?,
                violated: fields[3].parse().map_err(|_| corrupt("violated not a u64"))?,
                grad_norm: hex_field(fields[4], "curve grad_norm")?,
                lr: hex_field(fields[5], "curve lr")?,
            });
        }
        let mut event_roles = Vec::new();
        for row in rows(table("event_roles")?) {
            let (id, bits) =
                row.split_once(',').ok_or_else(|| corrupt("event_roles row needs 2 fields"))?;
            event_roles.push((
                id.parse::<u32>().map_err(|_| corrupt("event id not a u32"))?,
                bits.parse::<u8>().map_err(|_| corrupt("role bits not a u8"))?,
            ));
        }
        let backoff_hits = arr("backoff_hits")?
            .iter()
            .map(|n| {
                n.as_u64().map(|u| u as usize).ok_or_else(|| corrupt("backoff hit not a count"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let s = field("summary")?;
        let sfield = |key: &str| -> Result<u64, EntryError> {
            s.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| corrupt(&format!("summary `{key}` not a u64")))
        };
        let tpl = s
            .get("by_template")
            .and_then(Json::as_arr)
            .filter(|a| a.len() == 3)
            .ok_or_else(|| corrupt("summary `by_template` not a 3-array"))?;
        let mut by_template = [0u64; 3];
        for (slot, n) in by_template.iter_mut().zip(tpl) {
            *slot = n.as_u64().ok_or_else(|| corrupt("by_template entry not a u64"))?;
        }
        Ok(Checkpoint {
            input_fp: parse_hex64(field("input_fp")?, "input_fp")?,
            system_fp: parse_hex64(field("system_fp")?, "system_fp")?,
            scores,
            var_keys,
            objective: parse_hex_f64(field("objective")?, "objective")?,
            violation: parse_hex_f64(field("violation")?, "violation")?,
            iterations: count("iterations")?,
            restarts: count("restarts")?,
            final_lr: parse_hex_f64(field("final_lr")?, "final_lr")?,
            diverged: field("diverged")?
                .as_bool()
                .ok_or_else(|| corrupt("`diverged` not a bool"))?,
            // Lenient: absent from checkpoints written before the
            // convergence early-exit landed (those would be fingerprint-
            // stale anyway, but a parse fault would misreport as Corrupt).
            stop_reason: v
                .get("stop_reason")
                .and_then(Json::as_str)
                .unwrap_or("max_iters")
                .to_string(),
            epochs_saved: v
                .get("epochs_saved")
                .and_then(Json::as_u64)
                .unwrap_or(0) as usize,
            curve,
            spec_text: field("spec")?
                .as_str()
                .ok_or_else(|| corrupt("`spec` not a string"))?
                .to_string(),
            event_roles,
            backoff_hits,
            summary: SystemSummary {
                constraints: sfield("constraints")?,
                vars: sfield("vars")?,
                pinned: sfield("pinned")?,
                by_template,
                candidates: sfield("candidates")?,
                surviving_reps: sfield("surviving_reps")?,
                dropped_by_cutoff: sfield("dropped_by_cutoff")?,
                dropped_by_blacklist: sfield("dropped_by_blacklist")?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seldon_propgraph::{build_source, FileId};

    fn sample() -> Checkpoint {
        Checkpoint {
            input_fp: 0xdead_beef_0123_4567,
            system_fp: 0x0bad_cafe_89ab_cdef,
            scores: vec![0.0, 0.5, 1.0, 1e-300, f64::MIN_POSITIVE, -0.0],
            var_keys: vec![
                ("flask.request.args.get()".into(), 0),
                ("escape()".into(), 1),
                ("cursor.execute()".into(), 2),
                ("weird;rep,with\"chars\\".into(), 0),
                ("os.system()".into(), 2),
                ("json.loads()".into(), 0),
            ],
            objective: 1.25,
            violation: 0.0625,
            iterations: 131,
            restarts: 1,
            final_lr: 0.0125,
            diverged: false,
            stop_reason: "plateau".into(),
            epochs_saved: 44,
            curve: vec![EpochSample {
                epoch: 10,
                objective: 2.5,
                hinge_loss: 2.0,
                violated: 7,
                grad_norm: 0.75,
                lr: 0.05,
            }],
            spec_text: "o:flask.request.args.get() 100\n".into(),
            event_roles: vec![(0, 0b001), (9, 0b110)],
            backoff_hits: vec![5, 2, 0],
            summary: SystemSummary {
                constraints: 26145,
                vars: 388,
                pinned: 24,
                by_template: [9000, 8000, 9145],
                candidates: 6000,
                surviving_reps: 388,
                dropped_by_cutoff: 100,
                dropped_by_blacklist: 3,
            },
        }
    }

    #[test]
    fn payload_round_trip_is_bit_exact() {
        let ckpt = sample();
        let back = Checkpoint::from_payload(&ckpt.to_payload()).unwrap();
        assert_eq!(back, ckpt);
        for (a, b) in ckpt.scores.iter().zip(&back.scores) {
            assert_eq!(a.to_bits(), b.to_bits(), "scores survive bit-for-bit");
        }
    }

    #[test]
    fn legacy_payload_without_stop_fields_parses_leniently() {
        let text = String::from_utf8(sample().to_payload()).unwrap();
        let legacy = text
            .replace("\"stop_reason\":\"plateau\",", "")
            .replace("\"epochs_saved\":44,", "");
        assert_ne!(legacy, text, "fields were present to strip");
        let back = Checkpoint::from_payload(legacy.as_bytes()).unwrap();
        assert_eq!(back.stop_reason, "max_iters");
        assert_eq!(back.epochs_saved, 0);
    }

    #[test]
    fn legacy_payload_without_var_keys_parses_and_declines_warm_start() {
        let text = String::from_utf8(sample().to_payload()).unwrap();
        let start = text.find(",\"var_keys\":[").unwrap();
        let end = text[start..].find(']').unwrap() + start + 1;
        let legacy = format!("{}{}", &text[..start], &text[end..]);
        let back = Checkpoint::from_payload(legacy.as_bytes()).unwrap();
        assert!(back.var_keys.is_empty());
        let sys = ConstraintSystem::new(0.75);
        assert_eq!(back.warm_init_for(&sys), None, "no key table, no warm seed");
    }

    #[test]
    fn warm_init_remaps_scores_across_var_id_spaces() {
        use seldon_specs::Role;
        let mut ckpt = sample();
        ckpt.scores = vec![0.1, 0.2, 0.3];
        ckpt.var_keys = vec![
            ("a()".into(), Role::Source.index() as u8),
            ("b()".into(), Role::Sink.index() as u8),
            ("gone()".into(), Role::Source.index() as u8),
        ];
        // New system: same reps in a different order (different VarIds),
        // one variable removed, one brand new.
        let mut sys = ConstraintSystem::new(0.75);
        let b = sys.rep("b()");
        let a = sys.rep("a()");
        let fresh = sys.rep("fresh()");
        sys.var(b, Role::Sink);
        sys.var(fresh, Role::Sanitizer);
        sys.var(a, Role::Source);
        let init = ckpt.warm_init_for(&sys).unwrap();
        assert_eq!(init, vec![0.2, 0.0, 0.1], "matched keys remap, new vars cold");
        // Same rep under a different role is a different variable.
        let mut other = ConstraintSystem::new(0.75);
        let a2 = other.rep("a()");
        other.var(a2, Role::Sanitizer);
        assert_eq!(ckpt.warm_init_for(&other).unwrap(), vec![0.0]);
        // A corrupt checkpoint whose keys disagree with its scores is
        // rejected rather than half-applied.
        ckpt.var_keys.pop();
        assert_eq!(ckpt.warm_init_for(&sys), None);
    }

    #[test]
    fn role_bits_round_trip() {
        for bits in 0u8..8 {
            assert_eq!(Checkpoint::role_bits(Checkpoint::roles_from_bits(bits)), bits);
        }
        assert_eq!(Checkpoint::roles_from_bits(Checkpoint::role_bits(RoleSet::ALL)), RoleSet::ALL);
    }

    #[test]
    fn graph_fingerprint_tracks_content_not_symbols() {
        let a = build_source("import os\nos.system('x')\n", FileId(0)).unwrap();
        let b = build_source("import os\nos.system('x')\n", FileId(0)).unwrap();
        assert_eq!(graph_fingerprint(&a), graph_fingerprint(&b));
        let c = build_source("import os\nos.remove('x')\n", FileId(0)).unwrap();
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&c));
    }

    #[test]
    fn fingerprints_react_to_every_option_group() {
        let graph = build_source("import os\nos.system('x')\n", FileId(0)).unwrap();
        let gfp = graph_fingerprint(&graph);
        let seed = TaintSpec::new();
        let (gen, solve, extract) =
            (GenOptions::default(), SolveOptions::default(), ExtractOptions::default());
        let base = input_fingerprint(gfp, &seed, &gen, &solve, &extract);
        let mut g2 = gen.clone();
        g2.rep_cutoff += 1;
        assert_ne!(base, input_fingerprint(gfp, &seed, &g2, &solve, &extract));
        let mut s2 = solve.clone();
        s2.lambda += 0.01;
        assert_ne!(base, input_fingerprint(gfp, &seed, &gen, &s2, &extract));
        // Early-stop shapes where the solve ends, so it keys the cache:
        // disabling it and tweaking each field must all miss.
        let mut s_off = solve.clone();
        s_off.early_stop = None;
        let off = input_fingerprint(gfp, &seed, &gen, &s_off, &extract);
        assert_ne!(base, off, "early-stop presence keyed");
        let mut s_pat = solve.clone();
        if let Some(es) = s_pat.early_stop.as_mut() {
            es.patience += 1;
        }
        assert_ne!(base, input_fingerprint(gfp, &seed, &gen, &s_pat, &extract));
        let mut s_tol = solve.clone();
        if let Some(es) = s_tol.early_stop.as_mut() {
            es.rel_tol *= 0.1;
        }
        assert_ne!(base, input_fingerprint(gfp, &seed, &gen, &s_tol, &extract));
        let mut s_min = solve.clone();
        if let Some(es) = s_min.early_stop.as_mut() {
            es.min_iters += 10;
        }
        assert_ne!(base, input_fingerprint(gfp, &seed, &gen, &s_min, &extract));
        let mut e2 = extract.clone();
        e2.decay *= 0.5;
        assert_ne!(base, input_fingerprint(gfp, &seed, &gen, &solve, &e2));
        // Cost knobs must NOT change the key: a warm run with more
        // threads still reuses the checkpoint.
        let mut s3 = solve.clone();
        s3.threads = 8;
        s3.trace_stride = 1;
        assert_eq!(
            base,
            input_fingerprint(gfp, &seed, &gen, &s3, &extract),
            "threads/stride excluded"
        );
        assert_ne!(base, input_fingerprint(gfp ^ 1, &seed, &gen, &solve, &extract));
    }
}
