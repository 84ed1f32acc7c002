//! Output quality against the corpus ground truth.

use seldon_core::{evaluate_spec, GroundTruth};
use seldon_specs::{Role, TaintSpec};
use seldon_telemetry::json::Json;

/// Share of the learned entries that are not seed entries whose role
/// matches the ground truth, with the number of such entries. A spec with
/// no non-seed entries has precision 1 by `evaluate_spec`'s convention.
pub fn spec_precision(learned: &TaintSpec, seed: &TaintSpec, truth: &GroundTruth) -> (f64, usize) {
    let mut fresh = TaintSpec::new();
    for (rep, roles) in learned.iter() {
        for role in roles.iter() {
            if !seed.has_role(rep, role) {
                fresh.add(rep, role);
            }
        }
    }
    let eval = evaluate_spec(&fresh, truth);
    (eval.precision(), eval.predicted())
}

/// Share of `seldon check --format json` findings whose source and sink
/// APIs both carry those roles under the ground truth, with the finding
/// count; `None` when the output is not a findings array.
pub fn report_precision(findings: &Json, truth: &GroundTruth) -> Option<(f64, usize)> {
    let findings = findings.as_arr()?;
    let mut correct = 0usize;
    for f in findings {
        let api = |end: &str| f.get(end).and_then(|e| e.get("api")).and_then(Json::as_str);
        let (source, sink) = (api("source")?, api("sink")?);
        if truth.role_of(source) == Some(Role::Source) && truth.role_of(sink) == Some(Role::Sink) {
            correct += 1;
        }
    }
    let n = findings.len();
    Some((
        if n == 0 {
            1.0
        } else {
            correct as f64 / n as f64
        },
        n,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use seldon_corpus::{Corpus, Universe};

    fn truth() -> GroundTruth {
        GroundTruth::new(&Universe::new(), &Corpus::default())
    }

    #[test]
    fn spec_precision_scores_only_non_seed_entries() {
        let seed = Universe::new().seed_spec();
        let mut learned = TaintSpec::new();
        // Seed entry: ignored even though it is correct.
        learned.add("flask.request.args.get()", Role::Source);
        // Three learned entries: two right, one wrong.
        learned.add("bottle.request.query.get()", Role::Source);
        learned.add("htmlutils.sanitize()", Role::Sanitizer);
        learned.add("webresp.render_page()", Role::Source);
        let (p, n) = spec_precision(&learned, &seed, &truth());
        assert_eq!(n, 3);
        assert!((p - 2.0 / 3.0).abs() < 1e-12, "precision {p}");
    }

    #[test]
    fn spec_precision_of_seed_only_spec_is_vacuous() {
        let seed = Universe::new().seed_spec();
        assert_eq!(spec_precision(&seed, &seed, &truth()), (1.0, 0));
    }

    #[test]
    fn report_precision_needs_both_ends_right() {
        let json = seldon_telemetry::json::parse(
            r#"[{"source":{"api":"flask.request.args.get()"},"sink":{"api":"os.system()"}},
                {"source":{"api":"seqtools.chunk()"},"sink":{"api":"os.system()"}}]"#,
        )
        .unwrap();
        assert_eq!(report_precision(&json, &truth()), Some((0.5, 2)));
        assert_eq!(report_precision(&Json::Null, &truth()), None);
    }
}
