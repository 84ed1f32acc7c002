//! The metrics a run reports and the one-line JSON result.

use std::collections::BTreeMap;

/// End-to-end metrics (untraced runs), reported by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("precision", "share"),
];

/// Per-layer metrics (traced runs), reported by every workload; a layer
/// a workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cli.files", "count"),
    ("cli.overhead_ms", "ms"),
    ("pyast.parse_ms", "ms"),
    ("pyast.mb_per_s", "MB/s"),
    ("jsfront.parse_ms", "ms"),
    ("jsfront.lower_ms", "ms"),
    ("propgraph.lower_ms", "ms"),
    ("propgraph.build_ms", "ms"),
    ("propgraph.events", "count"),
    ("propgraph.edges", "count"),
    ("intern.symbols", "count"),
    ("intern.growth_per_delta", "count"),
    ("core.analyze_ms_1t", "ms"),
    ("core.analyze_ms_nt", "ms"),
    ("core.analyze_speedup", "ratio"),
    ("core.analyze_cpu_ms", "ms"),
    ("core.analyze_efficiency", "ratio"),
    ("core.union_ms", "ms"),
    ("cache.load_ms", "ms"),
    ("cache.store_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.mb_read", "MB"),
    ("constraints.select_ms", "ms"),
    ("constraints.gen_ms", "ms"),
    ("constraints.rows", "count"),
    ("constraints.vars", "count"),
    ("solver.compile_ms", "ms"),
    ("solver.solve_ms", "ms"),
    ("solver.iterations", "count"),
    ("solver.ms_per_iter", "ms"),
    ("solver.row_ratio", "ratio"),
    ("solver.extract_ms", "ms"),
    ("taint.find_ms", "ms"),
    ("taint.violations", "count"),
    ("serve.apply_edit_ms", "ms"),
    ("serve.apply_cosmetic_ms", "ms"),
    ("serve.protocol_ms", "ms"),
    ("serve.rung.noop", "share"),
    ("serve.rung.unchanged", "share"),
    ("serve.rung.replayed", "share"),
    ("serve.rung.scores", "share"),
    ("serve.rung.warm", "share"),
    ("serve.rung.cold", "share"),
    ("serve.warm_accept_ratio", "ratio"),
    ("serve.fragment_reuse_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
    ("cli.self_share", "share"),
    ("core.self_share", "share"),
    ("pyast.self_share", "share"),
    ("jsfront.self_share", "share"),
    ("propgraph.self_share", "share"),
    ("cache.self_share", "share"),
    ("constraints.self_share", "share"),
    ("solver.self_share", "share"),
    ("taint.self_share", "share"),
    ("serve.self_share", "share"),
];

/// What one run measured.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Metric values by name; [`Outcome::to_json`] reports exactly the
    /// metrics of the table it is given.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable result lines, printed before the JSON line.
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            lines: Vec::new(),
        }
    }

    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.lines.push(format!("FAILED: {}", what()));
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line: every metric of `table` (missing ones read 0,
    /// which only bypassed layers produce).
    pub fn to_json(&self, table: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
