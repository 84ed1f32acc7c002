//! # seldon-bench
//!
//! The experiment harness of the Seldon reproduction: one function per
//! table and figure of the paper's evaluation (§7), shared by the `tables`
//! binary (which regenerates EXPERIMENTS.md content) and the Criterion
//! benches.

#![warn(missing_docs)]

pub mod experiments;
pub mod table;

pub use experiments::{
    ablations, backoff_ablation, combined_spec, convergence, extension_param, solver_gap, template_ablation, fig10, fig11, q5, q6, run_all, table1, table2, table3, table4,
    table5, table6, table7, ExperimentConfig, Workbench,
};
pub use table::{dur, pct, Table};

/// The median of `samples` (the upper one for an even count): the summary
/// every bench bin records per measured leg.
pub fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}
