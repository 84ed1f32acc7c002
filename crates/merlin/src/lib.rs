//! # seldon-merlin
//!
//! The Merlin baseline (Livshits et al. 2009) adapted to dynamically-typed
//! code as the paper describes in §6: a factor-graph formulation of the
//! Fig. 6 information-flow constraints with candidate priors, solved with
//! loopy belief propagation or Gibbs sampling, over collapsed or
//! uncollapsed propagation graphs.
//!
//! ## Example
//!
//! ```
//! use seldon_merlin::{run_merlin, MerlinOptions};
//! use seldon_propgraph::{build_source, BuildOptions, FileId};
//! use seldon_specs::TaintSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = build_source("from m import f\nx = f()\n", FileId(0), &BuildOptions::default())?
//!     .graph;
//! let result = run_merlin(&graph, &TaintSpec::new(), &MerlinOptions::default());
//! assert!(result.factors < 10);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod factor;
pub mod model;

pub use factor::{Factor, FactorGraph, VarIdx};
pub use model::{run_merlin, Inference, MerlinOptions, MerlinResult};
