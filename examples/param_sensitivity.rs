//! The §3.3 future-work extension in action: parameter-sensitive sinks.
//!
//! The paper notes "a function may act as a source or a sink depending on
//! its arguments, however, we leave this differentiation for future work."
//! This example audits code where tainted data reaches (a) the dangerous
//! and (b) a harmless parameter of the same sink, with and without sink
//! signatures.
//!
//! Run with: `cargo run -p seldon-core --example param_sensitivity`

use seldon_propgraph::{build_source, BuildOptions, FileId};
use seldon_specs::{SinkSignature, TaintSpec};
use seldon_taint::{render_reports, TaintAnalyzer, TaintOptions};

const APP: &str = r#"
from flask import request
import subprocess

def dangerous():
    cmd = request.args.get('cmd')
    subprocess.call(cmd)

def harmless():
    tag = request.args.get('tag')
    subprocess.call(['ls', '-l'], env=tag)
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = build_source(APP, FileId(0), &BuildOptions::default())?.graph;
    let mut spec = TaintSpec::parse(
        "o: flask.request.args.get()\n\
         i: subprocess.call()\n",
    )?;

    println!("=== Baseline (the paper's analyzer): both flows reported ===\n");
    let analyzer = TaintAnalyzer::new(&graph, &spec);
    let baseline = analyzer.find_violations();
    print!("{}", render_reports(&baseline, &graph));
    assert_eq!(baseline.len(), 2);

    // Declare that only positional argument 0 of subprocess.call is
    // security-critical (`p: subprocess.call() 0` in the spec format).
    spec.set_signature("subprocess.call()", SinkSignature::positional([0]));

    println!("=== Parameter-sensitive: only the dangerous flow remains ===\n");
    let analyzer = TaintAnalyzer::with_options(
        &graph,
        &spec,
        TaintOptions { param_sensitive: true },
    );
    let sensitive = analyzer.find_violations();
    print!("{}", render_reports(&sensitive, &graph));
    assert_eq!(sensitive.len(), 1);
    assert_eq!(sensitive[0].sink_rep, "subprocess.call()");
    println!(
        "\nSuppressed {} wrong-parameter report(s) while keeping the true one.",
        baseline.len() - sensitive.len()
    );
    Ok(())
}
