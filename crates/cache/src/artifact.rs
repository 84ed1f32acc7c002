//! The per-file artifact payload: a propagation graph serialized by
//! representation **string**.
//!
//! `Symbol(u32)` values are slots in the process-global interner — a second
//! process (or the same binary after a restart) assigns different numbers
//! to the same strings, so raw symbols must never reach disk. An artifact
//! instead carries a per-entry string table of representation texts; events
//! reference table indices, and [`FileArtifact::to_graph`] re-interns the
//! strings in the loading process. [`FileId`]s are equally run-local (the
//! file's index in corpus order), so the stored graph is always stamped
//! file 0 and re-stamped with the caller's id on load.
//!
//! Alongside the graph the payload stores the file's constraint fragment:
//! its contribution to the §4.3 representation-frequency census, again
//! keyed by string-table index. On load the fragment is recomputed from
//! the decoded graph and compared — a payload that passes the outer
//! checksum but decodes to a graph disagreeing with its own fragment is
//! treated as corrupt and recomputed, never trusted.

use crate::entry::EntryError;
use seldon_intern::intern;
use seldon_propgraph::{ArgPos, EdgeKind, Event, EventId, EventKind, FileId, PropagationGraph};
use seldon_pyast::Span;
use seldon_telemetry::json::{self, Json};
use std::collections::HashMap;

/// A propagation graph plus constraint fragment in disk-stable form.
#[derive(Debug, Clone, PartialEq)]
pub struct FileArtifact {
    /// Lenient-parse error count: 0 for a strict parse, `n ≥ 1` when the
    /// file was recovered with `n` front-end errors.
    pub recovered_errors: usize,
    /// Representation string table; events refer to entries by index.
    strings: Vec<String>,
    /// Events as `(kind, span, rep-table-indices)`.
    events: Vec<(EventKind, Span, Vec<u32>)>,
    /// Flow edges `(from, to, kind)`, ordered so that replaying
    /// [`PropagationGraph::add_edge_kind`] reproduces the original
    /// graph's successor *and* predecessor list orders (see
    /// [`FileArtifact::from_graph`]).
    edges: Vec<(u32, u32, EdgeKind)>,
    /// Argument positions for the edges that have one.
    args: Vec<(u32, u32, ArgPos)>,
    /// The §4.3 frequency fragment: `(rep-table-index, count)` pairs.
    freq: Vec<(u32, u32)>,
}

fn kind_tag(kind: EventKind) -> u64 {
    match kind {
        EventKind::Call => 0,
        EventKind::ObjectRead => 1,
        EventKind::ParamRead => 2,
    }
}

fn kind_from_tag(tag: u64) -> Option<EventKind> {
    match tag {
        0 => Some(EventKind::Call),
        1 => Some(EventKind::ObjectRead),
        2 => Some(EventKind::ParamRead),
        _ => None,
    }
}

/// Computes the frequency fragment of a graph against a string table.
fn freq_fragment(
    graph: &PropagationGraph,
    index_of: &HashMap<&str, u32>,
) -> Vec<(u32, u32)> {
    let mut counts: HashMap<u32, u32> = HashMap::new();
    for (_, event) in graph.events() {
        for &rep in &event.reps {
            *counts.entry(index_of[rep.as_str()]).or_insert(0) += 1;
        }
    }
    let mut freq: Vec<(u32, u32)> = counts.into_iter().collect();
    freq.sort_unstable();
    freq
}

impl FileArtifact {
    /// Captures a per-file graph (as built by the front end, stamped with
    /// any [`FileId`]) into disk-stable form.
    pub fn from_graph(graph: &PropagationGraph, recovered_errors: usize) -> FileArtifact {
        let mut strings: Vec<String> = Vec::new();
        let mut index_of: HashMap<&str, u32> = HashMap::new();
        let mut events = Vec::with_capacity(graph.event_count());
        for (_, event) in graph.events() {
            let reps = event
                .reps
                .iter()
                .map(|&rep| {
                    let text = rep.as_str();
                    *index_of.entry(text).or_insert_with(|| {
                        strings.push(text.to_string());
                        (strings.len() - 1) as u32
                    })
                })
                .collect();
            events.push((event.kind, event.span, reps));
        }
        // Adjacency-list order is behaviorally significant: constraint
        // generation walks successor/predecessor lists in insertion order,
        // and the solver's floating-point results depend on constraint
        // order. `graph.edges()` preserves each successor list but loses
        // predecessor order, so a rebuilt graph would generate a permuted
        // (same multiset, different order) constraint system and miss the
        // warm-start fingerprint. Instead, emit edges in an order that
        // heads both its source's out-chain and its target's in-chain —
        // replaying `add_edge_kind` then reproduces both list families
        // exactly. Such a schedule always exists (the original insertion
        // sequence is one) and Kahn-style greedy emission finds one.
        let n = graph.event_count();
        let mut edges = Vec::with_capacity(graph.edge_count());
        let mut args = Vec::new();
        let mut out_ptr = vec![0usize; n];
        let mut in_ptr = vec![0usize; n];
        let head = |out_ptr: &[usize], in_ptr: &[usize], f: u32| -> Option<EventId> {
            let from = EventId(f);
            let t = *graph.successors(from).get(out_ptr[from.index()])?;
            (graph.predecessors(t)[in_ptr[t.index()]] == from).then_some(t)
        };
        let mut stack: Vec<u32> = (0..n as u32).collect();
        while let Some(f) = stack.pop() {
            while let Some(to) = head(&out_ptr, &in_ptr, f) {
                let from = EventId(f);
                let kind = graph.edge_kind(from, to).expect("chain heads are edges");
                edges.push((from.0, to.0, kind));
                if let Some(pos) = graph.arg_position(from, to) {
                    args.push((from.0, to.0, pos.clone()));
                }
                out_ptr[from.index()] += 1;
                in_ptr[to.index()] += 1;
                // The target's next in-edge may have just become emittable.
                if let Some(&g) = graph.predecessors(to).get(in_ptr[to.index()]) {
                    stack.push(g.0);
                }
            }
        }
        debug_assert_eq!(edges.len(), graph.edge_count(), "edge schedule is complete");
        let freq = freq_fragment(graph, &index_of);
        FileArtifact { recovered_errors, strings, events, edges, args, freq }
    }

    /// Rebuilds the graph in this process: representation strings are
    /// re-interned, events re-stamped with `file`, and the stored
    /// frequency fragment cross-checked against the rebuilt graph.
    ///
    /// # Errors
    ///
    /// [`EntryError::Corrupt`] when the payload is internally inconsistent
    /// (out-of-range indices, empty rep lists, fragment mismatch).
    pub fn to_graph(&self, file: FileId) -> Result<PropagationGraph, EntryError> {
        let corrupt = |what: &str| EntryError::Corrupt(what.to_string());
        let symbols: Vec<_> = self.strings.iter().map(|s| intern(s)).collect();
        let mut graph = PropagationGraph::new();
        graph.reserve_events(self.events.len());
        for (kind, span, reps) in &self.events {
            if reps.is_empty() {
                return Err(corrupt("event with no representations"));
            }
            let reps = reps
                .iter()
                .map(|&i| symbols.get(i as usize).copied())
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| corrupt("representation index out of range"))?;
            graph.add_event(Event::new(*kind, reps, file, *span));
        }
        let n = self.events.len() as u32;
        for &(from, to, kind) in &self.edges {
            if from >= n || to >= n {
                return Err(corrupt("edge endpoint out of range"));
            }
            graph.add_edge_kind(EventId(from), EventId(to), kind);
        }
        for (from, to, pos) in &self.args {
            if *from >= n || *to >= n {
                return Err(corrupt("argument edge out of range"));
            }
            graph.set_arg_position(EventId(*from), EventId(*to), pos.clone());
        }
        let index_of: HashMap<&str, u32> = self
            .strings
            .iter()
            .enumerate()
            .map(|(i, s)| (s.as_str(), i as u32))
            .collect();
        if index_of.len() != self.strings.len() {
            return Err(corrupt("duplicate string-table entries"));
        }
        if freq_fragment(&graph, &index_of) != self.freq {
            return Err(corrupt("frequency fragment disagrees with decoded graph"));
        }
        Ok(graph)
    }

    /// Serializes to the compact JSON payload framed by
    /// [`crate::entry::encode_entry`].
    ///
    /// The event/edge/arg/freq tables are packed into single delimited
    /// strings (rows split by `;`, fields by `,`) rather than nested JSON
    /// arrays: a warm run decodes hundreds of these payloads on the hot
    /// path, and one string per table keeps the JSON token count — and
    /// with it the parse cost — roughly constant per file instead of
    /// linear in graph size.
    pub fn to_payload(&self) -> Vec<u8> {
        use std::fmt::Write;
        let mut events = String::new();
        for (i, (kind, span, reps)) in self.events.iter().enumerate() {
            if i > 0 {
                events.push(';');
            }
            let _ = write!(
                events,
                "{},{},{},{},{}",
                kind_tag(*kind),
                span.start,
                span.end,
                span.line,
                span.col
            );
            for r in reps {
                let _ = write!(events, ",{r}");
            }
        }
        let mut edges = String::new();
        for (i, &(from, to, kind)) in self.edges.iter().enumerate() {
            if i > 0 {
                edges.push(';');
            }
            let tag = match kind {
                EdgeKind::Argument => 0,
                EdgeKind::Receiver => 1,
            };
            let _ = write!(edges, "{from},{to},{tag}");
        }
        let mut args = String::new();
        for (i, (from, to, pos)) in self.args.iter().enumerate() {
            if i > 0 {
                args.push(';');
            }
            // Keyword names are Python identifiers, so they never contain
            // the `;`/`,` delimiters; the decoder splits the name field
            // last and keeps any `,` it might somehow carry.
            match pos {
                ArgPos::Receiver => {
                    let _ = write!(args, "{from},{to},0");
                }
                ArgPos::Positional(p) => {
                    let _ = write!(args, "{from},{to},1,{p}");
                }
                ArgPos::Keyword(name) => {
                    let _ = write!(args, "{from},{to},2,{name}");
                }
            }
        }
        let mut freq = String::new();
        for (i, &(rep, n)) in self.freq.iter().enumerate() {
            if i > 0 {
                freq.push(';');
            }
            let _ = write!(freq, "{rep},{n}");
        }
        Json::Obj(vec![
            ("recovered_errors".into(), Json::num(self.recovered_errors as f64)),
            (
                "strings".into(),
                Json::Arr(self.strings.iter().map(Json::str).collect()),
            ),
            ("events".into(), Json::str(events)),
            ("edges".into(), Json::str(edges)),
            ("args".into(), Json::str(args)),
            ("freq".into(), Json::str(freq)),
        ])
        .compact()
        .into_bytes()
    }

    /// Parses a payload produced by [`FileArtifact::to_payload`].
    ///
    /// # Errors
    ///
    /// [`EntryError::Corrupt`] on malformed JSON or schema mismatch.
    pub fn from_payload(payload: &[u8]) -> Result<FileArtifact, EntryError> {
        let corrupt = |what: &str| EntryError::Corrupt(what.to_string());
        let text = std::str::from_utf8(payload).map_err(|_| corrupt("payload not UTF-8"))?;
        let v = json::parse(text).map_err(|e| corrupt(&format!("payload JSON: {e}")))?;
        let field = |key: &str| v.get(key).ok_or_else(|| corrupt(&format!("missing `{key}`")));
        let table = |key: &str| -> Result<&str, EntryError> {
            field(key)?.as_str().ok_or_else(|| corrupt(&format!("`{key}` not a string")))
        };
        let small = |field: &str, what: &str| -> Result<u32, EntryError> {
            field.parse::<u32>().map_err(|_| corrupt(&format!("{what} not a u32")))
        };
        fn rows(table: &str) -> impl Iterator<Item = &str> {
            table.split(';').filter(|r| !r.is_empty())
        }
        let recovered_errors = field("recovered_errors")?
            .as_u64()
            .ok_or_else(|| corrupt("`recovered_errors` not a count"))?
            as usize;
        let strings = field("strings")?
            .as_arr()
            .ok_or_else(|| corrupt("`strings` not an array"))?
            .iter()
            .map(|s| s.as_str().map(str::to_string).ok_or_else(|| corrupt("non-string rep")))
            .collect::<Result<Vec<_>, _>>()?;
        let mut events = Vec::new();
        for row in rows(table("events")?) {
            let fields: Vec<&str> = row.split(',').collect();
            if fields.len() < 6 {
                return Err(corrupt("event row too short"));
            }
            let kind = kind_from_tag(
                fields[0].parse().map_err(|_| corrupt("event kind not a tag"))?,
            )
            .ok_or_else(|| corrupt("unknown event kind"))?;
            let span = Span::new(
                small(fields[1], "span.start")?,
                small(fields[2], "span.end")?,
                small(fields[3], "span.line")?,
                small(fields[4], "span.col")?,
            );
            let reps = fields[5..]
                .iter()
                .map(|i| small(i, "rep index"))
                .collect::<Result<Vec<_>, _>>()?;
            events.push((kind, span, reps));
        }
        let mut edges = Vec::new();
        for row in rows(table("edges")?) {
            let fields: Vec<&str> = row.split(',').collect();
            if fields.len() != 3 {
                return Err(corrupt("edge row must have 3 fields"));
            }
            let kind = match fields[2] {
                "0" => EdgeKind::Argument,
                "1" => EdgeKind::Receiver,
                _ => return Err(corrupt("unknown edge kind")),
            };
            edges.push((small(fields[0], "edge.from")?, small(fields[1], "edge.to")?, kind));
        }
        let mut args = Vec::new();
        for row in rows(table("args")?) {
            // The keyword-name field comes last and is taken verbatim, so
            // split off at most the three leading numeric fields.
            let fields: Vec<&str> = row.splitn(4, ',').collect();
            if fields.len() < 3 {
                return Err(corrupt("arg row too short"));
            }
            let value = fields.get(3).copied();
            let pos = match (fields[2], value) {
                ("0", None) => ArgPos::Receiver,
                ("1", Some(p)) => ArgPos::Positional(
                    p.parse().map_err(|_| corrupt("positional index not a u8"))?,
                ),
                ("2", Some(name)) => ArgPos::Keyword(name.to_string()),
                _ => return Err(corrupt("unknown arg position tag")),
            };
            args.push((small(fields[0], "arg.from")?, small(fields[1], "arg.to")?, pos));
        }
        let mut freq = Vec::new();
        for row in rows(table("freq")?) {
            let fields: Vec<&str> = row.split(',').collect();
            if fields.len() != 2 {
                return Err(corrupt("freq row must have 2 fields"));
            }
            freq.push((small(fields[0], "freq.rep")?, small(fields[1], "freq.count")?));
        }
        Ok(FileArtifact { recovered_errors, strings, events, edges, args, freq })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seldon_propgraph::{build_source, BuildOptions};

    const SOURCE: &str = "import flask\nimport os\n\ndef handler():\n    q = flask.request.args.get('q')\n    os.system(q)\n";

    fn graphs_agree(a: &PropagationGraph, b: &PropagationGraph) {
        assert_eq!(a.event_count(), b.event_count());
        assert_eq!(a.edge_count(), b.edge_count());
        for (id, ev) in a.events() {
            let other = b.event(id);
            assert_eq!(ev.kind, other.kind);
            assert_eq!(ev.span, other.span);
            assert_eq!(ev.candidates, other.candidates);
            let reps: Vec<&str> = ev.reps.iter().map(|r| r.as_str()).collect();
            let other_reps: Vec<&str> = other.reps.iter().map(|r| r.as_str()).collect();
            assert_eq!(reps, other_reps);
        }
        for (from, to) in a.edges() {
            assert_eq!(a.edge_kind(from, to), b.edge_kind(from, to));
            assert_eq!(a.arg_position(from, to), b.arg_position(from, to));
        }
        // Adjacency-list *order* must survive too: constraint generation
        // walks these lists, and constraint order feeds the solver.
        for (id, _) in a.events() {
            assert_eq!(a.successors(id), b.successors(id), "succ order of {id:?}");
            assert_eq!(a.predecessors(id), b.predecessors(id), "pred order of {id:?}");
        }
    }

    #[test]
    fn graph_round_trips_with_restamped_file_id() {
        let graph = build_source(SOURCE, FileId(0), &BuildOptions::default()).unwrap().graph;
        let artifact = FileArtifact::from_graph(&graph, 0);
        let payload = artifact.to_payload();
        let back = FileArtifact::from_payload(&payload).unwrap();
        assert_eq!(back, artifact);
        let rebuilt = back.to_graph(FileId(42)).unwrap();
        graphs_agree(&graph, &rebuilt);
        for (_, ev) in rebuilt.events() {
            assert_eq!(ev.file, FileId(42), "events are re-stamped on load");
        }
    }

    #[test]
    fn payload_contains_no_raw_symbols() {
        let graph = build_source(SOURCE, FileId(7), &BuildOptions::default()).unwrap().graph;
        let payload = FileArtifact::from_graph(&graph, 0).to_payload();
        let text = std::str::from_utf8(&payload).unwrap();
        // Every representation appears by string; the payload parses in
        // any process regardless of interner state.
        assert!(text.contains("os.system()"), "reps stored as strings: {text}");
    }

    #[test]
    fn tampered_fragment_is_rejected() {
        let graph = build_source(SOURCE, FileId(0), &BuildOptions::default()).unwrap().graph;
        let mut artifact = FileArtifact::from_graph(&graph, 0);
        artifact.freq[0].1 += 1;
        assert!(matches!(
            artifact.to_graph(FileId(0)).unwrap_err(),
            EntryError::Corrupt(_)
        ));
    }

    #[test]
    fn out_of_range_indices_are_rejected() {
        let graph = build_source(SOURCE, FileId(0), &BuildOptions::default()).unwrap().graph;
        let artifact = FileArtifact::from_graph(&graph, 0);
        let mut bad = artifact.clone();
        bad.events[0].2 = vec![9999];
        assert!(bad.to_graph(FileId(0)).is_err());
        let mut bad = artifact.clone();
        bad.edges.push((9999, 0, EdgeKind::Argument));
        assert!(bad.to_graph(FileId(0)).is_err());
    }
}
