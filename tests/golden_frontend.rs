//! Golden tests: realistic Python snippets (the kinds of code the paper's
//! GitHub corpus contains) must parse, round-trip through the unparser,
//! build propagation graphs, and yield the expected representations.

use seldon_propgraph::{build_source, BuildOptions, FileId};
use seldon_pyast::{parse, unparse};

/// Each case: a realistic snippet and the representations its graph must
/// contain.
const GOLDEN: &[(&str, &str, &[&str])] = &[
    (
        "flask_login_view",
        r#"
from flask import request, session, redirect, url_for
import flask

@app.route('/login', methods=['GET', 'POST'])
def login():
    if request.method == 'POST':
        session['username'] = request.form['username']
        return redirect(url_for('index'))
    return flask.render_template_string('<form>...</form>')
"#,
        &["flask.request.form['username']", "flask.redirect()", "flask.render_template_string()"],
    ),
    (
        "django_orm_view",
        r#"
from django.shortcuts import render, get_object_or_404
from myapp.models import Post

def detail(request, post_id):
    post = get_object_or_404(Post, pk=post_id)
    comments = post.comments.filter(active=True)
    return render(request, 'detail.html', {'post': post, 'comments': comments})
"#,
        &["django.shortcuts.get_object_or_404()", "django.shortcuts.render()"],
    ),
    (
        "db_cursor_usage",
        r#"
import sqlite3

def lookup(user_id):
    conn = sqlite3.connect('app.db')
    cur = conn.cursor()
    cur.execute("SELECT * FROM users WHERE id = ?", (user_id,))
    rows = cur.fetchall()
    conn.close()
    return rows
"#,
        &["sqlite3.connect()", "sqlite3.connect().cursor()", "sqlite3.connect().cursor().execute()"],
    ),
    (
        "class_based_handler",
        r#"
from rest_framework.views import APIView
from rest_framework.response import Response

class UserList(APIView):
    def get(self, request, format=None):
        names = [u.username for u in self.queryset()]
        return Response(names)
"#,
        &["UserList::get(param request)", "rest_framework.response.Response()"],
    ),
    (
        "context_managers_and_exceptions",
        r#"
import json

def load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (IOError, ValueError) as e:
        return {}
    finally:
        audit('config-read')
"#,
        &["open()", "json.load()", "audit()"],
    ),
    (
        "decorators_and_defaults",
        r#"
from functools import wraps

def cached(ttl=300):
    def wrapper(fn):
        @wraps(fn)
        def inner(*args, **kwargs):
            return fn(*args, **kwargs)
        return inner
    return wrapper
"#,
        &["cached(param ttl)", "wrapper(param fn)"],
    ),
    (
        "py2_idioms",
        r#"
import sys

def main():
    try:
        count = int(sys.argv[1])
    except IndexError, e:
        print 'usage: prog count'
        return 1
    print >> sys.stderr, 'running', count
    return 0
"#,
        &["int()"],
    ),
    (
        "comprehensions_and_fstrings",
        r#"
from flask import request

def summary():
    fields = {k: v for k, v in request.args.items() if k != 'token'}
    parts = [f"{k}={v}" for k, v in fields.items()]
    return f"query: {', '.join(parts)}"
"#,
        &["flask.request.args.items()"],
    ),
];

#[test]
fn golden_snippets_parse_and_build() {
    for (name, src, expected_reps) in GOLDEN {
        let module =
            parse(src).unwrap_or_else(|e| panic!("{name}: parse failed: {e}\n{src}"));
        assert!(!module.body.is_empty(), "{name}: empty module");
        let graph = build_source(src, FileId(0), &BuildOptions::default())
            .unwrap_or_else(|e| panic!("{name}: graph build failed: {e}"))
            .graph;
        for rep in *expected_reps {
            assert!(
                graph.events().any(|(_, e)| e.has_rep(rep)),
                "{name}: missing representation {rep}; have: {:?}",
                graph.events().map(|(_, e)| e.rep().to_string()).collect::<Vec<_>>()
            );
        }
    }
}

#[test]
fn golden_snippets_round_trip_through_unparser() {
    for (name, src, _) in GOLDEN {
        if *name == "py2_idioms" {
            // Python 2 print statements unparse to py3 call form; the
            // fixpoint starts after one normalization pass.
        }
        let m1 = parse(src).unwrap_or_else(|e| panic!("{name}: parse: {e}"));
        let printed = unparse(&m1);
        let m2 = parse(&printed)
            .unwrap_or_else(|e| panic!("{name}: reparse: {e}\n--- printed ---\n{printed}"));
        let printed2 = unparse(&m2);
        assert_eq!(printed, printed2, "{name}: unparser not a fixpoint");
    }
}

#[test]
fn golden_snippets_graph_shapes_are_stable() {
    // Event and edge counts are deterministic; pin them so that analysis
    // regressions surface loudly (update deliberately when the analysis
    // changes).
    for (name, src, _) in GOLDEN {
        let g1 = build_source(src, FileId(0), &BuildOptions::default()).unwrap().graph;
        let g2 = build_source(src, FileId(0), &BuildOptions::default()).unwrap().graph;
        assert_eq!(g1.event_count(), g2.event_count(), "{name}: nondeterministic events");
        assert_eq!(g1.edge_count(), g2.edge_count(), "{name}: nondeterministic edges");
        // Every graph here has at least one flow edge except pure-def ones.
        if !matches!(*name, "decorators_and_defaults") {
            assert!(g1.edge_count() > 0, "{name}: no flow at all");
        }
    }
}
