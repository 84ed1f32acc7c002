//! Deterministic generator of realistic synthetic web applications.
//!
//! Each project is a handful of source files containing Flask/Django-style
//! route handlers. Every handler implements one *flow pattern* (sanitized
//! chain, unsanitized vulnerability, wrong-parameter flow, noise, ...);
//! the generator records the ground truth of every flow so experiments can
//! measure precision exactly instead of estimating it by manual
//! inspection.
//!
//! The generator emits either Python ([`Lang::Py`], the default) or a
//! JS-like subset ([`Lang::Js`]) from the *same* RNG draw sequence: the
//! language only changes how each already-decided flow is rendered to
//! text, so a seed produces structurally parallel corpora in both
//! languages and the Python output is byte-identical to what a
//! JS-unaware build generates.

use crate::universe::{ApiShape, ApiSpec, Category, Universe};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use seldon_specs::Role;
use std::collections::BTreeSet;

/// What a generated handler's data flow truly is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowKind {
    /// Source → sanitizer → sink: correctly protected, not a bug.
    Sanitized,
    /// Source → sink with no sanitizer: a genuine vulnerability.
    Vulnerable {
        /// Whether the flow is exploitable in context (the paper's
        /// "vulnerable flow, but no bug" distinction, e.g. a text/plain
        /// content type defusing an XSS).
        exploitable: bool,
    },
    /// Source flows into a harmless parameter of an API.
    WrongParam,
    /// Sink called with a constant; source unused elsewhere. Safe.
    SafeLiteral,
    /// Utility-only handler; no security-relevant flow.
    Noise,
}

/// Ground truth for one generated flow.
#[derive(Debug, Clone)]
pub struct FlowTruth {
    /// Project index within the corpus.
    pub project: usize,
    /// File path within the project.
    pub file: String,
    /// Handler function name.
    pub handler: String,
    /// The flow kind.
    pub kind: FlowKind,
    /// Canonical source representation (if the flow has a source).
    pub source: Option<&'static str>,
    /// Canonical sanitizer representation (if sanitized).
    pub sanitizer: Option<&'static str>,
    /// Canonical sink representation (if the flow reaches a call).
    pub sink: Option<&'static str>,
}

/// Source language of a generated corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Lang {
    /// Python (Flask/Django style), analyzed by `seldon-pyast`.
    #[default]
    Py,
    /// JS-like subset (Express style), analyzed by `seldon-jsfront`.
    Js,
}

impl Lang {
    /// File extension for generated sources.
    pub fn extension(self) -> &'static str {
        match self {
            Lang::Py => "py",
            Lang::Js => "js",
        }
    }
}

/// One generated source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the project root, e.g. `app/views_2.py`.
    pub path: String,
    /// Source text (Python or JS, per [`CorpusOptions::lang`]).
    pub content: String,
}

/// One generated project (repository).
#[derive(Debug, Clone)]
pub struct Project {
    /// Project name, e.g. `project_017`.
    pub name: String,
    /// Project files.
    pub files: Vec<SourceFile>,
}

/// A generated corpus with its ground truth.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    /// The projects.
    pub projects: Vec<Project>,
    /// Ground truth for every generated flow.
    pub flows: Vec<FlowTruth>,
    /// Representations of generated app-level wrappers that truly carry a
    /// role (e.g. a helper returning a source value is itself a source).
    pub derived_roles: Vec<(String, Role)>,
    /// Faults injected into files (see [`CorpusOptions::fault_rate`]);
    /// empty for clean corpora.
    pub faults: Vec<crate::faults::InjectedFault>,
}

impl Corpus {
    /// Total number of files.
    pub fn file_count(&self) -> usize {
        self.projects.iter().map(|p| p.files.len()).sum()
    }

    /// Iterates `(project index, file)` pairs.
    pub fn files(&self) -> impl Iterator<Item = (usize, &SourceFile)> {
        self.projects
            .iter()
            .enumerate()
            .flat_map(|(i, p)| p.files.iter().map(move |f| (i, f)))
    }
}

/// Corpus generation parameters.
#[derive(Debug, Clone)]
pub struct CorpusOptions {
    /// Number of projects.
    pub projects: usize,
    /// Files per project (inclusive range).
    pub files_per_project: (usize, usize),
    /// Handlers per file (inclusive range).
    pub handlers_per_file: (usize, usize),
    /// RNG seed; the same options always generate the same corpus.
    pub rng_seed: u64,
    /// Probability a role slot picks a seed API instead of a learnable one.
    pub seed_api_bias: f64,
    /// Probability each generated file is corrupted with an injected fault
    /// (see [`crate::faults::FaultKind`]). `0.0` disables injection and
    /// leaves generation byte-identical to a fault-unaware build.
    pub fault_rate: f64,
    /// Language the corpus is rendered in. Changing the language does not
    /// change any RNG draw, only the emitted text.
    pub lang: Lang,
}

impl Default for CorpusOptions {
    fn default() -> Self {
        CorpusOptions {
            projects: 40,
            files_per_project: (2, 5),
            handlers_per_file: (2, 5),
            rng_seed: 0xC0FFEE,
            seed_api_bias: 0.5,
            fault_rate: 0.0,
            lang: Lang::Py,
        }
    }
}

/// Generates a corpus.
pub fn generate_corpus(universe: &Universe, opts: &CorpusOptions) -> Corpus {
    let mut rng = SmallRng::seed_from_u64(opts.rng_seed);
    let mut corpus = Corpus::default();
    for pi in 0..opts.projects {
        let nfiles = rng.gen_range(opts.files_per_project.0..=opts.files_per_project.1);
        let mut files = Vec::new();
        for fi in 0..nfiles {
            let path = format!("app/views_{fi}.{}", opts.lang.extension());
            let nhandlers =
                rng.gen_range(opts.handlers_per_file.0..=opts.handlers_per_file.1);
            let mut gen = FileGen::new(universe, &mut rng, pi, &path, opts.lang);
            for hi in 0..nhandlers {
                gen.emit_handler(hi);
            }
            let (content, flows, derived) = gen.finish();
            corpus.flows.extend(flows);
            corpus.derived_roles.extend(derived);
            files.push(SourceFile { path, content });
        }
        corpus.projects.push(Project { name: format!("project_{pi:03}"), files });
    }
    if opts.fault_rate > 0.0 {
        crate::faults::inject_faults(&mut corpus, opts.fault_rate, opts.rng_seed);
    }
    corpus
}

/// Builds one file's text and ground truth.
struct FileGen<'u, 'r> {
    universe: &'u Universe,
    rng: &'r mut SmallRng,
    project: usize,
    path: String,
    lang: Lang,
    imports: BTreeSet<String>,
    body: String,
    flows: Vec<FlowTruth>,
    derived: Vec<(String, Role)>,
    used_helpers: std::collections::HashSet<&'static str>,
    var_counter: usize,
}

impl<'u, 'r> FileGen<'u, 'r> {
    fn new(
        universe: &'u Universe,
        rng: &'r mut SmallRng,
        project: usize,
        path: &str,
        lang: Lang,
    ) -> Self {
        FileGen {
            universe,
            rng,
            project,
            path: path.to_string(),
            lang,
            imports: BTreeSet::new(),
            body: String::new(),
            flows: Vec::new(),
            derived: Vec::new(),
            used_helpers: std::collections::HashSet::new(),
            var_counter: 0,
        }
    }

    fn fresh_var(&mut self) -> String {
        let v = format!("v{}", self.var_counter);
        self.var_counter += 1;
        v
    }

    /// Renders one `name = expr` binding in the corpus language.
    fn assign(&self, v: &str, expr: &str) -> String {
        match self.lang {
            Lang::Py => format!("{v} = {expr}"),
            Lang::Js => format!("const {v} = {expr};"),
        }
    }

    /// Renders one `return expr` statement in the corpus language.
    fn ret(&self, expr: &str) -> String {
        match self.lang {
            Lang::Py => format!("return {expr}"),
            Lang::Js => format!("return {expr};"),
        }
    }

    /// Renders an API expression template in the corpus language
    /// (keyword arguments become a trailing options object in JS).
    fn tmpl(&self, t: &str) -> String {
        match self.lang {
            Lang::Py => t.to_string(),
            Lang::Js => js_template(t),
        }
    }

    fn use_api(&mut self, api: &ApiSpec) {
        if !api.import_line.is_empty() {
            let line = match self.lang {
                Lang::Py => api.import_line.to_string(),
                Lang::Js => js_import(api.import_line),
            };
            self.imports.insert(line);
        }
    }

    fn pick<'a>(&mut self, options: &[&'a ApiSpec]) -> &'a ApiSpec {
        options.choose(self.rng).expect("non-empty api list")
    }

    /// Picks an API of `role` in `category`, seed-vs-learnable weighted.
    fn pick_role(&mut self, role: Role, category: Category, bias: f64) -> &'u ApiSpec {
        let want_seed = self.rng.gen_bool(bias);
        let pool = self.universe.by_role(role, category, want_seed);
        let pool = if pool.is_empty() {
            self.universe.by_role(role, category, !want_seed)
        } else {
            pool
        };
        // Fall back to any category if this one lacks the role entirely.
        if pool.is_empty() {
            let any: Vec<&ApiSpec> = self
                .universe
                .apis()
                .iter()
                .filter(|a| a.role == Some(role) && a.shape != ApiShape::WrongParamCall)
                .collect();
            return self.pick(&any);
        }
        self.pick(&pool)
    }

    fn emit_handler(&mut self, index: usize) {
        let category = *Category::ALL.choose(self.rng).expect("categories");
        let roll: f64 = self.rng.gen();
        let kind = if roll < 0.46 {
            FlowKind::Sanitized
        } else if roll < 0.62 {
            FlowKind::Vulnerable { exploitable: self.rng.gen_bool(0.6) }
        } else if roll < 0.70 {
            FlowKind::WrongParam
        } else if roll < 0.80 {
            FlowKind::SafeLiteral
        } else {
            FlowKind::Noise
        };
        self.emit_flow(index, category, kind);
    }

    /// Emits one handler implementing `kind` for `category`.
    fn emit_flow(&mut self, index: usize, category: Category, kind: FlowKind) {
        // Handler names are unique per project (as in real code), so the
        // most specific parameter-anchored representations are corpus-rare
        // and only their suffix backoffs are shared.
        let handler = format!("handler_p{}_{}_{}", self.project, self.path_stub(), index);
        match kind {
            FlowKind::Noise => self.emit_noise_handler(&handler),
            FlowKind::SafeLiteral => self.emit_safe_literal(&handler, category),
            FlowKind::WrongParam => self.emit_wrong_param(&handler, category),
            FlowKind::Sanitized => self.emit_chain(&handler, category, true, true),
            FlowKind::Vulnerable { exploitable } => {
                self.emit_chain(&handler, category, false, exploitable)
            }
        }
    }

    fn path_stub(&self) -> String {
        self.path
            .trim_start_matches("app/views_")
            .trim_end_matches(".py")
            .trim_end_matches(".js")
            .to_string()
    }

    /// The main pattern: source → [noise] → (sanitizer?) → [noise] → sink.
    fn emit_chain(&mut self, handler: &str, category: Category, sanitized: bool, exploitable: bool) {
        let source = self.pick_role(Role::Source, category, 0.5);
        let sink = self.pick_role(Role::Sink, category, 0.5);
        let sanitizer = if sanitized {
            Some(self.pick_role(Role::Sanitizer, category, 0.5))
        } else {
            None
        };
        self.use_api(source);
        self.use_api(sink);
        if let Some(s) = sanitizer {
            self.use_api(s);
        }

        let param_style = source.shape == ApiShape::SourceParamRead;
        // Django-style class-based views exercise the Class::method(param
        // request) representation levels of §3.2.
        let class_style = param_style && self.rng.gen_bool(0.35);
        // Vulnerable code tends to be short and direct (the classic
        // copy-paste bug); carefully engineered code wraps inputs in
        // helpers and sanitizes them.
        let helper_p = if sanitized { 0.30 } else { 0.08 };
        let via_helper = self.rng.gen_bool(helper_p) && !param_style;
        let with_branch = sanitized && self.rng.gen_bool(0.2);

        let mut lines: Vec<String> = Vec::new();
        let sig_param = if param_style { "request" } else { "" };

        // Source line.
        let v_src = self.fresh_var();
        let lit = format!("'{}'", pick_literal(self.rng));
        let src_expr = self.tmpl(source.template).replace("{L}", &lit);
        if via_helper {
            // Helper names come from a small realistic pool, so the same
            // wrapper name recurs across projects — exactly the cross-
            // project conflation big-code learning exploits.
            const HELPER_POOL: [&str; 8] = [
                "fetch_input", "read_param", "load_value", "get_payload",
                "read_field", "fetch_request_data", "load_user_input", "get_form_value",
            ];
            let helper = HELPER_POOL[self.rng.gen_range(0..HELPER_POOL.len())];
            if self.used_helpers.insert(helper) {
                match self.lang {
                    Lang::Py => self
                        .body
                        .push_str(&format!("def {helper}():\n    return {src_expr}\n\n")),
                    Lang::Js => self.body.push_str(&format!(
                        "function {helper}() {{\n    return {src_expr};\n}}\n\n"
                    )),
                }
                lines.push(self.assign(&v_src, &format!("{helper}()")));
                // The wrapper itself is a true source at app level.
                self.derived.push((format!("{helper}()"), Role::Source));
            } else {
                // Name already taken in this file: inline instead.
                lines.push(self.assign(&v_src, &src_expr));
            }
        } else {
            lines.push(self.assign(&v_src, &src_expr));
        }

        // Optional noise hop (more common in longer, sanitized code).
        let noise_p = if sanitized { 0.40 } else { 0.15 };
        let mut cur = v_src.clone();
        if self.rng.gen_bool(noise_p) {
            cur = self.emit_noise_hop(&mut lines, &cur);
        }

        // Sanitizer (directly, or on one branch only — still safe overall
        // when the unsanitized branch does not reach the sink).
        if let Some(san) = sanitizer {
            let v = self.fresh_var();
            let san_tmpl = self.tmpl(san.template);
            let san_expr = san_tmpl.replace("{V}", &cur);
            if with_branch {
                match self.lang {
                    Lang::Py => {
                        lines.push(format!("if {cur}:"));
                        lines.push(format!("    {v} = {san_expr}"));
                        lines.push("else:".to_string());
                        lines.push(format!("    {v} = {}", san_tmpl.replace("{V}", "''")));
                    }
                    Lang::Js => {
                        lines.push(format!("let {v};"));
                        lines.push(format!("if ({cur}) {{"));
                        lines.push(format!("    {v} = {san_expr};"));
                        lines.push("} else {".to_string());
                        lines.push(format!("    {v} = {};", san_tmpl.replace("{V}", "''")));
                        lines.push("}".to_string());
                    }
                }
            } else {
                lines.push(self.assign(&v, &san_expr));
            }
            cur = v;
        }

        // Optional second noise hop.
        if self.rng.gen_bool(noise_p * 0.6) {
            cur = self.emit_noise_hop(&mut lines, &cur);
        }

        // Sink line.
        let sink_tmpl = self.tmpl(sink.template);
        let sink_expr = match sink.shape {
            ApiShape::SecondArgCall => sink_tmpl
                .replace("{L}", &format!("'{}'", pick_literal(self.rng)))
                .replace("{V}", &cur),
            _ => sink_tmpl.replace("{V}", &cur),
        };
        lines.push(self.ret(&sink_expr));

        if class_style {
            self.write_class_handler(handler, &lines);
        } else {
            self.write_handler(handler, sig_param, &lines, !param_style);
        }

        self.flows.push(FlowTruth {
            project: self.project,
            file: self.path.clone(),
            handler: handler.to_string(),
            kind: if sanitized {
                FlowKind::Sanitized
            } else {
                FlowKind::Vulnerable { exploitable }
            },
            source: Some(source.rep),
            sanitizer: sanitizer.map(|s| s.rep),
            sink: Some(sink.rep),
        });
    }

    /// Tainted data into a harmless parameter.
    fn emit_wrong_param(&mut self, handler: &str, category: Category) {
        let source = self.pick_role(Role::Source, category, 0.5);
        let wp_pool = self.universe.wrong_param();
        let wp = *wp_pool.choose(self.rng).expect("wrong-param apis");
        self.use_api(source);
        self.use_api(wp);
        let param_style = source.shape == ApiShape::SourceParamRead;
        let v = self.fresh_var();
        let lit = format!("'{}'", pick_literal(self.rng));
        let src_expr = self.tmpl(source.template).replace("{L}", &lit);
        let wp_expr = self.tmpl(wp.template).replace("{V}", &v);
        let lines = vec![self.assign(&v, &src_expr), self.ret(&wp_expr)];
        let sig_param = if param_style { "request" } else { "" };
        self.write_handler(handler, sig_param, &lines, !param_style);
        self.flows.push(FlowTruth {
            project: self.project,
            file: self.path.clone(),
            handler: handler.to_string(),
            kind: FlowKind::WrongParam,
            source: Some(source.rep),
            sanitizer: None,
            sink: Some(wp.rep),
        });
    }

    /// Sink fed by a constant; a source read whose value goes nowhere.
    fn emit_safe_literal(&mut self, handler: &str, category: Category) {
        let source = self.pick_role(Role::Source, category, 0.5);
        let sink = self.pick_role(Role::Sink, category, 0.5);
        self.use_api(source);
        self.use_api(sink);
        let param_style = source.shape == ApiShape::SourceParamRead;
        let v = self.fresh_var();
        let lit = format!("'{}'", pick_literal(self.rng));
        let src_expr = self.tmpl(source.template).replace("{L}", &lit);
        let sink_expr = self
            .tmpl(sink.template)
            .replace("{V}", &format!("'{}'", pick_literal(self.rng)));
        let status_line = match self.lang {
            Lang::Py => format!("status = len({v}) if {v} else 0"),
            // `.length` is the JS analogue of the blacklisted `len()` use:
            // the source value is consumed but never reaches the sink.
            Lang::Js => format!("const status = {v}.length;"),
        };
        let lines = vec![self.assign(&v, &src_expr), status_line, self.ret(&sink_expr)];
        let sig_param = if param_style { "request" } else { "" };
        self.write_handler(handler, sig_param, &lines, !param_style);
        self.flows.push(FlowTruth {
            project: self.project,
            file: self.path.clone(),
            handler: handler.to_string(),
            kind: FlowKind::SafeLiteral,
            source: Some(source.rep),
            sanitizer: None,
            sink: Some(sink.rep),
        });
    }

    /// Pure utility handler (no roles involved).
    fn emit_noise_handler(&mut self, handler: &str) {
        let noise_pool = self.universe.noise();
        let n1 = *noise_pool.choose(self.rng).expect("noise");
        let n2 = *noise_pool.choose(self.rng).expect("noise");
        self.use_api(n1);
        self.use_api(n2);
        let v0 = self.fresh_var();
        let v1 = self.fresh_var();
        let n1_expr = self
            .tmpl(n1.template)
            .replace("{V}", &format!("'{}'", pick_literal(self.rng)));
        let n2_expr = self.tmpl(n2.template).replace("{V}", &v0);
        let lines = vec![
            self.assign(&v0, &n1_expr),
            self.assign(&v1, &n2_expr),
            self.ret(&v1),
        ];
        self.write_handler(handler, "", &lines, true);
        self.flows.push(FlowTruth {
            project: self.project,
            file: self.path.clone(),
            handler: handler.to_string(),
            kind: FlowKind::Noise,
            source: None,
            sanitizer: None,
            sink: None,
        });
    }

    /// A taint-preserving hop with no true role: either a no-role API call,
    /// a blacklisted string method, or an f-string.
    fn emit_noise_hop(&mut self, lines: &mut Vec<String>, cur: &str) -> String {
        let v = self.fresh_var();
        match self.rng.gen_range(0..3u8) {
            0 => {
                let pool = self.universe.noise();
                let api = *pool.choose(self.rng).expect("noise");
                self.use_api(api);
                let expr = self.tmpl(api.template).replace("{V}", cur);
                lines.push(self.assign(&v, &expr));
            }
            1 => {
                let expr = match self.lang {
                    Lang::Py => format!("{cur}.strip()"),
                    Lang::Js => format!("{cur}.trim()"),
                };
                lines.push(self.assign(&v, &expr));
            }
            _ => {
                let line = match self.lang {
                    Lang::Py => format!("{v} = f\"item: {{{cur}}}\""),
                    Lang::Js => format!("const {v} = 'item: ' + {cur};"),
                };
                lines.push(line);
            }
        }
        v
    }

    /// A Django-style class-based view: the handler becomes a `get`/`post`
    /// method of a view class deriving from `viewlib.BaseView`. The JS
    /// subset has no classes, so a JS corpus renders the same decision as
    /// a `{View}_{method}` request-parameter function.
    fn write_class_handler(&mut self, name: &str, lines: &[String]) {
        let class_name = format!(
            "View{}",
            name.strip_prefix("handler_").unwrap_or(name).replace('_', "X")
        );
        let method = if self.rng.gen_bool(0.5) { "get" } else { "post" };
        match self.lang {
            Lang::Py => {
                self.imports.insert("from viewlib import BaseView".to_string());
                self.body.push_str(&format!("class {class_name}(BaseView):\n"));
                self.body.push_str(&format!("    def {method}(self, request):\n"));
                for line in lines {
                    self.body.push_str("        ");
                    self.body.push_str(line);
                    self.body.push('\n');
                }
                self.body.push('\n');
            }
            Lang::Js => {
                self.body
                    .push_str(&format!("function {class_name}_{method}(request) {{\n"));
                for line in lines {
                    self.body.push_str("    ");
                    self.body.push_str(line);
                    self.body.push('\n');
                }
                self.body.push_str("}\n\n");
            }
        }
    }

    fn write_handler(&mut self, name: &str, param: &str, lines: &[String], with_route: bool) {
        match self.lang {
            Lang::Py => {
                if with_route {
                    self.imports.insert("from flask import app".to_string());
                    self.body.push_str(&format!(
                        "@app.route('/{name}', methods=['GET', 'POST'])\n"
                    ));
                }
                self.body.push_str(&format!("def {name}({param}):\n"));
                for line in lines {
                    self.body.push_str("    ");
                    self.body.push_str(line);
                    self.body.push('\n');
                }
                self.body.push('\n');
            }
            Lang::Js => {
                if with_route {
                    self.imports.insert("import { app } from 'flask';".to_string());
                }
                self.body.push_str(&format!("function {name}({param}) {{\n"));
                for line in lines {
                    self.body.push_str("    ");
                    self.body.push_str(line);
                    self.body.push('\n');
                }
                self.body.push_str("}\n");
                if with_route {
                    // Express-style registration replaces the decorator.
                    self.body.push_str(&format!("app.route('/{name}', {name});\n"));
                }
                self.body.push('\n');
            }
        }
    }

    fn finish(self) -> (String, Vec<FlowTruth>, Vec<(String, Role)>) {
        let mut content = String::new();
        for imp in &self.imports {
            content.push_str(imp);
            content.push('\n');
        }
        content.push('\n');
        content.push_str(&self.body);
        (content, self.flows, self.derived)
    }
}

fn pick_literal(rng: &mut SmallRng) -> &'static str {
    const LITERALS: [&str; 10] =
        ["q", "name", "id", "path", "file", "next", "cmd", "title", "page", "user"];
    LITERALS[rng.gen_range(0..LITERALS.len())]
}

/// Translates a Python import line to its ES-module equivalent. The JS
/// binding resolves to the same dotted path, so the canonical API
/// representations are identical across both corpus languages.
fn js_import(line: &str) -> String {
    if let Some(rest) = line.strip_prefix("from ") {
        if let Some((module, names)) = rest.split_once(" import ") {
            return format!("import {{ {names} }} from '{module}';");
        }
    }
    if let Some(module) = line.strip_prefix("import ") {
        return format!("import {module} from '{module}';");
    }
    line.to_string()
}

/// Translates a Python expression template to JS. Call/member/subscript
/// chains are shared syntax; only trailing keyword arguments differ — they
/// become an options-object argument (`f(x, meta={V})` → `f(x, { meta: {V} })`).
fn js_template(t: &str) -> String {
    if let Some(eq) = t.find("={V})") {
        if let Some(comma) = t[..eq].rfind(", ") {
            let name = &t[comma + 2..eq];
            if !name.is_empty()
                && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            {
                return format!("{}, {{ {name}: {{V}} }})", &t[..comma]);
            }
        }
    }
    t.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seldon_propgraph::{build_source, BuildOptions, FileId};

    fn small() -> Corpus {
        generate_corpus(
            &Universe::new(),
            &CorpusOptions { projects: 5, ..Default::default() },
        )
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.file_count(), b.file_count());
        let fa: Vec<&str> = a.files().map(|(_, f)| f.content.as_str()).collect();
        let fb: Vec<&str> = b.files().map(|(_, f)| f.content.as_str()).collect();
        assert_eq!(fa, fb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = small();
        let b = generate_corpus(
            &Universe::new(),
            &CorpusOptions { projects: 5, rng_seed: 99, ..Default::default() },
        );
        let fa: String = a.files().map(|(_, f)| f.content.clone()).collect();
        let fb: String = b.files().map(|(_, f)| f.content.clone()).collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn every_file_parses_and_builds() {
        let c = small();
        assert!(c.file_count() >= 10);
        for (i, (_, f)) in c.files().enumerate() {
            let g = build_source(&f.content, FileId(i as u32), &BuildOptions::default())
                .unwrap_or_else(|e| panic!("file {} failed: {e}\n{}", f.path, f.content))
                .graph;
            assert!(g.event_count() > 0, "no events in {}", f.path);
        }
    }

    #[test]
    fn ground_truth_covers_handlers() {
        let c = small();
        assert!(!c.flows.is_empty());
        let sanitized = c.flows.iter().filter(|f| f.kind == FlowKind::Sanitized).count();
        let vulnerable = c
            .flows
            .iter()
            .filter(|f| matches!(f.kind, FlowKind::Vulnerable { .. }))
            .count();
        assert!(sanitized > 0, "need sanitized flows");
        assert!(vulnerable > 0, "need vulnerable flows");
        for f in &c.flows {
            if f.kind == FlowKind::Sanitized {
                assert!(f.sanitizer.is_some());
                assert!(f.source.is_some());
                assert!(f.sink.is_some());
            }
        }
    }

    #[test]
    fn flows_reference_existing_files() {
        let c = small();
        for f in &c.flows {
            let proj = &c.projects[f.project];
            assert!(
                proj.files.iter().any(|sf| sf.path == f.file),
                "flow references missing file {}",
                f.file
            );
        }
    }

    #[test]
    fn vulnerable_flows_detected_by_oracle_spec() {
        // Sanity: analyze one generated vulnerable file with a full oracle
        // spec (all true roles) and check the violation appears.
        use seldon_taint::TaintAnalyzer;
        let u = Universe::new();
        let mut oracle = seldon_specs::TaintSpec::new();
        for a in u.apis() {
            if let Some(role) = a.role {
                oracle.add(a.rep, role);
            }
        }
        let c = small();
        let vuln = c
            .flows
            .iter()
            .find(|f| matches!(f.kind, FlowKind::Vulnerable { .. }))
            .expect("some vulnerable flow");
        let file = c.projects[vuln.project]
            .files
            .iter()
            .find(|sf| sf.path == vuln.file)
            .unwrap();
        let g = build_source(&file.content, FileId(0), &BuildOptions::default()).unwrap().graph;
        let analyzer = TaintAnalyzer::new(&g, &oracle);
        let violations = analyzer.find_violations();
        assert!(
            violations.iter().any(|v| {
                u.apis()
                    .iter()
                    .any(|a| a.rep == vuln.sink.unwrap() && a.matches_rep(&v.sink_rep))
            }),
            "expected a violation for {} -> {:?} in:\n{}\ngot {violations:?}",
            vuln.handler,
            vuln.sink,
            file.content
        );
    }

    #[test]
    fn sanitized_flows_not_flagged_by_oracle() {
        use seldon_taint::TaintAnalyzer;
        let u = Universe::new();
        let mut oracle = seldon_specs::TaintSpec::new();
        for a in u.apis() {
            if let Some(role) = a.role {
                oracle.add(a.rep, role);
            }
        }
        let c = small();
        // Pick a sanitized flow in a file with no other vulnerable flows to
        // avoid cross-handler contamination of the check.
        for truth in c.flows.iter().filter(|f| f.kind == FlowKind::Sanitized) {
            let others_vulnerable = c.flows.iter().any(|f| {
                f.file == truth.file
                    && f.project == truth.project
                    && matches!(
                        f.kind,
                        FlowKind::Vulnerable { .. } | FlowKind::WrongParam
                    )
            });
            if others_vulnerable {
                continue;
            }
            let file = c.projects[truth.project]
                .files
                .iter()
                .find(|sf| sf.path == truth.file)
                .unwrap();
            let g = build_source(&file.content, FileId(0), &BuildOptions::default()).unwrap().graph;
            let analyzer = TaintAnalyzer::new(&g, &oracle);
            let violations = analyzer.find_violations();
            assert!(
                violations.is_empty(),
                "sanitized file flagged: {violations:?}\n{}",
                file.content
            );
            return;
        }
    }

    fn small_js() -> Corpus {
        generate_corpus(
            &Universe::new(),
            &CorpusOptions { projects: 5, lang: Lang::Js, ..Default::default() },
        )
    }

    #[test]
    fn js_corpus_is_deterministic_and_distinct() {
        let a = small_js();
        let b = small_js();
        let fa: Vec<&str> = a.files().map(|(_, f)| f.content.as_str()).collect();
        let fb: Vec<&str> = b.files().map(|(_, f)| f.content.as_str()).collect();
        assert_eq!(fa, fb);
        assert!(a.files().all(|(_, f)| f.path.ends_with(".js")));
    }

    #[test]
    fn js_corpus_mirrors_python_structure() {
        // Same seed, different language: identical project/file/flow
        // structure, because the RNG draw sequence is shared.
        let py = small();
        let js = small_js();
        assert_eq!(py.file_count(), js.file_count());
        assert_eq!(py.flows.len(), js.flows.len());
        for (p, j) in py.flows.iter().zip(&js.flows) {
            assert_eq!(p.kind, j.kind);
            assert_eq!(p.source, j.source);
            assert_eq!(p.sink, j.sink);
            assert_eq!(p.handler, j.handler);
        }
    }

    #[test]
    fn every_js_file_parses_and_builds() {
        use seldon_jsfront::build_js_source;
        let c = small_js();
        assert!(c.file_count() >= 10);
        for (i, (_, f)) in c.files().enumerate() {
            let g = build_js_source(&f.content, FileId(i as u32), &BuildOptions::default())
                .unwrap_or_else(|e| panic!("file {} failed: {e}\n{}", f.path, f.content))
                .graph;
            assert!(g.event_count() > 0, "no events in {}", f.path);
        }
    }

    #[test]
    fn js_vulnerable_flows_detected_by_oracle_spec() {
        use seldon_jsfront::build_js_source;
        use seldon_taint::TaintAnalyzer;
        let u = Universe::new();
        let mut oracle = seldon_specs::TaintSpec::new();
        for a in u.apis() {
            if let Some(role) = a.role {
                oracle.add(a.rep, role);
            }
        }
        let c = small_js();
        let vuln = c
            .flows
            .iter()
            .find(|f| matches!(f.kind, FlowKind::Vulnerable { .. }))
            .expect("some vulnerable flow");
        let file = c.projects[vuln.project]
            .files
            .iter()
            .find(|sf| sf.path == vuln.file)
            .unwrap();
        let g = build_js_source(&file.content, FileId(0), &BuildOptions::default()).unwrap().graph;
        let analyzer = TaintAnalyzer::new(&g, &oracle);
        let violations = analyzer.find_violations();
        assert!(
            violations.iter().any(|v| {
                u.apis()
                    .iter()
                    .any(|a| a.rep == vuln.sink.unwrap() && a.matches_rep(&v.sink_rep))
            }),
            "expected a violation for {} -> {:?} in:\n{}\ngot {violations:?}",
            vuln.handler,
            vuln.sink,
            file.content
        );
    }

    #[test]
    fn imports_come_before_code() {
        let c = small();
        let (_, f) = c.files().next().unwrap();
        let first_def = f.content.find("def ").unwrap_or(usize::MAX);
        for line in f.content.lines() {
            if line.starts_with("import ") || line.starts_with("from ") {
                let pos = f.content.find(line).unwrap();
                assert!(pos < first_def);
            }
        }
    }
}
