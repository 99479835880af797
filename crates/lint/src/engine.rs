//! The lint driver: loads a workspace, runs the catalog, applies waivers.

use std::cell::OnceCell;
use std::path::Path;

use crate::callgraph::CallGraph;
use crate::rules::catalog;
use crate::source::{collect_rs_files, SourceFile};
use crate::Diagnostic;

/// The files under analysis.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Lexed files, in deterministic (sorted-path) order.
    pub files: Vec<SourceFile>,
    /// Lazily built symbol index + call graph (shared by the reachability
    /// rules and `--explain`; building it twice would double lint time).
    graph: OnceCell<CallGraph>,
}

impl Workspace {
    /// Builds a workspace from in-memory `(relative path, text)` pairs —
    /// the unit-test entry point.
    pub fn from_memory<I, P, T>(files: I) -> Self
    where
        I: IntoIterator<Item = (P, T)>,
        P: Into<String>,
        T: Into<String>,
    {
        let mut fs: Vec<SourceFile> = files
            .into_iter()
            .map(|(p, t)| SourceFile::new(p, t))
            .collect();
        fs.sort_by(|a, b| a.rel.cmp(&b.rel));
        Self {
            files: fs,
            graph: OnceCell::new(),
        }
    }

    /// Loads every production `.rs` file under `root` (see
    /// [`collect_rs_files`] for what is skipped), keeping only files whose
    /// relative path starts with one of `filters` (empty = keep all).
    pub fn load(root: &Path, filters: &[String]) -> std::io::Result<Self> {
        let rels = collect_rs_files(root, root)?;
        let mut files = Vec::new();
        for rel in rels {
            let rel_str = rel
                .to_string_lossy()
                .replace(std::path::MAIN_SEPARATOR, "/");
            if !filters.is_empty() && !filters.iter().any(|f| rel_str.starts_with(f.as_str())) {
                continue;
            }
            let text = std::fs::read_to_string(root.join(&rel))?;
            files.push(SourceFile::new(rel_str, text));
        }
        Ok(Self {
            files,
            graph: OnceCell::new(),
        })
    }

    /// The workspace call graph, built on first use.
    pub fn graph(&self) -> &CallGraph {
        self.graph.get_or_init(|| CallGraph::build(&self.files))
    }
}

/// A waiver that matched nothing, or is malformed — reported so stale
/// waivers can't silently rot.
#[derive(Debug, Clone)]
pub struct WaiverProblem {
    /// File the waiver sits in.
    pub path: String,
    /// Line of the waiver comment.
    pub line: u32,
    /// What is wrong.
    pub detail: String,
}

/// Everything one lint run produces.
#[derive(Debug, Default)]
pub struct LintOutcome {
    /// Unwaived violations — any entry here means a nonzero exit.
    pub violations: Vec<Diagnostic>,
    /// Diagnostics suppressed by a waiver, with the waiver's reason.
    pub waived: Vec<(Diagnostic, String)>,
    /// Malformed or unused waivers (also nonzero exit: stale waivers are
    /// how contracts erode).
    pub waiver_problems: Vec<WaiverProblem>,
    /// Number of files analyzed.
    pub files: usize,
    /// Call sites the graph resolver could not link to any workspace
    /// function (they left the workspace). Reported — never silently
    /// dropped — so a reader can see how much of the graph is open.
    pub open_edges: usize,
    /// Fatal run errors (I/O, unreadable files). Any entry means exit 2;
    /// reported structurally so `--format json`/`sarif` output is
    /// distinguishable from a clean empty run.
    pub errors: Vec<String>,
}

impl LintOutcome {
    /// Whether the run is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.waiver_problems.is_empty() && self.errors.is_empty()
    }

    /// An outcome that carries only fatal errors (the exit-2 path): no
    /// files were analyzed, nothing was checked.
    pub fn from_errors(errors: Vec<String>) -> Self {
        Self {
            errors,
            ..Self::default()
        }
    }
}

/// Runs the full rule catalog over `ws`.
pub fn run(ws: &Workspace) -> LintOutcome {
    let known_rules: Vec<&'static str> = catalog().iter().map(|r| r.id()).collect();
    let mut diags: Vec<Diagnostic> = Vec::new();
    for rule in catalog() {
        diags.extend(rule.check(ws));
    }
    diags.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });

    let mut outcome = LintOutcome {
        files: ws.files.len(),
        open_edges: ws.graph().unresolved_names.values().sum(),
        ..Default::default()
    };
    // Track per-file, per-waiver usage so unused waivers surface.
    let mut used: Vec<Vec<bool>> = ws
        .files
        .iter()
        .map(|f| vec![false; f.waivers.len()])
        .collect();

    for d in diags {
        let fidx = ws.files.iter().position(|f| f.rel == d.path);
        let mut waived_by: Option<String> = None;
        if let Some(fi) = fidx {
            for (wi, w) in ws.files[fi].waivers.iter().enumerate() {
                if w.target_line == d.line && w.rules.iter().any(|r| r == d.rule) {
                    if w.reason.is_empty() {
                        // A reasonless waiver does not waive; it is
                        // reported below as a waiver problem.
                        continue;
                    }
                    used[fi][wi] = true;
                    waived_by = Some(w.reason.clone());
                    break;
                }
            }
        }
        match waived_by {
            Some(reason) => outcome.waived.push((d, reason)),
            None => outcome.violations.push(d),
        }
    }

    for (fi, file) in ws.files.iter().enumerate() {
        for (wi, w) in file.waivers.iter().enumerate() {
            if w.reason.is_empty() {
                outcome.waiver_problems.push(WaiverProblem {
                    path: file.rel.clone(),
                    line: w.line,
                    detail: format!(
                        "waiver for {} has no reason; write `// lint:allow({}) <why>`",
                        w.rules.join(", "),
                        w.rules.join(", ")
                    ),
                });
            } else if let Some(bad) = w.rules.iter().find(|r| !known_rules.contains(&r.as_str())) {
                outcome.waiver_problems.push(WaiverProblem {
                    path: file.rel.clone(),
                    line: w.line,
                    detail: format!("waiver names unknown rule `{bad}`"),
                });
            } else if !used[fi][wi] {
                outcome.waiver_problems.push(WaiverProblem {
                    path: file.rel.clone(),
                    line: w.line,
                    detail: format!(
                        "stale waiver: no {} diagnostic on line {} — remove it",
                        w.rules.join("/"),
                        w.target_line
                    ),
                });
            }
        }
    }
    outcome
}

/// Convenience: load + run in one call.
pub fn lint_root(root: &Path, filters: &[String]) -> std::io::Result<LintOutcome> {
    Ok(run(&Workspace::load(root, filters)?))
}

/// `--explain` support: renders the call-path evidence behind a
/// reachability rule for one symbol.
///
/// * `L007` / `L008`: `symbol` is a function (`name` or `Owner::name`);
///   prints the shortest root → symbol call path per match, or states
///   unreachability.
/// * `L009`: `symbol` is a struct name; prints per-field render/parse
///   coverage.
///
/// Errors (unknown rule, unknown symbol) are returned as `Err` so the CLI
/// can exit 2.
pub fn explain(ws: &Workspace, rule: &str, symbol: &str) -> Result<String, String> {
    use crate::reach::Reach;
    use crate::rules::{event_loop, snapshot_complete, taint};

    let graph = ws.graph();
    let rule = rule.to_ascii_uppercase();
    match rule.as_str() {
        "L007" | "L008" => {
            let ids = graph.lookup(symbol);
            if ids.is_empty() {
                return Err(format!(
                    "unknown symbol `{symbol}` (use `name` or `Owner::name` of a workspace fn)"
                ));
            }
            let (roots, label) = if rule == "L007" {
                (event_loop::event_loop_roots(graph), "event-loop root")
            } else {
                (taint::sim_roots(ws), "simulation-path root")
            };
            let reach = Reach::compute(graph, &roots, |id| {
                rule == "L007" && event_loop::is_boundary(graph, id)
            });
            let mut s = String::new();
            for id in ids {
                let f = &graph.fns[id];
                let at = format!("{} ({})", f.qual_name(), ws.files[f.file].rel);
                match reach.render_path(graph, id) {
                    Some(path) => {
                        s.push_str(&format!(
                            "{rule}: {at}\n  reachable from {label} via:\n  {path}\n"
                        ));
                    }
                    None => {
                        s.push_str(&format!("{rule}: {at}\n  not reachable from any {label}\n"))
                    }
                }
            }
            Ok(s)
        }
        "L009" => {
            let Some((render, parse)) = snapshot_complete::coverage(ws) else {
                return Err(
                    "workspace has no parsched-snap/v3 codec (no Engine::snapshot / \
                            Snapshot::to_value roots)"
                        .to_string(),
                );
            };
            let structs = graph.structs_named(symbol);
            if structs.is_empty() {
                return Err(format!("unknown struct `{symbol}`"));
            }
            let mut s = String::new();
            for info in structs {
                s.push_str(&format!(
                    "L009: {} ({})\n  field coverage (render / parse):\n",
                    symbol, ws.files[info.file].rel
                ));
                for field in &info.def.fields {
                    s.push_str(&format!(
                        "  {:24} {} / {}\n",
                        field.name,
                        if render.contains(&field.name) {
                            "yes"
                        } else {
                            "MISSING"
                        },
                        if parse.contains(&field.name) {
                            "yes"
                        } else {
                            "MISSING"
                        },
                    ));
                }
            }
            Ok(s)
        }
        other => Err(format!(
            "`--explain` covers the reachability rules L007/L008/L009; `{other}` is token-local \
             (its diagnostic already points at the site)"
        )),
    }
}
