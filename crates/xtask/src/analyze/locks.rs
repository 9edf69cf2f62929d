//! Rule `lock-order`: every `Mutex`/`RwLock` acquisition must respect the
//! declared canonical order.
//!
//! Lock classes are declared in the [`super::Config`] as
//! `(class name, declaring file, field name)`, in canonical order —
//! outermost first. The extractor recognizes `<field>.lock()`,
//! `<field>.read()` and `<field>.write()` token patterns in the declaring
//! file, simulates guard scopes (a `let`-bound guard lives to the end of
//! its block or an explicit `drop(guard)`; an unbound temporary lives to
//! the end of its statement), and records:
//!
//! * **direct edges** — lock B acquired while a guard for lock A is live;
//! * **calls under lock** — function calls made while holding A, closed
//!   over the call graph (`acquires*` of the callee) to get the propagated
//!   may-hold-while-acquiring edges.
//!
//! An edge A→B is legal iff A strictly precedes B in the declared order.
//! Same-class edges (A→A) are violations too: re-acquiring a non-reentrant
//! lock is a self-deadlock. Suppress a justified edge with
//! `// lint:allow(lock-order): <why>` on or above the acquiring line (for
//! propagated edges, on the call line).

use std::collections::HashMap;

use super::graph::{CallGraph, FnId};
use super::items::FileIndex;
use super::{Config, Finding};

pub const RULE: &str = "lock-order";

/// One live guard during the linear scan of a function body.
#[derive(Debug, Clone)]
struct Held {
    class: usize,
    /// Guard binding, if `let <ident> = …` shaped.
    binding: Option<String>,
    /// Brace depth (within the body) at the binding site; the guard dies
    /// when the scan closes back below this depth.
    depth: usize,
    /// Unbound temporary: released at the next `;` at its depth.
    temporary: bool,
}

pub fn check(files: &[FileIndex], graph: &CallGraph, cfg: &Config, out: &mut Vec<Finding>) {
    let mut acquired_seed: HashMap<FnId, Vec<usize>> = HashMap::new();
    // (held class, caller id, callee id, call line) — edges to close later.
    let mut calls_holding: Vec<(usize, FnId, FnId, u32)> = Vec::new();
    let mut findings: Vec<Finding> = Vec::new();

    for (fi, file) in files.iter().enumerate() {
        let classes: Vec<(usize, &str)> = cfg
            .lock_order
            .iter()
            .enumerate()
            .filter(|(_, c)| c.file == file.path)
            .map(|(i, c)| (i, c.field.as_str()))
            .collect();
        for (ki, f) in file.functions.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let id = (fi, ki);
            let mut held: Vec<Held> = Vec::new();
            let mut depth = 0usize;
            let mut next_call = 0usize;
            for k in f.body.clone() {
                let t = file.sig_text(k);
                match t {
                    "{" => depth += 1,
                    "}" => {
                        depth = depth.saturating_sub(1);
                        held.retain(|a| a.depth <= depth);
                    }
                    ";" => held.retain(|a| !(a.temporary && a.depth >= depth)),
                    _ => {}
                }
                // Explicit `drop(guard)` releases a named guard early.
                if t == "drop" && k + 2 < file.sig.len() && file.sig_text(k + 1) == "(" {
                    let victim = file.sig_text(k + 2);
                    held.retain(|a| a.binding.as_deref() != Some(victim));
                }
                // Record calls made while holding a lock (for propagation).
                while next_call < f.calls.len() && f.calls[next_call].sig_idx <= k {
                    let c = &f.calls[next_call];
                    if c.sig_idx == k && !held.is_empty() {
                        for target in graph.resolve(files, fi, f.impl_type.as_deref(), &c.callee) {
                            for a in &held {
                                calls_holding.push((a.class, id, target, c.line));
                            }
                        }
                    }
                    next_call += 1;
                }
                // Acquisition: `<field> . (lock|read|write) (`.
                if !matches!(t, "lock" | "read" | "write")
                    || k < 2
                    || k + 1 >= file.sig.len()
                    || file.sig_text(k + 1) != "("
                    || file.sig_text(k - 1) != "."
                {
                    continue;
                }
                let field = file.sig_text(k - 2);
                let Some(&(class, _)) = classes.iter().find(|(_, name)| *name == field) else {
                    continue;
                };
                let line = file.sig_line(k);
                if !file.allowed(line, RULE) {
                    for a in &held {
                        if a.class >= class {
                            findings.push(direct_finding(a.class, class, file, line, cfg));
                        }
                    }
                }
                let (binding, temporary) = binding_for(file, k - 2, f.body.start);
                acquired_seed.entry(id).or_default().push(class);
                held.push(Held {
                    class,
                    binding,
                    depth,
                    temporary,
                });
            }
            if let Some(v) = acquired_seed.get_mut(&id) {
                v.sort_unstable();
                v.dedup();
            }
        }
    }

    // Close the call edges over the graph: holding A while calling g is a
    // violation when g may (transitively) acquire a class not after A.
    let acquires = graph.propagate(&acquired_seed);
    for (held_class, caller, callee, line) in calls_holding {
        let caller_file = &files[caller.0];
        if caller_file.allowed(line, RULE) {
            continue;
        }
        let callee_fn = &files[callee.0].functions[callee.1];
        for &inner in acquires.get(&callee).into_iter().flatten() {
            if held_class < inner {
                continue; // legal nesting
            }
            findings.push(Finding {
                rule: RULE,
                path: caller_file.path.clone(),
                line,
                message: format!(
                    "holds `{}` while calling `{}`, which may acquire `{}` \
                     (canonical order: {})",
                    cfg.lock_order[held_class].name,
                    callee_fn.qual,
                    cfg.lock_order[inner].name,
                    order_string(cfg),
                ),
            });
        }
    }

    findings.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    findings.dedup_by(|a, b| a.path == b.path && a.line == b.line && a.message == b.message);
    out.append(&mut findings);
}

fn direct_finding(
    held: usize,
    acquired: usize,
    file: &FileIndex,
    line: u32,
    cfg: &Config,
) -> Finding {
    let message = if held == acquired {
        format!(
            "re-acquires `{}` while already holding it (self-deadlock on a \
             non-reentrant lock)",
            cfg.lock_order[held].name
        )
    } else {
        format!(
            "acquires `{}` while holding `{}` — against the canonical order ({})",
            cfg.lock_order[acquired].name,
            cfg.lock_order[held].name,
            order_string(cfg),
        )
    };
    Finding {
        rule: RULE,
        path: file.path.clone(),
        line,
        message,
    }
}

fn order_string(cfg: &Config) -> String {
    cfg.lock_order
        .iter()
        .map(|c| c.name.as_str())
        .collect::<Vec<_>>()
        .join(" < ")
}

/// Determine the binding of the acquisition whose receiver-field token sits
/// at significant index `recv`: scan back to the statement start for a
/// `let [mut] <ident> =` prefix. Shared with the other guard-scope rules
/// (`lock-across-io`, `blocking-in-worker`).
pub(super) fn binding_for(
    file: &FileIndex,
    recv: usize,
    body_start: usize,
) -> (Option<String>, bool) {
    let mut j = recv;
    while j > body_start && recv - j < 24 {
        j -= 1;
        match file.sig_text(j) {
            ";" | "{" | "}" => break,
            "let" => {
                let mut k = j + 1;
                if file.sig_text(k) == "mut" {
                    k += 1;
                }
                let ident = file.sig_text(k);
                if ident != "_" && super::items::is_ident(ident) {
                    return (Some(ident.to_string()), false);
                }
                return (None, true); // `let _ =` (or a pattern): treat as temp
            }
            _ => {}
        }
    }
    (None, true) // temporary: statement-scoped
}
