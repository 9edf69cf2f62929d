//! Call-graph resolution across the analyzed file set.
//!
//! Resolution is name-and-shape based — there is no type inference — with
//! the precision ladder documented in DESIGN.md §8:
//!
//! 1. `Type::m(…)` resolves to methods of `Type`'s impl blocks (`Self::m`
//!    through the enclosing impl), or (when `Type` is a trait) to every
//!    `impl Type for …` method of that name; when neither matches, the
//!    segment is treated as a module path — `module::f(…)` links the free
//!    functions declared in `…/module.rs` / `…/module/mod.rs`, and a
//!    lowercase segment still links a globally unique free function;
//! 2. `self.m(…)` resolves within the enclosing impl type;
//! 3. `self.field.m(…)` resolves through the field's declared base type
//!    (smart-pointer and lock wrappers stripped), including trait objects:
//!    `pager: Box<dyn Pager>` + `self.pager.write_page(…)` links every
//!    `impl Pager for …` `write_page`;
//! 4. `h.m(…)` through a local bound from a handle-preserving call
//!    (`let h = self.field.clone_handle()` / `let h = self.replicate()`)
//!    resolves on the aliased receiver's type — the shared-handle
//!    boundary introduced by the concurrent read path must not dead-end
//!    the lock-order propagation;
//! 5. bare `m(…)` resolves to free functions, same file preferred;
//! 6. `expr.m(…)` on an unknown receiver resolves by bare name — but only
//!    when the name is unambiguous: names on the deny list of ubiquitous
//!    std methods (`insert`, `get`, `lock`, …) and names implemented by
//!    more than one type in the workspace (`check_invariants`, `fms`)
//!    would wire the graph to everything, so they produce no edge.
//!    Missing edges under-approximate; the rules stay lints, not proofs.

use std::collections::HashMap;

use super::items::{CalleeRef, FileIndex};

/// Methods too common in std to resolve by bare name.
const DENY_METHODS: &[&str] = &[
    "insert",
    "get",
    "get_mut",
    "remove",
    "push",
    "pop",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "read",
    "write",
    "lock",
    "clone",
    "contains",
    "contains_key",
    "entry",
    "drain",
    "extend",
    "fill",
    "copy_from_slice",
    "to_vec",
    "to_string",
    "map",
    "and_then",
    "unwrap_or",
    "unwrap_or_else",
    "ok_or",
    "ok_or_else",
    "filter",
    "collect",
    "join",
    "load",
    "store",
    "swap",
    "take",
    "new",
    "default",
    "drop",
    "min",
    "max",
    "abs",
    "from",
    "into",
    "eq",
    "cmp",
];

/// A function's global id: `(file index, function index within file)`.
pub type FnId = (usize, usize);

pub struct CallGraph {
    /// Resolved callees per function.
    pub callees: HashMap<FnId, Vec<(FnId, u32)>>,
    /// `(impl type, method) → ids`.
    by_qual: HashMap<(String, String), Vec<FnId>>,
    /// `trait name → method name → ids` (all impls of the trait).
    by_trait: HashMap<(String, String), Vec<FnId>>,
    /// bare name → ids (all functions).
    by_name: HashMap<String, Vec<FnId>>,
    /// free functions (no impl) by name → ids.
    free_by_name: HashMap<String, Vec<FnId>>,
}

impl CallGraph {
    pub fn build(files: &[FileIndex]) -> CallGraph {
        let mut g = CallGraph {
            callees: HashMap::new(),
            by_qual: HashMap::new(),
            by_trait: HashMap::new(),
            by_name: HashMap::new(),
            free_by_name: HashMap::new(),
        };
        for (fi, file) in files.iter().enumerate() {
            for (ki, f) in file.functions.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                let id = (fi, ki);
                g.by_name.entry(f.name.clone()).or_default().push(id);
                match (&f.impl_type, &f.trait_name) {
                    (Some(ty), tr) => {
                        g.by_qual
                            .entry((ty.clone(), f.name.clone()))
                            .or_default()
                            .push(id);
                        if let Some(tr) = tr {
                            g.by_trait
                                .entry((tr.clone(), f.name.clone()))
                                .or_default()
                                .push(id);
                        }
                    }
                    (None, _) => {
                        g.free_by_name.entry(f.name.clone()).or_default().push(id);
                    }
                }
            }
        }
        // Second pass: resolve every call site.
        for (fi, file) in files.iter().enumerate() {
            for (ki, f) in file.functions.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                let mut resolved = Vec::new();
                for call in &f.calls {
                    for target in g.resolve(files, fi, f.impl_type.as_deref(), &call.callee) {
                        resolved.push((target, call.line));
                    }
                }
                g.callees.insert((fi, ki), resolved);
            }
        }
        g
    }

    /// Resolve one callee reference to zero or more function ids.
    pub fn resolve(
        &self,
        files: &[FileIndex],
        file_idx: usize,
        impl_type: Option<&str>,
        callee: &CalleeRef,
    ) -> Vec<FnId> {
        match callee {
            CalleeRef::SelfMethod(m) => impl_type
                .and_then(|ty| self.by_qual.get(&(ty.to_string(), m.clone())))
                .cloned()
                .unwrap_or_default(),
            CalleeRef::FieldMethod { field, method } => {
                let Some(ty) = impl_type else {
                    return Vec::new();
                };
                let base = files
                    .iter()
                    .find_map(|f| f.field_types.get(&(ty.to_string(), field.clone())));
                let Some(base) = base else {
                    return Vec::new();
                };
                let mut out = self
                    .by_qual
                    .get(&(base.clone(), method.clone()))
                    .cloned()
                    .unwrap_or_default();
                out.extend(
                    self.by_trait
                        .get(&(base.clone(), method.clone()))
                        .cloned()
                        .unwrap_or_default(),
                );
                out.sort_unstable();
                out.dedup();
                out
            }
            CalleeRef::Qualified { ty, method } => {
                let ty = if ty == "Self" {
                    match impl_type {
                        Some(t) => t.to_string(),
                        None => return Vec::new(),
                    }
                } else {
                    ty.clone()
                };
                let mut out = self
                    .by_qual
                    .get(&(ty.clone(), method.clone()))
                    .cloned()
                    .unwrap_or_default();
                out.extend(
                    self.by_trait
                        .get(&(ty.clone(), method.clone()))
                        .cloned()
                        .unwrap_or_default(),
                );
                if out.is_empty() {
                    // Not a type: `module::free_fn(…)`. Resolve to free
                    // functions whose file names the module (`…/ty.rs` or
                    // `…/ty/mod.rs`); when no file matches, a module-cased
                    // (lowercase) path segment still resolves to a unique
                    // free function by name. An uppercase `Type::m` with no
                    // impl stays unresolved rather than guessing.
                    let frees = self.free_by_name.get(method).cloned().unwrap_or_default();
                    let file_rs = format!("/{ty}.rs");
                    let file_mod = format!("/{ty}/mod.rs");
                    let in_module: Vec<FnId> = frees
                        .iter()
                        .copied()
                        .filter(|&(fi, _)| {
                            let p = &files[fi].path;
                            p.ends_with(&file_rs)
                                || p.ends_with(&file_mod)
                                || *p == format!("{ty}.rs")
                        })
                        .collect();
                    let module_cased = ty.chars().next().is_some_and(|c| c.is_lowercase());
                    if !in_module.is_empty() {
                        out = in_module;
                    } else if module_cased && frees.len() == 1 {
                        out = frees;
                    }
                }
                out.sort_unstable();
                out.dedup();
                out
            }
            CalleeRef::Bare(m) => {
                let all = self.free_by_name.get(m).cloned().unwrap_or_default();
                let same_file: Vec<FnId> =
                    all.iter().copied().filter(|id| id.0 == file_idx).collect();
                if same_file.is_empty() {
                    all
                } else {
                    same_file
                }
            }
            CalleeRef::HandleMethod { field, method } => {
                // The handle aliases its receiver: `let h = self.field
                // .clone_handle(); h.m(…)` dispatches on the field's base
                // type, `let h = self.clone_handle(); h.m(…)` on the
                // enclosing impl type. Without this the transitive rules
                // would dead-end at every PR 7 handle boundary.
                let base = match field {
                    Some(f) => {
                        let Some(ty) = impl_type else {
                            return Vec::new();
                        };
                        match files
                            .iter()
                            .find_map(|file| file.field_types.get(&(ty.to_string(), f.clone())))
                        {
                            Some(b) => b.clone(),
                            None => return Vec::new(),
                        }
                    }
                    None => match impl_type {
                        Some(t) => t.to_string(),
                        None => return Vec::new(),
                    },
                };
                let mut out = self
                    .by_qual
                    .get(&(base.clone(), method.clone()))
                    .cloned()
                    .unwrap_or_default();
                out.extend(
                    self.by_trait
                        .get(&(base, method.clone()))
                        .cloned()
                        .unwrap_or_default(),
                );
                out.sort_unstable();
                out.dedup();
                out
            }
            CalleeRef::Method(m) => {
                if DENY_METHODS.contains(&m.as_str()) {
                    return Vec::new();
                }
                let candidates = self.by_name.get(m).cloned().unwrap_or_default();
                // Ambiguity gate: `x.m(…)` with `m` implemented by several
                // types resolves to nothing rather than to all of them.
                let mut types: Vec<&Option<String>> = candidates
                    .iter()
                    .map(|&(fi, ki)| &files[fi].functions[ki].impl_type)
                    .collect();
                types.sort_unstable();
                types.dedup();
                if types.len() > 1 {
                    return Vec::new();
                }
                candidates
            }
        }
    }

    /// Fixed-point propagation: starting from per-function seed facts,
    /// union each function's set with its callees' until stable. Returns
    /// the transitive set per function, plus for each function one callee
    /// that contributed (for building an explanatory chain).
    pub fn propagate<T: Clone + Ord>(
        &self,
        seeds: &HashMap<FnId, Vec<T>>,
    ) -> HashMap<FnId, Vec<T>> {
        let mut facts: HashMap<FnId, Vec<T>> = seeds.clone();
        loop {
            let mut changed = false;
            let ids: Vec<FnId> = self.callees.keys().copied().collect();
            for id in ids {
                let mut merged: Vec<T> = facts.get(&id).cloned().unwrap_or_default();
                let before = merged.len();
                for (callee, _) in self.callees.get(&id).into_iter().flatten() {
                    if let Some(extra) = facts.get(callee) {
                        merged.extend(extra.iter().cloned());
                    }
                }
                merged.sort_unstable();
                merged.dedup();
                if merged.len() != before {
                    facts.insert(id, merged);
                    changed = true;
                }
            }
            if !changed {
                return facts;
            }
        }
    }
}
