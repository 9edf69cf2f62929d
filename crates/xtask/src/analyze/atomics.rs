//! Rule `atomics-ordering`: `Ordering::Relaxed` on a flag atomic is
//! fence-free publication — a reader can observe the flag without the
//! writes it was supposed to publish.
//!
//! The rule targets the shape that actually bites: an `AtomicBool`
//! struct field operated on with `Relaxed`. Flag fields gate *other*
//! state — `shutting_down` guards the
//! queue close, `dirty` guards frame bytes — so their store side needs
//! `Release` (or stronger) and their load side `Acquire`; `Relaxed` only
//! orders the flag itself. Monotonic counters (`AtomicU64` totals, the
//! work-stealing cursor) are exactly the case where `Relaxed` is right,
//! so they are not flagged — that keeps the server's counter block and
//! the metrics registry clean without a pile of allows.
//!
//! Detection is field-typed: the receiver of
//! `<field>.store/load/swap/fetch_*/compare_exchange*(… Relaxed …)` must
//! be a struct field declared `AtomicBool` in the same file. Files in
//! `Config::atomics_allowed_files` (the metrics/tracing modules, whose
//! relaxed counters are the documented fast path) are exempt; individual
//! sites take `// lint:allow(atomics-ordering): <why>`.

use std::collections::HashSet;

use super::items::FileIndex;
use super::{Config, Finding};

pub const RULE: &str = "atomics-ordering";

/// Atomic operations whose `Ordering` argument the rule inspects.
const ATOMIC_OPS: &[&str] = &[
    "store",
    "load",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Field types treated as publication flags.
const FLAG_TYPES: &[&str] = &["AtomicBool"];

pub fn check(files: &[FileIndex], cfg: &Config, out: &mut Vec<Finding>) {
    for file in files {
        if cfg.atomics_allowed_files.contains(&file.path) {
            continue;
        }
        // Flag-typed fields declared in this file, by name.
        let flag_fields: HashSet<&str> = file
            .field_types
            .iter()
            .filter(|(_, ty)| FLAG_TYPES.contains(&ty.as_str()))
            .map(|((_, field), _)| field.as_str())
            .collect();
        if flag_fields.is_empty() {
            continue;
        }
        for f in &file.functions {
            if f.is_test {
                continue;
            }
            for k in f.body.clone() {
                let t = file.sig_text(k);
                if !ATOMIC_OPS.contains(&t)
                    || k < 2
                    || k + 1 >= file.sig.len()
                    || file.sig_text(k + 1) != "("
                    || file.sig_text(k - 1) != "."
                    || !flag_fields.contains(file.sig_text(k - 2))
                {
                    continue;
                }
                // Scan the argument list for a `Relaxed` token.
                let mut depth = 0usize;
                let mut relaxed = false;
                for j in k + 1..file.sig.len() {
                    match file.sig_text(j) {
                        "(" => depth += 1,
                        ")" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        "Relaxed" => relaxed = true,
                        _ => {}
                    }
                }
                if !relaxed {
                    continue;
                }
                let line = file.sig_line(k);
                if file.allowed(line, RULE) {
                    continue;
                }
                let field = file.sig_text(k - 2);
                out.push(Finding {
                    rule: RULE,
                    path: file.path.clone(),
                    line,
                    message: format!(
                        "`{field}.{t}(… Relaxed …)` on a flag atomic — publication \
                         needs Release on the store side and Acquire on the load side"
                    ),
                });
            }
        }
    }
}
