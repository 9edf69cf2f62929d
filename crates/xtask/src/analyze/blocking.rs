//! Rule `blocking-in-worker`: fm-server worker/acceptor code must not
//! block (IO, sleeps, unbounded waits) while holding the queue or
//! connection-registry lock.
//!
//! The serving layer's liveness argument is that every lock in the
//! request path is held for O(instructions): the queue mutex guards a
//! `VecDeque` and a flag, the registry mutex guards a `Vec` of handles.
//! A blocking call under either turns a micro-critical-section into a
//! convoy — every producer and worker stalls behind one sleeping thread —
//! and during drain it can deadlock the `wait`/`join` handshake.
//!
//! Scope is configured, not global: `Config::worker_files` lists the
//! serving-layer files, `worker_lock_fields` the guarded fields
//! (acquired as `<field>.lock()/read()/write()`), and `worker_guard_fns`
//! the guard-returning helpers (`lock_state`, `lock_conns` — the
//! poison-recovery wrappers the crate uses instead of bare `.lock()`).
//! `Config::blocking_calls` names the blocking verbs (`sleep`, `wait`,
//! `recv`, `accept`, `connect`, `join`, …). A justified site — e.g. a
//! `Condvar::wait`, which atomically releases the mutex it is handed —
//! takes `// lint:allow(blocking-in-worker): <why>`.

use super::items::FileIndex;
use super::{Config, Finding};

pub const RULE: &str = "blocking-in-worker";

pub fn check(files: &[FileIndex], cfg: &Config, out: &mut Vec<Finding>) {
    for file in files {
        if !cfg.worker_files.contains(&file.path) {
            continue;
        }
        for f in &file.functions {
            if f.is_test {
                continue;
            }
            scan_fn(file, f, cfg, out);
        }
    }
}

fn scan_fn(file: &FileIndex, f: &super::items::Function, cfg: &Config, out: &mut Vec<Finding>) {
    struct Held {
        source: String,
        binding: Option<String>,
        depth: usize,
        temporary: bool,
    }
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0usize;
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
        if t == "drop" && k + 2 < file.sig.len() && file.sig_text(k + 1) == "(" {
            let victim = file.sig_text(k + 2);
            held.retain(|a| a.binding.as_deref() != Some(victim));
        }
        let is_call = k + 1 < file.sig.len() && file.sig_text(k + 1) == "(";
        if !is_call {
            continue;
        }
        let preceded_by_fn = k >= 1 && file.sig_text(k - 1) == "fn";
        // Blocking call while a guard is live.
        if !preceded_by_fn && cfg.blocking_calls.iter().any(|b| b == t) && !held.is_empty() {
            let line = file.sig_line(k);
            if !file.allowed(line, RULE) {
                for a in &held {
                    out.push(Finding {
                        rule: RULE,
                        path: file.path.clone(),
                        line,
                        message: format!(
                            "blocking call `{t}` while holding the `{}` guard — \
                             worker/acceptor critical sections must stay O(instructions)",
                            a.source
                        ),
                    });
                }
            }
        }
        // Acquisition, shape 1: guard-returning helper `lock_state(…)`.
        if !preceded_by_fn && cfg.worker_guard_fns.iter().any(|g| g == t) {
            let (binding, temporary) = super::locks::binding_for(file, k, f.body.start);
            held.push(Held {
                source: t.to_string(),
                binding,
                depth,
                temporary,
            });
            continue;
        }
        // Acquisition, shape 2: `<field> . (lock|read|write) (`.
        if matches!(t, "lock" | "read" | "write")
            && k >= 2
            && file.sig_text(k - 1) == "."
            && cfg
                .worker_lock_fields
                .iter()
                .any(|fld| fld == file.sig_text(k - 2))
        {
            let (binding, temporary) = super::locks::binding_for(file, k - 2, f.body.start);
            held.push(Held {
                source: file.sig_text(k - 2).to_string(),
                binding,
                depth,
                temporary,
            });
        }
    }
}
