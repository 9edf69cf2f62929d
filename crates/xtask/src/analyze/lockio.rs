//! Rule `lock-across-io`: no lock-class guard may be live across a pager
//! read/write or WAL append.
//!
//! Holding a latch while the device does IO serializes every other thread
//! that needs the latch behind a disk (or at best a syscall): the exact
//! pattern the concurrent-read-path refactor has to drive out of the hot
//! path. The rule reuses the lock classes declared in
//! [`super::Config::lock_order`] and the guard-scope simulation of
//! [`super::locks`], and flags any **direct** call to a configured IO
//! method (`Config::io_methods` — `read_page`, `write_page`,
//! `read_exact_at`, `write_all_at`, `sync_data`, `sync` in the real tree)
//! made while a guard is live.
//!
//! Deliberately direct-call-only: closing the check over the call graph
//! would flag the whole B-tree (which by design holds its latch across
//! buffer-pool access and *may* fault), drowning the signal. The
//! transitive story is `lock-order`'s propagation job; this rule pins the
//! sites where the IO itself happens under a guard.
//!
//! Files listed in `Config::lockio_exempt_files` (the WAL layer, whose
//! lock *is* the IO serializer by design) are skipped wholesale. Justify
//! an individual site with `// lint:allow(lock-across-io): <why>`.

use super::items::FileIndex;
use super::{Config, Finding};

pub const RULE: &str = "lock-across-io";

pub fn check(files: &[FileIndex], cfg: &Config, out: &mut Vec<Finding>) {
    let mut findings: Vec<Finding> = Vec::new();
    for file in files {
        if cfg.lockio_exempt_files.contains(&file.path) {
            continue;
        }
        let classes: Vec<(usize, &str)> = cfg
            .lock_order
            .iter()
            .enumerate()
            .filter(|(_, c)| c.file == file.path)
            .map(|(i, c)| (i, c.field.as_str()))
            .collect();
        if classes.is_empty() {
            continue;
        }
        for f in &file.functions {
            if f.is_test {
                continue;
            }
            scan_fn(file, f, &classes, cfg, &mut findings);
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    findings.dedup_by(|a, b| a.path == b.path && a.line == b.line && a.message == b.message);
    out.append(&mut findings);
}

/// Guard-scope walk of one body (same shape as `locks::check`): track
/// live guards for this file's lock classes, flag IO-method calls made
/// while any guard is live.
fn scan_fn(
    file: &FileIndex,
    f: &super::items::Function,
    classes: &[(usize, &str)],
    cfg: &Config,
    findings: &mut Vec<Finding>,
) {
    struct Held {
        class: usize,
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
        // An IO call while any guard is live.
        if cfg.io_methods.iter().any(|m| m == t)
            && k >= 1
            && k + 1 < file.sig.len()
            && file.sig_text(k + 1) == "("
            && file.sig_text(k - 1) == "."
            && !held.is_empty()
        {
            let line = file.sig_line(k);
            if !file.allowed(line, RULE) {
                for a in &held {
                    findings.push(Finding {
                        rule: RULE,
                        path: file.path.clone(),
                        line,
                        message: format!(
                            "calls `{t}` (device IO) while holding `{}` — the guard \
                             serializes every waiter behind the IO",
                            cfg.lock_order[a.class].name
                        ),
                    });
                }
            }
        }
        // Acquisition: `<field> . (lock|read|write) (` for this file's
        // classes.
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
        let (binding, temporary) = super::locks::binding_for(file, k - 2, f.body.start);
        held.push(Held {
            class,
            binding,
            depth,
            temporary,
        });
    }
}
