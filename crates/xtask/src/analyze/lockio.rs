//! Rule `lock-across-io`: no guard of a listed lock may be live across a
//! pager read/write or WAL append.
//!
//! Holding a latch while the device does IO serializes every other thread
//! that needs the latch behind a disk (or at best a syscall): the exact
//! pattern the concurrent-read-path refactor has to drive out of the hot
//! path. The locks are listed in [`super::Config::guarded_fields`] as
//! `(declaring file, field)` pairs; the rule simulates guard scopes (a
//! `let`-bound guard lives to the end of its block or an explicit
//! `drop(guard)`; an unbound temporary lives to the end of its statement)
//! and flags any **direct** call to a configured IO method
//! (`Config::io_methods` — `read_page`, `write_page`, `read_exact_at`,
//! `write_all_at`, `sync_data`, `sync` in the real tree) made while a
//! guard is live.
//!
//! Deliberately direct-call-only: the B-tree by design holds its latch
//! across buffer-pool access that *may* fault, and flagging it would drown
//! the signal; this rule pins the sites where the IO itself happens under
//! a guard.
//!
//! Files listed in `Config::lockio_exempt_files` (the WAL layer, whose
//! lock *is* the IO serializer by design) are skipped wholesale. Justify
//! an individual site with `// lint:allow(lock-across-io): <why>`.

use super::items::{binding_for, FileIndex, Function};
use super::{Config, Finding};

pub const RULE: &str = "lock-across-io";

pub fn check(files: &[FileIndex], cfg: &Config, out: &mut Vec<Finding>) {
    let mut findings: Vec<Finding> = Vec::new();
    for file in files {
        if cfg.lockio_exempt_files.contains(&file.path) {
            continue;
        }
        let fields: Vec<&str> = cfg
            .guarded_fields
            .iter()
            .filter(|(path, _)| *path == file.path)
            .map(|(_, field)| field.as_str())
            .collect();
        if fields.is_empty() {
            continue;
        }
        for f in &file.functions {
            if f.is_test {
                continue;
            }
            scan_fn(file, f, &fields, cfg, &mut findings);
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    findings.dedup_by(|a, b| a.path == b.path && a.line == b.line && a.message == b.message);
    out.append(&mut findings);
}

/// Guard-scope walk of one body: track live guards of this file's listed
/// locks, flag IO-method calls made while any guard is live.
fn scan_fn(
    file: &FileIndex,
    f: &Function,
    fields: &[&str],
    cfg: &Config,
    findings: &mut Vec<Finding>,
) {
    struct Held<'a> {
        field: &'a str,
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
                            a.field
                        ),
                    });
                }
            }
        }
        // Acquisition: `<field> . (lock|read|write) (` of a listed lock.
        if !matches!(t, "lock" | "read" | "write")
            || k < 2
            || k + 1 >= file.sig.len()
            || file.sig_text(k + 1) != "("
            || file.sig_text(k - 1) != "."
        {
            continue;
        }
        let Some(&field) = fields.iter().find(|&&name| name == file.sig_text(k - 2)) else {
            continue;
        };
        let (binding, temporary) = binding_for(file, k - 2, f.body.start);
        held.push(Held {
            field,
            binding,
            depth,
            temporary,
        });
    }
}
