//! Rule `wal-write`: page mutation must flow through the WAL-aware layer.
//!
//! Two checks, both token-accurate:
//!
//! 1. **Confinement** — a `.write_page(` call may appear only in the files
//!    declared in `Config::wal_allowed_files` (the pager impls, the WAL
//!    itself, and the buffer pool, which always routes through the injected
//!    `Pager`). Any new code path writing pages directly would bypass
//!    durability silently; it is flagged at the call site.
//! 2. **Checkpoint ordering** — inside the checkpoint file, a function
//!    that copies logged pages into the main file
//!    (`<wal_main_field>.write_page(…)`) must call the WAL durability
//!    point (`<wal_sync_call>(…)`) first. The first main-file write must
//!    come after the first sync, or a crash mid-checkpoint loses committed
//!    data.
//!
//! Suppress a vetted site with `// lint:allow(wal-write): <why>`.

use super::items::FileIndex;
use super::{Config, Finding};

pub const RULE: &str = "wal-write";

pub fn check(files: &[FileIndex], cfg: &Config, out: &mut Vec<Finding>) {
    for file in files {
        let allowed_file = cfg.wal_allowed_files.contains(&file.path);
        let checkpoint_file = file.path == cfg.wal_checkpoint_file;
        for f in &file.functions {
            if f.is_test {
                continue;
            }
            let mut first_sync: Option<usize> = None;
            let mut first_main_write: Option<(usize, u32)> = None;
            for k in f.body.clone() {
                let t = file.sig_text(k);
                // Calls only: `. name (` — definitions have `fn` before.
                if k == 0 || file.sig_text(k - 1) != "." {
                    continue;
                }
                if k + 1 >= file.sig.len() || file.sig_text(k + 1) != "(" {
                    continue;
                }
                if t == cfg.wal_sync_call {
                    first_sync.get_or_insert(k);
                }
                if t != "write_page" {
                    continue;
                }
                let line = file.sig_line(k);
                if !allowed_file && !file.allowed(line, RULE) {
                    out.push(Finding {
                        rule: RULE,
                        path: file.path.clone(),
                        line,
                        message: format!(
                            "page write outside the WAL-aware layer (allowed files: {}); \
                             route mutation through the buffer pool so durability cannot \
                             be bypassed",
                            cfg.wal_allowed_files.join(", ")
                        ),
                    });
                }
                if checkpoint_file
                    && k >= 2
                    && file.sig_text(k - 2) == cfg.wal_main_field
                    && first_main_write.is_none()
                {
                    first_main_write = Some((k, line));
                }
            }
            if let Some((write_idx, line)) = first_main_write {
                let synced_first = first_sync.is_some_and(|s| s < write_idx);
                if !synced_first && !file.allowed(line, RULE) {
                    out.push(Finding {
                        rule: RULE,
                        path: file.path.clone(),
                        line,
                        message: format!(
                            "`{}` copies pages into `{}` before `{}` makes the WAL \
                             durable; a crash mid-checkpoint would lose committed data",
                            f.qual, cfg.wal_main_field, cfg.wal_sync_call
                        ),
                    });
                }
            }
        }
    }
}
