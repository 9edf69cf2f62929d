//! Rule `float-det`.
//!
//! The similarity kernels under `Config::float_det_dirs`
//! accumulate `f64` scores; iterating a `HashMap`/`HashSet` there makes the
//! reduction order — and therefore the low bits of every score — depend on
//! the hasher seed. Scores must be reproducible run-to-run (DESIGN.md's
//! determinism invariant), so hash containers are banned in those files in
//! favor of `BTreeMap` or sorted `Vec`s.

use super::items::FileIndex;
use super::{Config, Finding};

pub const RULE: &str = "float-det";

pub fn check(files: &[FileIndex], cfg: &Config, out: &mut Vec<Finding>) {
    for file in files {
        if !cfg
            .float_det_dirs
            .iter()
            .any(|d| file.path.starts_with(d.as_str()))
        {
            continue;
        }
        for i in 0..file.sig.len() {
            let t = file.sig_text(i);
            if t != "HashMap" && t != "HashSet" {
                continue;
            }
            let line = file.sig_line(i);
            if file.allowed(line, RULE) {
                continue;
            }
            out.push(Finding {
                rule: RULE,
                path: file.path.clone(),
                line,
                message: format!(
                    "`{t}` in a float-accumulating kernel: iteration order depends on \
                     the hasher seed, so scores stop being reproducible — use BTreeMap \
                     or a sorted Vec"
                ),
            });
        }
    }
}
