//! `cargo xtask racecheck` — the concurrency rules (`lockset`,
//! `latch-protocol`) as a standalone gate.
//!
//! Race findings earn their own command and baseline because their
//! lifecycle differs from the general `analyze` rules: they are expected
//! to be **empty on the real tree** (a nonzero baseline here is a known
//! data race, not tolerable debt), and they run the heavier
//! interprocedural lockset machinery that `analyze` does not need.
//! Flags mirror `analyze`: `--json` for machine-readable findings (the
//! CI smoke re-parses it with [`fm_server::json`]), `--rebaseline` to
//! freeze, `--explain <rule>` for the rationale table (shared with
//! `analyze`, so the 10-rule exhaustiveness test covers both commands).

use super::graph::CallGraph;
use super::items::FileIndex;
use super::{latchproto, lockset, Config, Finding};

pub const BASELINE_FILE: &str = "xtask-racecheck.baseline";

/// Run the two concurrency rules over in-memory sources — the seam the
/// fixture tests drive; [`run`] feeds it the real workspace.
pub fn racecheck_sources(sources: Vec<(String, String)>, cfg: &Config) -> Vec<Finding> {
    let files: Vec<FileIndex> = sources
        .into_iter()
        .map(|(path, src)| FileIndex::build(path, src))
        .collect();
    let graph = CallGraph::build(&files);
    let mut out = Vec::new();
    lockset::check(&files, &graph, cfg, &mut out);
    latchproto::check(&files, cfg, &mut out);
    out.sort_by(|a, b| {
        (a.rule, &a.path, a.line, &a.message).cmp(&(b.rule, &b.path, b.line, &b.message))
    });
    out
}

/// The `--json` document for the current tree — the seam `xtask ci`'s
/// smoke re-parses with [`fm_server::json`] without spawning a process.
pub fn json_report() -> String {
    let cfg = super::project_config();
    let findings = racecheck_sources(super::workspace_sources(&cfg), &cfg);
    let fps = crate::baseline::assign(&findings, |f| {
        (f.rule.to_string(), f.path.clone(), f.anchor.clone())
    });
    let base = crate::baseline::load(&crate::workspace_root().join(BASELINE_FILE));
    super::to_json(&findings, &fps, &base)
}

pub fn run(args: &[String]) -> i32 {
    let json = args.iter().any(|a| a == "--json");
    let rebaseline = args.iter().any(|a| a == "--rebaseline");
    if let Some(pos) = args.iter().position(|a| a == "--explain") {
        // The rationale table lives with `analyze`; delegate so the two
        // commands cannot drift.
        return super::run(&args[pos..]);
    }
    let root = crate::workspace_root();
    let cfg = super::project_config();
    let findings = racecheck_sources(super::workspace_sources(&cfg), &cfg);
    let fps = crate::baseline::assign(&findings, |f| {
        (f.rule.to_string(), f.path.clone(), f.anchor.clone())
    });
    let baseline_path = root.join(BASELINE_FILE);

    if rebaseline {
        let entries: Vec<(String, u64, String, String)> = findings
            .iter()
            .zip(&fps)
            .map(|(f, &fp)| (f.rule.to_string(), fp, f.path.clone(), f.anchor.clone()))
            .collect();
        if let Err(e) = crate::baseline::write(&baseline_path, "racecheck", &entries) {
            eprintln!("racecheck: cannot write {BASELINE_FILE}: {e}");
            return 1;
        }
        println!(
            "racecheck: baseline rewritten with {} findings",
            entries.len()
        );
        return 0;
    }

    let base = crate::baseline::load(&baseline_path);
    if base.legacy {
        eprintln!(
            "racecheck: {BASELINE_FILE} is in the legacy count format; run \
             `cargo xtask racecheck --rebaseline` once to migrate"
        );
        return 1;
    }
    let new: Vec<&Finding> = findings
        .iter()
        .zip(fps.iter())
        .filter(|(_, fp)| !base.contains(**fp))
        .map(|(f, _)| f)
        .collect();
    let matched = fps.iter().filter(|fp| base.contains(**fp)).count();
    let current: std::collections::HashSet<u64> = fps.iter().copied().collect();
    let stale = base
        .entries
        .iter()
        .filter(|fp| !current.contains(fp))
        .count();

    if json {
        println!("{}", super::to_json(&findings, &fps, &base));
    } else {
        for f in &new {
            eprintln!("  {}:{}: [{}] {}", f.path, f.line, f.rule, f.message);
        }
        if stale > 0 {
            println!(
                "racecheck: note: {stale} baselined findings no longer occur; run \
                 `cargo xtask racecheck --rebaseline` to lock in the progress"
            );
        }
    }
    if new.is_empty() {
        if !json {
            println!("racecheck: ok ({matched} baselined findings, 0 new)");
        }
        0
    } else {
        eprintln!("racecheck: FAILED ({} new findings)", new.len());
        1
    }
}
