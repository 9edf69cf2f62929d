//! `cargo xtask` — the workspace's own checker (see the library crate for
//! what each command does).

use xtask::{analyze, bench, ci, deepcheck, lint};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("lint") => lint::run(
            args.iter()
                .any(|a| a == "--rebaseline" || a == "--update-baseline"),
        ),
        Some("analyze") => analyze::run(&args[1..]),
        Some("bench") => bench::run(&args[1..]),
        Some("deepcheck") => deepcheck::run(),
        Some("ci") => ci::run(),
        other => {
            if let Some(cmd) = other {
                eprintln!("unknown command: {cmd}");
            }
            eprintln!(
                "usage: cargo xtask <lint [--rebaseline] | \
                 analyze [--json] [--rebaseline] [--explain <rule>] | \
                 bench [--rebaseline] [--skip-run] | deepcheck | ci>"
            );
            2
        }
    };
    std::process::exit(code);
}
