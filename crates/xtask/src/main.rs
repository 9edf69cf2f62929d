//! `cargo xtask` — the workspace's own checker (see the library crate for
//! what each command does).

use xtask::{bench, ci, deepcheck, lint};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let code = match argv.as_slice() {
        ["lint"] => lint::run(),
        ["bench", ..] => bench::run(&args[1..]),
        ["deepcheck"] => deepcheck::run(),
        ["ci"] => ci::run(),
        other => {
            if !other.is_empty() {
                eprintln!("unknown command: {}", other.join(" "));
            }
            eprintln!(
                "usage: cargo xtask <lint | bench [--rebaseline] [--skip-run] | \
                 deepcheck | ci>"
            );
            2
        }
    };
    std::process::exit(code);
}
