//! `cargo xtask` — the workspace's own checker (see the library crate for
//! what each command does).

use xtask::{ci, deepcheck, lint};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let code = match argv.as_slice() {
        ["lint"] => lint::run(),
        ["deepcheck"] => deepcheck::run(),
        ["ci"] => ci::run(),
        other => {
            if !other.is_empty() {
                eprintln!("unknown command: {}", other.join(" "));
            }
            eprintln!("usage: cargo xtask <lint | deepcheck | ci>");
            2
        }
    };
    std::process::exit(code);
}
