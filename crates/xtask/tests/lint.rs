//! Liveness proof for the two `xtask lint` rules: seeded violations in a
//! throwaway workspace under the temp dir must fail, and the negative
//! controls beside them must stay silent. Also pins the crate-root lint
//! attributes that hand panic/print hygiene to clippy.

use std::fs;
use std::path::PathBuf;

/// A throwaway workspace holding `(relative path, contents)` files.
struct Fixture(PathBuf);

impl Fixture {
    fn new(name: &str, files: &[(&str, &str)]) -> Fixture {
        let root = std::env::temp_dir().join(format!("xtask-lint-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("vendor")).unwrap();
        for (path, text) in files {
            let path = root.join(path);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, text).unwrap();
        }
        Fixture(root)
    }

    /// `(rule, path, line)` of every finding.
    fn findings(&self) -> Vec<(&'static str, String, usize)> {
        xtask::lint::findings(&self.0)
            .unwrap()
            .into_iter()
            .map(|v| (v.rule, v.path, v.line))
            .collect()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn manifest(name: &str, deps: &[&str]) -> String {
    let deps: String = deps
        .iter()
        .map(|d| format!("{d}.workspace = true\n"))
        .collect();
    format!("[package]\nname = \"{name}\"\n\n[dependencies]\n{deps}")
}

#[test]
fn layering_rejects_a_forbidden_fm_dependency() {
    let fixture = Fixture::new(
        "layering",
        &[
            // Violations: the store is a leaf, and nothing below the
            // serving layer may reach back up to it.
            (
                "crates/store/Cargo.toml",
                &manifest("fm-store", &["fm-core"]),
            ),
            (
                "crates/core/Cargo.toml",
                &manifest("fm-core", &["fm-text", "fm-store", "fm-server"]),
            ),
            // Controls: an allowed edge and an unrestricted binary crate.
            (
                "crates/server/Cargo.toml",
                &manifest("fm-server", &["fm-core"]),
            ),
            ("crates/cli/Cargo.toml", &manifest("fm-cli", &["fm-server"])),
        ],
    );
    assert_eq!(
        fixture.findings(),
        [
            ("layering", "crates/core/Cargo.toml".to_string(), 0),
            ("layering", "crates/store/Cargo.toml".to_string(), 0),
        ]
    );
}

const PREDICATES: &str = r#"pub fn is_empty_page(n: u32) -> bool {
    n == 0
}

#[must_use]
pub fn is_full(n: u32) -> bool {
    n > 9
}

// lint:allow(must-use-bool): advisory, callers may ignore it
pub fn is_warm(n: u32) -> bool {
    n > 3
}

pub fn count(n: u32) -> u32 {
    n
}

#[cfg(test)]
mod tests {
    pub fn helper() -> bool {
        true
    }
}
"#;

#[test]
fn must_use_bool_fires_without_the_attribute() {
    let fixture = Fixture::new(
        "must-use",
        &[
            ("crates/core/Cargo.toml", &manifest("fm-core", &[])),
            ("crates/core/src/lib.rs", PREDICATES),
        ],
    );
    // Only `is_empty_page` fires: `#[must_use]`, `lint:allow`, a non-bool
    // return and a test module are the negative controls.
    assert_eq!(
        fixture.findings(),
        [("must-use-bool", "crates/core/src/lib.rs".to_string(), 1)]
    );
}

#[test]
fn must_use_bool_is_scoped_to_the_library_crates() {
    let fixture = Fixture::new(
        "must-use-scope",
        &[
            ("crates/cli/Cargo.toml", &manifest("fm-cli", &[])),
            ("crates/cli/src/lib.rs", PREDICATES),
        ],
    );
    assert_eq!(fixture.findings(), []);
}

#[test]
fn server_crate_is_held_to_library_hygiene() {
    // fm-server joined the library crates with the serving layer: its root,
    // like the other four, must deny what the retired line lints checked,
    // or clippy silently stops checking it.
    let root = xtask::workspace_root();
    for krate in ["server", "text", "store", "core", "datagen"] {
        let lib = fs::read_to_string(root.join(format!("crates/{krate}/src/lib.rs"))).unwrap();
        for lint in [
            "clippy::unwrap_used",
            "clippy::expect_used",
            "clippy::panic",
            "clippy::unreachable",
            "clippy::print_stdout",
            "clippy::print_stderr",
            "#![cfg_attr(not(test), deny(unused_crate_dependencies))]",
        ] {
            assert!(
                lib.contains(lint),
                "crates/{krate}/src/lib.rs does not deny {lint}"
            );
        }
    }
}
