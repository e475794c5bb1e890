//! Command-line checks that run the `polap` binary itself.

use std::process::Command;

/// Runs `polap` with `args` and returns its exit code and stderr.
fn polap(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_polap"))
        .args(args)
        .output()
        .expect("polap runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// In client mode the server owns the executor settings, so a local
/// `--threads` or `--budget` would be silently ignored. Both are usage
/// errors, reported before any connection attempt (nothing listens on
/// port 1, so reaching `connect` would exit 1 with "cannot connect").
#[test]
fn connect_rejects_executor_flags() {
    for (flag, value, where_set) in [
        ("--threads", "4", "olap-server --threads N"),
        ("--budget", "9", ".budget N"),
    ] {
        let (code, stderr) = polap(&["--connect", "127.0.0.1:1", flag, value]);
        assert_eq!(code, Some(2), "{flag}: {stderr}");
        assert!(stderr.contains(where_set), "{flag}: {stderr}");
        assert!(!stderr.contains("cannot connect"), "{flag}: {stderr}");
    }
}
