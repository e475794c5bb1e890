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
/// `--budget` or `--cache` would be silently ignored, whatever its value.
/// Both are usage errors, reported before any connection attempt
/// (nothing listens on port 1, so reaching `connect` would exit 1 with
/// "cannot connect").
#[test]
fn connect_rejects_executor_flags() {
    for (flag, value, where_set) in [
        ("--budget", "9", ".budget N"),
        ("--cache", "0", "chosen server-side"),
        ("--cache", "64", "chosen server-side"),
    ] {
        let (code, stderr) = polap(&["--connect", "127.0.0.1:1", flag, value]);
        assert_eq!(code, Some(2), "{flag} {value}: {stderr}");
        assert!(stderr.contains(where_set), "{flag} {value}: {stderr}");
        assert!(
            !stderr.contains("cannot connect"),
            "{flag} {value}: {stderr}"
        );
    }
}

/// An argument that starts with `--` and names no flag is refused as an
/// unknown flag with the usage line, never read as a dataset name — in
/// local and client mode alike, and before any dataset loads or any
/// connection is tried. `--threads` is one: execution is serial.
#[test]
fn unknown_flags_are_refused_with_the_usage_line() {
    for args in [
        &["--threads", "4"][..],
        &["--bogus"],
        &["running", "--threads", "1"],
        &["--connect", "127.0.0.1:1", "--threads", "4"],
    ] {
        let (code, stderr) = polap(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("unknown flag"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: polap"), "{args:?}: {stderr}");
        assert!(!stderr.contains("unknown dataset"), "{args:?}: {stderr}");
        assert!(!stderr.contains("loading"), "{args:?}: {stderr}");
        assert!(!stderr.contains("cannot connect"), "{args:?}: {stderr}");
    }
}
