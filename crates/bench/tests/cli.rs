//! `repro` as a process: what its callers see on exit.

use std::process::{Command, Stdio};

/// A reader that stops early (`repro all | head -1`) closes `repro`'s
/// stdout while it still has tables to print; it must end quietly, not
/// panic with exit code 101.
#[test]
fn repro_exits_quietly_when_stdout_closes_early() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("all")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro starts");
    // Drop the read end: every later write fails with a broken pipe.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("repro exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
}
