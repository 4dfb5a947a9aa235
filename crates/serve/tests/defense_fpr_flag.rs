//! `serve --defense-fpr` takes only a target strictly between 0 and 1.
//! NaN used to slip through: it calibrated the detector at the minimum
//! organic score and flagged nearly all traffic without any error.

use std::process::{Command, Stdio};

fn serve_with_fpr(fpr: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--scale", "0.02", "--eval-users", "8", "--defense", "lof"])
        .args(["--defense-fpr", fpr])
        .stdin(Stdio::null())
        .output()
        .expect("run serve binary")
}

#[test]
fn out_of_range_fpr_is_a_usage_error() {
    for fpr in ["NaN", "inf", "-inf", "0", "1", "-0.05", "1.5"] {
        let out = serve_with_fpr(fpr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "--defense-fpr {fpr} was not refused"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--defense-fpr"), "{fpr}: {stderr}");
        assert!(out.stdout.is_empty(), "{fpr}: served anyway");
    }
}

#[test]
fn in_range_fpr_serves_and_shuts_down_cleanly() {
    // stdin is closed, so the server drains and exits right after
    // announcing itself.
    let out = serve_with_fpr("0.05");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"type\":\"serving\""));
}
