//! `exp_defense` holds `DEF_FPR` to the rule `serve --defense-fpr`
//! follows: a target strictly between 0 and 1, refused before any cell
//! runs.

use std::process::{Command, Stdio};

#[test]
fn out_of_range_def_fpr_is_refused_up_front() {
    for fpr in ["NaN", "inf", "0", "1.5"] {
        let out = Command::new(env!("CARGO_BIN_EXE_exp_defense"))
            .env("DEF_FPR", fpr)
            .args(["--scale", "0.02", "--out", env!("CARGO_TARGET_TMPDIR")])
            .stdin(Stdio::null())
            .output()
            .expect("run exp_defense");
        assert!(!out.status.success(), "DEF_FPR={fpr} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("DEF_FPR"), "{fpr}: {stderr}");
    }
}
