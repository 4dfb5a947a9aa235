//! `exp_defense` refuses a bad env knob before any cell runs, naming
//! the variable. `DEF_FPR` follows the rule `serve --defense-fpr`
//! follows: a target strictly between 0 and 1.

use std::process::{Command, Stdio};

#[test]
fn bad_env_knobs_are_refused_up_front() {
    let cases: [(&str, &[&str]); 3] = [
        ("DEF_FPR", &["NaN", "inf", "0", "1.5"]),
        ("DEF_APPGRAD_ITERS", &["2O", "-1", ""]),
        ("DEF_INFLUENCE_ROUNDS", &["2O", "-1", ""]),
    ];
    for (name, values) in cases {
        for value in values {
            let out = Command::new(env!("CARGO_BIN_EXE_exp_defense"))
                .env(name, value)
                .args(["--scale", "0.02", "--out", env!("CARGO_TARGET_TMPDIR")])
                .stdin(Stdio::null())
                .output()
                .expect("run exp_defense");
            assert!(!out.status.success(), "{name}={value:?} was accepted");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(name), "{name}={value:?}: {stderr}");
        }
    }
}
