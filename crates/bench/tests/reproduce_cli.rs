//! The `reproduce` driver's command line: `--serial` is its only
//! argument, and anything else is refused before any output.

use std::process::Command;

#[test]
fn unknown_flag_exits_2_before_any_output() {
    for args in [&["--seril"][..], &["--serial", "--only"], &["fig07"]] {
        let output = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(args)
            .output()
            .expect("run reproduce");
        let bad = args[args.len() - 1];
        assert_eq!(output.status.code(), Some(2), "{args:?} must be refused");
        assert!(
            output.stdout.is_empty(),
            "{args:?} printed before refusing:\n{}",
            String::from_utf8_lossy(&output.stdout)
        );
        assert!(
            String::from_utf8_lossy(&output.stderr).contains(&format!("unknown flag {bad}")),
            "{args:?} not named as unknown"
        );
    }
}
