//! `-h`/`--help` anywhere on an experiment binary's command line prints
//! the usage alone, before any scenario is built.

use std::process::Command;

#[test]
fn help_prints_the_usage_alone() {
    for args in [&["--help"][..], &["--scale", "small", "-h"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_fig3"))
            .args(args)
            .output()
            .expect("run fig3");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr.starts_with("usage: "), "{args:?}: {stderr}");
        assert!(!stderr.contains("error"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: ran the experiment");
    }
}
