//! Records the version of the compiler that builds the benchmark, so every
//! run header can name it without starting a process at run time.

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=TRACKBENCH_RUSTC_VERSION={version}");
    println!("cargo:rerun-if-env-changed=RUSTC");
}
