//! Records the compiler and source revision the benchmark was built from,
//! so every printed result carries them.

use std::path::Path;
use std::process::Command;

fn run(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.trim().to_string()).filter(|t| !t.is_empty())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = run(&rustc, &["-V"]).unwrap_or_else(|| "unknown".to_string());
    let rev = run("git", &["-C", "..", "rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "none (not a git checkout)".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_REV={rev}");
    println!("cargo:rerun-if-changed=build.rs");
    // Watch the revision only where there is one: a watched path that does
    // not exist would rebuild the benchmark on every run.
    for path in ["../.git/HEAD", "../.git/index"] {
        if Path::new(path).exists() {
            println!("cargo:rerun-if-changed={path}");
        }
    }
}
