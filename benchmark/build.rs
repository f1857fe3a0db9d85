//! Records the compiler version the benchmark was built with, for the
//! header of every report.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |v| v.trim().replace(' ', "_"));
    println!("cargo:rustc-env=PC_BENCH_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
