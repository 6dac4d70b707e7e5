//! Runs read a workload through its streaming arrival source. The
//! materialising `Workload::arrivals()` holds every arrival in memory at
//! once, so only tests (and the benchmark package's layer drivers, which
//! want a slice) may call it: a call in the non-test code of any other
//! crate, bench or example fails this test.

use std::fs;
use std::path::{Path, PathBuf};

/// Where the materialising path may stay: the crate that defines it and
/// the benchmark package, which builds against this repository as it is.
const EXEMPT: [&str; 2] = ["crates/workload", "crates/bench/src/bin/benchmark"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn only_tests_materialise_the_arrival_list() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    rust_files(&root.join("examples"), &mut files);
    for krate in fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let krate = krate.expect("crate entry").path();
        rust_files(&krate.join("src"), &mut files);
        rust_files(&krate.join("benches"), &mut files);
    }
    let mut scanned = 0;
    for path in files {
        let rel = path.strip_prefix(root).expect("under the root");
        if EXEMPT.iter().any(|e| rel.starts_with(e)) {
            continue;
        }
        let src = fs::read_to_string(&path).expect("source is readable");
        let code = src.split("#[cfg(test)]").next().unwrap_or(&src);
        for (n, line) in code.lines().enumerate() {
            let line = line.split("//").next().unwrap_or(line);
            assert!(
                !line.contains(".arrivals()"),
                "{}:{}: materialises the arrival list; read `Workload::source` instead: {}",
                rel.display(),
                n + 1,
                line.trim()
            );
        }
        scanned += 1;
    }
    // The walk found the program: the driver and sharded runner at least.
    assert!(scanned > 50, "only {scanned} files scanned");
}
