//! `check_file` reads every `.rs` file in the workspace, half-edited
//! ones included: any text yields findings or none, never a panic.
//! Each input is checked under a sim-crate path, a campaign path and
//! a `tests/` path, so every rule scope sees it.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;
use qma_lint::check_file;

/// One path per rule scope.
const PATHS: [&str; 3] = [
    "crates/netsim/src/world.rs",
    "crates/bench/src/campaign/fabric.rs",
    "crates/scenarios/tests/determinism.rs",
];

fn check_everywhere(text: &str) {
    for path in PATHS {
        let _ = check_file(path, text);
    }
}

/// Every `.rs` file under `crates/`, sorted by path, read once.
fn committed_sources() -> &'static [(PathBuf, Vec<u8>)] {
    fn walk(dir: &Path, out: &mut Vec<(PathBuf, Vec<u8>)>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                if path.file_name().is_some_and(|name| name != "target") {
                    walk(&path, out);
                }
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                let bytes = std::fs::read(&path).unwrap();
                out.push((path, bytes));
            }
        }
    }
    static SOURCES: OnceLock<Vec<(PathBuf, Vec<u8>)>> = OnceLock::new();
    SOURCES.get_or_init(|| {
        let mut out = Vec::new();
        walk(&Path::new(env!("CARGO_MANIFEST_DIR")).join(".."), &mut out);
        out.sort();
        out
    })
}

/// Text over the lexer's hard cases: raw and byte string openers,
/// quotes, lifetimes, escapes, comment delimiters and newlines, mixed
/// with the tokens the rules and allow annotations match on.
fn arb_text() -> impl Strategy<Value = String> {
    const PIECES: [&str; 28] = [
        "r#\"",
        "\"#",
        "r\"",
        "br#\"",
        "b'",
        "'",
        "'a",
        "\\",
        "\"",
        "/*",
        "*/",
        "//",
        "///",
        "\n",
        " ",
        "x",
        "0",
        "::",
        "{",
        "}",
        "#[cfg(test)]",
        "unsafe",
        "HashMap",
        "for k in m.keys()",
        "Instant::now()",
        "std::thread::spawn",
        "// qma-lint: allow(hash-iter) — ",
        "é",
    ];
    prop::collection::vec(0..PIECES.len(), 0..64)
        .prop_map(|ix| ix.into_iter().map(|i| PIECES[i]).collect())
}

/// `bytes` torn at `cut` (wrapped into range), as lossy UTF-8: the
/// head alone, or with the tail that resumes `resume` bytes later.
fn torn(bytes: &[u8], cut: usize, resume: Option<usize>) -> String {
    let cut = cut % (bytes.len() + 1);
    let mut out = bytes[..cut].to_vec();
    if let Some(resume) = resume {
        out.extend_from_slice(&bytes[cut + resume % (bytes.len() - cut + 1)..]);
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[test]
fn every_committed_source_torn_at_random_bytes() {
    let sources = committed_sources();
    assert!(
        sources.len() >= 100,
        "crates/ lost its sources: {}",
        sources.len()
    );
    // splitmix64: a fixed, dependency-free stream of cut positions.
    let mut state = 2021u64;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as usize
    };
    for (_, bytes) in sources {
        check_everywhere(&torn(bytes, next(), None));
        check_everywhere(&torn(bytes, next(), Some(next())));
    }
}

proptest! {
    #[test]
    fn arbitrary_text_never_panics(
        text in arb_text(),
        pick in any::<usize>(),
        cut in any::<usize>(),
    ) {
        check_everywhere(&text);
        // Noise alone rarely reaches deep into a real file's
        // constructs, so a committed source torn at a random byte is
        // also continued with it.
        let (_, bytes) = &committed_sources()[pick % committed_sources().len()];
        check_everywhere(&(torn(bytes, cut, None) + &text));
    }
}
