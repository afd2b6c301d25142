//! Hostile-input properties of the `bh_analyze` lexer.
//!
//! The lexer reads every `.rs` file of the workspace, half-written ones
//! included, and promises never to fail: arbitrary text must neither panic it
//! nor stall it, and the line numbers the diagnostics print must stay inside
//! the file.

use bh_analyze::lexer::lex;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// Lexes `source` and checks what must hold for any input: every token
/// consumed at least one character (so the loop made progress and ended),
/// line numbers never go backwards and never point past the last line.
fn check(source: &str) {
    let tokens = lex(source);
    assert!(tokens.len() <= source.chars().count(), "more tokens than characters: {source:?}");
    let lines = source.lines().count() as u32;
    let mut previous = 1;
    for token in &tokens {
        assert!(token.line >= previous, "line went backwards at {token:?} in {source:?}");
        assert!(token.line <= lines, "{token:?} is past the {lines} lines of {source:?}");
        previous = token.line;
    }
}

/// The lexemes that open, close, escape or nest something in the lexer, plus
/// filler that forms identifiers, numbers and line breaks between them.
const ALPHABET: &[&str] = &[
    "\"", "'", "r#", "r", "br", "b'", "b\"", "#", "/*", "*/", "//", "///", "/", "*", "\\", "\\\"",
    "\\'", "0", "9", "_", "a", "é", "\n", "\r\n", " ", "::", "..=", "->", "'a", "'\\n'",
];

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("fixture directory is readable") {
        let path = entry.expect("fixture entry is readable").path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any sequence of Unicode scalar values.
    #[test]
    fn arbitrary_unicode_never_panics_the_lexer(
        code_points in proptest::collection::vec(any::<u32>(), 0..80),
    ) {
        let text: String =
            code_points.iter().filter_map(|&c| char::from_u32(c % 0x11_0000)).collect();
        check(&text);
    }

    /// Dense in exactly the characters the lexer branches on: unterminated
    /// and nested comments, quotes inside raw strings, escapes at end of
    /// input, lifetimes next to character literals.
    #[test]
    fn strings_over_the_lexers_own_alphabet_never_panic_it(
        picks in proptest::collection::vec(0usize..ALPHABET.len(), 0..40),
    ) {
        let text: String = picks.iter().map(|&i| ALPHABET[i]).collect();
        check(&text);
    }
}

/// Every prefix of every fixture file: real Rust (and one README) cut off in
/// the middle of whatever construct happens to be open at that character.
#[test]
fn every_prefix_of_every_fixture_file_lexes() {
    let mut files = Vec::new();
    collect_files(&Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures"), &mut files);
    assert!(!files.is_empty(), "no fixture files found");
    for file in files {
        let source = std::fs::read_to_string(&file).expect("fixture is UTF-8 text");
        for (end, _) in source.char_indices() {
            check(&source[..end]);
        }
        check(&source);
    }
}
