//! Hostile nesting in specification JSON is a typed error. The parser
//! recurses once per array or object level, so an unbounded nest would
//! overflow the stack and abort the process; the depth cap turns it
//! into an `Err` while every legitimate document still parses.

use sedspec::spec::ExecutionSpecification;
use serde::json::MAX_DEPTH;

/// `open` repeated to `bytes` bytes, never closed.
fn nest(open: &str, bytes: usize) -> String {
    open.repeat(bytes / open.len())
}

#[test]
fn deep_nests_are_typed_errors() {
    for open in ["[", "{\"a\":"] {
        for bytes in [10 << 10, 1 << 20] {
            let err = ExecutionSpecification::from_json(&nest(open, bytes))
                .expect_err("a hostile nest must not parse");
            assert!(err.to_string().contains("nesting deeper than"), "{open} x {bytes}: {err}");
        }
    }
}

/// The cap itself parses on a 2 MiB thread (the default spawn stack)
/// in a debug build, and one level more is refused.
#[test]
fn the_deepest_accepted_document_parses_on_a_small_stack() {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let doc = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
            let objects = |depth: usize| "{\"a\":".repeat(depth) + "0" + &"}".repeat(depth);
            for text in [doc(MAX_DEPTH), objects(MAX_DEPTH)] {
                serde_json::from_str_value(&text).expect("the cap depth parses");
            }
            for text in [doc(MAX_DEPTH + 1), objects(MAX_DEPTH + 1)] {
                assert!(serde_json::from_str_value(&text).is_err(), "one level past the cap");
            }
        })
        .unwrap()
        .join()
        .unwrap();
}
