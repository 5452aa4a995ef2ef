//! Recorded traces: a plain-text interchange format for allocation
//! traces, so real programs' malloc/free streams (captured with any
//! interposer) can be replayed through the evaluation pipeline.
//!
//! Format (line-oriented, `#` comments):
//!
//! ```text
//! # minesweeper-sim trace v1
//! W 500        # work: 500 cycles of mutator compute
//! A 0 64       # alloc: object id 0, 64 bytes (site 0)
//! A 1 64 17    # alloc with an explicit allocation-site id
//! F 0          # free: object id 0
//! T            # teardown marker (optional; bulk frees follow)
//! ```
//!
//! Ids must be dense-ish unique tokens (any u64); every `F` must follow
//! its `A`, and each id is freed at most once — [`read_trace`] validates.

use std::fmt::Write as _;

use crate::trace::Op;

/// A malformed trace file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

/// Serialises ops to the v1 text format.
pub fn write_trace(ops: impl IntoIterator<Item = Op>) -> String {
    let mut out = String::from("# minesweeper-sim trace v1\n");
    for op in ops {
        match op {
            Op::Work(c) => writeln!(out, "W {c}").expect("string write"),
            Op::Alloc { id, size, site: 0 } => {
                writeln!(out, "A {id} {size}").expect("string write");
            }
            Op::Alloc { id, size, site } => {
                writeln!(out, "A {id} {size} {site}").expect("string write");
            }
            Op::Free { id } => writeln!(out, "F {id}").expect("string write"),
            Op::Teardown => out.push_str("T\n"),
        }
    }
    out
}

/// Parses the v1 text format, validating alloc/free pairing.
///
/// # Errors
///
/// [`TraceParseError`] with the offending line on syntax errors, sizes of
/// zero or above `u32::MAX`, frees of never-allocated ids, double frees,
/// or duplicate allocations.
pub fn read_trace(text: &str) -> Result<Vec<Op>, TraceParseError> {
    let mut ops = Vec::new();
    let mut allocated = std::collections::HashSet::new();
    let mut freed = std::collections::HashSet::new();
    let err = |line: usize, message: String| TraceParseError { line, message };

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let tag = parts.next().expect("non-empty line");
        let mut next_u64 = |what: &str| -> Result<u64, TraceParseError> {
            let tok = parts
                .next()
                .ok_or_else(|| err(line_no, format!("missing {what}")))?;
            tok.parse().map_err(|_| err(line_no, format!("bad {what}: {tok}")))
        };
        match tag {
            "W" => ops.push(Op::Work(next_u64("cycle count")?)),
            "A" => {
                let id = next_u64("id")?;
                let size = next_u64("size")?;
                if size == 0 {
                    return Err(err(line_no, "zero-size allocation".into()));
                }
                // The engine stores pointer-slot offsets as `u32`.
                if size > u64::from(u32::MAX) {
                    return Err(err(line_no, format!("allocation size {size} exceeds u32::MAX")));
                }
                if !allocated.insert(id) {
                    return Err(err(line_no, format!("duplicate allocation id {id}")));
                }
                // Optional third field: allocation-site id (0 = unknown,
                // what two-field pre-forensics traces mean).
                let site = match parts.next() {
                    Some(tok) => tok
                        .parse::<u32>()
                        .map_err(|_| err(line_no, format!("bad site: {tok}")))?,
                    None => 0,
                };
                ops.push(Op::Alloc { id, size, site });
            }
            "F" => {
                let id = next_u64("id")?;
                if !allocated.contains(&id) {
                    return Err(err(line_no, format!("free of unallocated id {id}")));
                }
                if !freed.insert(id) {
                    return Err(err(line_no, format!("double free of id {id}")));
                }
                ops.push(Op::Free { id });
            }
            "T" => ops.push(Op::Teardown),
            other => return Err(err(line_no, format!("unknown record: {other}"))),
        }
        if parts.next().is_some() {
            return Err(err(line_no, "trailing tokens".into()));
        }
    }
    Ok(ops)
}

/// Appends frees for any ids the trace leaked, after a teardown marker —
/// so replays always return the heap to empty (like a process exit).
pub fn close_trace(mut ops: Vec<Op>) -> Vec<Op> {
    let mut live: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    let mut has_teardown = false;
    for op in &ops {
        match op {
            Op::Alloc { id, .. } => {
                live.insert(*id);
            }
            Op::Free { id } => {
                live.remove(id);
            }
            Op::Teardown => has_teardown = true,
            Op::Work(_) => {}
        }
    }
    if !live.is_empty() && !has_teardown {
        ops.push(Op::Teardown);
    }
    ops.extend(live.into_iter().map(|id| Op::Free { id }));
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Profile, TraceGen};

    #[test]
    fn roundtrip_preserves_ops() {
        let ops: Vec<Op> = TraceGen::new(&Profile::demo(), 5).take(500).collect();
        let text = write_trace(ops.clone());
        let parsed = read_trace(&text).unwrap();
        assert_eq!(parsed, ops);
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let ops = read_trace("# header\n\nW 10 # trailing comment\nA 1 64\nF 1\n").unwrap();
        assert_eq!(
            ops,
            vec![
                Op::Work(10),
                Op::Alloc { id: 1, size: 64, site: 0 },
                Op::Free { id: 1 }
            ]
        );
    }

    #[test]
    fn site_field_roundtrips_and_defaults_to_zero() {
        let ops = read_trace("A 1 64 17\nA 2 32\nF 1\nF 2\n").unwrap();
        assert_eq!(ops[0], Op::Alloc { id: 1, size: 64, site: 17 });
        assert_eq!(ops[1], Op::Alloc { id: 2, size: 32, site: 0 });
        let text = write_trace(ops.clone());
        assert!(text.contains("A 1 64 17\n"), "{text}");
        assert!(text.contains("A 2 32\n"), "site 0 stays two-field: {text}");
        assert_eq!(read_trace(&text).unwrap(), ops);
        let e = read_trace("A 1 64 banana\n").unwrap_err();
        assert!(e.message.contains("bad site"), "{e}");
    }

    #[test]
    fn validation_catches_mistakes() {
        let cases = [
            ("F 1\n", "unallocated"),
            ("A 1 64\nF 1\nF 1\n", "double free"),
            ("A 1 64\nA 1 32\n", "duplicate allocation"),
            ("A 1 0\n", "zero-size"),
            ("W 1\nA 1 4294967296\n", "exceeds u32::MAX"),
            ("X 1\n", "unknown record"),
            ("A 1\n", "missing size"),
            ("W banana\n", "bad cycle count"),
            ("W 5 6\n", "trailing"),
        ];
        for (text, want) in cases {
            let e = read_trace(text).unwrap_err();
            assert!(e.message.contains(want), "{text:?}: {e}");
            assert_eq!(e.line, text.lines().count(), "{text:?}: {e}");
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = read_trace("W 1\nW 2\nF 9\n").unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn close_trace_frees_leaks_after_teardown() {
        let ops = read_trace("A 1 64\nA 2 64\nF 1\n").unwrap();
        let closed = close_trace(ops);
        assert_eq!(
            &closed[3..],
            &[Op::Teardown, Op::Free { id: 2 }],
            "leaked id freed after teardown"
        );
        // Already-balanced traces are untouched.
        let ops = read_trace("A 1 64\nF 1\n").unwrap();
        assert_eq!(close_trace(ops.clone()), ops);
    }
}
