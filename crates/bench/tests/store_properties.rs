//! Hostile-input properties of the result-store line format.
//!
//! The store is read back after kills, torn writes and hand edits, so its
//! parser is input-facing: arbitrary text must never panic it, every line the
//! writer can produce must read back to the record it was written from, and
//! the seal must reject any line whose body differs from the sealed one by as
//! little as one byte.

use bh_bench::campaign::failed_line;
use bh_bench::{CellRecord, FailedCell, StoreEntry};
use proptest::prelude::*;

/// Arbitrary text: any scalar values, control characters, quotes and
/// backslashes included.
fn text(code_points: &[u32]) -> String {
    code_points.iter().filter_map(|&c| char::from_u32(c % 0x11_0000)).collect()
}

/// A finite float from arbitrary bits (NaN and the infinities are not valid
/// JSON and are written as `null`, which is not a record).
fn finite(bits: u64) -> f64 {
    let value = f64::from_bits(bits);
    if value.is_finite() {
        value
    } else {
        bits as f64
    }
}

/// A record with every field drawn from `words`, `numbers` and `flags`.
fn record(words: &[Vec<u32>], numbers: &[u64], flags: u8) -> CellRecord {
    let flag = |bit: u8| flags & (1 << bit) != 0;
    CellRecord {
        cell: text(&words[0]),
        mechanism: text(&words[1]),
        nrh: numbers[0],
        breakhammer: flag(0),
        seed: numbers[1],
        mix: text(&words[2]),
        mix_class: text(&words[3]),
        scenario: flag(1).then(|| text(&words[4])),
        attack: flag(2),
        weighted_speedup: finite(numbers[2]),
        max_slowdown: finite(numbers[3]),
        energy_nj: finite(numbers[4]),
        preventive_actions: numbers[5],
        latency_ns: [finite(numbers[6]), finite(numbers[7]), finite(numbers[8])],
        attacker_identified: flag(3),
        benign_misidentified: flag(4),
        bitflips: numbers[9],
        max_victim_disturbance: numbers[10],
        flips_raw: numbers[11],
        flips_corrected: numbers[12],
        flips_detected: numbers[13],
        flips_silent: numbers[14],
        attack_success: flag(5),
        status: ["ok", "livelock", "budget"][numbers[15] as usize % 3].to_string(),
        termination: text(&words[5]),
        livelock_report: flag(6).then(|| text(&words[6])),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary text — raw, or dressed up as an object or as a sealed
    /// object — parses to nothing or to something, but never panics.
    #[test]
    fn arbitrary_text_never_panics_the_parser(
        code_points in proptest::collection::vec(any::<u32>(), 0..120),
        bytes in proptest::collection::vec(any::<u8>(), 0..120),
    ) {
        let json_alphabet = b"{}[]\":,\\ntfu0123456789.-+eE crcshema";
        let jsonish: String =
            bytes.iter().map(|b| json_alphabet[*b as usize % json_alphabet.len()] as char).collect();
        for hostile in [text(&code_points), String::from_utf8_lossy(&bytes).into_owned(), jsonish] {
            for line in [
                hostile.clone(),
                format!("{{{hostile}}}"),
                format!("{{\"schema\":3,\"status\":\"ok\",{hostile},\"crc\":\"0000000000000000\"}}"),
            ] {
                let _ = StoreEntry::parse(&line);
                let _ = CellRecord::parse(&line);
            }
        }
    }

    /// Whatever a record holds, its sealed line reads back to that record.
    #[test]
    fn every_sealed_line_round_trips(
        words in proptest::collection::vec(proptest::collection::vec(any::<u32>(), 0..24), 7usize),
        numbers in proptest::collection::vec(any::<u64>(), 16usize),
        flags in any::<u8>(),
    ) {
        let record = record(&words, &numbers, flags);
        let line = record.to_line();
        prop_assert!(!line.contains('\n'), "one record, one line: {line:?}");
        prop_assert_eq!(CellRecord::parse(&line), Some(record.clone()), "{}", line);

        let failed = failed_line(&record.cell, record.seed, record.attack, &record.mix);
        let expected = FailedCell { cell: record.cell, error: record.mix };
        prop_assert_eq!(StoreEntry::parse(&failed), Some(StoreEntry::Failed(expected)));
    }
}

proptest! {
    // Each case tampers with every byte of two lines, two readers each.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Changing any single byte of the body — everything before the `crc`
    /// field — breaks the seal, and every reader drops the line.
    #[test]
    fn any_single_byte_change_in_the_body_is_rejected(
        numbers in proptest::collection::vec(any::<u64>(), 16usize),
        flags in any::<u8>(),
        replacement in 0x20u8..0x7f,
    ) {
        // ASCII words keep every byte offset a character boundary.
        let words: Vec<Vec<u32>> = (0..7).map(|i| vec![0x41 + i; 8]).collect();
        let record = record(&words, &numbers, flags);
        for line in [record.to_line(), failed_line(&record.cell, record.seed, true, &record.mix)] {
            prop_assert!(StoreEntry::parse(&line).is_some());
            let body = line.rfind(",\"crc\":\"").expect("the line is sealed");
            for at in 0..body {
                if line.as_bytes()[at] == replacement {
                    continue;
                }
                let mut tampered = line.clone().into_bytes();
                tampered[at] = replacement;
                let tampered = String::from_utf8(tampered).expect("ASCII stays UTF-8");
                prop_assert_eq!(StoreEntry::parse(&tampered), None, "byte {} of {}", at, line);
                prop_assert_eq!(CellRecord::parse(&tampered), None);
            }
        }
    }
}
