//! Round-trip property tests: arbitrary generated traces survive the
//! binary encoding exactly, and corrupted files come back as typed
//! errors, never panics.

use std::io::Cursor;

use sttgpu_oracle::{generate, ops_to_records, records_to_ops, Op, TraceSpec};
use sttgpu_stats::Rng;
use sttgpu_tracefile::{TraceError, TraceHeader, TraceReader, TraceRecord, TraceWriter};

/// A seeded spec with seed-dependent shape, so different seeds exercise
/// different lengths, address ranges and gap distributions.
fn spec_for(seed: u64) -> TraceSpec {
    let mut rng = Rng::new(seed ^ 0xD1CE);
    TraceSpec {
        ops: rng.range_usize(1, 400),
        lines: rng.range_u64(1, 5_000),
        hot_lines: 1,
        hot_fraction: rng.range_f64(0.0, 1.0),
        write_fraction: rng.range_f64(0.0, 1.0),
        max_dt_ns: rng.range_u64(1, 10_000),
    }
}

/// Encodes `records` as a requests-mode binary trace.
fn encode(records: &[TraceRecord]) -> Vec<u8> {
    let mut w = TraceWriter::new(Vec::new(), TraceHeader::requests(256)).expect("header");
    for rec in records {
        w.write(rec).expect("record");
    }
    w.finish().expect("flush")
}

fn binary_round_trip(records: &[TraceRecord]) -> (TraceHeader, Vec<TraceRecord>) {
    let r = TraceReader::new(Cursor::new(encode(records))).expect("header");
    let header = r.header();
    let back: Vec<TraceRecord> = r.map(|rec| rec.expect("clean stream")).collect();
    (header, back)
}

#[test]
fn generated_traces_round_trip_through_both_encodings() {
    for seed in 0..50 {
        let ops = generate(seed, &spec_for(seed));
        let records: Vec<TraceRecord> = ops_to_records(&ops).into_iter().collect();

        let (bin_header, bin_back) = binary_round_trip(&records);
        assert_eq!(bin_header.line_bytes, 256);
        assert_eq!(
            bin_back, records,
            "seed {seed}: binary encoding must be lossless"
        );

        let back_ops = records_to_ops(&bin_back).expect("requests discipline held");
        assert_eq!(
            back_ops, ops,
            "seed {seed}: the exact Op sequence must come back"
        );
    }
}

#[test]
fn extreme_deltas_round_trip() {
    // Huge forward jumps and maximal line addresses stress the varint
    // and zigzag paths beyond what `generate` produces.
    let ops = vec![
        Op {
            dt_ns: 1,
            line: u64::MAX / 256,
            write: true,
        },
        Op {
            dt_ns: u32::MAX as u64,
            line: 0,
            write: false,
        },
        Op {
            dt_ns: 1,
            line: u64::MAX / 256,
            write: false,
        },
    ];
    let records: Vec<TraceRecord> = ops_to_records(&ops).into_iter().collect();
    let (_, back) = binary_round_trip(&records);
    assert_eq!(records_to_ops(&back).expect("clean"), ops);
}

#[test]
fn corrupt_headers_are_typed_errors() {
    let bytes = encode(&[TraceRecord::Access {
        at_ns: 5,
        line: 9,
        write: false,
    }]);

    let mut wrong_magic = bytes.clone();
    wrong_magic[0] ^= 0xFF;
    assert!(matches!(
        TraceReader::new(Cursor::new(wrong_magic)).unwrap_err(),
        TraceError::BadMagic
    ));

    let mut future_version = bytes.clone();
    future_version[8] = 0xFF;
    future_version[9] = 0xFF;
    assert!(matches!(
        TraceReader::new(Cursor::new(future_version)).unwrap_err(),
        TraceError::UnsupportedVersion(0xFFFF)
    ));

    let mut bad_mode = bytes.clone();
    bad_mode[10] = 9;
    assert!(matches!(
        TraceReader::new(Cursor::new(bad_mode)).unwrap_err(),
        TraceError::BadMode(9)
    ));

    let mut bad_lines = bytes;
    bad_lines[11..15].copy_from_slice(&0u32.to_le_bytes());
    assert!(matches!(
        TraceReader::new(Cursor::new(bad_lines)).unwrap_err(),
        TraceError::BadLineBytes(0)
    ));
}

/// Reads every item of `reader`, asserting that the stream ends at its
/// first error: nothing, neither a record nor another error, follows it.
fn items_until_first_error(
    reader: TraceReader<Cursor<Vec<u8>>>,
    what: &str,
) -> Vec<Result<TraceRecord, TraceError>> {
    let items: Vec<_> = reader.collect();
    let clean = items.iter().take_while(|item| item.is_ok()).count();
    assert!(
        items.len() <= clean + 1,
        "{what}: {} items follow the first error",
        items.len() - clean - 1
    );
    items
}

#[test]
fn truncation_at_every_byte_is_an_error_never_a_panic() {
    let ops = generate(3, &spec_for(3));
    let records: Vec<TraceRecord> = ops_to_records(&ops[..20.min(ops.len())])
        .into_iter()
        .collect();
    let bytes = encode(&records);
    for cut in 0..bytes.len() {
        match TraceReader::new(Cursor::new(bytes[..cut].to_vec())) {
            Err(e) => assert!(
                matches!(e, TraceError::BadMagic | TraceError::Truncated { .. }),
                "cut {cut}: header failure must be typed, got {e}"
            ),
            Ok(reader) => {
                let items = items_until_first_error(reader, &format!("cut {cut}"));
                for (i, item) in items.into_iter().enumerate() {
                    match item {
                        Ok(rec) => assert_eq!(rec, records[i], "cut {cut}: record {i}"),
                        Err(e) => assert!(
                            matches!(e, TraceError::Truncated { .. }),
                            "cut {cut}: body failure must be Truncated, got {e}"
                        ),
                    }
                }
            }
        }
    }
}

#[test]
fn a_bad_kind_byte_ends_the_stream() {
    let ops = generate(5, &spec_for(5));
    let records: Vec<TraceRecord> = ops_to_records(&ops[..20.min(ops.len())])
        .into_iter()
        .collect();
    let bytes = encode(&records);
    for k in 0..records.len() {
        // Record k starts where the encoding of the first k records ends.
        let at = encode(&records[..k]).len();
        let mut corrupt = bytes.clone();
        corrupt[at] = 9;
        let reader = TraceReader::new(Cursor::new(corrupt)).expect("header intact");
        let items = items_until_first_error(reader, &format!("record {k}"));
        assert_eq!(items.len(), k + 1, "record {k}");
        assert!(
            matches!(
                items[k],
                Err(TraceError::BadKind { record, kind: 9 }) if record == k as u64
            ),
            "record {k}: {:?}",
            items[k]
        );
    }
}
