//! Round-trip property tests: arbitrary generated traces survive the
//! binary and text encodings exactly, and corrupted files come back as
//! typed errors, never panics.

use std::io::Cursor;

use sttgpu_oracle::{generate, ops_to_records, records_to_ops, Op, TraceSpec};
use sttgpu_stats::Rng;
use sttgpu_tracefile::{
    read_text, TextTraceWriter, TraceError, TraceHeader, TraceReader, TraceRecord, TraceStream,
    TraceWriter,
};

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

fn binary_round_trip(records: &[TraceRecord]) -> (TraceHeader, Vec<TraceRecord>) {
    let mut w = TraceWriter::new(Vec::new(), TraceHeader::requests(256)).expect("header");
    for rec in records {
        w.write(rec).expect("well-formed record");
    }
    let bytes = w.finish().expect("flush");
    let r = TraceReader::new(Cursor::new(bytes)).expect("header");
    let header = r.header();
    let back: Vec<TraceRecord> = r.map(|rec| rec.expect("clean stream")).collect();
    (header, back)
}

fn text_round_trip(records: &[TraceRecord]) -> (TraceHeader, Vec<TraceRecord>) {
    let mut w = TextTraceWriter::new(Vec::new(), TraceHeader::requests(256)).expect("header");
    for rec in records {
        w.write(rec).expect("well-formed record");
    }
    let bytes = w.finish().expect("flush");
    read_text(Cursor::new(bytes)).expect("clean text")
}

#[test]
fn generated_traces_round_trip_through_both_encodings() {
    for seed in 0..50 {
        let ops = generate(seed, &spec_for(seed));
        let records = ops_to_records(&ops);

        let (bin_header, bin_back) = binary_round_trip(&records);
        assert_eq!(bin_header.line_bytes, 256);
        assert_eq!(
            bin_back, records,
            "seed {seed}: binary encoding must be lossless"
        );

        let (_, text_back) = text_round_trip(&records);
        assert_eq!(
            text_back, records,
            "seed {seed}: text encoding must be lossless"
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
    let records = ops_to_records(&ops);
    let (_, back) = binary_round_trip(&records);
    assert_eq!(records_to_ops(&back).expect("clean"), ops);
    let (_, text_back) = text_round_trip(&records);
    assert_eq!(text_back, records);
}

#[test]
fn corrupt_headers_are_typed_errors() {
    let bytes = {
        let mut w = TraceWriter::new(Vec::new(), TraceHeader::requests(256)).expect("header");
        w.write(&TraceRecord::Access {
            at_ns: 5,
            line: 9,
            write: false,
        })
        .expect("record");
        w.finish().expect("flush")
    };

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

#[test]
fn truncation_at_every_byte_is_an_error_never_a_panic() {
    let ops = generate(3, &spec_for(3));
    let records = ops_to_records(&ops[..20.min(ops.len())]);
    let bytes = {
        let mut w = TraceWriter::new(Vec::new(), TraceHeader::requests(256)).expect("header");
        for rec in &records {
            w.write(rec).expect("record");
        }
        w.finish().expect("flush")
    };
    for cut in 0..bytes.len() {
        match TraceReader::new(Cursor::new(bytes[..cut].to_vec())) {
            Err(e) => assert!(
                matches!(e, TraceError::BadMagic | TraceError::Truncated { .. }),
                "cut {cut}: header failure must be typed, got {e}"
            ),
            Ok(reader) => {
                for rec in reader {
                    match rec {
                        Ok(_) => {}
                        Err(e) => {
                            assert!(
                                matches!(e, TraceError::Truncated { .. }),
                                "cut {cut}: body failure must be Truncated, got {e}"
                            );
                            break;
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn mangled_text_traces_are_typed_errors() {
    for bad in [
        "",
        "not-a-trace v1 requests line_bytes=256\n",
        "sttgpu-trace v9 requests line_bytes=256\n",
        "sttgpu-trace v1 requests line_bytes=256\nz 1 2\n",
        "sttgpu-trace v1 requests line_bytes=256\nr one 2\n",
        "sttgpu-trace v1 requests line_bytes=256\nr 5 1\nr 5 2\n",
        "sttgpu-trace v1 requests line_bytes=256\nm 5\n",
    ] {
        match read_text(Cursor::new(bad.as_bytes().to_vec())) {
            Err(TraceError::Text { .. })
            | Err(TraceError::Discipline { .. })
            | Err(TraceError::UnsupportedVersion(_)) => {}
            other => panic!("{bad:?}: expected a typed error, got {other:?}"),
        }
    }
}

#[test]
fn text_truncation_at_every_byte_streams_like_read_text() {
    let ops = generate(3, &spec_for(3));
    let records = ops_to_records(&ops[..20.min(ops.len())]);
    let mut w = TextTraceWriter::new(Vec::new(), TraceHeader::requests(256)).expect("header");
    for rec in &records {
        w.write(rec).expect("record");
    }
    let mut text = b"# a comment\n\n".to_vec();
    text.append(&mut w.finish().expect("flush"));
    // FNV-1a over `read_text`'s result on every prefix, pinned from the
    // reader that held the whole file before reading streamed.
    let mut pin = 0xcbf2_9ce4_8422_2325u64;
    for cut in 0..=text.len() {
        let prefix = &text[..cut];
        let eager = format!("{:?}", read_text(Cursor::new(prefix)));
        pin = eager.bytes().fold(pin, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        let streamed = match TraceStream::new(Cursor::new(prefix)) {
            Err(e) => Err(e),
            Ok(stream) => {
                let header = stream.header();
                let items: Vec<Result<TraceRecord, TraceError>> = stream.collect();
                let failed = items.iter().filter(|r| r.is_err()).count();
                assert!(
                    failed == 0 || (failed == 1 && items.last().is_some_and(Result::is_err)),
                    "cut {cut}: the stream must end at its first error"
                );
                items
                    .into_iter()
                    .collect::<Result<Vec<_>, _>>()
                    .map(|recs| (header, recs))
            }
        };
        assert_eq!(format!("{streamed:?}"), eager, "cut {cut}");
        if let Err(e) = streamed {
            assert!(
                matches!(
                    e,
                    TraceError::Text { .. }
                        | TraceError::UnsupportedVersion(_)
                        | TraceError::BadLineBytes(_)
                ),
                "cut {cut}: {e}"
            );
        }
    }
    assert_eq!(
        pin, 0xff19_b1c7_988d_6f92,
        "read_text moved on a truncated prefix"
    );
}
