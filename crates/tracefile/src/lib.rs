//! Compact, versioned binary memory-trace file format.
//!
//! A trace file carries the stream of operations an LLC observes, in one
//! of two disciplines:
//!
//! * **requests** — line-granular demand accesses only (read or write,
//!   each with an absolute nanosecond timestamp). A replayer supplies
//!   the fill-on-miss and maintenance discipline itself, exactly as the
//!   differential oracle's `run_case` does, so a requests-mode file is
//!   interchangeable with a generated `Op` sequence.
//! * **raw** — the verbatim call stream (`probe`/`fill`/`maintain` with
//!   their original timestamps), as captured from a live simulation.
//!   Replaying a raw file re-issues exactly the recorded calls, which is
//!   what makes record→replay statistics byte-identical.
//!
//! # Binary layout (version 1)
//!
//! ```text
//! magic    8 B   "STTGTRC\0"
//! version  2 B   little-endian u16, currently 1
//! mode     1 B   0 = requests, 1 = raw
//! line     4 B   little-endian u32 line size in bytes (power of two)
//! records  ...   until EOF
//! ```
//!
//! Each record is a kind byte (`0` read, `1` write, `2` clean fill, `3`
//! dirty fill, `4` maintain) followed by the **zigzag-varint delta** of
//! its timestamp from the previous record's, and — for every kind except
//! maintain — the zigzag-varint delta of its line address from the
//! previous line-carrying record's. Delta encoding keeps dense streams
//! to a few bytes per record; signed deltas are required because a raw
//! stream is *not* monotone in time (a probe time-stamps at interconnect
//! arrival, which can lead the maintenance deadline that runs next).
//!
//! [`save`] streams any record source to a file, and [`open`] streams
//! one back record by record.
//!
//! # Invariants
//!
//! * Requests-mode streams contain only accesses, with strictly
//!   increasing timestamps — the replay discipline derives inter-arrival
//!   gaps from them, so ties would silently stretch time.
//! * Raw-mode streams may interleave all five kinds in any time order.
//! * Readers never panic on malformed input: every failure surfaces as a
//!   typed [`TraceError`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::borrow::Borrow;
use std::fmt;
use std::fs;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// File magic: identifies a binary sttgpu trace.
pub(crate) const MAGIC: [u8; 8] = *b"STTGTRC\0";

/// Newest format version this crate writes and understands.
pub(crate) const VERSION: u16 = 1;

/// The replay discipline a trace file encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Demand accesses only; the replayer owns fill-on-miss and
    /// maintenance cadence.
    Requests,
    /// The verbatim probe/fill/maintain call stream of a live run.
    Raw,
}

impl TraceMode {
    fn to_byte(self) -> u8 {
        match self {
            TraceMode::Requests => 0,
            TraceMode::Raw => 1,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(TraceMode::Requests),
            1 => Some(TraceMode::Raw),
            _ => None,
        }
    }
}

/// Everything a file states about itself before the records begin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHeader {
    /// Replay discipline of the stream.
    pub mode: TraceMode,
    /// Cache line size the line addresses are granular to, bytes.
    pub line_bytes: u32,
}

impl TraceHeader {
    /// A requests-mode header for the given line size.
    pub fn requests(line_bytes: u32) -> Self {
        TraceHeader {
            mode: TraceMode::Requests,
            line_bytes,
        }
    }

    /// A raw-mode header for the given line size.
    pub fn raw(line_bytes: u32) -> Self {
        TraceHeader {
            mode: TraceMode::Raw,
            line_bytes,
        }
    }

    fn validate(&self) -> Result<(), TraceError> {
        if self.line_bytes == 0 || !self.line_bytes.is_power_of_two() {
            return Err(TraceError::BadLineBytes(self.line_bytes));
        }
        Ok(())
    }
}

/// One trace record, timestamps absolute (the encoding delta-compresses
/// them; the API never exposes deltas).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceRecord {
    /// A demand access to `line` (read or write) at `at_ns`.
    Access {
        /// Absolute time, ns.
        at_ns: u64,
        /// Line address (byte address / line size).
        line: u64,
        /// Write (`true`) or read (`false`).
        write: bool,
    },
    /// A fill installing `line` (dirty for write-allocate) at `at_ns`.
    /// Raw mode only.
    Fill {
        /// Absolute time, ns.
        at_ns: u64,
        /// Line address.
        line: u64,
        /// Whether the filled line is born dirty.
        dirty: bool,
    },
    /// A maintenance sweep (refresh/expiry engines) at `at_ns`.
    /// Raw mode only.
    Maintain {
        /// Absolute time, ns.
        at_ns: u64,
    },
}

impl TraceRecord {
    /// The record's absolute timestamp, ns.
    pub fn at_ns(&self) -> u64 {
        match *self {
            TraceRecord::Access { at_ns, .. }
            | TraceRecord::Fill { at_ns, .. }
            | TraceRecord::Maintain { at_ns } => at_ns,
        }
    }

    fn kind_byte(&self) -> u8 {
        match *self {
            TraceRecord::Access { write: false, .. } => 0,
            TraceRecord::Access { write: true, .. } => 1,
            TraceRecord::Fill { dirty: false, .. } => 2,
            TraceRecord::Fill { dirty: true, .. } => 3,
            TraceRecord::Maintain { .. } => 4,
        }
    }

    fn line(&self) -> Option<u64> {
        match *self {
            TraceRecord::Access { line, .. } | TraceRecord::Fill { line, .. } => Some(line),
            TraceRecord::Maintain { .. } => None,
        }
    }
}

/// Every way reading or writing a trace can fail. Readers return these;
/// they never panic on malformed input.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the trace magic `STTGTRC\0`.
    BadMagic,
    /// The file's version is newer than this crate understands.
    UnsupportedVersion(u16),
    /// The mode byte is not a known [`TraceMode`].
    BadMode(u8),
    /// The header's line size is zero or not a power of two.
    BadLineBytes(u32),
    /// The stream ended in the middle of record `record` (0-based).
    Truncated {
        /// Index of the half-read record.
        record: u64,
    },
    /// Record `record` has an unknown kind byte.
    BadKind {
        /// Index of the offending record.
        record: u64,
        /// The unknown kind byte.
        kind: u8,
    },
    /// A varint in record `record` ran past 10 bytes.
    VarintOverflow {
        /// Index of the offending record.
        record: u64,
    },
    /// A delta in record `record` does not fit the signed 64-bit range.
    DeltaOverflow {
        /// Index of the offending record.
        record: u64,
    },
    /// Record `record` is a fill or maintain inside a requests-mode
    /// stream, or a requests-mode timestamp failed to strictly increase.
    Discipline {
        /// Index of the offending record.
        record: u64,
        /// What the requests-mode invariant expected.
        what: &'static str,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadMagic => write!(f, "not an sttgpu trace (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace version {v} (this build reads <= {VERSION})"
                )
            }
            TraceError::BadMode(b) => write!(f, "unknown trace mode byte {b:#04x}"),
            TraceError::BadLineBytes(n) => {
                write!(f, "line size must be a nonzero power of two, got {n}")
            }
            TraceError::Truncated { record } => {
                write!(f, "trace truncated inside record #{record}")
            }
            TraceError::BadKind { record, kind } => {
                write!(f, "record #{record} has unknown kind byte {kind:#04x}")
            }
            TraceError::VarintOverflow { record } => {
                write!(f, "record #{record} carries an over-long varint")
            }
            TraceError::DeltaOverflow { record } => {
                write!(f, "record #{record} delta exceeds the signed 64-bit range")
            }
            TraceError::Discipline { record, what } => {
                write!(
                    f,
                    "record #{record} violates the requests-mode discipline: {what}"
                )
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn write_varint<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

/// Reads one LEB128 varint. `record` only labels errors.
fn read_varint<R: Read>(r: &mut R, record: u64) -> Result<u64, TraceError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    for _ in 0..10 {
        let mut byte = [0u8; 1];
        match r.read_exact(&mut byte) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                return Err(TraceError::Truncated { record })
            }
            Err(e) => return Err(TraceError::Io(e)),
        }
        let low = u64::from(byte[0] & 0x7F);
        if shift == 63 && low > 1 {
            return Err(TraceError::VarintOverflow { record });
        }
        v |= low << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
    Err(TraceError::VarintOverflow { record })
}

/// Signed delta between two absolute values, or a typed overflow.
fn delta(prev: u64, next: u64, record: u64) -> Result<i64, TraceError> {
    let d = i128::from(next) - i128::from(prev);
    i64::try_from(d).map_err(|_| TraceError::DeltaOverflow { record })
}

/// Enforces the requests-mode invariants on one record.
fn check_discipline(
    mode: TraceMode,
    prev_ns: Option<u64>,
    rec: &TraceRecord,
    record: u64,
) -> Result<(), TraceError> {
    if mode == TraceMode::Raw {
        return Ok(());
    }
    match rec {
        TraceRecord::Access { at_ns, .. } => {
            if *at_ns == 0 {
                return Err(TraceError::Discipline {
                    record,
                    what: "timestamps start at 1 ns",
                });
            }
            if let Some(p) = prev_ns {
                if *at_ns <= p {
                    return Err(TraceError::Discipline {
                        record,
                        what: "timestamps must strictly increase",
                    });
                }
            }
            Ok(())
        }
        _ => Err(TraceError::Discipline {
            record,
            what: "only accesses are allowed",
        }),
    }
}

/// Streaming binary writer. Call [`finish`](Self::finish) to flush.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    w: W,
    header: TraceHeader,
    prev_ns: u64,
    prev_line: u64,
    written: u64,
    last_ns: Option<u64>,
}

impl<W: Write> TraceWriter<W> {
    /// Writes the header and returns a writer for the record stream.
    pub fn new(mut w: W, header: TraceHeader) -> Result<Self, TraceError> {
        header.validate()?;
        w.write_all(&MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&[header.mode.to_byte()])?;
        w.write_all(&header.line_bytes.to_le_bytes())?;
        Ok(TraceWriter {
            w,
            header,
            prev_ns: 0,
            prev_line: 0,
            written: 0,
            last_ns: None,
        })
    }

    /// Appends one record. Requests-mode writers reject fills,
    /// maintenance records and non-increasing timestamps up front, so a
    /// file this writer produced always replays.
    pub fn write(&mut self, rec: &TraceRecord) -> Result<(), TraceError> {
        check_discipline(self.header.mode, self.last_ns, rec, self.written)?;
        let dt = delta(self.prev_ns, rec.at_ns(), self.written)?;
        self.w.write_all(&[rec.kind_byte()])?;
        write_varint(&mut self.w, zigzag_encode(dt))?;
        if let Some(line) = rec.line() {
            let dl = delta(self.prev_line, line, self.written)?;
            write_varint(&mut self.w, zigzag_encode(dl))?;
            self.prev_line = line;
        }
        self.prev_ns = rec.at_ns();
        self.last_ns = Some(rec.at_ns());
        self.written += 1;
        Ok(())
    }

    /// Records written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the underlying writer.
    pub fn finish(mut self) -> Result<W, TraceError> {
        self.w.flush()?;
        Ok(self.w)
    }
}

/// Streaming binary reader: an iterator over records that yields
/// nothing after its first error.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    r: R,
    header: TraceHeader,
    prev_ns: u64,
    prev_line: u64,
    read: u64,
    last_ns: Option<u64>,
    failed: bool,
}

impl<R: Read> TraceReader<R> {
    /// Parses the header and returns a reader for the record stream.
    pub fn new(mut r: R) -> Result<Self, TraceError> {
        let mut magic = [0u8; 8];
        match r.read_exact(&mut magic) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Err(TraceError::BadMagic),
            Err(e) => return Err(TraceError::Io(e)),
        }
        if magic != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let mut buf = [0u8; 7];
        match r.read_exact(&mut buf) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                return Err(TraceError::Truncated { record: 0 })
            }
            Err(e) => return Err(TraceError::Io(e)),
        }
        let version = u16::from_le_bytes([buf[0], buf[1]]);
        if version == 0 || version > VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let mode = TraceMode::from_byte(buf[2]).ok_or(TraceError::BadMode(buf[2]))?;
        let line_bytes = u32::from_le_bytes([buf[3], buf[4], buf[5], buf[6]]);
        let header = TraceHeader { mode, line_bytes };
        header.validate()?;
        Ok(TraceReader {
            r,
            header,
            prev_ns: 0,
            prev_line: 0,
            read: 0,
            last_ns: None,
            failed: false,
        })
    }

    /// The parsed header.
    pub fn header(&self) -> TraceHeader {
        self.header
    }

    fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceError> {
        let mut kind = [0u8; 1];
        match self.r.read_exact(&mut kind) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(TraceError::Io(e)),
        }
        let record = self.read;
        let dt = zigzag_decode(read_varint(&mut self.r, record)?);
        let at = i128::from(self.prev_ns) + i128::from(dt);
        let at_ns = u64::try_from(at).map_err(|_| TraceError::DeltaOverflow { record })?;
        let rec = match kind[0] {
            0..=3 => {
                let dl = zigzag_decode(read_varint(&mut self.r, record)?);
                let line = i128::from(self.prev_line) + i128::from(dl);
                let line = u64::try_from(line).map_err(|_| TraceError::DeltaOverflow { record })?;
                self.prev_line = line;
                match kind[0] {
                    0 => TraceRecord::Access {
                        at_ns,
                        line,
                        write: false,
                    },
                    1 => TraceRecord::Access {
                        at_ns,
                        line,
                        write: true,
                    },
                    2 => TraceRecord::Fill {
                        at_ns,
                        line,
                        dirty: false,
                    },
                    _ => TraceRecord::Fill {
                        at_ns,
                        line,
                        dirty: true,
                    },
                }
            }
            4 => TraceRecord::Maintain { at_ns },
            k => return Err(TraceError::BadKind { record, kind: k }),
        };
        check_discipline(self.header.mode, self.last_ns, &rec, record)?;
        self.prev_ns = at_ns;
        self.last_ns = Some(at_ns);
        self.read += 1;
        Ok(Some(rec))
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<TraceRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        match self.next_record() {
            Ok(Some(rec)) => Some(Ok(rec)),
            Ok(None) => None,
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

/// Writes a whole trace to `path`, one record at a time: `records` may
/// be a slice, a `&Vec` or any iterator of records.
pub fn save(
    path: &Path,
    header: TraceHeader,
    records: impl IntoIterator<Item = impl Borrow<TraceRecord>>,
) -> Result<(), TraceError> {
    let mut w = TraceWriter::new(BufWriter::new(fs::File::create(path)?), header)?;
    for rec in records {
        w.write(rec.borrow())?;
    }
    w.finish()?;
    Ok(())
}

/// Opens the trace at `path` for streaming. Memory stays constant
/// however long the trace is.
pub fn open(path: &Path) -> Result<TraceReader<BufReader<fs::File>>, TraceError> {
    TraceReader::new(BufReader::new(fs::File::open(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<TraceRecord> {
        vec![
            TraceRecord::Access {
                at_ns: 5,
                line: 100,
                write: false,
            },
            TraceRecord::Access {
                at_ns: 9,
                line: 3,
                write: true,
            },
            TraceRecord::Access {
                at_ns: 400,
                line: 100,
                write: false,
            },
        ]
    }

    fn sample_raw() -> Vec<TraceRecord> {
        vec![
            TraceRecord::Access {
                at_ns: 120,
                line: 7,
                write: true,
            },
            // Raw streams go backwards in time: a maintenance deadline can
            // trail the icnt-lead probe timestamp.
            TraceRecord::Maintain { at_ns: 100 },
            TraceRecord::Fill {
                at_ns: 310,
                line: 7,
                dirty: true,
            },
            TraceRecord::Fill {
                at_ns: 320,
                line: 2,
                dirty: false,
            },
        ]
    }

    fn binary_round_trip(header: TraceHeader, records: &[TraceRecord]) {
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf, header).expect("writer");
        for r in records {
            w.write(r).expect("write");
        }
        w.finish().expect("finish");
        let mut reader = TraceReader::new(&buf[..]).expect("reader");
        assert_eq!(reader.header(), header);
        let back: Vec<_> = reader.by_ref().collect::<Result<_, _>>().expect("read");
        assert_eq!(back, records);
    }

    #[test]
    fn binary_round_trips_both_modes() {
        binary_round_trip(TraceHeader::requests(256), &sample_requests());
        binary_round_trip(TraceHeader::raw(128), &sample_raw());
    }

    #[test]
    fn bad_magic_is_typed() {
        let err = TraceReader::new(&b"NOTATRACEFILE"[..]).expect_err("must fail");
        assert!(matches!(err, TraceError::BadMagic), "{err}");
        let err = TraceReader::new(&b"ST"[..]).expect_err("short file");
        assert!(matches!(err, TraceError::BadMagic), "{err}");
    }

    #[test]
    fn unsupported_version_is_typed() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&99u16.to_le_bytes());
        buf.push(0);
        buf.extend_from_slice(&256u32.to_le_bytes());
        let err = TraceReader::new(&buf[..]).expect_err("must fail");
        assert!(matches!(err, TraceError::UnsupportedVersion(99)), "{err}");
    }

    #[test]
    fn bad_mode_and_line_bytes_are_typed() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.push(9);
        buf.extend_from_slice(&256u32.to_le_bytes());
        assert!(matches!(
            TraceReader::new(&buf[..]).expect_err("mode"),
            TraceError::BadMode(9)
        ));
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.push(0);
        buf.extend_from_slice(&48u32.to_le_bytes());
        assert!(matches!(
            TraceReader::new(&buf[..]).expect_err("line bytes"),
            TraceError::BadLineBytes(48)
        ));
    }

    #[test]
    fn truncated_header_and_records_are_typed() {
        let mut full = Vec::new();
        let mut w = TraceWriter::new(&mut full, TraceHeader::requests(256)).expect("writer");
        for r in &sample_requests() {
            w.write(r).expect("write");
        }
        w.finish().expect("finish");
        // Chop the stream at every prefix length: every cut must yield a
        // typed error or a clean shorter stream, never a panic.
        for cut in 0..full.len() {
            let slice = &full[..cut];
            match TraceReader::new(slice) {
                Ok(reader) => {
                    for rec in reader {
                        if let Err(e) = rec {
                            assert!(
                                matches!(e, TraceError::Truncated { .. }),
                                "cut {cut}: unexpected {e}"
                            );
                            break;
                        }
                    }
                }
                Err(e) => assert!(
                    matches!(e, TraceError::BadMagic | TraceError::Truncated { .. }),
                    "cut {cut}: unexpected {e}"
                ),
            }
        }
    }

    #[test]
    fn requests_mode_rejects_fills_and_time_ties() {
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf, TraceHeader::requests(256)).expect("writer");
        let err = w
            .write(&TraceRecord::Fill {
                at_ns: 5,
                line: 1,
                dirty: false,
            })
            .expect_err("fill in requests mode");
        assert!(matches!(err, TraceError::Discipline { .. }), "{err}");
        w.write(&TraceRecord::Access {
            at_ns: 5,
            line: 1,
            write: false,
        })
        .expect("first access");
        let err = w
            .write(&TraceRecord::Access {
                at_ns: 5,
                line: 2,
                write: false,
            })
            .expect_err("tied timestamp");
        assert!(matches!(err, TraceError::Discipline { .. }), "{err}");
    }

    #[test]
    fn save_and_load_sniff_binary_and_text() {
        let dir = std::env::temp_dir();
        let records = sample_requests();
        let header = TraceHeader::requests(256);
        // The extension does not matter: a `.txt` path gets the binary
        // encoding too.
        for name in ["sttgpu_tracefile_test.sttr", "sttgpu_tracefile_test.txt"] {
            let path = dir.join(name);
            save(&path, header, &records).expect("save");
            assert!(fs::read(&path).expect("read back").starts_with(&MAGIC));
            let back = open(&path).expect("open");
            assert_eq!(back.header(), header);
            let back: Vec<TraceRecord> = back.collect::<Result<_, _>>().expect("records");
            assert_eq!(back, records);
            let _ = fs::remove_file(path);
        }
    }

    #[test]
    fn delta_compression_is_compact_for_dense_streams() {
        let records: Vec<TraceRecord> = (0..1000)
            .map(|i| TraceRecord::Access {
                at_ns: 1 + i * 3,
                line: 100 + (i % 7),
                write: i % 3 == 0,
            })
            .collect();
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf, TraceHeader::requests(256)).expect("writer");
        for r in &records {
            w.write(r).expect("write");
        }
        w.finish().expect("finish");
        assert!(
            buf.len() <= 15 + records.len() * 4,
            "dense stream must average a few bytes per record, got {} for {}",
            buf.len(),
            records.len()
        );
    }

    #[test]
    fn seeded_streams_round_trip_binary_and_text() {
        use sttgpu_stats::Rng;
        for seed in 0..25u64 {
            let mut rng = Rng::new(seed);
            let n = rng.range_usize(0, 200);
            let raw = seed % 2 == 0;
            let mut at = 0u64;
            let records: Vec<TraceRecord> = (0..n)
                .map(|_| {
                    at += rng.range_u64(1, 1_000);
                    let line = rng.range_u64(0, 1 << 40);
                    if raw {
                        match rng.range_u64(0, 3) {
                            0 => TraceRecord::Access {
                                // Raw timestamps may jitter backwards.
                                at_ns: at.saturating_sub(rng.range_u64(0, 50)),
                                line,
                                write: rng.chance(0.5),
                            },
                            1 => TraceRecord::Fill {
                                at_ns: at,
                                line,
                                dirty: rng.chance(0.5),
                            },
                            _ => TraceRecord::Maintain { at_ns: at },
                        }
                    } else {
                        TraceRecord::Access {
                            at_ns: at,
                            line,
                            write: rng.chance(0.5),
                        }
                    }
                })
                .collect();
            let header = if raw {
                TraceHeader::raw(256)
            } else {
                TraceHeader::requests(256)
            };
            binary_round_trip(header, &records);
        }
    }
}
