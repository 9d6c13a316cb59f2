//! Bridging the oracle's [`Op`] vocabulary and the on-disk trace
//! format.
//!
//! Oracle traces carry *relative* time (`dt_ns`), which is what makes
//! them shrinkable; trace files carry *absolute* time (`at_ns`), which
//! is what makes them streamable and mergeable. The two views are
//! exactly inverse as long as every `dt_ns` is at least 1 — the same
//! clamp [`RequestClock`](sttgpu_core::RequestClock) applies — so a
//! round trip through [`ops_to_records`] and [`records_to_ops`]
//! reproduces the `Op` sequence bit for bit.

use std::path::Path;

use sttgpu_tracefile::{save, TraceError, TraceHeader, TraceRecord};

use crate::trace_gen::Op;

/// Converts an oracle trace to requests-mode records. Timestamps are
/// the running sum of `dt_ns.max(1)`, so the
/// [`RequestClock`](sttgpu_core::RequestClock) every replay runs on
/// reads `at_ns + RequestClock::EPOCH_NS` after each op: it starts one
/// tick past the machines' epoch.
pub fn ops_to_records(ops: &[Op]) -> Vec<TraceRecord> {
    let mut at_ns = 0u64;
    ops.iter()
        .map(|op| {
            at_ns += op.dt_ns.max(1);
            TraceRecord::Access {
                at_ns,
                line: op.line,
                write: op.write,
            }
        })
        .collect()
}

/// Adapts a requests-mode record stream (an
/// [`open`](sttgpu_tracefile::open)ed file, or a slice mapped through
/// `Ok`) to oracle ops, one record at a time, by differencing the
/// absolute clock. The first record that is not an access, or whose
/// timestamp fails to strictly increase, yields
/// [`TraceError::Discipline`] with its index, and errors from the record
/// stream itself pass through; the adapter ends after either.
pub fn request_ops<I>(records: I) -> impl Iterator<Item = Result<Op, TraceError>>
where
    I: IntoIterator<Item = Result<TraceRecord, TraceError>>,
{
    RequestOps {
        records: records.into_iter(),
        prev_ns: 0,
        index: 0,
        failed: false,
    }
}

/// The state of [`request_ops`]' adapter.
struct RequestOps<I> {
    records: I,
    prev_ns: u64,
    index: u64,
    failed: bool,
}

impl<I: Iterator<Item = Result<TraceRecord, TraceError>>> Iterator for RequestOps<I> {
    type Item = Result<Op, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let record = self.index;
        let op = match self.records.next()? {
            Ok(TraceRecord::Access { at_ns, line, write }) if at_ns > self.prev_ns => {
                let dt_ns = at_ns - self.prev_ns;
                self.prev_ns = at_ns;
                Ok(Op { dt_ns, line, write })
            }
            Ok(TraceRecord::Access { .. }) => Err(TraceError::Discipline {
                record,
                what: "timestamps must strictly increase",
            }),
            Ok(_) => Err(TraceError::Discipline {
                record,
                what: "only accesses are allowed",
            }),
            Err(e) => Err(e),
        };
        self.failed = op.is_err();
        self.index += 1;
        Some(op)
    }
}

/// Converts requests-mode records back to oracle ops (see
/// [`request_ops`]).
pub fn records_to_ops(records: &[TraceRecord]) -> Result<Vec<Op>, TraceError> {
    request_ops(records.iter().map(|&rec| Ok(rec))).collect()
}

/// Saves an oracle trace as a requests-mode trace file.
pub fn save_ops(path: &Path, line_bytes: u32, ops: &[Op]) -> Result<(), TraceError> {
    save(
        path,
        TraceHeader::requests(line_bytes),
        &ops_to_records(ops),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{corner_geometries, generate};
    use sttgpu_core::RequestClock;

    fn ops() -> Vec<Op> {
        vec![
            Op {
                dt_ns: 5,
                line: 3,
                write: true,
            },
            Op {
                dt_ns: 1,
                line: 900,
                write: false,
            },
            Op {
                dt_ns: 4_000,
                line: 3,
                write: false,
            },
        ]
    }

    #[test]
    fn ops_round_trip_through_records() {
        let records = ops_to_records(&ops());
        assert_eq!(records_to_ops(&records).expect("clean records"), ops());
    }

    #[test]
    fn timestamps_are_the_running_dt_sum() {
        let records = ops_to_records(&ops());
        let at: Vec<u64> = records.iter().map(|r| r.at_ns()).collect();
        assert_eq!(at, vec![5, 6, 4_006]);
    }

    #[test]
    fn record_time_is_the_request_clock_less_its_epoch() {
        let mut ops = generate(11, &corner_geometries()[0].spec);
        for op in ops.iter_mut().step_by(3) {
            op.dt_ns = 0;
        }
        let records = ops_to_records(&ops);
        let mut clock = RequestClock::new(1_000);
        for (op, rec) in ops.iter().zip(&records) {
            let now = clock.advance(op.dt_ns, |_| {});
            assert_eq!(now, rec.at_ns() + RequestClock::EPOCH_NS, "{op:?}");
        }
    }

    #[test]
    fn raw_records_are_rejected() {
        let err = records_to_ops(&[TraceRecord::Maintain { at_ns: 9 }]).unwrap_err();
        assert!(
            matches!(err, TraceError::Discipline { record: 0, .. }),
            "{err}"
        );
    }
}
