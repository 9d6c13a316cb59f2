//! Synthetic warp instruction streams.
//!
//! Every warp executes a procedurally generated stream of ALU and global
//! memory instructions whose statistics come from [`KernelParams`]: the
//! memory fraction, write fraction, footprint, write-working-set skew,
//! read locality, coalescing degree and write phase. Streams are
//! deterministic in (workload seed, kernel index, block id, warp id), so
//! every simulator configuration sees the *same* access trace — the
//! experiments compare architectures, not random draws.

use std::sync::Arc;
use sttgpu_stats::{Chance, Rng};

use crate::kernel::{KernelParams, WritePhase};

/// Base byte address of the local (per-thread) memory region — far above
/// any global footprint so the two spaces never alias.
pub(crate) const LOCAL_BASE: u64 = 1 << 40;

/// Inline capacity of [`AddrVec`]. Covers every coalescing factor the
/// workload suite uses; wider bursts (clamped at 32 lines) spill.
const ADDR_INLINE: usize = 8;

/// The line addresses one memory instruction touches.
///
/// Memory instructions are generated, consumed and dropped tens of
/// millions of times per simulated second, and almost all of them touch a
/// handful of coalesced lines — an inline buffer keeps that path off the
/// allocator entirely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct AddrVec(AddrRepr);

#[derive(Debug, Clone, PartialEq, Eq)]
enum AddrRepr {
    Inline { len: u8, buf: [u64; ADDR_INLINE] },
    Spill(Vec<u64>),
}

impl AddrVec {
    /// An empty list sized for `n` pushes.
    pub(crate) fn with_capacity(n: usize) -> Self {
        if n <= ADDR_INLINE {
            AddrVec(AddrRepr::Inline {
                len: 0,
                buf: [0; ADDR_INLINE],
            })
        } else {
            AddrVec(AddrRepr::Spill(Vec::with_capacity(n)))
        }
    }

    /// A single-address list.
    pub(crate) fn one(addr: u64) -> Self {
        let mut v = AddrVec::with_capacity(1);
        v.push(addr);
        v
    }

    /// Appends an address, spilling to the heap if the inline buffer is
    /// full.
    pub(crate) fn push(&mut self, addr: u64) {
        match &mut self.0 {
            AddrRepr::Inline { len, buf } => {
                if (*len as usize) < ADDR_INLINE {
                    buf[*len as usize] = addr;
                    *len += 1;
                } else {
                    let mut v = buf.to_vec();
                    v.push(addr);
                    self.0 = AddrRepr::Spill(v);
                }
            }
            AddrRepr::Spill(v) => v.push(addr),
        }
    }

    /// The addresses as a slice.
    pub(crate) fn as_slice(&self) -> &[u64] {
        match &self.0 {
            AddrRepr::Inline { len, buf } => &buf[..*len as usize],
            AddrRepr::Spill(v) => v,
        }
    }
}

impl std::ops::Deref for AddrVec {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a AddrVec {
    type Item = &'a u64;
    type IntoIter = std::slice::Iter<'a, u64>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl FromIterator<u64> for AddrVec {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let it = iter.into_iter();
        let mut v = AddrVec::with_capacity(it.size_hint().0);
        for a in it {
            v.push(a);
        }
        v
    }
}

/// One decoded warp memory instruction (an ALU instruction is issued
/// straight from its [`Draw`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WarpInstr {
    /// A global load touching the given L1-line byte addresses.
    MemRead(AddrVec),
    /// A global store touching the given L1-line byte addresses.
    MemWrite(AddrVec),
    /// A **local** (per-thread) load — write-back cached in L1.
    LocalRead(AddrVec),
    /// A **local** (per-thread) store — write-back/write-allocate in L1;
    /// dirty evictions flow to L2 later.
    LocalWrite(AddrVec),
}

/// The class of a warp's next instruction (see [`WarpProgram::draw`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Draw {
    /// The stream is exhausted.
    Done,
    /// An arithmetic instruction, already counted.
    Alu,
    /// A memory instruction, still to be generated.
    Mem,
}

/// Deterministic per-warp instruction generator.
///
/// The fields an ALU instruction reads come first (`repr(C)`), so that
/// together with [`Warp`](crate::warp::Warp)'s own hot fields they share
/// one cache line.
#[derive(Debug, Clone)]
#[repr(C)]
pub(crate) struct WarpProgram {
    issued: u32,
    /// `params.instructions_per_warp`, kept beside `issued`.
    limit: u32,
    /// `params.mem_fraction` prepared for the per-instruction draw.
    mem: Chance,
    rng: Rng,
    params: Arc<KernelParams>,
    /// The rest of the kernel's memory shape, prepared so that generating
    /// an address takes no division and no float conversion.
    shape: MemShape,
    /// Offset of the next streaming read within the warp's segment.
    stream_off: u64,
    local_cursor: u64,
    local_warp_id: u64,
    /// Line-aligned start of the warp's streaming segment.
    segment_base: u64,
    segment_len: u64,
    line_bytes: u64,
}

/// Kernel constants of the memory-instruction generator, prepared once
/// per warp. Every draw through them equals the float draw it replaces
/// and consumes the same stream (see [`Chance`]).
#[derive(Debug, Clone, Copy)]
struct MemShape {
    /// `local_fraction`: a memory op is a register spill. Drawn only for
    /// a positive fraction (a NaN fraction must not draw either).
    local: Chance,
    /// `floor(coalescing)` lines, plus one with probability `coalescing`'s
    /// fractional part.
    lines_floor: usize,
    lines_up: Chance,
    /// `read_locality`: a read streams rather than scatters.
    locality: Chance,
    /// `write_skew`: a written line falls in the write working set.
    skew: Chance,
    /// The write probability (for `EndOfKernel`, its late-phase value).
    write: Chance,
    /// Whether writes are confined to the last 20 % of the stream.
    late_writes: bool,
    /// Lines in the footprint and in the write working set (each ≥ 1).
    footprint_lines: u64,
    wws_lines: u64,
}

impl WarpProgram {
    /// Creates the instruction stream of one warp.
    ///
    /// `kernel_index` and the warp's (block, warp-in-block) coordinates
    /// seed the stream; `line_bytes` is the L1 line size used for address
    /// alignment.
    pub(crate) fn new(
        params: Arc<KernelParams>,
        block_id: u32,
        warp_in_block: u32,
        seed: u64,
        line_bytes: u32,
    ) -> Self {
        let global_warp = block_id as u64 * params.warps_per_block() as u64 + warp_in_block as u64;
        let mixed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(global_warp.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let rng = Rng::new(mixed);

        // Local (per-thread) data lives in its own address region, far
        // above any global footprint, with a small per-warp frame.
        // Partition the footprint into per-warp streaming segments so
        // coalesced streaming reads behave like real strided kernels. The
        // window is capped at a fixed size so the per-SM resident stream
        // working set stays L1-sized regardless of grid scale (real
        // kernels tile their hot data the same way).
        const STREAM_WINDOW_LINES: u64 = 2;
        let total_warps = params.total_warps().max(1);
        let lines_total = (params.footprint_bytes / line_bytes as u64).max(1);
        let seg_lines = (lines_total / total_warps).clamp(1, STREAM_WINDOW_LINES);
        let offset_lines = (global_warp * seg_lines) % lines_total;
        let line = line_bytes as u64;
        // Streaming reads touch `align(base + off)` for offsets that are
        // multiples of the line size, which equals `align(base) + off`.
        let segment_base = (params.addr_base + offset_lines * line) / line * line;
        let segment_len = seg_lines * line;

        let c = params.coalescing;
        let wws_len = ((params.footprint_bytes as f64 * params.wws_fraction) as u64).max(line);
        let (write, late_writes) = match params.write_phase {
            WritePhase::Uniform => (params.write_fraction, false),
            // All write traffic compressed into the last 20 % of the
            // stream (grids write their outputs at the end, §4).
            WritePhase::EndOfKernel => ((params.write_fraction * 5.0).min(1.0), true),
        };
        let shape = MemShape {
            local: if params.local_fraction > 0.0 {
                Chance::new(params.local_fraction)
            } else {
                Chance::NEVER
            },
            lines_floor: c.floor() as usize,
            lines_up: Chance::new((c - c.floor()).clamp(0.0, 1.0)),
            locality: Chance::new(params.read_locality),
            skew: Chance::new(params.write_skew),
            write: Chance::new(write),
            late_writes,
            footprint_lines: lines_total,
            wws_lines: (wws_len / line).max(1),
        };

        WarpProgram {
            limit: params.instructions_per_warp,
            mem: Chance::new(params.mem_fraction),
            params,
            rng,
            issued: 0,
            shape,
            stream_off: 0,
            local_cursor: 0,
            local_warp_id: global_warp,
            segment_base,
            segment_len,
            line_bytes: line_bytes as u64,
        }
    }

    /// Whether the stream is exhausted.
    pub(crate) fn is_finished(&self) -> bool {
        self.issued >= self.limit
    }

    /// Fraction of the stream completed (0.0–1.0).
    pub(crate) fn progress(&self) -> f64 {
        self.issued as f64 / self.limit.max(1) as f64
    }

    /// A random line among the first `lines` lines from `base`.
    fn random_line(&mut self, base: u64, lines: u64) -> u64 {
        base + self.rng.range_u64(0, lines) * self.line_bytes
    }

    /// Number of distinct L1 lines this memory instruction touches, drawn
    /// around the kernel's coalescing factor.
    fn sample_lines(&mut self) -> usize {
        let floor = self.shape.lines_floor;
        let n = if self.shape.lines_up.draw(&mut self.rng) {
            floor + 1
        } else {
            floor
        };
        n.clamp(1, 32)
    }

    fn gen_read(&mut self) -> AddrVec {
        let n = self.sample_lines();
        let mut addrs = AddrVec::with_capacity(n);
        if self.shape.locality.draw(&mut self.rng) {
            // Stream through the warp's segment: consecutive lines.
            for _ in 0..n {
                addrs.push(self.segment_base + self.stream_off);
                self.stream_off += self.line_bytes;
                if self.stream_off == self.segment_len {
                    self.stream_off = 0;
                }
            }
        } else {
            // Random shared-data lines across the whole footprint.
            let base = self.params.addr_base;
            for _ in 0..n {
                let addr = self.random_line(base, self.shape.footprint_lines);
                addrs.push(addr);
            }
        }
        addrs
    }

    fn gen_write(&mut self) -> AddrVec {
        let n = self.sample_lines();
        let mut addrs = AddrVec::with_capacity(n);
        let base = self.params.addr_base;
        for _ in 0..n {
            let lines = if self.shape.skew.draw(&mut self.rng) {
                // Concentrated write-working-set traffic.
                self.shape.wws_lines
            } else {
                // Scattered writes across the footprint.
                self.shape.footprint_lines
            };
            let addr = self.random_line(base, lines);
            addrs.push(addr);
        }
        addrs
    }

    /// Whether a memory op is a write at this point of the stream,
    /// honouring the kernel's write phase: an `EndOfKernel` kernel draws
    /// nothing (and writes nothing) before 80 % of its stream.
    fn draw_write(&mut self) -> bool {
        if self.shape.late_writes && self.progress() < 0.8 {
            return false;
        }
        self.shape.write.draw(&mut self.rng)
    }

    fn gen_local(&mut self) -> AddrVec {
        // A tiny per-warp spill frame, revisited round-robin: spills have
        // extreme locality.
        let frame_lines = 2u64;
        let base = LOCAL_BASE + self.local_warp_id * frame_lines * self.line_bytes;
        let off = (self.local_cursor % frame_lines) * self.line_bytes;
        self.local_cursor += 1;
        AddrVec::one(base + off)
    }

    /// Draws what the next instruction is. An ALU instruction is complete
    /// (and counted) here; a [`Draw::Mem`] is completed by
    /// [`gen_mem`](Self::gen_mem). Split this way, the ALU path most
    /// instructions take never builds a [`WarpInstr`].
    ///
    /// The draw is [`Rng::chance`]'s, through a prepared [`Chance`]: the
    /// same result from the same stream without a float conversion.
    #[inline]
    pub(crate) fn draw(&mut self) -> Draw {
        if self.is_finished() {
            return Draw::Done;
        }
        if self.mem.draw(&mut self.rng) {
            Draw::Mem
        } else {
            self.issued += 1;
            Draw::Alu
        }
    }

    /// Completes a [`Draw::Mem`]: generates the memory instruction and
    /// counts it.
    pub(crate) fn gen_mem(&mut self) -> WarpInstr {
        let instr = if self.shape.local.draw(&mut self.rng) {
            // Register spills: reads and rewrites of the private frame.
            if self.rng.chance(0.5) {
                WarpInstr::LocalWrite(self.gen_local())
            } else {
                WarpInstr::LocalRead(self.gen_local())
            }
        } else if self.draw_write() {
            WarpInstr::MemWrite(self.gen_write())
        } else {
            WarpInstr::MemRead(self.gen_read())
        };
        // The phase decision in `write_probability` uses the pre-issue
        // position, so the count is bumped only after the draws.
        self.issued += 1;
        instr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Arc<KernelParams> {
        Arc::new(
            KernelParams::new("k", 8, 64)
                .with_instructions(2_000)
                .with_mem_fraction(0.4)
                .with_write_fraction(0.3)
                .with_footprint_kb(256),
        )
    }

    /// The next instruction the way the SM takes it, `Some(None)` for an
    /// ALU instruction, or `None` when the warp is done.
    fn next_instr(p: &mut WarpProgram) -> Option<Option<WarpInstr>> {
        match p.draw() {
            Draw::Done => None,
            Draw::Alu => Some(None),
            Draw::Mem => Some(Some(p.gen_mem())),
        }
    }

    fn collect(p: &mut WarpProgram) -> Vec<Option<WarpInstr>> {
        std::iter::from_fn(|| next_instr(p)).collect()
    }

    #[test]
    fn stream_length_matches_params() {
        let mut p = WarpProgram::new(params(), 0, 0, 1, 128);
        assert_eq!(collect(&mut p).len(), 2_000);
        assert!(p.is_finished());
        assert!(next_instr(&mut p).is_none());
    }

    #[test]
    fn fifty_instruction_kernel_streams_fifty() {
        let k = Arc::new(KernelParams::new("k", 4, 64).with_instructions(50));
        let mut p = WarpProgram::new(k, 0, 0, 99, 128);
        let mut count = 0;
        while next_instr(&mut p).is_some() {
            count += 1;
        }
        assert_eq!(count, 50);
    }

    #[test]
    fn deterministic_for_same_coordinates() {
        let a = collect(&mut WarpProgram::new(params(), 3, 1, 42, 128));
        let b = collect(&mut WarpProgram::new(params(), 3, 1, 42, 128));
        assert_eq!(a, b);
    }

    #[test]
    fn different_warps_differ() {
        let a = collect(&mut WarpProgram::new(params(), 0, 0, 42, 128));
        let b = collect(&mut WarpProgram::new(params(), 0, 1, 42, 128));
        assert_ne!(a, b);
    }

    #[test]
    fn mix_approximates_fractions() {
        let instrs = collect(&mut WarpProgram::new(params(), 0, 0, 7, 128));
        let mem = instrs.iter().filter(|i| i.is_some()).count() as f64;
        let writes = instrs
            .iter()
            .filter(|i| matches!(i, Some(WarpInstr::MemWrite(_))))
            .count() as f64;
        let mem_frac = mem / instrs.len() as f64;
        let write_frac = writes / mem;
        assert!((mem_frac - 0.4).abs() < 0.05, "mem fraction {mem_frac}");
        assert!(
            (write_frac - 0.3).abs() < 0.06,
            "write fraction {write_frac}"
        );
    }

    #[test]
    fn addresses_stay_in_footprint_and_aligned() {
        let p = params();
        let fp = p.footprint_bytes;
        let mut prog = WarpProgram::new(p, 1, 1, 9, 128);
        for instr in std::iter::from_fn(|| next_instr(&mut prog)).flatten() {
            let addrs = match &instr {
                WarpInstr::MemRead(a) | WarpInstr::MemWrite(a) => a,
                WarpInstr::LocalRead(a) | WarpInstr::LocalWrite(a) => {
                    for &addr in a {
                        assert!(addr >= LOCAL_BASE, "local address below LOCAL_BASE");
                    }
                    continue;
                }
            };
            for &a in addrs {
                assert!(a < fp, "address {a:#x} outside footprint");
                assert_eq!(a % 128, 0, "address {a:#x} not line-aligned");
            }
        }
    }

    #[test]
    fn write_skew_concentrates_writes() {
        let p = Arc::new(
            KernelParams::new("k", 4, 64)
                .with_instructions(4_000)
                .with_mem_fraction(0.5)
                .with_write_fraction(0.5)
                .with_footprint_kb(1024)
                .with_wws(0.05, 0.9),
        );
        let wws_limit = (p.footprint_bytes as f64 * 0.05) as u64;
        let mut prog = WarpProgram::new(p, 0, 0, 11, 128);
        let mut in_wws = 0usize;
        let mut total = 0usize;
        for instr in std::iter::from_fn(|| next_instr(&mut prog)).flatten() {
            if let WarpInstr::MemWrite(addrs) = instr {
                for &a in &addrs {
                    total += 1;
                    if a < wws_limit {
                        in_wws += 1;
                    }
                }
            }
        }
        let frac = in_wws as f64 / total as f64;
        assert!(frac > 0.85, "write concentration {frac}");
    }

    #[test]
    fn end_of_kernel_phase_delays_writes() {
        let p = Arc::new(
            KernelParams::new("k", 1, 32)
                .with_instructions(1_000)
                .with_mem_fraction(0.5)
                .with_write_fraction(0.2)
                .with_write_phase(WritePhase::EndOfKernel),
        );
        let mut prog = WarpProgram::new(p, 0, 0, 5, 128);
        let instrs = collect(&mut prog);
        let first_write = instrs
            .iter()
            .position(|i| matches!(i, Some(WarpInstr::MemWrite(_))))
            .expect("some write must occur");
        assert!(
            first_write >= 790,
            "first write at {first_write} should be in the last fifth"
        );
    }

    #[test]
    fn local_fraction_generates_private_frame_traffic() {
        let p = Arc::new(
            KernelParams::new("k", 2, 64)
                .with_instructions(2_000)
                .with_mem_fraction(0.6)
                .with_local_fraction(0.5),
        );
        let mut prog = WarpProgram::new(Arc::clone(&p), 1, 0, 5, 128);
        let mut locals = 0usize;
        let mut frame = std::collections::HashSet::new();
        let mut mems = 0usize;
        for instr in std::iter::from_fn(|| next_instr(&mut prog)).flatten() {
            match instr {
                WarpInstr::LocalRead(a) | WarpInstr::LocalWrite(a) => {
                    locals += 1;
                    for &addr in &a {
                        assert!(addr >= LOCAL_BASE);
                        frame.insert(addr);
                    }
                }
                WarpInstr::MemRead(_) | WarpInstr::MemWrite(_) => mems += 1,
            }
        }
        assert!(locals > 0, "local ops must be generated");
        // Roughly half of memory ops are local at local_fraction 0.5.
        let frac = locals as f64 / (locals + mems) as f64;
        assert!((frac - 0.5).abs() < 0.08, "local share {frac}");
        assert_eq!(frame.len(), 2, "spill frame is two lines");
    }

    #[test]
    fn different_warps_use_disjoint_local_frames() {
        let p = Arc::new(
            KernelParams::new("k", 2, 64)
                .with_instructions(500)
                .with_mem_fraction(0.8)
                .with_local_fraction(1.0),
        );
        let frame_of = |block: u32, warp: u32| {
            let mut prog = WarpProgram::new(Arc::clone(&p), block, warp, 5, 128);
            let mut frame = std::collections::BTreeSet::new();
            for instr in std::iter::from_fn(|| next_instr(&mut prog)).flatten() {
                if let WarpInstr::LocalRead(a) | WarpInstr::LocalWrite(a) = instr {
                    frame.extend(a.iter().copied());
                }
            }
            frame
        };
        let a = frame_of(0, 0);
        let b = frame_of(0, 1);
        assert!(a.is_disjoint(&b), "frames must not alias");
    }

    #[test]
    fn coalescing_controls_lines_per_op() {
        let p = Arc::new(
            KernelParams::new("k", 1, 32)
                .with_instructions(3_000)
                .with_mem_fraction(1.0)
                .with_coalescing(4.0),
        );
        let mut prog = WarpProgram::new(p, 0, 0, 3, 128);
        let mut total_lines = 0usize;
        let mut ops = 0usize;
        for instr in std::iter::from_fn(|| next_instr(&mut prog)).flatten() {
            match instr {
                WarpInstr::MemRead(a) | WarpInstr::MemWrite(a) => {
                    total_lines += a.len();
                    ops += 1;
                }
                WarpInstr::LocalRead(_) | WarpInstr::LocalWrite(_) => {}
            }
        }
        let avg = total_lines as f64 / ops as f64;
        assert!((avg - 4.0).abs() < 0.2, "avg lines {avg}");
    }
}
