//! The crossbar MVM engine — a tiled program / execute / account pipeline.
//!
//! A layer invocation runs in three stages:
//!
//! 1. **program** — on first sight of a layer, split its weights into
//!    sign-magnitude bit slices on differential subarray pairs and build
//!    the per-count conversion LUT once (stored with the programmed layer,
//!    never rebuilt or cloned per call);
//! 2. **execute** — pack all `input_bits` bit-planes of the window batch
//!    in one pass over the activation codes (scratch `BitMatrix` buffers
//!    reused across calls, live-plane and per-window-block occupancy
//!    recorded as a side effect), then run (output-block × window-block)
//!    tiles through the **specialised kernel layer**
//!    (`trq_xbar::mvm_diff_tile_into`): a fused differential popcount —
//!    each plane word loaded once for both subarray sides, monomorphised
//!    per column word count with 4-wide window unrolling, on the
//!    [`KernelTier`] resolved once at engine construction (AVX-512 /
//!    AVX2 / NEON popcount lanes or the portable scalar paths, all
//!    bit-identical) — plus sparsity-aware skipping of all-zero input
//!    bit-planes, all-zero weight slice columns, and dead window blocks
//!    inside live subarrays, whose count-0 conversions fold into the
//!    event ledger in closed form. The decode reads one packed LUT entry
//!    per conversion. Subarrays and bit-planes are looped *inside* each
//!    tile, so every tile owns a disjoint region of the accumulator and
//!    tiles run on any number of worker threads with bit-identical
//!    results. [`crate::arch::Dispatch::Scope`] keeps the pre-kernel
//!    scalar datapath end to end as the pinned reference;
//! 3. **account** — merge per-worker event tallies into the layer's
//!    [`PimStats`] and scale the integer accumulator into code units.
//!
//! Tile rounds run on the persistent [`crate::exec::Pool`] by default
//! (dispatch onto parked workers, no per-call thread spawn) with
//! per-worker scratch **arenas** — tile accumulators, count buffers, and
//! event tallies allocated once and reused — so the steady-state forward
//! path performs zero heap allocations (asserted in
//! `crates/core/tests/alloc_free.rs`). [`crate::arch::Dispatch::Scope`]
//! keeps the PR 2 per-call `std::thread::scope` behaviour as the
//! dispatch-overhead baseline; both modes are bit-identical.

use crate::arch::{ArchConfig, Dispatch};
use crate::exec::Pool;
use crate::pim::scheme::{AdcScheme, Lut};
use crate::pim::stats::PimStats;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use trq_nn::{MvmEngine, MvmLayerInfo};
use trq_quant::Histogram;
use trq_xbar::{
    mvm_diff_tile_into, pack_window_planes, resolve_kernel, BitMatrix, ColMask, KernelConfigError,
    KernelTier, NoiseModel, WindowOcc,
};

/// Options for bit-line sample collection during calibration runs. It has
/// no fields: the collector records every BL count exactly into
/// [`LayerSamples::hist`], so there is nothing to tune. The type is kept so
/// callers of [`crate::calib::collect_bl_samples`] (the `perfbench`
/// harness among them) keep compiling.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[non_exhaustive]
pub struct CollectorConfig;

/// Collected bit-line statistics for one layer — the input to Algorithm 1.
#[derive(Debug, Clone)]
pub struct LayerSamples {
    /// Layer position among MVM layers.
    pub mvm_index: usize,
    /// Layer label.
    pub label: String,
    /// Exact histogram of every BL count seen (pos and neg streams), one
    /// unit-width bin per count in `[0, S]`: bin `i` holds count `i`.
    pub hist: Histogram,
    /// Total samples seen; always equals `hist.count()`.
    pub seen: u64,
}

impl LayerSamples {
    /// The count-weighted view of [`LayerSamples::hist`] that Algorithm 1
    /// searches over.
    #[must_use]
    pub fn distribution(&self) -> CountDist {
        let (mut values, mut prefix, mut total) = (Vec::new(), vec![0], 0);
        for (count, &w) in self.hist.counts().iter().enumerate().filter(|(_, &w)| w > 0) {
            total += w;
            values.push(count as f64);
            prefix.push(total);
        }
        CountDist { values, prefix }
    }
}

/// A BL histogram as the distinct counts that occurred, ascending, plus
/// prefix weights: a window query is one binary search and an MSE is a
/// weighted sum over at most `S + 1` values, however many samples.
#[derive(Debug, Clone, PartialEq)]
pub struct CountDist {
    values: Vec<f64>,
    /// `prefix[i]` = samples below `values[i]`; ends with the total.
    prefix: Vec<u64>,
}

impl CountDist {
    /// Total number of samples.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.prefix[self.values.len()]
    }

    /// Number of samples strictly below `x`.
    #[must_use]
    pub fn below(&self, x: f64) -> u64 {
        self.prefix[self.values.partition_point(|&v| v < x)]
    }

    /// Mean squared error of the samples under `quantize` (Eq. 10); NaN
    /// when there are no samples.
    pub fn mse<F: Fn(f64) -> f64>(&self, quantize: F) -> f64 {
        let weighted = self.values.iter().zip(self.prefix.windows(2)).map(|(&v, w)| {
            let e = quantize(v) - v;
            (w[1] - w[0]) as f64 * e * e
        });
        weighted.sum::<f64>() / self.total() as f64
    }
}

struct Programmed {
    /// One differential subarray pair per 128-row row block; columns are
    /// `outputs × weight_bits` wide.
    subarrays: Vec<DiffSubarray>,
    /// Per-count conversion table (packed entries), built once at
    /// programming time.
    lut: Lut,
}

/// One crossbar row block: the differential (pos, neg) slice planes plus
/// the static column-occupancy masks the skip-enabled kernel consults —
/// all-zero weight slice columns (e.g. the negative side of an
/// all-positive channel) never popcount or decode element-wise.
struct DiffSubarray {
    pos: BitMatrix,
    neg: BitMatrix,
    pos_live: ColMask,
    neg_live: ColMask,
}

/// Serializable image of one programmed differential subarray pair: the
/// sliced bit planes plus the static column-occupancy masks. Part of
/// [`ProgrammedLayerState`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubarrayState {
    /// Positive-side weight slice planes.
    pub pos: BitMatrix,
    /// Negative-side weight slice planes.
    pub neg: BitMatrix,
    /// Column occupancy of the positive side (the static skip mask).
    pub pos_live: ColMask,
    /// Column occupancy of the negative side.
    pub neg_live: ColMask,
}

/// Serializable image of one layer's program-stage output — everything
/// the engine derives from the layer's quantized weights: differential
/// subarray pairs, skip masks, and the packed conversion LUT.
/// [`PimMvm::export_programming`] produces these and
/// [`PimMvm::import_programming`] installs them, so a restored engine
/// skips the program stage entirely and is bit-identical to a freshly
/// programmed one (values and event ledgers alike).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgrammedLayerState {
    /// MVM layer index the state belongs to.
    pub mvm_index: usize,
    /// One entry per crossbar row block, in depth order.
    pub subarrays: Vec<SubarrayState>,
    /// Packed conversion-table entries (`ops << 24 | lsb`), indexed by
    /// BL count `0..=rows`.
    pub lut_entries: Vec<u32>,
    /// Physical value of one LUT LSB in count units.
    pub lut_delta: f64,
}

/// Rejection returned by [`PimMvm::import_programming`] when a layer
/// state does not fit the engine's architecture (wrong array height, LUT
/// length, or mask width) — installing it anyway would panic deep inside
/// the kernels instead of failing at the API boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramImportError {
    /// The offending layer.
    pub mvm_index: usize,
    /// What did not line up.
    pub reason: String,
}

impl std::fmt::Display for ProgramImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "layer {}: {}", self.mvm_index, self.reason)
    }
}

impl std::error::Error for ProgramImportError {}

/// One (output-block × window-block) unit of work. Subarrays and input
/// bit-planes are looped inside the tile, so a tile owns the disjoint
/// accumulator region `[o0, o1) × [w0, w1)` outright.
#[derive(Debug, Clone, Copy)]
struct Tile {
    o0: usize,
    o1: usize,
    w0: usize,
    w1: usize,
}

impl Tile {
    fn len(&self) -> usize {
        (self.o1 - self.o0) * (self.w1 - self.w0)
    }
}

/// Architectural events tallied while executing tiles; one per worker,
/// merged in the account stage.
#[derive(Debug, Default, Clone, Copy)]
struct TileEvents {
    ops: u64,
    conversions: u64,
    max_count: u32,
    max_abs_acc: i64,
}

impl TileEvents {
    fn merge(&mut self, other: &TileEvents) {
        self.ops += other.ops;
        self.conversions += other.conversions;
        self.max_count = self.max_count.max(other.max_count);
        self.max_abs_acc = self.max_abs_acc.max(other.max_abs_acc);
    }
}

/// Per-worker scratch reused across tiles (no allocation in steady state).
#[derive(Default)]
struct TileScratch {
    counts_pos: Vec<u32>,
    counts_neg: Vec<u32>,
}

/// Everything one worker touches during a tile round, allocated once per
/// worker slot and reused for the engine's whole lifetime. `reset_round`
/// only rewinds logical lengths; capacities are monotone, which is what
/// makes the steady-state forward path allocation-free.
#[derive(Default)]
struct WorkerArena {
    /// Count buffers for the fused popcount kernel.
    scratch: TileScratch,
    /// Tile accumulators of the round, concatenated back to back.
    acc_pool: Vec<i64>,
    /// `(tile index, acc_pool offset)` of every completed tile.
    done: Vec<(usize, usize)>,
    /// Event tally, merged into the layer ledger in the account stage.
    events: TileEvents,
    /// Calibration only: BL count histogram of the round (index = count),
    /// merged into the layer's [`LayerSamples`] in the account stage.
    bl_counts: Vec<u64>,
}

impl WorkerArena {
    /// Rewinds the arena for a new round without touching capacity.
    fn reset_round(&mut self) {
        self.acc_pool.clear();
        self.done.clear();
    }

    /// Bytes of backing capacity currently held — the arena-reuse
    /// invariant checked by `tests/alloc_free.rs` (must not grow after
    /// warm-up).
    fn footprint(&self) -> usize {
        self.scratch.counts_pos.capacity() * size_of::<u32>()
            + self.scratch.counts_neg.capacity() * size_of::<u32>()
            + self.acc_pool.capacity() * size_of::<i64>()
            + self.done.capacity() * size_of::<(usize, usize)>()
            + self.bl_counts.capacity() * size_of::<u64>()
    }
}

/// Debug-build poison for count buffers: no bit line can count this high,
/// so an unwritten slot is unmistakable. Release builds never write or
/// check it — the buffers simply keep stale contents in skipped regions.
const COUNT_POISON: u32 = u32::MAX;

/// Sets both count buffers' logical length to `volume` **without zeroing**
/// — the kernels overwrite every live slot, so the old per-tile memset
/// was pure overhead (only growth beyond any previously seen volume pays
/// a fill, once). Debug builds poison the buffers instead so the decode
/// loops can assert the kernel really wrote every slot they read.
fn prepare_counts(scratch: &mut TileScratch, volume: usize) {
    for counts in [&mut scratch.counts_pos, &mut scratch.counts_neg] {
        if counts.len() >= volume {
            counts.truncate(volume);
        } else {
            counts.resize(volume, 0);
        }
        if cfg!(debug_assertions) {
            counts.fill(COUNT_POISON);
        }
    }
}

/// Executes one tile on the **specialised kernel path**: one fused
/// differential popcount pass per (subarray × live bit-plane) — each input
/// plane word loaded once for both subarray sides, on the engine's
/// resolved [`KernelTier`] (scalar or SIMD lanes, bit-identical) — then a
/// packed-LUT decode and shift-add into the tile-local accumulator `acc`
/// (length `tile.len()`, zeroed by the caller).
///
/// Sparsity-aware skipping: all-zero input bit-planes, dead window
/// *blocks* inside live planes (both from the subarray's [`WindowOcc`]),
/// and all-zero weight slice columns (the subarray's [`ColMask`]s) are
/// skipped arithmetically — in the kernel and in the decode alike. Their
/// counts are 0 by construction, so the accumulator contribution cancels
/// exactly and the count-0 conversions fold into the event ledger in
/// closed form — `PimStats` stays bit-identical to the dense path. Rows
/// whose tile window range is fully live (the common dense case, and
/// everything when `block_skip` is off) take a no-segmentation fast path
/// identical to the pre-block-skip decode.
#[allow(clippy::too_many_arguments)]
fn execute_tile(
    prog: &Programmed,
    planes: &[Vec<BitMatrix>],
    occ: &[WindowOcc],
    tier: KernelTier,
    tile: Tile,
    wbits: usize,
    ibits: usize,
    scratch: &mut TileScratch,
    acc: &mut [i64],
    events: &mut TileEvents,
) {
    debug_assert_eq!(acc.len(), tile.len(), "tile accumulator must match the tile volume");
    let nc = (tile.o1 - tile.o0) * wbits;
    let nw = tile.w1 - tile.w0;
    let volume = ibits * nc * nw;
    let entries = prog.lut.entries();
    let e0 = entries[0];
    let ops0 = (e0 >> Lut::OPS_SHIFT) as u64;
    let lsb0 = (e0 & Lut::LSB_MASK) as i64;
    prepare_counts(scratch, volume);
    for (s, sub) in prog.subarrays.iter().enumerate() {
        let socc = &occ[s];
        mvm_diff_tile_into(
            tier,
            &sub.pos,
            &sub.neg,
            &planes[s],
            socc,
            &sub.pos_live,
            &sub.neg_live,
            tile.o0 * wbits..tile.o1 * wbits,
            tile.w0..tile.w1,
            &mut scratch.counts_pos,
            &mut scratch.counts_neg,
        );
        for c in 0..ibits {
            let plane_dead = !socc.plane_live(c);
            // fully-live rows (the dense common case) skip segmentation
            // entirely — one run over the whole window range, exactly the
            // pre-block-skip decode
            let fully = !plane_dead && socc.range_fully_live(c, tile.w0, tile.w1);
            for oc in 0..nc {
                let col = tile.o0 * wbits + oc;
                let (o_local, alpha) = (oc / wbits, oc % wbits);
                let shift = (alpha + c) as u32;
                let (pl, nl) = (sub.pos_live.is_live(col), sub.neg_live.is_live(col));
                if plane_dead || (!pl && !nl) {
                    // skipped row: every count is 0 by construction —
                    // max_count is unaffected, the decoded difference is
                    // exactly 0, and the conversions cost `ops0` each
                    events.ops += 2 * ops0 * nw as u64;
                    continue;
                }
                let base = (c * nc + oc) * nw;
                let arow = &mut acc[o_local * nw..(o_local + 1) * nw];
                // the dead differential side of a single-sided row costs
                // `ops0` per window over the whole range, live blocks or
                // not — its counts are 0 everywhere
                if pl != nl {
                    events.ops += ops0 * nw as u64;
                }
                // walk the row as maximal same-liveness window runs; a
                // dead run's conversions fold in closed form (count 0 ⇒
                // decoded contribution 0, `ops0` per conversion)
                let mut w = tile.w0;
                while w < tile.w1 {
                    let (we, seg_live) =
                        if fully { (tile.w1, true) } else { socc.next_segment(c, w, tile.w1) };
                    let (lo, len) = (w - tile.w0, we - w);
                    w = we;
                    if !seg_live {
                        let sides = if pl && nl { 2 } else { 1 };
                        events.ops += sides * ops0 * len as u64;
                        continue;
                    }
                    let aseg = &mut arow[lo..lo + len];
                    match (pl, nl) {
                        (true, true) => {
                            let cps = &scratch.counts_pos[base + lo..base + lo + len];
                            let cns = &scratch.counts_neg[base + lo..base + lo + len];
                            for ((a, &cp), &cn) in aseg.iter_mut().zip(cps).zip(cns) {
                                debug_assert!(
                                    cp != COUNT_POISON && cn != COUNT_POISON,
                                    "kernel must write every live slot"
                                );
                                events.max_count = events.max_count.max(cp).max(cn);
                                let (ep, en) = (entries[cp as usize], entries[cn as usize]);
                                events.ops +=
                                    ((ep >> Lut::OPS_SHIFT) + (en >> Lut::OPS_SHIFT)) as u64;
                                *a += ((ep & Lut::LSB_MASK) as i64 - (en & Lut::LSB_MASK) as i64)
                                    << shift;
                            }
                        }
                        (true, false) => {
                            let cps = &scratch.counts_pos[base + lo..base + lo + len];
                            for (a, &cp) in aseg.iter_mut().zip(cps) {
                                debug_assert!(
                                    cp != COUNT_POISON,
                                    "kernel must write every live slot"
                                );
                                events.max_count = events.max_count.max(cp);
                                let ep = entries[cp as usize];
                                events.ops += (ep >> Lut::OPS_SHIFT) as u64;
                                *a += ((ep & Lut::LSB_MASK) as i64 - lsb0) << shift;
                            }
                        }
                        (false, true) => {
                            let cns = &scratch.counts_neg[base + lo..base + lo + len];
                            for (a, &cn) in aseg.iter_mut().zip(cns) {
                                debug_assert!(
                                    cn != COUNT_POISON,
                                    "kernel must write every live slot"
                                );
                                events.max_count = events.max_count.max(cn);
                                let en = entries[cn as usize];
                                events.ops += (en >> Lut::OPS_SHIFT) as u64;
                                *a += (lsb0 - (en & Lut::LSB_MASK) as i64) << shift;
                            }
                        }
                        (false, false) => unreachable!(),
                    }
                }
            }
        }
        events.conversions += 2 * volume as u64;
    }
    for &v in acc.iter() {
        events.max_abs_acc = events.max_abs_acc.max(v.abs());
    }
}

/// Mixes one more component into a splitmix64 hash chain, applied per key
/// component so noise draws are a pure function of their slot coordinates.
fn mix64(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a 64-bit hash onto a uniform draw in (0, 1] (53-bit mantissa,
/// never exactly zero — safe under `ln`).
fn unit_open(z: u64) -> f64 {
    (((z >> 11) + 1) as f64) * (1.0 / (1u64 << 53) as f64)
}

/// Count-level device noise for one engine call: a Gaussian perturbation
/// of each BL count before decode, standing in for cell-level programming
/// variation (σ scaling with `sqrt(count)` — the deviation of a sum of
/// `count` independent cell currents) and additive read noise (σ in cell-
/// current units, independent of the count). The exact cell-level model
/// lives in [`trq_xbar::DiffPair`]'s analog path; this surrogate keeps
/// the integer datapath while perturbing exactly what the ADC sees.
///
/// Draws are keyed on `(call_seed, subarray, side, plane, column,
/// window)` — never on tile boundaries or thread ids — so a noisy result
/// is bit-identical across tilings and thread counts, and across the
/// serial/pooled dispatch modes.
struct CountNoise {
    sigma_prog: f64,
    sigma_read: f64,
    /// `mix64(seed, mvm_index, noise_epoch)` — one stream per layer call.
    call_seed: u64,
    /// Physical count ceiling (crossbar rows); noisy counts clamp here so
    /// LUT lookups stay in range.
    max_count: u32,
}

impl CountNoise {
    /// The noisy count for one BL observation, `side` 0 = pos, 1 = neg.
    fn perturb(
        &self,
        s: usize,
        side: u64,
        plane: usize,
        col: usize,
        window: usize,
        count: u32,
    ) -> u32 {
        let mut h = mix64(self.call_seed, s as u64);
        h = mix64(h, side);
        h = mix64(h, plane as u64);
        h = mix64(h, col as u64);
        h = mix64(h, window as u64);
        // one Box–Muller pair per slot: cos-branch perturbs for
        // programming variation, sin-branch for read noise
        let u1 = unit_open(h);
        let u2 = unit_open(mix64(h, 0x5851_F42D_4C95_7F2D));
        let r = (-2.0 * u1.ln()).sqrt();
        let (sin_t, cos_t) = (std::f64::consts::TAU * u2).sin_cos();
        let c = f64::from(count);
        let noisy = c + self.sigma_prog * c.sqrt() * (r * cos_t) + self.sigma_read * (r * sin_t);
        noisy.round().clamp(0.0, f64::from(self.max_count)) as u32
    }
}

/// Executes one tile on the **scalar reference path** (the pre-kernel
/// serial datapath, kept live on [`Dispatch::Scope`] and for calibration):
/// two back-to-back scalar popcount passes per subarray, then an
/// element-wise decode of every count — no fusion, no specialisation, no
/// skipping. Property tests pin the specialised path bit-identical to
/// this one, values and ledgers. When `bl_counts` is given (calibration),
/// every pos/neg BL count of the tile is tallied into it (index = count).
/// When `noise` is given (device-noise emulation), each count is perturbed
/// before decode — the ADC digitises the noisy current; the calibration
/// tally still sees raw counts.
#[allow(clippy::too_many_arguments)]
fn execute_tile_scalar(
    prog: &Programmed,
    planes: &[Vec<BitMatrix>],
    tile: Tile,
    wbits: usize,
    ibits: usize,
    scratch: &mut TileScratch,
    acc: &mut [i64],
    events: &mut TileEvents,
    mut bl_counts: Option<&mut [u64]>,
    noise: Option<&CountNoise>,
) {
    debug_assert_eq!(acc.len(), tile.len(), "tile accumulator must match the tile volume");
    let nc = (tile.o1 - tile.o0) * wbits;
    let nw = tile.w1 - tile.w0;
    let volume = ibits * nc * nw;
    let lut = &prog.lut;
    prepare_counts(scratch, volume);
    for (s, sub) in prog.subarrays.iter().enumerate() {
        let cols = tile.o0 * wbits..tile.o1 * wbits;
        sub.pos.mvm_planes_tile_into(
            &planes[s],
            cols.clone(),
            tile.w0..tile.w1,
            &mut scratch.counts_pos,
        );
        sub.neg.mvm_planes_tile_into(&planes[s], cols, tile.w0..tile.w1, &mut scratch.counts_neg);
        debug_assert!(
            scratch.counts_pos.iter().chain(scratch.counts_neg.iter()).all(|&c| c != COUNT_POISON),
            "scalar kernel must overwrite the whole tile volume"
        );
        for c in 0..ibits {
            for oc in 0..nc {
                let (o_local, alpha) = (oc / wbits, oc % wbits);
                let shift = (alpha + c) as u32;
                let base = (c * nc + oc) * nw;
                let cps = &scratch.counts_pos[base..base + nw];
                let cns = &scratch.counts_neg[base..base + nw];
                let arow = &mut acc[o_local * nw..(o_local + 1) * nw];
                for (i, ((a, &cp), &cn)) in arow.iter_mut().zip(cps).zip(cns).enumerate() {
                    let (cp, cn) = match noise {
                        Some(nz) => {
                            // absolute column / window coordinates, so
                            // the draw is tiling-independent
                            let col = tile.o0 * wbits + oc;
                            let window = tile.w0 + i;
                            (
                                nz.perturb(s, 0, c, col, window, cp),
                                nz.perturb(s, 1, c, col, window, cn),
                            )
                        }
                        None => (cp, cn),
                    };
                    events.max_count = events.max_count.max(cp).max(cn);
                    let lp = lut.lsb(cp) as i64;
                    let ln = lut.lsb(cn) as i64;
                    events.ops += lut.ops(cp) as u64 + lut.ops(cn) as u64;
                    *a += (lp - ln) << shift;
                }
            }
        }
        events.conversions += 2 * volume as u64;
        if let Some(hist) = bl_counts.as_deref_mut() {
            for &count in scratch.counts_pos.iter().chain(&scratch.counts_neg) {
                hist[count as usize] += 1;
            }
        }
    }
    for &v in acc.iter() {
        events.max_abs_acc = events.max_abs_acc.max(v.abs());
    }
}

/// The PIM execution engine: runs quantized MVMs through bit-sliced
/// differential crossbars and per-layer ADC schemes, counting every
/// architectural event. Execution is tiled and (optionally) multi-threaded
/// per [`crate::arch::ExecConfig`]; results and event counts are
/// bit-identical for every thread count. See the crate docs for an
/// end-to-end example.
pub struct PimMvm {
    arch: ArchConfig,
    plan: Vec<AdcScheme>,
    programmed: HashMap<usize, Programmed>,
    stats: PimStats,
    /// Calibration mode: tally every BL count into `samples`.
    collect: bool,
    samples: HashMap<usize, LayerSamples>,
    /// Device non-idealities, `None` when ideal — the ideal path never
    /// pays a noise check beyond this `Option` (see
    /// [`PimMvm::with_device_noise`]).
    noise: Option<NoiseModel>,
    /// Read-noise stream epoch (e.g. the global image index), mixed into
    /// every count-noise draw so repeated reads of the same slot differ
    /// across epochs but stay reproducible. Stuck-at faults ignore it —
    /// a device instance's fault map is fixed at programming time.
    noise_epoch: u64,
    /// Scratch bit-plane matrices per subarray, reused across calls.
    planes: Vec<Vec<BitMatrix>>,
    /// Window occupancy of the current call, one record per subarray
    /// (live-plane mask plus per-window-block liveness); capacity reused.
    occ: Vec<WindowOcc>,
    /// The execution kernel tier, resolved once at construction from
    /// [`crate::arch::ExecConfig::kernel`] and the `TRQ_KERNEL` override.
    tier: KernelTier,
    /// The executor tile rounds dispatch to (process-global by default).
    pool: &'static Pool,
    /// Tile list of the current call, capacity reused across calls.
    tiles: Vec<Tile>,
    /// Layer accumulator, capacity reused across calls.
    acc: Vec<i64>,
    /// One scratch arena per worker slot; workers lock only their own
    /// (uncontended — each participant index is claimed exactly once).
    arenas: Vec<Mutex<WorkerArena>>,
}

impl PimMvm {
    /// Creates an engine with a per-layer ADC plan (`plan[mvm_index]`).
    /// Layers beyond the plan's length run with [`AdcScheme::Ideal`].
    /// The engine owns its architecture (`ArchConfig` is `Copy`), so
    /// handles built on top of it — models, registries, servers — carry
    /// no borrow. Tile rounds dispatch to the process-wide
    /// [`Pool::global`]; use [`PimMvm::with_pool`] to share a dedicated
    /// long-lived pool instead.
    ///
    /// The execution kernel tier is resolved **here**, once, from
    /// [`crate::arch::ExecConfig::kernel`] and the `TRQ_KERNEL`
    /// environment override.
    ///
    /// # Panics
    ///
    /// Panics if the kernel selection is rejected — a forced SIMD tier on
    /// a host without the feature, or an unrecognised `TRQ_KERNEL` value.
    /// Use [`PimMvm::try_new`] for the non-panicking form.
    pub fn new(arch: ArchConfig, plan: Vec<AdcScheme>) -> Self {
        PimMvm::try_new(arch, plan).unwrap_or_else(|e| panic!("kernel configuration rejected: {e}"))
    }

    /// Fallible form of [`PimMvm::new`]: resolves the execution kernel
    /// tier and returns a typed [`KernelConfigError`] instead of
    /// panicking when the selection names a tier this host cannot run
    /// (`TRQ_KERNEL=simd` without AVX2/AVX-512/NEON) or an unrecognised
    /// override string. `KernelSelect::Auto` never fails — it degrades to
    /// the scalar tier.
    pub fn try_new(arch: ArchConfig, plan: Vec<AdcScheme>) -> Result<Self, KernelConfigError> {
        let tier = resolve_kernel(arch.exec.kernel)?;
        Ok(PimMvm {
            arch,
            plan,
            programmed: HashMap::new(),
            stats: PimStats::default(),
            collect: false,
            samples: HashMap::new(),
            noise: None,
            noise_epoch: 0,
            planes: Vec::new(),
            occ: Vec::new(),
            tier,
            pool: Pool::global(),
            tiles: Vec::new(),
            acc: Vec::new(),
            arenas: Vec::new(),
        })
    }

    /// The execution kernel tier this engine resolved at construction
    /// (after the `TRQ_KERNEL` override and `Auto` detection).
    #[must_use]
    pub fn kernel_tier(&self) -> KernelTier {
        self.tier
    }

    /// Builder: dispatches this engine's tile rounds to `pool` instead of
    /// the process-wide pool (the pool must outlive the process's use of
    /// the engine, matching [`Pool::global`]'s lifetime).
    #[must_use]
    pub fn with_pool(mut self, pool: &'static Pool) -> Self {
        self.pool = pool;
        self
    }

    /// Builder: emulates device non-idealities on this engine.
    ///
    /// - **Stuck-at faults** (`stuck_off_rate` / `stuck_on_rate`) force a
    ///   deterministic per-cell subset of the programmed bit planes to
    ///   0/1 at **program time**, keyed on `(seed, layer, subarray, side,
    ///   row, column)` — the same seed is the same device instance. Skip
    ///   masks are recomputed over the faulted planes, so stuck-at-only
    ///   noise runs on the full specialised kernel path, bit-identical
    ///   across tiers and thread counts.
    /// - **Programming variation / read noise** (`sigma_prog` /
    ///   `sigma_read`) perturb every BL count before decode with slot-
    ///   keyed Gaussians (see [`PimMvm::set_noise_epoch`]); count noise
    ///   forces the scalar datapath, since the skip kernels' closed-form
    ///   zero-count folds would bypass the perturbation.
    ///
    /// An ideal model ([`NoiseModel::is_ideal`]) stores nothing — the
    /// engine is byte-for-byte the no-noise engine, keeping the noisy
    /// plumbing zero-cost for every existing caller. Call **before**
    /// programming any layer (stuck-at faults apply when weights are
    /// sliced); programming imported via [`PimMvm::import_programming`]
    /// is installed verbatim, faults and all, as captured.
    #[must_use]
    pub fn with_device_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = if noise.is_ideal() { None } else { Some(noise) };
        self
    }

    /// The device-noise model in effect, `None` when ideal.
    #[must_use]
    pub fn device_noise(&self) -> Option<NoiseModel> {
        self.noise
    }

    /// Advances the count-noise stream (e.g. to the global image index),
    /// so per-image noise is reproducible regardless of how images are
    /// sharded across threads or batched. No effect on ideal engines or
    /// on stuck-at faults (the fault map is part of the device).
    pub fn set_noise_epoch(&mut self, epoch: u64) {
        self.noise_epoch = epoch;
    }

    /// Total bytes of backing capacity held by the reusable execution
    /// state (tiles, accumulator, bit-plane scratch, worker arenas).
    /// Exposed so tests can assert the arena-reuse invariant: after a
    /// warm-up call per layer shape, repeated calls must not grow this.
    #[doc(hidden)]
    pub fn scratch_footprint(&self) -> usize {
        let arenas: usize =
            self.arenas.iter().map(|a| a.lock().map(|arena| arena.footprint()).unwrap_or(0)).sum();
        let planes: usize = self
            .planes
            .iter()
            .flat_map(|per_sub| per_sub.iter())
            .map(|m| m.word_capacity() * size_of::<u64>())
            .sum();
        let occ: usize = self.occ.iter().map(|o| o.footprint_bytes()).sum();
        arenas
            + planes
            + occ
            + self.tiles.capacity() * size_of::<Tile>()
            + self.acc.capacity() * size_of::<i64>()
    }

    /// Creates an engine that additionally collects the BL count histogram
    /// of every layer (calibration mode). Its plan is empty, so every
    /// layer converts with [`AdcScheme::Ideal`] and the collected
    /// distribution is the true one.
    /// Tile rounds run at the configured thread count: each worker tallies
    /// into its own arena and the integer tallies merge by addition, so
    /// the histograms are identical for every thread count.
    pub fn collector(arch: ArchConfig) -> Self {
        let mut engine = PimMvm::new(arch, Vec::new());
        engine.collect = true;
        engine
    }

    /// The accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &PimStats {
        &self.stats
    }

    /// Resets statistics (keeps programmed arrays and LUTs).
    pub fn reset_stats(&mut self) {
        self.stats = PimStats::default();
    }

    /// The per-layer ADC plan.
    pub fn plan(&self) -> &[AdcScheme] {
        &self.plan
    }

    /// The architecture this engine simulates.
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// Runs the program stage for one layer without executing anything:
    /// bit-slices `weights_q` onto differential subarrays and builds the
    /// conversion LUT, exactly as the first `mvm_into` call would. Model
    /// handles use this to pay the whole programming cost up front — and
    /// to have complete state for [`PimMvm::export_programming`] before
    /// any request runs. Idempotent per layer.
    ///
    /// # Panics
    ///
    /// Panics when `weights_q` does not match the layer geometry.
    pub fn program_layer(&mut self, info: &MvmLayerInfo, weights_q: &[i32]) {
        assert_eq!(weights_q.len(), info.depth * info.outputs, "weight shape mismatch");
        self.program(info, weights_q);
    }

    /// Exports the programmed state of every layer, ordered by layer
    /// index — the persistable image of the program stage (bit planes,
    /// skip masks, packed LUTs). Installing the result into a fresh
    /// engine with [`PimMvm::import_programming`] reproduces this
    /// engine's forward bits without re-slicing a single weight.
    pub fn export_programming(&self) -> Vec<ProgrammedLayerState> {
        let mut out: Vec<ProgrammedLayerState> = self
            .programmed
            .iter()
            .map(|(&mvm_index, prog)| ProgrammedLayerState {
                mvm_index,
                subarrays: prog
                    .subarrays
                    .iter()
                    .map(|s| SubarrayState {
                        pos: s.pos.clone(),
                        neg: s.neg.clone(),
                        pos_live: s.pos_live.clone(),
                        neg_live: s.neg_live.clone(),
                    })
                    .collect(),
                lut_entries: prog.lut.entries().to_vec(),
                lut_delta: prog.lut.delta,
            })
            .collect();
        out.sort_by_key(|s| s.mvm_index);
        out
    }

    /// Installs previously exported programming, replacing any existing
    /// state for those layers. Every layer is validated against this
    /// engine's architecture — array height, LUT length, differential
    /// pair shape, mask coverage — before anything is installed, so a
    /// snapshot from a different geometry (or a corrupted one) is
    /// rejected whole at the API boundary instead of panicking inside
    /// the kernels mid-batch.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramImportError`] naming the first offending layer.
    pub fn import_programming(
        &mut self,
        layers: Vec<ProgrammedLayerState>,
    ) -> Result<(), ProgramImportError> {
        let rows = self.arch.xbar.rows;
        for state in &layers {
            let fail =
                |reason: String| Err(ProgramImportError { mvm_index: state.mvm_index, reason });
            if state.lut_entries.len() != rows + 1 {
                return fail(format!(
                    "LUT has {} entries, architecture needs {}",
                    state.lut_entries.len(),
                    rows + 1
                ));
            }
            for (s, sub) in state.subarrays.iter().enumerate() {
                if !sub.pos.backing_consistent() || !sub.neg.backing_consistent() {
                    return fail(format!("subarray {s} has inconsistent bit-plane storage"));
                }
                if sub.pos.rows() != rows || sub.neg.rows() != rows {
                    return fail(format!(
                        "subarray {s} is {}/{} rows tall, architecture has {rows}",
                        sub.pos.rows(),
                        sub.neg.rows()
                    ));
                }
                if sub.pos.cols() != sub.neg.cols() {
                    return fail(format!(
                        "subarray {s} differential pair disagrees on width: {} vs {}",
                        sub.pos.cols(),
                        sub.neg.cols()
                    ));
                }
                if !sub.pos_live.covers(sub.pos.cols()) || !sub.neg_live.covers(sub.neg.cols()) {
                    return fail(format!("subarray {s} skip masks do not cover its columns"));
                }
            }
        }
        for state in layers {
            let subarrays = state
                .subarrays
                .into_iter()
                .map(|s| DiffSubarray {
                    pos: s.pos,
                    neg: s.neg,
                    pos_live: s.pos_live,
                    neg_live: s.neg_live,
                })
                .collect();
            let lut = Lut::from_parts(state.lut_entries, state.lut_delta);
            self.programmed.insert(state.mvm_index, Programmed { subarrays, lut });
        }
        Ok(())
    }

    /// Takes the collected calibration samples, ordered by layer index.
    #[must_use]
    pub fn take_samples(&mut self) -> Vec<LayerSamples> {
        let mut out: Vec<LayerSamples> = self.samples.drain().map(|(_, v)| v).collect();
        out.sort_by_key(|s| s.mvm_index);
        out
    }

    fn scheme_for(&self, mvm_index: usize) -> AdcScheme {
        self.plan.get(mvm_index).copied().unwrap_or(AdcScheme::Ideal)
    }

    /// Program stage: bit-slice the weights onto differential subarray
    /// pairs, record each side's column occupancy (the static skip masks),
    /// and build the layer's conversion LUT, once per layer.
    fn program(&mut self, info: &MvmLayerInfo, weights_q: &[i32]) {
        if self.programmed.contains_key(&info.mvm_index) {
            return;
        }
        let rows = self.arch.xbar.rows;
        let wbits = self.arch.weight_bits;
        let cols = info.outputs * wbits as usize;
        let n_sub = self.arch.subarrays_for_depth(info.depth);
        let mut subarrays = Vec::with_capacity(n_sub);
        for s in 0..n_sub {
            let d0 = s * rows;
            let d1 = ((s + 1) * rows).min(info.depth);
            let mut pos = BitMatrix::zeros(rows, cols);
            let mut neg = BitMatrix::zeros(rows, cols);
            for d in d0..d1 {
                for o in 0..info.outputs {
                    let w = weights_q[o * info.depth + d];
                    if w == 0 {
                        continue;
                    }
                    let mag = w.unsigned_abs();
                    let target = if w > 0 { &mut pos } else { &mut neg };
                    for alpha in 0..wbits {
                        if (mag >> alpha) & 1 == 1 {
                            target.set(d - d0, o * wbits as usize + alpha as usize, true);
                        }
                    }
                }
            }
            if let Some(noise) =
                self.noise.filter(|nz| nz.stuck_off_rate > 0.0 || nz.stuck_on_rate > 0.0)
            {
                // stuck-at faults: force a deterministic per-cell subset
                // of the sliced planes, keyed on the cell's physical
                // coordinates — the same seed is the same device. Masks
                // are computed *after* forcing, so the skip kernels see
                // the faulted occupancy and stay exact.
                let device = mix64(noise.seed, info.mvm_index as u64);
                for (side, mat) in [(0u64, &mut pos), (1u64, &mut neg)] {
                    for r in 0..rows {
                        for col in 0..cols {
                            let mut h = mix64(device, s as u64);
                            h = mix64(h, side);
                            h = mix64(h, r as u64);
                            h = mix64(h, col as u64);
                            let u = unit_open(h);
                            if u < noise.stuck_off_rate {
                                mat.set(r, col, false);
                            } else if u < noise.stuck_off_rate + noise.stuck_on_rate {
                                mat.set(r, col, true);
                            }
                        }
                    }
                }
            }
            let (pos_live, neg_live) = (ColMask::of(&pos), ColMask::of(&neg));
            subarrays.push(DiffSubarray { pos, neg, pos_live, neg_live });
        }
        let lut = self
            .scheme_for(info.mvm_index)
            .build_lut(self.arch.xbar.rows as u32, self.arch.adc_bits);
        self.programmed.insert(info.mvm_index, Programmed { subarrays, lut });
    }

    /// Folds a tile-local accumulator into the layer accumulator.
    fn fold_tile(acc: &mut [i64], n: usize, tile: Tile, tile_acc: &[i64]) {
        debug_assert_eq!(tile_acc.len(), tile.len(), "arena slice must match the tile");
        debug_assert!(tile.o1 * n <= acc.len(), "tile exceeds the layer accumulator");
        let nw = tile.w1 - tile.w0;
        for o in tile.o0..tile.o1 {
            let src = &tile_acc[(o - tile.o0) * nw..(o - tile.o0 + 1) * nw];
            let dst = &mut acc[o * n + tile.w0..o * n + tile.w1];
            for (d, &s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
    }
}

impl MvmEngine for PimMvm {
    fn mvm_into(
        &mut self,
        info: &MvmLayerInfo,
        weights_q: &[i32],
        cols: &[u8],
        n: usize,
        out: &mut [f64],
    ) {
        assert_eq!(weights_q.len(), info.depth * info.outputs, "weight shape mismatch");
        assert_eq!(cols.len(), info.depth * n, "cols shape mismatch");
        assert_eq!(out.len(), info.outputs * n, "output buffer shape mismatch");

        // ── program ───────────────────────────────────────────────────
        self.program(info, weights_q);

        let rows = self.arch.xbar.rows;
        let wbits = self.arch.weight_bits as usize;
        let ibits = self.arch.input_bits as usize;
        let max_count = self.arch.xbar.rows as u32;
        let exec = self.arch.exec;

        // batched bit-plane packing: all `input_bits` planes of every
        // subarray in one pass over `cols` each, into reused scratch;
        // the window-occupancy records filled alongside (live planes +
        // live window blocks) drive sparsity-aware skipping
        let n_sub = self.arch.subarrays_for_depth(info.depth);
        while self.planes.len() < n_sub {
            self.planes.push(Vec::new());
        }
        while self.occ.len() < n_sub {
            self.occ.push(WindowOcc::default());
        }
        for (s, (planes, occ)) in
            self.planes.iter_mut().zip(self.occ.iter_mut()).enumerate().take(n_sub)
        {
            let d0 = s * rows;
            let d1 = ((s + 1) * rows).min(info.depth);
            pack_window_planes(cols, n, d0, d1, rows, ibits as u32, planes, occ);
            if !exec.block_skip {
                // keep plane-level skipping, degrade block granularity
                occ.fill_blocks_live();
            }
        }

        // ── execute ───────────────────────────────────────────────────
        let to = exec.tile_outputs_for(info.outputs);
        let tw = exec.tile_windows_for(n);
        self.tiles.clear();
        let mut o0 = 0;
        while o0 < info.outputs {
            let o1 = (o0 + to).min(info.outputs);
            let mut w0 = 0;
            while w0 < n {
                let w1 = (w0 + tw).min(n);
                self.tiles.push(Tile { o0, o1, w0, w1 });
                w0 = w1;
            }
            o0 = o1;
        }

        let threads = exec.effective_threads().clamp(1, self.tiles.len().max(1));
        while self.arenas.len() < threads {
            self.arenas.push(Mutex::new(WorkerArena::default()));
        }
        self.acc.clear();
        self.acc.resize(info.outputs * n, 0);

        let prog = &self.programmed[&info.mvm_index];
        let planes = &self.planes[..n_sub];
        let occ = &self.occ[..n_sub];
        let tier = self.tier;
        let tiles = &self.tiles;
        let collect = self.collect;
        // count-level device noise (σ_prog / σ_read): one stream per
        // (seed, layer, epoch); stuck-at-only noise leaves this None and
        // keeps the fused kernel path
        let count_noise = self.noise.and_then(|nz| {
            if nz.sigma_prog == 0.0 && nz.sigma_read == 0.0 {
                None
            } else {
                Some(CountNoise {
                    sigma_prog: nz.sigma_prog,
                    sigma_read: nz.sigma_read,
                    call_seed: mix64(mix64(nz.seed, info.mvm_index as u64), self.noise_epoch),
                    max_count,
                })
            }
        });
        // Dispatch::Scope keeps the scalar reference datapath end to end
        // (the baseline the specialised kernels are benchmarked and
        // property-tested against); calibration also stays scalar so the
        // counts tally sees every slot of every tile. Count noise forces
        // scalar too: the skip kernels fold zero-count conversions in
        // closed form, which would silently bypass the perturbation.
        let scalar = exec.dispatch == Dispatch::Scope || collect || count_noise.is_some();
        // a fork-join tile round (inline on the caller at one thread):
        // participants claim tiles from the shared counter and execute
        // them into their own arena; the account stage below folds arena
        // results in slot order, so the outcome is independent of which
        // worker ran which tile
        let max_tile = tiles.iter().map(|t| t.len()).max().unwrap_or(0);
        for slot in &mut self.arenas[..threads] {
            let arena = slot.get_mut().unwrap_or_else(std::sync::PoisonError::into_inner);
            arena.reset_round();
            // reserve worst-case round capacity up front (one worker
            // could claim every tile) so capacities stay monotone and
            // rounds never allocate after the first call per shape —
            // count scratch included: which tiles a slot claims is
            // scheduling-dependent, and a busy-pool fallback round
            // runs every slot inline on the caller, so a lazily-sized
            // arena would allocate there mid-steady-state
            arena.acc_pool.reserve(info.outputs * n);
            arena.done.reserve(tiles.len());
            // scratch keeps its logical length across rounds (stale
            // contents are overwritten), so reserve only the shortfall
            let volume = ibits * wbits * max_tile;
            let pos = &mut arena.scratch.counts_pos;
            pos.reserve(volume.saturating_sub(pos.len()));
            let neg = &mut arena.scratch.counts_neg;
            neg.reserve(volume.saturating_sub(neg.len()));
            if collect {
                arena.bl_counts.clear();
                arena.bl_counts.resize(max_count as usize + 1, 0);
            }
        }
        let next = AtomicUsize::new(0);
        let arenas = &self.arenas;
        let worker = |w: usize| {
            let mut arena = arenas[w].lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let arena = &mut *arena;
            loop {
                let t = next.fetch_add(1, Ordering::Relaxed);
                if t >= tiles.len() {
                    break;
                }
                let tile = tiles[t];
                let offset = arena.acc_pool.len();
                arena.acc_pool.resize(offset + tile.len(), 0);
                if scalar {
                    execute_tile_scalar(
                        prog,
                        planes,
                        tile,
                        wbits,
                        ibits,
                        &mut arena.scratch,
                        &mut arena.acc_pool[offset..],
                        &mut arena.events,
                        collect.then_some(&mut arena.bl_counts[..]),
                        count_noise.as_ref(),
                    );
                } else {
                    execute_tile(
                        prog,
                        planes,
                        occ,
                        tier,
                        tile,
                        wbits,
                        ibits,
                        &mut arena.scratch,
                        &mut arena.acc_pool[offset..],
                        &mut arena.events,
                    );
                }
                arena.done.push((t, offset));
            }
        };
        match exec.dispatch {
            Dispatch::Pool => self.pool.run(threads, &worker),
            Dispatch::Scope => std::thread::scope(|scope| {
                let worker = &worker;
                for w in 1..threads {
                    scope.spawn(move || worker(w));
                }
                worker(0);
            }),
        }

        // ── account ───────────────────────────────────────────────────
        // arena tallies merge by integer addition in slot order, so the
        // ledger, the accumulator and the calibration histogram are the
        // same for every thread count
        let mut samples = collect.then(|| {
            self.samples.entry(info.mvm_index).or_insert_with(|| LayerSamples {
                mvm_index: info.mvm_index,
                label: info.label.clone(),
                hist: Histogram::new(0.0, f64::from(max_count + 1), max_count as usize + 1)
                    // lint: allow(unwrap): `max_count + 1 >= 1` bins, hi > lo
                    .expect("non-empty count domain"),
                seen: 0,
            })
        });
        let mut events = TileEvents::default();
        for slot in &mut self.arenas[..threads] {
            let arena = slot.get_mut().unwrap_or_else(std::sync::PoisonError::into_inner);
            events.merge(&arena.events);
            arena.events = TileEvents::default();
            for &(t, offset) in &arena.done {
                let tile = self.tiles[t];
                Self::fold_tile(
                    &mut self.acc,
                    n,
                    tile,
                    &arena.acc_pool[offset..offset + tile.len()],
                );
            }
            if let Some(entry) = samples.as_mut() {
                for (count, &k) in arena.bl_counts.iter().enumerate().filter(|(_, &k)| k > 0) {
                    entry.hist.record_n(count as f64, k);
                    entry.seen += k;
                }
            }
        }
        let n_sub = prog.subarrays.len() as u64;
        let delta = prog.lut.delta;
        let phys = self.arch.physical_xbars_for_outputs(info.outputs) as u64;
        let layer = self.stats.layer_mut(info.mvm_index, &info.label);
        layer.conversions += events.conversions;
        layer.ops += events.ops;
        layer.windows += n as u64;
        layer.xbar_activations += n as u64 * ibits as u64 * n_sub * 2 * phys;
        layer.dac_activations += n as u64 * ibits as u64 * n_sub * 2 * phys;
        layer.buffer_bytes += (info.depth * n) as u64 + (info.outputs * n * 2) as u64;
        layer.sa_ops += events.conversions;
        layer.bus_bytes += (info.outputs * n) as u64;
        layer.max_count = layer.max_count.max(events.max_count);
        layer.max_abs_acc = layer.max_abs_acc.max(events.max_abs_acc);
        self.stats.baseline_ops += events.conversions * self.arch.adc_bits as u64;

        for (o, &v) in out.iter_mut().zip(self.acc.iter()) {
            *o = v as f64 * delta;
        }
    }

    fn begin_session(&mut self) {
        // warm the executor once per batch: spawn any missing pool
        // workers and size the arena slots, so every layer call of the
        // session dispatches onto already-parked threads
        let threads = self.arch.exec.effective_threads().max(1);
        while self.arenas.len() < threads {
            self.arenas.push(Mutex::new(WorkerArena::default()));
        }
        if threads > 1 && self.arch.exec.dispatch == Dispatch::Pool {
            self.pool.warm(threads);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ExecConfig;
    use trq_nn::ExactMvm;

    fn info(depth: usize, outputs: usize) -> MvmLayerInfo {
        MvmLayerInfo { node: 1, mvm_index: 0, label: "test".into(), depth, outputs }
    }

    fn arch() -> ArchConfig {
        ArchConfig::default()
    }

    #[test]
    fn ideal_scheme_matches_exact_engine() {
        let arch = arch();
        let info = info(150, 3); // spans two subarrays
        let mut state = 0x12345u64;
        let mut next = |m: i64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as i64 % m) as i32
        };
        let weights: Vec<i32> = (0..150 * 3).map(|_| next(255) - 127).collect();
        let cols: Vec<u8> = (0..150 * 4).map(|_| next(256) as u8).collect();
        let mut pim = PimMvm::new(arch, vec![AdcScheme::Ideal]);
        let got = pim.mvm(&info, &weights, &cols, 4);
        let want = ExactMvm.mvm(&info, &weights, &cols, 4);
        assert_eq!(got, want, "ideal crossbar datapath must be exact");
    }

    #[test]
    fn threaded_tiles_are_bit_identical_to_serial() {
        let serial_arch = arch();
        let mut threaded_arch = arch();
        threaded_arch.exec =
            ExecConfig::serial().with_threads(4).with_tile_outputs(2).with_tile_windows(3);
        let info = info(200, 5); // two subarrays, ragged tiles
        let mut state = 0xFEEDu64;
        let mut next = |m: i64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as i64 % m) as i32
        };
        let weights: Vec<i32> = (0..200 * 5).map(|_| next(255) - 127).collect();
        let cols: Vec<u8> = (0..200 * 7).map(|_| next(256) as u8).collect();
        let params = trq_quant::TrqParams::new(3, 7, 1, 1.0, 0).unwrap();
        let mut serial = PimMvm::new(serial_arch, vec![AdcScheme::Trq(params)]);
        let mut threaded = PimMvm::new(threaded_arch, vec![AdcScheme::Trq(params)]);
        let a = serial.mvm(&info, &weights, &cols, 7);
        let b = threaded.mvm(&info, &weights, &cols, 7);
        assert_eq!(a, b, "thread count must never change results");
        assert_eq!(serial.stats(), threaded.stats(), "event ledgers must agree exactly");
    }

    #[test]
    fn conversions_match_eq3_prediction() {
        let arch = arch();
        let info = info(150, 3);
        let weights = vec![1i32; 150 * 3];
        let cols = vec![1u8; 150 * 5];
        let mut pim = PimMvm::new(arch, vec![AdcScheme::Ideal]);
        let _ = pim.mvm(&info, &weights, &cols, 5);
        let expect = 5 * arch.conversions_per_window(150, 3);
        assert_eq!(pim.stats().conversions(), expect);
        assert_eq!(pim.stats().ops(), expect * 8);
        assert_eq!(pim.stats().remaining_ops_ratio(), 1.0);
    }

    #[test]
    fn trq_scheme_reduces_ops_on_skewed_counts() {
        let arch = arch();
        let info = info(128, 2);
        // sparse weights and inputs → small BL counts → early birds
        let mut weights = vec![0i32; 128 * 2];
        for i in 0..16 {
            weights[i * 2] = 3;
            weights[i * 2 + 1] = -2;
        }
        let cols: Vec<u8> = (0..128 * 3).map(|i| if i % 4 == 0 { 9 } else { 0 }).collect();
        let params = trq_quant::TrqParams::new(3, 7, 1, 1.0, 0).unwrap();
        let mut pim = PimMvm::new(arch, vec![AdcScheme::Trq(params)]);
        let _ = pim.mvm(&info, &weights, &cols, 3);
        let ratio = pim.stats().remaining_ops_ratio();
        assert!(ratio < 0.7, "skewed counts should early-bird: ratio {ratio}");
    }

    #[test]
    fn trq_ideal_config_is_lossless() {
        // ΔR1 = 1, NR2 + M = Rideal, bias = 0 (Eq. 11): reconstruction is
        // exact for every possible count, so results equal the exact engine
        let arch = arch();
        let info = info(100, 2);
        let mut state = 7u64;
        let mut next = |m: i64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as i64 % m) as i32
        };
        let weights: Vec<i32> = (0..100 * 2).map(|_| next(255) - 127).collect();
        let cols: Vec<u8> = (0..100 * 3).map(|_| next(256) as u8).collect();
        // counts ≤ 100 < 128 → Rideal = 8 with ΔR1 = 1; NR2 = 4, M = 4
        let params = trq_quant::TrqParams::new(8, 4, 4, 1.0, 0).unwrap();
        let mut pim = PimMvm::new(arch, vec![AdcScheme::Trq(params)]);
        let got = pim.mvm(&info, &weights, &cols, 3);
        // NR1 = 8 covers [0,256) at Δ=1 → all counts are early birds with
        // exact reconstruction
        let want = ExactMvm.mvm(&info, &weights, &cols, 3);
        assert_eq!(got, want);
    }

    #[test]
    fn collector_gathers_bl_distribution() {
        let arch = arch();
        let info = info(64, 2);
        let weights: Vec<i32> = (0..64 * 2).map(|i| (i % 5) - 2).collect();
        let cols: Vec<u8> = (0..64 * 4).map(|i| (i % 7) as u8 * 30).collect();
        let mut pim = PimMvm::collector(arch);
        let _ = pim.mvm(&info, &weights, &cols, 4);
        let samples = pim.take_samples();
        assert_eq!(samples.len(), 1);
        let s = &samples[0];
        assert!(s.seen > 0);
        assert_eq!(s.hist.count(), s.seen);
        // every conversion of the layer is one BL sample
        assert_eq!(s.seen, pim.stats().conversions());
        // BL counts are bounded by the array rows
        assert!(s.hist.sample_max() <= 128.0);
    }

    /// Collects one layer with a threaded engine config, ragged tiles.
    fn collect_at(threads: usize) -> LayerSamples {
        let mut arch = arch();
        arch.exec = ExecConfig::serial().with_threads(threads).with_tile_outputs(2);
        let info = info(200, 5);
        let weights: Vec<i32> = (0..200 * 5).map(|i: i32| ((i * 7) % 255) - 127).collect();
        let cols: Vec<u8> = (0..200 * 5).map(|i| ((i * 13) % 256) as u8).collect();
        let mut pim = PimMvm::collector(arch);
        let _ = pim.mvm(&info, &weights, &cols, 5);
        let _ = pim.mvm(&info, &weights, &cols[..200 * 4], 4);
        pim.take_samples().remove(0)
    }

    #[test]
    fn collector_is_deterministic_even_with_threads_requested() {
        let (a, b) = (collect_at(4), collect_at(4));
        assert_eq!(a.hist, b.hist, "histogram must be reproducible");
        assert_eq!(a.seen, b.seen);
        assert_eq!(a.seen, a.hist.count());
        assert_eq!(a.hist.counts().iter().sum::<u64>(), a.seen);
    }

    #[test]
    fn collector_histogram_is_identical_at_every_thread_count() {
        let serial = collect_at(1);
        assert!(serial.seen > 1000, "stream must span many tiles: {}", serial.seen);
        for threads in [2, 4] {
            let threaded = collect_at(threads);
            // counts and moments alike: `Histogram` equality compares the
            // f64 moment sums bit for bit
            assert_eq!(threaded.hist, serial.hist, "{threads} threads changed the histogram");
            assert_eq!(threaded.seen, threaded.hist.count());
        }
    }

    #[test]
    fn count_dist_answers_window_and_mse_queries() {
        let mut hist = Histogram::new(0.0, 9.0, 9).unwrap();
        let samples = [0.0, 0.0, 1.0, 3.0, 3.0, 3.0, 8.0];
        hist.extend(samples);
        let samples_view = LayerSamples { mvm_index: 0, label: "t".into(), hist, seen: 7 };
        let dist = samples_view.distribution();
        assert_eq!(dist.total(), 7);
        assert_eq!(dist.below(0.0), 0);
        assert_eq!(dist.below(0.5), 2);
        assert_eq!(dist.below(3.0), 3);
        assert_eq!(dist.below(3.5), 6);
        assert_eq!(dist.below(100.0), 7);
        let halve = |x: f64| (x / 2.0).floor() * 2.0;
        let want = trq_quant::quantizer_mse(&samples, halve);
        assert!((dist.mse(halve) - want).abs() <= 1e-12 * want);
    }

    #[test]
    fn stats_reset_keeps_programming() {
        let arch = arch();
        let info = info(10, 1);
        let weights = vec![1i32; 10];
        let cols = vec![1u8; 10];
        let mut pim = PimMvm::new(arch, vec![AdcScheme::Ideal]);
        let _ = pim.mvm(&info, &weights, &cols, 1);
        assert!(pim.stats().conversions() > 0);
        pim.reset_stats();
        assert_eq!(pim.stats().conversions(), 0);
        let _ = pim.mvm(&info, &weights, &cols, 1);
        assert!(pim.stats().conversions() > 0);
    }
}
