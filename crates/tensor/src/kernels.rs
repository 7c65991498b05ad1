//! Register-tiled, pool-parallel matrix-multiply kernels for the dense
//! layers and the low-rank compressors.
//!
//! Determinism contract: every output element is accumulated in exactly
//! the order of the scalar loops (the serial references in the tests
//! below) — over the shared index in ascending order, one separate
//! multiply and one add per step, starting from the same value. No fused
//! multiply-add, no reassociation, no split accumulators.
//!
//! That rule makes one output's dot product a serial chain in which every
//! add waits for the previous one. The kernels get their speed across
//! *independent* outputs instead: each keeps an `MR × NR` tile of output
//! accumulators in registers and advances all of them by one step of the
//! shared index per iteration. The `NR` columns of a tile row are one
//! vector multiply and one vector add, which stable rustc autovectorizes
//! at the baseline x86-64 target, and the `MR` rows are independent
//! chains that hide the add latency. (`matmul_into` and `matmul_tn_into`
//! tile only outputs at most `NARROW_M` columns wide; a wider output row
//! is itself the vector, streamed once per step.) The pool partition
//! (which thread owns which output rows) and the tile an element falls in
//! decide only *where* its chain runs, never the order of its adds, so
//! results are bit-identical to the serial loops at every pool size. The
//! `*_serial_bitwise` tests below and the byte-identity proptests in
//! `acp-compression` pin this.

use crate::pool::{WorkerPool, PAR_THRESHOLD};

/// Output rows per `A·Bᵀ` register tile.
const NT_MR: usize = 4;
/// Output columns per `A·Bᵀ` register tile: the rows of `B` in one packed
/// panel.
const NT_NR: usize = 8;
/// Largest `B` (`k·m` elements, 64 KiB) `matmul_nt_into` packs whole, once
/// per task, so every output row block is written once.
const NT_PACK_ONCE: usize = 16 * 1024;
/// Output rows per narrow `A·B` / `Aᵀ·B` register tile.
const NARROW_MR: usize = 8;
/// Output columns per narrow `A·B` / `Aᵀ·B` register tile.
const NARROW_NR: usize = 4;
/// Rows of `A` (the shared dimension) per block of the narrow
/// `matmul_tn_into`: a task sweeps all its tiles over one block before the
/// next, so the block's rows of `A` stay in cache across its tiles.
const TN_PANEL_ROWS: usize = 64;
/// Widest output `matmul_into` and `matmul_tn_into` tile in registers
/// (the rank-`r` factor products). Wider outputs stream whole output rows,
/// whose inner loop already vectorizes along `m`.
const NARROW_M: usize = 16;

/// Task count for a kernel doing roughly `flops` multiply-adds.
fn tasks_for(pool: &WorkerPool, flops: usize) -> usize {
    if flops < PAR_THRESHOLD {
        1
    } else {
        pool.parallelism()
    }
}

/// A narrow-output product that [`narrow_rows`] walks tile by tile.
trait NarrowTiles: Sync {
    /// Accumulates output rows `row0..row0 + MR`, columns `j0..j0 + NR`
    /// onto `out`, which holds those `MR` whole output rows.
    fn tile<const MR: usize, const NR: usize>(&self, row0: usize, j0: usize, out: &mut [f32]);
}

/// Covers `piece` — whole output rows of width `m`, starting at output
/// row `row0` — with `NARROW_MR × NARROW_NR` tiles, and 1-row / 1-column
/// tiles on the remainders.
fn narrow_rows<T: NarrowTiles>(tiles: &T, row0: usize, m: usize, piece: &mut [f32]) {
    let mut blocks = piece.chunks_exact_mut(NARROW_MR * m);
    let mut row = row0;
    for block in &mut blocks {
        narrow_columns::<T, NARROW_MR>(tiles, row, m, block);
        row += NARROW_MR;
    }
    for out_row in blocks.into_remainder().chunks_exact_mut(m) {
        narrow_columns::<T, 1>(tiles, row, m, out_row);
        row += 1;
    }
}

/// Covers the `MR` output rows in `out` from left to right.
fn narrow_columns<T: NarrowTiles, const MR: usize>(
    tiles: &T,
    row0: usize,
    m: usize,
    out: &mut [f32],
) {
    let full = m - m % NARROW_NR;
    for j0 in (0..full).step_by(NARROW_NR) {
        tiles.tile::<MR, NARROW_NR>(row0, j0, out);
    }
    for j in full..m {
        tiles.tile::<MR, 1>(row0, j, out);
    }
}

/// Loads an `MR × NR` accumulator tile from `out` (row stride `m`).
#[inline(always)]
fn load_tile<const MR: usize, const NR: usize>(
    out: &[f32],
    m: usize,
    j0: usize,
) -> [[f32; NR]; MR] {
    std::array::from_fn(|r| std::array::from_fn(|c| out[r * m + j0 + c]))
}

/// Stores the first `width` columns of an accumulator tile into `out`.
#[inline(always)]
fn store_tile<const MR: usize, const NR: usize>(
    acc: &[[f32; NR]; MR],
    out: &mut [f32],
    m: usize,
    j0: usize,
    width: usize,
) {
    for (acc_row, out_row) in acc.iter().zip(out.chunks_exact_mut(m)) {
        out_row[j0..j0 + width].copy_from_slice(&acc_row[..width]);
    }
}

/// `A·B` tiles: output row `i` reads row `i` of `A`.
struct NnTiles<'a> {
    a: &'a [f32],
    b: &'a [f32],
    k: usize,
    m: usize,
}

impl NarrowTiles for NnTiles<'_> {
    #[inline(always)]
    fn tile<const MR: usize, const NR: usize>(&self, row0: usize, j0: usize, out: &mut [f32]) {
        let (k, m) = (self.k, self.m);
        let a_rows: [&[f32]; MR] =
            std::array::from_fn(|r| &self.a[(row0 + r) * k..(row0 + r + 1) * k]);
        let mut acc = load_tile::<MR, NR>(out, m, j0);
        for (kk, b_row) in self.b.chunks_exact(m).enumerate() {
            let b_seg = &b_row[j0..j0 + NR];
            for r in 0..MR {
                let av = a_rows[r][kk];
                if av == 0.0 {
                    continue;
                }
                for c in 0..NR {
                    acc[r][c] += av * b_seg[c];
                }
            }
        }
        store_tile(&acc, out, m, j0, NR);
    }
}

/// `Aᵀ·B` tiles: output row `c` reads column `c` of `A`.
struct TnTiles<'a> {
    a: &'a [f32],
    b: &'a [f32],
    k: usize,
    m: usize,
}

impl NarrowTiles for TnTiles<'_> {
    #[inline(always)]
    fn tile<const MR: usize, const NR: usize>(&self, row0: usize, j0: usize, out: &mut [f32]) {
        let (k, m) = (self.k, self.m);
        let mut acc = load_tile::<MR, NR>(out, m, j0);
        for (a_row, b_row) in self.a.chunks_exact(k).zip(self.b.chunks_exact(m)) {
            let a_seg = &a_row[row0..row0 + MR];
            let b_seg = &b_row[j0..j0 + NR];
            for r in 0..MR {
                let av = a_seg[r];
                if av == 0.0 {
                    continue;
                }
                for c in 0..NR {
                    acc[r][c] += av * b_seg[c];
                }
            }
        }
        store_tile(&acc, out, m, j0, NR);
    }
}

/// `out ← out + A·B` with `A: n×k`, `B: k×m`, `out: n×m`, all row-major
/// (callers pass a zeroed `out` for the plain product).
///
/// Output rows are split into per-task blocks. Each output element adds
/// `A[i][kk]·B[kk][j]` for ascending `kk`, skipping the steps where
/// `A[i][kk]` is zero, exactly like the serial kernel (the skip matters
/// for signed zeros, `-0.0 + 0.0 == +0.0`, and for infinite or NaN
/// entries of `B`). An output at most `NARROW_M` wide (the `M·Q` factor
/// product) is covered with `NARROW_MR × NARROW_NR` register tiles; a
/// wider one streams whole output rows.
///
/// # Panics
///
/// Panics if a slice length does not match its dimensions.
pub fn matmul_into(
    pool: &WorkerPool,
    n: usize,
    k: usize,
    m: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    assert_eq!(a.len(), n * k, "matmul lhs length mismatch");
    assert_eq!(b.len(), k * m, "matmul rhs length mismatch");
    assert_eq!(out.len(), n * m, "matmul out length mismatch");
    if n == 0 || m == 0 {
        return;
    }
    let tasks = tasks_for(pool, n * k * m);
    if m <= NARROW_M {
        let tiles = NnTiles { a, b, k, m };
        pool.for_each_unit_chunk_mut(out, m, tasks, |row0, piece| {
            narrow_rows(&tiles, row0, m, piece);
        });
        return;
    }
    pool.for_each_unit_chunk_mut(out, m, tasks, |row0, piece| {
        for (ri, out_row) in piece.chunks_exact_mut(m).enumerate() {
            let i = row0 + ri;
            for kk in 0..k {
                let av = a[i * k + kk];
                if av == 0.0 {
                    continue;
                }
                let b_row = &b[kk * m..kk * m + m];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    });
}

/// `out ← out + Aᵀ·B` with `A: n×k`, `B: n×m`, `out: k×m`, without
/// materializing the transpose (callers pass a zeroed `out` for the plain
/// product).
///
/// Parallelism splits the `k` output rows. Each output element adds
/// `A[row][c]·B[row][j]` for ascending `row`, skipping the steps where
/// `A[row][c]` is zero, exactly like the serial loop. An output at most
/// `NARROW_M` wide (the `Mᵀ·P` factor product) is covered with
/// `NARROW_MR × NARROW_NR` register tiles, one block of `TN_PANEL_ROWS`
/// rows of `A` and `B` at a time; a wider one streams whole output rows.
///
/// # Panics
///
/// Panics if a slice length does not match its dimensions.
pub fn matmul_tn_into(
    pool: &WorkerPool,
    n: usize,
    k: usize,
    m: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    assert_eq!(a.len(), n * k, "matmul_tn lhs length mismatch");
    assert_eq!(b.len(), n * m, "matmul_tn rhs length mismatch");
    assert_eq!(out.len(), k * m, "matmul_tn out length mismatch");
    if k == 0 || m == 0 {
        return;
    }
    let tasks = tasks_for(pool, n * k * m);
    if m <= NARROW_M {
        pool.for_each_unit_chunk_mut(out, m, tasks, |k0, piece| {
            // Row panels in ascending order keep every output chain
            // ascending; each tile reloads its accumulators per panel.
            let a_panels = a.chunks(TN_PANEL_ROWS * k);
            for (a, b) in a_panels.zip(b.chunks(TN_PANEL_ROWS * m)) {
                narrow_rows(&TnTiles { a, b, k, m }, k0, m, piece);
            }
        });
        return;
    }
    pool.for_each_unit_chunk_mut(out, m, tasks, |k0, piece| {
        for row in 0..n {
            let a_row = &a[row * k..row * k + k];
            let b_row = &b[row * m..row * m + m];
            for (kr, out_row) in piece.chunks_exact_mut(m).enumerate() {
                let av = a_row[k0 + kr];
                if av == 0.0 {
                    continue;
                }
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    });
}

/// `out ← A·Bᵀ` with `A: n×k`, `B: m×k`, `out: n×m`, without materializing
/// the transpose.
///
/// Each output element is one dot product accumulated from `+0.0` over
/// ascending `kk`, like the serial loop. Tasks own disjoint output rows.
/// A task copies rows of `B`, `NT_NR` at a time, into k-major panels, so
/// that one step of `kk` reads `NT_NR` adjacent values, and sweeps its
/// rows of `A` with an `NT_MR × NT_NR` accumulator tile over each panel:
/// `NT_MR · NT_NR` independent dot products advance together, one vector
/// multiply-then-add per tile row and step. This serves `Dense::forward`
/// (`x·Wᵀ`) and the `P̂·Qᵀ` reconstructions.
///
/// When all of `B` fits in `NT_PACK_ONCE` elements (the rank-`r`
/// reconstruction, `k = r`), a task packs every panel once and sweeps rows
/// of `A` outermost, writing each output row block once; otherwise it
/// packs one panel at a time and sweeps all its rows of `A` per panel.
///
/// # Panics
///
/// Panics if a slice length does not match its dimensions.
pub fn matmul_nt_into(
    pool: &WorkerPool,
    n: usize,
    k: usize,
    m: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    nt_tiled::<false>(pool, n, k, m, a, b, out);
}

/// `out ← out − A·Bᵀ`, the fused error-feedback update `E −= P·Qᵀ`: the
/// tiles and order of [`matmul_nt_into`], and each finished dot product
/// (accumulated from `+0.0`) is subtracted from its output element once,
/// so the result is bitwise equal to computing `A·Bᵀ` and subtracting it
/// element-wise.
///
/// # Panics
///
/// Panics if a slice length does not match its dimensions.
pub fn matmul_nt_sub_into(
    pool: &WorkerPool,
    n: usize,
    k: usize,
    m: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    nt_tiled::<true>(pool, n, k, m, a, b, out);
}

/// The shared `A·Bᵀ` tile loop: stores each dot product (`SUB = false`)
/// or subtracts it from the output (`SUB = true`).
fn nt_tiled<const SUB: bool>(
    pool: &WorkerPool,
    n: usize,
    k: usize,
    m: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    assert_eq!(a.len(), n * k, "matmul_nt lhs length mismatch");
    assert_eq!(b.len(), m * k, "matmul_nt rhs length mismatch");
    assert_eq!(out.len(), n * m, "matmul_nt out length mismatch");
    if n == 0 || m == 0 {
        return;
    }
    if k == 0 {
        // Every dot product is the empty sum +0.0.
        for o in out {
            if SUB {
                *o -= 0.0;
            } else {
                *o = 0.0;
            }
        }
        return;
    }
    let tasks = tasks_for(pool, n * k * m);
    let panels = m.div_ceil(NT_NR);
    let group = if k * m <= NT_PACK_ONCE { panels } else { 1 };
    pool.for_each_unit_chunk_mut(out, m, tasks, |i0, piece| {
        let a = &a[i0 * k..i0 * k + piece.len() / m * k];
        // packed[(p * k + kk) * NT_NR + c] = B[j0 + c][kk] for panel p of
        // the group starting at column j0 = (g0 + p) · NT_NR. Lanes at or
        // past a panel's width hold zeros or stale values from an earlier
        // group; their accumulators are never stored.
        let mut packed = vec![0.0f32; group * k * NT_NR];
        for g0 in (0..panels).step_by(group) {
            let g = group.min(panels - g0);
            let packed = &mut packed[..g * k * NT_NR];
            for (p, panel) in packed.chunks_exact_mut(k * NT_NR).enumerate() {
                let j0 = (g0 + p) * NT_NR;
                let width = NT_NR.min(m - j0);
                for (c, b_row) in b[j0 * k..(j0 + width) * k].chunks_exact(k).enumerate() {
                    for (slot, &bv) in panel[c..].iter_mut().step_by(NT_NR).zip(b_row) {
                        *slot = bv;
                    }
                }
            }
            let packed = &*packed;
            let mut a_blocks = a.chunks_exact(NT_MR * k);
            let mut out_blocks = piece.chunks_exact_mut(NT_MR * m);
            for (a_block, out_block) in (&mut a_blocks).zip(&mut out_blocks) {
                nt_row_block::<NT_MR, SUB>(a_block, k, packed, g0, m, out_block);
            }
            let a_rest = a_blocks.remainder().chunks_exact(k);
            for (a_row, out_row) in a_rest.zip(out_blocks.into_remainder().chunks_exact_mut(m)) {
                nt_row_block::<1, SUB>(a_row, k, packed, g0, m, out_row);
            }
        }
    });
}

/// The `MR` rows of `A` in `a` against every packed panel of a group whose
/// first panel starts at column `g0 · NT_NR`.
#[inline(always)]
fn nt_row_block<const MR: usize, const SUB: bool>(
    a: &[f32],
    k: usize,
    packed: &[f32],
    g0: usize,
    m: usize,
    out: &mut [f32],
) {
    for (p, panel) in packed.chunks_exact(k * NT_NR).enumerate() {
        let j0 = (g0 + p) * NT_NR;
        nt_tile::<MR, SUB>(a, k, panel, j0, NT_NR.min(m - j0), m, out);
    }
}

/// One `A·Bᵀ` tile: the `MR` rows of `A` in `a` against a packed panel,
/// stored to (or subtracted from) columns `j0..j0 + width` of the `MR`
/// output rows in `out`.
#[inline(always)]
fn nt_tile<const MR: usize, const SUB: bool>(
    a: &[f32],
    k: usize,
    panel: &[f32],
    j0: usize,
    width: usize,
    m: usize,
    out: &mut [f32],
) {
    let a_rows: [&[f32]; MR] = std::array::from_fn(|r| &a[r * k..(r + 1) * k]);
    let mut acc = [[0.0f32; NT_NR]; MR];
    for (kk, b_col) in panel.chunks_exact(NT_NR).enumerate() {
        for r in 0..MR {
            let av = a_rows[r][kk];
            for c in 0..NT_NR {
                acc[r][c] += av * b_col[c];
            }
        }
    }
    if SUB {
        for (acc_row, out_row) in acc.iter().zip(out.chunks_exact_mut(m)) {
            for (o, &v) in out_row[j0..j0 + width].iter_mut().zip(acc_row) {
                *o -= v;
            }
        }
    } else {
        store_tile(&acc, out, m, j0, width);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(len: usize, seed: u32) -> Vec<f32> {
        // Deterministic, sign-varied data with zeros and a signed zero
        // sprinkled in so the zero-skip path is exercised.
        let mut state = seed;
        (0..len)
            .map(|i| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                match state % 7 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => ((state >> 8) as f32 / (1 << 16) as f32) - 128.0 + i as f32 * 1e-3,
                }
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `out += A·B`, one output element at a time in ascending `kk`,
    /// skipping zero entries of `A`.
    fn serial_matmul(n: usize, k: usize, m: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        for i in 0..n {
            for kk in 0..k {
                let av = a[i * k + kk];
                if av == 0.0 {
                    continue;
                }
                for j in 0..m {
                    out[i * m + j] += av * b[kk * m + j];
                }
            }
        }
    }

    /// `out += Aᵀ·B`, ascending over the shared row index, skipping zero
    /// entries of `A`.
    fn serial_matmul_tn(n: usize, k: usize, m: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        for row in 0..n {
            for kk in 0..k {
                let av = a[row * k + kk];
                if av == 0.0 {
                    continue;
                }
                for j in 0..m {
                    out[kk * m + j] += av * b[row * m + j];
                }
            }
        }
    }

    /// `out = A·Bᵀ`, one sequential dot product per output element.
    fn serial_matmul_nt(n: usize, k: usize, m: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        for i in 0..n {
            for j in 0..m {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[j * k + kk];
                }
                out[i * m + j] = acc;
            }
        }
    }

    /// `out -= A·Bᵀ`, each dot product accumulated from `+0.0` and then
    /// subtracted once.
    fn serial_matmul_nt_sub(n: usize, k: usize, m: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        for i in 0..n {
            for j in 0..m {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[j * k + kk];
                }
                out[i * m + j] -= acc;
            }
        }
    }

    /// `matmul_nt_into` (from garbage) and `matmul_nt_sub_into` (from a
    /// non-zero start) on `pool` against the serial loops, bitwise.
    fn check_nt(pool: &WorkerPool, n: usize, k: usize, m: usize, a: &[f32], b: &[f32]) {
        let mut expected = vec![0.0f32; n * m];
        serial_matmul_nt(n, k, m, a, b, &mut expected);
        let mut out = vec![f32::NAN; n * m];
        matmul_nt_into(pool, n, k, m, a, b, &mut out);
        assert_eq!(bits(&out), bits(&expected), "matmul_nt {n}x{k}x{m}");

        let start = fill(n * m, (n * 5 + k * 3 + m) as u32);
        let mut expected = start.clone();
        serial_matmul_nt_sub(n, k, m, a, b, &mut expected);
        let mut out = start;
        matmul_nt_sub_into(pool, n, k, m, a, b, &mut out);
        assert_eq!(bits(&out), bits(&expected), "matmul_nt_sub {n}x{k}x{m}");
    }

    /// Runs all three kernels on `pool` against the serial loops, bitwise.
    /// `matmul_into`/`matmul_tn_into` start from a non-zero `out` (they
    /// accumulate onto it); `matmul_nt_into` from garbage (it overwrites).
    fn check_shape(pool: &WorkerPool, n: usize, k: usize, m: usize, a: &[f32], b_nn: &[f32]) {
        let seed = (n * 31 + k * 7 + m) as u32;
        let start = fill(n * m, seed);

        let mut expected = start.clone();
        serial_matmul(n, k, m, a, b_nn, &mut expected);
        let mut out = start.clone();
        matmul_into(pool, n, k, m, a, b_nn, &mut out);
        assert_eq!(bits(&out), bits(&expected), "matmul {n}x{k}x{m}");

        // Aᵀ·B with A: k×n reads the same buffer as an n-column matrix.
        let b_tn = fill(k * m, seed + 1);
        let mut expected = start.clone();
        serial_matmul_tn(k, n, m, a, &b_tn, &mut expected);
        let mut out = start.clone();
        matmul_tn_into(pool, k, n, m, a, &b_tn, &mut out);
        assert_eq!(bits(&out), bits(&expected), "matmul_tn {k}x{n}x{m}");

        let b_nt = fill(m * k, seed + 2);
        let mut expected = vec![0.0f32; n * m];
        serial_matmul_nt(n, k, m, a, &b_nt, &mut expected);
        let mut out = vec![f32::NAN; n * m];
        matmul_nt_into(pool, n, k, m, a, &b_nt, &mut out);
        assert_eq!(bits(&out), bits(&expected), "matmul_nt {n}x{k}x{m}");
    }

    #[test]
    fn matmul_matches_serial_bitwise_above_par_threshold() {
        // 64·64·64 = 262144 flops > PAR_THRESHOLD → parallel path.
        let (n, k, m) = (64, 64, 64);
        let a = fill(n * k, 1);
        let b = fill(k * m, 2);
        let mut expected = vec![0.0f32; n * m];
        serial_matmul(n, k, m, &a, &b, &mut expected);
        let pool = WorkerPool::new(4);
        let mut out = vec![0.0f32; n * m];
        matmul_into(&pool, n, k, m, &a, &b, &mut out);
        assert_eq!(bits(&out), bits(&expected));
    }

    #[test]
    fn matmul_tn_matches_transpose_then_matmul_bitwise() {
        let (n, k, m) = (48, 32, 40);
        let a = fill(n * k, 3);
        let b = fill(n * m, 4);
        let mut expected = vec![0.0f32; k * m];
        serial_matmul_tn(n, k, m, &a, &b, &mut expected);
        let pool = WorkerPool::new(3);
        let mut out = vec![0.0f32; k * m];
        matmul_tn_into(&pool, n, k, m, &a, &b, &mut out);
        assert_eq!(bits(&out), bits(&expected));
    }

    #[test]
    fn matmul_nt_matches_serial_dot_bitwise() {
        let (n, k, m) = (40, 64, 33);
        let a = fill(n * k, 5);
        let b = fill(m * k, 6);
        let mut expected = vec![0.0f32; n * m];
        serial_matmul_nt(n, k, m, &a, &b, &mut expected);
        let pool = WorkerPool::new(2);
        let mut out = vec![0.0f32; n * m];
        matmul_nt_into(&pool, n, k, m, &a, &b, &mut out);
        assert_eq!(bits(&out), bits(&expected));
    }

    #[test]
    fn tall_skinny_and_remainder_shapes_match_serial_bitwise() {
        // Every m around the tile widths, on both sides of the narrow
        // split, with n and k off every tile multiple. The larger shapes
        // cross PAR_THRESHOLD, so 1 and 3 workers really split rows.
        let pools = [WorkerPool::new(0), WorkerPool::new(1), WorkerPool::new(3)];
        for m in [1, 3, 4, 5, 8, 9, 15, 16, 17, 33] {
            for (n, k) in [(1, 1), (3, 7), (13, 5), (37, 19), (131, 61), (9, 301)] {
                let a = fill(n * k, (n * k + m) as u32);
                let b = fill(k * m, (n + k * m) as u32);
                for pool in &pools {
                    check_shape(pool, n, k, m, &a, &b);
                }
            }
        }
    }

    #[test]
    fn benchmark_layer_and_factor_shapes_match_serial_bitwise() {
        // 16×1024×1024: the dense layer's forward x·Wᵀ and backward dy·W,
        // dyᵀ·x. 1024×1024×4: the rank-4 factor products M·Q, Mᵀ·P and
        // the 1024×4·(1024×4)ᵀ reconstruction.
        let pools = [WorkerPool::new(0), WorkerPool::new(1), WorkerPool::new(3)];
        for (n, k, m) in [(16, 1024, 1024), (1024, 1024, 4), (1024, 4, 1024)] {
            let a = fill(n * k, 11);
            let b = fill(k * m, 12);
            for pool in &pools {
                check_shape(pool, n, k, m, &a, &b);
            }
        }
    }

    #[test]
    fn rank_r_reconstruction_and_fused_subtract_match_serial_bitwise() {
        // k = r: B fits in NT_PACK_ONCE, so a task packs every panel once
        // and sweeps rows of A outermost. m runs around multiples of NT_NR
        // and n off NT_MR; the larger shapes cross PAR_THRESHOLD, so 1 and
        // 3 workers really split rows.
        let pools = [WorkerPool::new(0), WorkerPool::new(1), WorkerPool::new(3)];
        for k in [1, 2, 3, 4, 5, 8, 16] {
            for m in [1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 64, 65] {
                for n in [1, 3, 5, 13, 37, 130] {
                    let a = fill(n * k, (n * k + m) as u32);
                    let b = fill(m * k, (n + k * m) as u32);
                    for pool in &pools {
                        check_nt(pool, n, k, m, &a, &b);
                    }
                }
            }
        }
        // The benchmark's rank-4 reconstruction, and B on both sides of
        // NT_PACK_ONCE (pack once vs one panel at a time).
        for (n, k, m) in [(1024, 4, 1024), (9, 128, 128), (9, 128, 129), (5, 64, 300)] {
            let a = fill(n * k, 21);
            let b = fill(m * k, 22);
            for pool in &pools {
                check_nt(pool, n, k, m, &a, &b);
            }
        }
    }

    #[test]
    fn narrow_tn_row_blocks_match_serial_bitwise() {
        // Shared dimensions below, at and around multiples of
        // TN_PANEL_ROWS: every output chain crosses the blocks in order.
        let pools = [WorkerPool::new(0), WorkerPool::new(1), WorkerPool::new(3)];
        for rows in [1, 63, 64, 65, 128, 129, 300] {
            for (k, m) in [(1, 1), (9, 4), (33, 5), (130, 16)] {
                let a = fill(rows * k, (rows + k) as u32);
                let b = fill(rows * m, (rows * m + 1) as u32);
                let start = fill(k * m, 3);
                let mut expected = start.clone();
                serial_matmul_tn(rows, k, m, &a, &b, &mut expected);
                for pool in &pools {
                    let mut out = start.clone();
                    matmul_tn_into(pool, rows, k, m, &a, &b, &mut out);
                    assert_eq!(bits(&out), bits(&expected), "matmul_tn {rows}x{k}x{m}");
                }
            }
        }
    }

    #[test]
    fn nt_kernels_propagate_signed_zeros_and_non_finite_rhs_like_serial() {
        // A·Bᵀ has no zero skip: every product enters its dot product, so
        // ±inf and NaN in B reach the output exactly as in the serial loop.
        let pools = [WorkerPool::new(0), WorkerPool::new(3)];
        for (n, k, m) in [(5, 4, 9), (13, 3, 17), (130, 4, 130)] {
            let a = fill(n * k, 31);
            let b: Vec<f32> = fill(m * k, 32)
                .into_iter()
                .enumerate()
                .map(|(i, v)| match i % 11 {
                    0 => f32::INFINITY,
                    4 => f32::NEG_INFINITY,
                    7 => f32::NAN,
                    9 => -0.0,
                    _ => v,
                })
                .collect();
            for pool in &pools {
                check_nt(pool, n, k, m, &a, &b);
                // All-signed-zero operands: each dot product is +0.0.
                check_nt(pool, n, k, m, &vec![-0.0; n * k], &vec![-0.0; m * k]);
            }
        }
    }

    #[test]
    fn signed_zeros_follow_the_serial_loops() {
        let pool = WorkerPool::new(1);
        let (n, k, m) = (9, 6, 5);
        // A is all zeros of both signs: the zero-skip leaves a -0.0 start
        // untouched, where adding 0·b would turn it into +0.0.
        let a: Vec<f32> = (0..n * k)
            .map(|i| if i % 2 == 0 { -0.0 } else { 0.0 })
            .collect();
        let b = vec![1.0f32; k * m];
        let mut out = vec![-0.0f32; n * m];
        matmul_into(&pool, n, k, m, &a, &b, &mut out);
        assert!(out.iter().all(|v| v.to_bits() == (-0.0f32).to_bits()));
        let mut out = vec![-0.0f32; k * m];
        matmul_tn_into(&pool, n, k, m, &a, &fill(n * m, 9), &mut out);
        assert!(out.iter().all(|v| v.to_bits() == (-0.0f32).to_bits()));
        // A dot product starts from +0.0, so (-0)·(+1) sums to +0.0.
        let mut out = vec![f32::NAN; n * m];
        matmul_nt_into(&pool, n, k, m, &a, &b, &mut out);
        assert!(out.iter().all(|v| v.to_bits() == 0.0f32.to_bits()));
        for m in [1, 4, 9] {
            let a = vec![-0.0f32; n * k];
            let b = vec![-0.0f32; k * m];
            check_shape(&pool, n, k, m, &a, &b);
        }
    }

    #[test]
    fn zero_lhs_entries_skip_non_finite_rhs_entries() {
        let pool = WorkerPool::new(1);
        for m in [3, 4, 8, 40] {
            let (n, k) = (11, 7);
            // Row kk of B is non-finite exactly where column kk of A is
            // zero; the skip keeps every output finite.
            let a: Vec<f32> = (0..n * k)
                .map(|i| if i % k == 2 || i % k == 5 { 0.0 } else { 1.5 })
                .collect();
            let b: Vec<f32> = (0..k * m)
                .map(|i| match (i / m, i % 3) {
                    (2, 0) => f32::INFINITY,
                    (2, _) => f32::NEG_INFINITY,
                    (5, _) => f32::NAN,
                    _ => 0.25,
                })
                .collect();
            let mut out = vec![0.0f32; n * m];
            matmul_into(&pool, n, k, m, &a, &b, &mut out);
            assert!(out.iter().all(|v| v.is_finite()), "matmul m={m}");
            // Same pattern for Aᵀ·B: rows of B against rows of A.
            let at: Vec<f32> = (0..k * n)
                .map(|i| if i / n == 2 || i / n == 5 { 0.0 } else { 1.5 })
                .collect();
            let mut out = vec![0.0f32; n * m];
            matmul_tn_into(&pool, k, n, m, &at, &b, &mut out);
            assert!(out.iter().all(|v| v.is_finite()), "matmul_tn m={m}");
            check_shape(&pool, n, k, m, &a, &b);
        }
    }

    #[test]
    fn empty_dims_are_no_ops() {
        let pool = WorkerPool::new(1);
        let mut out: Vec<f32> = Vec::new();
        matmul_into(&pool, 0, 4, 0, &[], &[], &mut out);
        matmul_tn_into(&pool, 4, 0, 0, &fill(0, 7), &[], &mut out);
        matmul_nt_into(&pool, 0, 3, 0, &[], &[], &mut out);
        matmul_nt_sub_into(&pool, 0, 3, 0, &[], &[], &mut out);
        assert!(out.is_empty());
        // A zero-length shared dimension leaves A·B and Aᵀ·B untouched and
        // makes every A·Bᵀ dot product an empty sum.
        for m in [1, 4, 9] {
            check_shape(&pool, 5, 0, m, &[], &[]);
            check_nt(&pool, 5, 0, m, &[], &[]);
        }
    }
}
