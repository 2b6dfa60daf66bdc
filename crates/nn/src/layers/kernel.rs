//! Register-tiled, order-preserving `f32` kernels shared by [`super::Dense`]
//! and [`super::Conv1d`].
//!
//! Rust never contracts `a * b + c` into a fused multiply-add and never
//! reassociates float additions, so a loop nest may run in any order as
//! long as every output element receives the same additions in the same
//! order. These kernels keep each element's addition chain serial and run
//! [`LANES`] independent chains side by side in `[f32; LANES]` chunks, which
//! LLVM maps onto vector registers at the baseline target. Lanes past the
//! end of a layer's outputs compute throwaway values that callers never
//! store.
//!
//! The per-element loops are plain `while` loops over fixed-size arrays;
//! closures and iterators are stepped only once per row, sample or input
//! index. Optimised builds vectorise these loops just as they would
//! iterator chains, while unoptimised builds (`cargo test`) make no
//! function call per multiply-add, which keeps the end-to-end tests fast.

/// Width of one accumulator chunk.
pub(crate) const LANES: usize = 8;

/// One accumulator chunk: `LANES` independent addition chains.
pub(crate) type Lanes = [f32; LANES];

/// Reusable buffers of the batched kernels, shared by every layer one
/// trainer runs: a call fills what it uses and nothing outlives the call,
/// so no layer keeps a derived copy of its weights between calls.
#[derive(Debug, Clone, Default)]
pub(crate) struct KernelScratch {
    /// Weights transposed into output chunks (forward).
    pub(crate) wt: Vec<Lanes>,
    /// Transposed weight-gradient accumulators (backward).
    pub(crate) acc: Vec<Lanes>,
    /// Per-sample output-gradient chunks (backward).
    pub(crate) gs: Vec<Lanes>,
}

/// Inputs per dot-product tile and input columns per outer-product tile.
const TILE: usize = 4;

/// `acc[j] += c[j] · x` for every lane.
#[inline(always)]
fn axpy(acc: &mut Lanes, c: &Lanes, x: f32) {
    let mut j = 0;
    while j < LANES {
        acc[j] += c[j] * x;
        j += 1;
    }
}

/// The first `src.len() ≤ LANES` values of `src` as a chunk, zero-padded.
#[inline(always)]
pub(crate) fn lanes_of(src: &[f32]) -> Lanes {
    match src.first_chunk::<LANES>() {
        Some(full) => *full,
        None => {
            let mut out = [0.0; LANES];
            out[..src.len()].copy_from_slice(src);
            out
        }
    }
}

/// Writes the first `dst.len() ≤ LANES` lanes of `chunk` to `dst` (a whole
/// chunk as one fixed-size copy, not a `memcpy` call).
#[inline(always)]
pub(crate) fn store_lanes(dst: &mut [f32], chunk: &Lanes) {
    match dst.first_chunk_mut::<LANES>() {
        Some(full) => *full = *chunk,
        None => dst.copy_from_slice(&chunk[..dst.len()]),
    }
}

/// Value `k` of every row of `rows` as one chunk: lane `j` is `rows[j][k]`.
#[inline(always)]
pub(crate) fn gather(rows: &[&[f32]; LANES], k: usize) -> Lanes {
    let mut out = [0.0; LANES];
    let mut j = 0;
    while j < LANES {
        out[j] = rows[j][k];
        j += 1;
    }
    out
}

/// Adds every chunk of `chunks`, in order, onto `dst` (at most [`LANES`]
/// values; lane `j` onto `dst[j]`).
pub(crate) fn add_chunks(dst: &mut [f32], chunks: &[Lanes]) {
    let mut acc = lanes_of(dst);
    for c in chunks {
        let mut j = 0;
        while j < LANES {
            acc[j] += c[j];
            j += 1;
        }
    }
    store_lanes(dst, &acc);
}

/// Appends `rows` (at most [`LANES`] rows of `stride` values each)
/// transposed: chunk `t` holds value `t` of every row, zero-padded.
pub(crate) fn push_transposed(out: &mut Vec<Lanes>, rows: &[f32], stride: usize) {
    let base = out.len();
    out.resize(base + stride, [0.0; LANES]);
    let out = &mut out[base..base + stride];
    for (j, row) in rows.chunks_exact(stride).enumerate() {
        let mut t = 0;
        while t < stride {
            out[t][j] = row[t];
            t += 1;
        }
    }
}

/// The inverse of [`push_transposed`]: lane `j` of `chunks[t]` becomes
/// value `t` of row `j` of `rows`.
pub(crate) fn store_transposed(chunks: &[Lanes], rows: &mut [f32], stride: usize) {
    let chunks = &chunks[..stride];
    for (j, row) in rows.chunks_exact_mut(stride).enumerate() {
        let mut t = 0;
        while t < stride {
            row[t] = chunks[t][j];
            t += 1;
        }
    }
}

/// Dot-product tile: for each input `xs[r]`, lane `j` of the result is
/// `init[j] + c_0[j]·x[0] + c_1[j]·x[1] + …`, added left to right, where
/// `cols` yields the weight chunk `c_k` for every input index `k`.
#[inline(always)]
fn dot_tile<const R: usize>(
    xs: [&[f32]; R],
    init: Lanes,
    cols: impl Iterator<Item = Lanes>,
) -> [Lanes; R] {
    let mut acc = [init; R];
    for (k, c) in cols.enumerate() {
        let mut r = 0;
        while r < R {
            axpy(&mut acc[r], &c, xs[r][k]);
            r += 1;
        }
    }
    acc
}

/// Runs [`dot_tile`] over the `n` inputs `x(0), …, x(n - 1)`, [`TILE`] at a
/// time and then one at a time, handing each input's chunk to
/// `put(r, chunk)`. Every tile makes its own pass over a clone of `cols`.
#[inline(always)]
pub(crate) fn dot_rows<'x>(
    n: usize,
    x: impl Fn(usize) -> &'x [f32],
    init: Lanes,
    cols: impl Iterator<Item = Lanes> + Clone,
    mut put: impl FnMut(usize, &Lanes),
) {
    let mut r = 0;
    while r + TILE <= n {
        let acc = dot_tile::<TILE>([x(r), x(r + 1), x(r + 2), x(r + 3)], init, cols.clone());
        for (t, a) in acc.iter().enumerate() {
            put(r + t, a);
        }
        r += TILE;
    }
    while r < n {
        let [a] = dot_tile::<1>([x(r)], init, cols.clone());
        put(r, &a);
        r += 1;
    }
}

/// Outer-product tile over columns `t0..t0 + T`: see [`outer_acc`].
#[inline(always)]
fn outer_tile<'a, const T: usize>(
    acc: &mut [Lanes],
    t0: usize,
    (n, m_len): (usize, usize),
    gs: &[Lanes],
    x: &impl Fn(usize) -> &'a [f32],
) {
    let mut tile = [[0.0; LANES]; T];
    tile.copy_from_slice(&acc[t0..t0 + T]);
    let mut s = 0;
    for r in 0..n {
        let x_r = x(r);
        for m in 0..m_len {
            let x_s = &x_r[m + t0..m + t0 + T];
            let mut t = 0;
            while t < T {
                axpy(&mut tile[t], &gs[s], x_s[t]);
                t += 1;
            }
            s += 1;
        }
    }
    acc[t0..t0 + T].copy_from_slice(&tile);
}

/// Accumulates `acc[t][j] += g[j] · x[t]` over the samples of `n` rows of
/// `m_len` positions each, in row order and then position order, for all
/// columns `t < acc.len()`: sample `(r, m)` has gradient chunk
/// `gs[r * m_len + m]` and input `x = x(r)[m..]`, which holds at least
/// `acc.len()` values. So each accumulator adds its terms in sample order.
/// Columns are tiled [`TILE`] at a time so each tile's accumulators stay in
/// registers for the whole pass.
#[inline(always)]
pub(crate) fn outer_acc<'a>(
    acc: &mut [Lanes],
    (n, m_len): (usize, usize),
    gs: &[Lanes],
    x: impl Fn(usize) -> &'a [f32],
) {
    debug_assert_eq!(gs.len(), n * m_len);
    let mut t = 0;
    while t + TILE <= acc.len() {
        outer_tile::<TILE>(acc, t, (n, m_len), gs, &x);
        t += TILE;
    }
    while t < acc.len() {
        outer_tile::<1>(acc, t, (n, m_len), gs, &x);
        t += 1;
    }
}
