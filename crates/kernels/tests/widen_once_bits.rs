//! Widen-once kernels are bit-identical to the per-element loops they
//! replaced.
//!
//! The CPU numeric kernels widen each operand once into a contiguous `f32` /
//! `f64` buffer and store K (and the `B` of `matmul_transpose_b`)
//! reduction-major, so the inner loop runs across output columns while every
//! output still sums its terms in the original order (DESIGN.md §18). This
//! suite keeps the previous loops — one `Matrix::get(..).to_f32()` /
//! `.to_f64()` per operand per multiply-accumulate — as test-only reference
//! functions and compares the raw bits of every output element, at 1 and 4
//! pool workers, for `F16`, `f32` and `f64`.
//!
//! Cases cover L ∈ {48, 128, 256}, T ∈ {16, 64} (where T divides L) and
//! d_head ∈ {1, 24, 64} (see [`shapes`]), each under three masks: none,
//! causal, and causal with one fully masked row. The masks put zeros in P, and the suite also zeroes
//! whole rows of X', so the `p == 0.0` skips in the P·V loops run. Under
//! Miri only the L = 48, d_head ≤ 24 cases run.

use std::sync::Mutex;

use resoftmax_fp16::F16;
use resoftmax_kernels::{
    apply_mask, bs_online_attention, causal_mask, fused_gs_pv, fused_qk_ls, inter_reduce, linear,
    online_attention, reference_attention, softmax_rows,
};
use resoftmax_parallel::set_thread_override;
use resoftmax_sparse::{pattern, BigBirdConfig, BlockLayout};
use resoftmax_tensor::{
    matmul, matmul_transpose_b, randn_matrix, scale as scale_op, Matrix, Scalar,
};

/// Raw bit pattern of an element, so `-0.0` vs `+0.0` or a NaN payload
/// difference fails the comparison.
trait Bits: Scalar {
    fn bits(self) -> u64;
}

impl Bits for F16 {
    fn bits(self) -> u64 {
        u64::from(self.to_bits())
    }
}

impl Bits for f32 {
    fn bits(self) -> u64 {
        u64::from(self.to_bits())
    }
}

impl Bits for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

fn assert_bits<T: Bits>(label: &str, want: &Matrix<T>, got: &Matrix<T>) {
    assert_eq!(want.shape(), got.shape(), "{label}: shape");
    for (i, (w, g)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
        assert_eq!(
            w.bits(),
            g.bits(),
            "{label}: element {i} differs ({w} vs {g})"
        );
    }
}

// ---- The per-element loops the widen-once kernels replaced ----------------

fn old_matmul<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    Matrix::from_fn(a.rows(), b.cols(), |i, j| {
        let mut acc = 0.0f64;
        for p in 0..a.cols() {
            acc += a.get(i, p).to_f64() * b.get(p, j).to_f64();
        }
        T::from_f64(acc)
    })
}

fn old_matmul_transpose_b<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    Matrix::from_fn(a.rows(), b.rows(), |i, j| {
        let mut acc = 0.0f64;
        for p in 0..a.cols() {
            acc += a.get(i, p).to_f64() * b.get(j, p).to_f64();
        }
        T::from_f64(acc)
    })
}

/// Returns `(x', m', d')`.
fn old_fused_qk_ls<T: Scalar>(
    q: &Matrix<T>,
    k: &Matrix<T>,
    t: usize,
    scale: f64,
    mask: Option<&[bool]>,
) -> (Matrix<T>, Matrix<T>, Matrix<T>) {
    let l = q.rows();
    let n_sv = l / t;
    let d_head = q.cols();
    let mut x_prime = Matrix::zeros(l, l);
    let mut m_prime = Matrix::zeros(l, n_sv);
    let mut d_prime = Matrix::zeros(l, n_sv);
    for r in 0..l {
        for sv in 0..n_sv {
            let mut acc = vec![0.0f32; t];
            for (j, a) in acc.iter_mut().enumerate() {
                let c = sv * t + j;
                let mut s = 0.0f32;
                for p in 0..d_head {
                    s += q.get(r, p).to_f32() * k.get(c, p).to_f32();
                }
                *a = s;
            }
            let mut m = f32::NEG_INFINITY;
            for (j, a) in acc.iter_mut().enumerate() {
                *a *= scale as f32;
                if let Some(mk) = mask {
                    if !mk[r * l + sv * t + j] {
                        *a = f32::NEG_INFINITY;
                    }
                }
                m = m.max(*a);
            }
            if m == f32::NEG_INFINITY {
                m_prime.set(r, sv, T::neg_infinity());
                continue;
            }
            let mut d = 0.0f32;
            for a in &acc {
                d += (a - m).exp();
            }
            for (j, a) in acc.iter().enumerate() {
                x_prime.set(r, sv * t + j, T::from_f64(((a - m).exp() / d) as f64));
            }
            m_prime.set(r, sv, T::from_f64(m as f64));
            d_prime.set(r, sv, T::from_f64(d as f64));
        }
    }
    (x_prime, m_prime, d_prime)
}

fn old_fused_gs_pv<T: Scalar>(
    x_prime: &Matrix<T>,
    r_prime: &Matrix<T>,
    v: &Matrix<T>,
    t: usize,
) -> Matrix<T> {
    let d_head = v.cols();
    let mut out = Matrix::zeros(x_prime.rows(), d_head);
    for r in 0..x_prime.rows() {
        let mut acc = vec![0.0f32; d_head];
        for k in 0..x_prime.cols() {
            let rk = r_prime.get(r, k / t).to_f32();
            let p = T::from_f32(x_prime.get(r, k).to_f32() * rk);
            let pf = p.to_f32();
            if pf == 0.0 {
                continue;
            }
            for (j, a) in acc.iter_mut().enumerate() {
                *a += pf * v.get(k, j).to_f32();
            }
        }
        for (j, a) in acc.iter().enumerate() {
            out.set(r, j, T::from_f64(f64::from(*a)));
        }
    }
    out
}

/// `scores` is `old_matmul_transpose_b(q, k)`, shared across masks.
fn old_reference_attention<T: Scalar>(
    scores: &Matrix<T>,
    v: &Matrix<T>,
    scale: f64,
    mask: Option<&[bool]>,
) -> Matrix<T> {
    let scaled = scale_op(scores, scale);
    let masked = match mask {
        Some(m) => apply_mask(&scaled, m),
        None => scaled,
    };
    let p = softmax_rows(&masked);
    let d_head = v.cols();
    let mut out = Matrix::zeros(p.rows(), d_head);
    for r in 0..p.rows() {
        let mut acc = vec![0.0f32; d_head];
        for c in 0..p.cols() {
            let pv = p.get(r, c).to_f32();
            if pv == 0.0 {
                continue;
            }
            for (j, a) in acc.iter_mut().enumerate() {
                *a += pv * v.get(c, j).to_f32();
            }
        }
        for (j, a) in acc.iter().enumerate() {
            out.set(r, j, T::from_f64(f64::from(*a)));
        }
    }
    out
}

/// The online recurrence over one row's K/V tiles, each given by its
/// columns, with an optional mask row. The old block-sparse kernel had no
/// mask and no `-inf` checks; on finite scores those checks never fire, so
/// this one loop is the reference for both kernels.
fn old_online_row<T: Scalar>(
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    r: usize,
    tiles: &[std::ops::Range<usize>],
    scale: f64,
    mask_row: Option<&[bool]>,
) -> Vec<T> {
    let d_out = v.cols();
    let mut m_run = f32::NEG_INFINITY;
    let mut d_run = 0.0f32;
    let mut acc = vec![0.0f32; d_out];
    for cols in tiles {
        let mut s = vec![0.0f32; cols.len()];
        let mut m_tile = f32::NEG_INFINITY;
        for (sj, c) in s.iter_mut().zip(cols.clone()) {
            let mut dot = 0.0f32;
            for p in 0..q.cols() {
                dot += q.get(r, p).to_f32() * k.get(c, p).to_f32();
            }
            dot *= scale as f32;
            if mask_row.is_some_and(|mk| !mk[c]) {
                dot = f32::NEG_INFINITY;
            }
            *sj = dot;
            m_tile = m_tile.max(dot);
        }
        if m_tile == f32::NEG_INFINITY {
            continue;
        }
        let m_new = m_run.max(m_tile);
        let alpha = if m_run == f32::NEG_INFINITY {
            0.0
        } else {
            (m_run - m_new).exp()
        };
        let mut d_tile = 0.0f32;
        let mut pv = vec![0.0f32; d_out];
        for (&sj, c) in s.iter().zip(cols.clone()) {
            if sj == f32::NEG_INFINITY {
                continue;
            }
            let e = (sj - m_new).exp();
            d_tile += e;
            for (o, p) in pv.iter_mut().enumerate() {
                *p += e * v.get(c, o).to_f32();
            }
        }
        d_run = d_run * alpha + d_tile;
        for (a, p) in acc.iter_mut().zip(&pv) {
            *a = *a * alpha + p;
        }
        m_run = m_new;
    }
    if d_run > 0.0 {
        acc.iter()
            .map(|a| T::from_f64((a / d_run) as f64))
            .collect()
    } else {
        vec![T::zero(); d_out]
    }
}

fn old_online_attention<T: Scalar>(
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    t: usize,
    scale: f64,
    mask: Option<&[bool]>,
) -> Matrix<T> {
    let l = q.rows();
    let tiles: Vec<_> = (0..l / t).map(|i| i * t..(i + 1) * t).collect();
    let rows: Vec<Vec<T>> = (0..l)
        .map(|r| {
            let mask_row = mask.map(|m| &m[r * l..(r + 1) * l]);
            old_online_row(q, k, v, r, &tiles, scale, mask_row)
        })
        .collect();
    Matrix::from_fn(l, v.cols(), |r, c| rows[r][c])
}

fn old_bs_online_attention<T: Scalar>(
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    layout: &BlockLayout,
    scale: f64,
) -> Matrix<T> {
    let b = layout.block();
    let rows: Vec<Vec<T>> = (0..layout.seq_len())
        .map(|r| {
            let tiles: Vec<_> = layout
                .row_blocks(r / b)
                .into_iter()
                .map(|bc| bc * b..(bc + 1) * b)
                .collect();
            old_online_row(q, k, v, r, &tiles, scale, None)
        })
        .collect();
    Matrix::from_fn(layout.seq_len(), v.cols(), |r, c| rows[r][c])
}

fn old_linear<T: Scalar>(x: &Matrix<T>, w: &Matrix<T>, b: &[T]) -> Matrix<T> {
    Matrix::from_fn(x.rows(), w.cols(), |r, j| {
        let mut acc = 0.0f32;
        for (p, x) in x.row(r).iter().enumerate() {
            acc += x.to_f32() * w.get(p, j).to_f32();
        }
        T::from_f64(acc as f64 + b[j].to_f64())
    })
}

// ---- The sweep -------------------------------------------------------------

/// `(L, T, d_head)` cases. Every T ∈ {16, 64} that divides L meets every
/// d_head ∈ {1, 24, 64} at L ≤ 128; an L = 256 case costs four L = 128
/// cases in a debug build, so L = 256 takes one T per d_head.
fn shapes() -> Vec<(usize, usize, usize)> {
    if cfg!(miri) {
        return vec![(48, 16, 1), (48, 16, 24)];
    }
    let mut out = Vec::new();
    for (l, ts) in [(48, &[16][..]), (128, &[16, 64][..])] {
        for &t in ts {
            for d in [1, 24, 64] {
                out.push((l, t, d));
            }
        }
    }
    out.extend([(256, 64, 1), (256, 16, 24), (256, 64, 64)]);
    out
}

/// No mask, causal, and causal with row `L/2` fully masked.
fn masks(l: usize) -> [(&'static str, Option<Vec<bool>>); 3] {
    let mut masked_row = causal_mask(l);
    masked_row[l / 2 * l..(l / 2 + 1) * l].fill(false);
    [
        ("unmasked", None),
        ("causal", Some(causal_mask(l))),
        ("causal+masked-row", Some(masked_row)),
    ]
}

/// A BigBird layout whose last block-row keeps no block, so its rows take
/// the no-retained-block path.
fn layout_with_empty_row(l: usize, t: usize, seed: u64) -> BlockLayout {
    let mut layout = pattern::bigbird(
        l,
        &BigBirdConfig {
            block: t,
            random_blocks: 1,
            seed,
            ..Default::default()
        },
    );
    let last = layout.n_blocks() - 1;
    for bc in 0..layout.n_blocks() {
        layout.set(last, bc, false);
    }
    layout
}

/// Runs `f` at 1 and then 4 pool workers. The worker override is
/// process-global, so the runs hold one lock.
fn at_thread_counts(f: impl Fn(usize)) {
    static GUARD: Mutex<()> = Mutex::new(());
    let _g = GUARD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for threads in [1, 4] {
        set_thread_override(Some(threads));
        f(threads);
    }
    set_thread_override(None);
}

fn sweep<T: Bits>() {
    for (case, (l, t, d)) in shapes().into_iter().enumerate() {
        check_shape::<T>(l, t, d, case as u64 * 10);
    }
}

/// Checks every kernel at one shape: the mask-independent ones once, the
/// masked ones under each of [`masks`]. References are computed once, new
/// kernels at 1 and 4 workers.
fn check_shape<T: Bits>(l: usize, t: usize, d: usize, seed: u64) {
    let shape = format!("{} L={l} T={t} d={d}", T::NAME);
    let scale = 1.0 / (d as f64).sqrt();
    let q = randn_matrix::<T>(l, d, 1.0, seed);
    let k = randn_matrix::<T>(l, d, 1.0, seed + 1);
    let v = randn_matrix::<T>(l, d, 1.0, seed + 2);
    let w = randn_matrix::<T>(d, t, 1.0, seed + 3);
    let bias = randn_matrix::<T>(1, t, 1.0, seed + 4).into_vec();
    let layout = layout_with_empty_row(l, t, seed);

    let mmt_ref = old_matmul_transpose_b(&q, &k);
    let mm_ref = old_matmul(&q, &w);
    let linear_ref = old_linear(&q, &w, &bias);
    let bs_ref = old_bs_online_attention(&q, &k, &v, &layout, scale);
    at_thread_counts(|threads| {
        let at = |kernel: &str| format!("{kernel} {shape} threads={threads}");
        assert_bits(
            &at("matmul_transpose_b"),
            &mmt_ref,
            &matmul_transpose_b(&q, &k).unwrap(),
        );
        assert_bits(&at("matmul"), &mm_ref, &matmul(&q, &w).unwrap());
        assert_bits(&at("linear"), &linear_ref, &linear(&q, &w, &bias).unwrap());
        assert_bits(
            &at("bs_online_attention"),
            &bs_ref,
            &bs_online_attention(&q, &k, &v, &layout, scale).unwrap(),
        );
    });

    for (name, mask) in masks(l) {
        let mask = mask.as_deref();
        let (x_ref, m_ref, d_ref) = old_fused_qk_ls(&q, &k, t, scale, mask);
        // P with zero rows: the mask's zeros plus two cleared rows of X'.
        let mut x_zeroed = x_ref.clone();
        for r in [0, l / 3] {
            x_zeroed.row_mut(r).fill(T::zero());
        }
        let r_prime = inter_reduce(&m_ref, &d_ref).r_prime;
        let gs_ref = old_fused_gs_pv(&x_zeroed, &r_prime, &v, t);
        let attn_ref = old_reference_attention(&mmt_ref, &v, scale, mask);
        let online_ref = old_online_attention(&q, &k, &v, t, scale, mask);
        at_thread_counts(|threads| {
            let at = |kernel: &str| format!("{kernel} {shape} {name} threads={threads}");
            let ls = fused_qk_ls(&q, &k, t, scale, mask).unwrap();
            assert_bits(&at("fused_qk_ls x'"), &x_ref, &ls.x_prime);
            assert_bits(&at("fused_qk_ls m'"), &m_ref, &ls.m_prime);
            assert_bits(&at("fused_qk_ls d'"), &d_ref, &ls.d_prime);
            assert_bits(
                &at("fused_gs_pv"),
                &gs_ref,
                &fused_gs_pv(&x_zeroed, &r_prime, &v, t).unwrap(),
            );
            assert_bits(
                &at("reference_attention"),
                &attn_ref,
                &reference_attention(&q, &k, &v, scale, mask).unwrap(),
            );
            assert_bits(
                &at("online_attention"),
                &online_ref,
                &online_attention(&q, &k, &v, t, scale, mask).unwrap(),
            );
        });
    }
}

#[test]
fn widen_once_kernels_match_per_element_loops_fp16() {
    sweep::<F16>();
}

#[test]
fn widen_once_kernels_match_per_element_loops_f32() {
    sweep::<f32>();
}

#[test]
fn widen_once_kernels_match_per_element_loops_f64() {
    sweep::<f64>();
}

#[test]
fn sweep_inputs_reach_the_edge_cases() {
    // The masks must produce a fully masked row (m' all -inf) and zero P
    // entries, and the layout a block-row without blocks.
    let (l, t) = (48, 16);
    let q = randn_matrix::<f32>(l, 4, 1.0, 1);
    let [_, _, (_, masked_row)] = masks(l);
    let (x, m, _) = old_fused_qk_ls(&q, &q, t, 0.5, masked_row.as_deref());
    assert!(m.row(l / 2).iter().all(|v| *v == f32::NEG_INFINITY));
    assert!(x.row(1).iter().filter(|v| **v == 0.0).count() >= l - 2);
    let layout = layout_with_empty_row(l, t, 0);
    assert!(layout.row_blocks(layout.n_blocks() - 1).is_empty());
}
