"""Optional compiled balanced-sweep kernels (ctypes + cc, NumPy fallback).

The 2-D balanced matrix sweep in :mod:`repro.trees.evaluate` is limited by
NumPy's one-temporary-per-ufunc execution model: every level of the tree
reads and writes full ensemble-sized intermediates, so the sweep runs at
memory bandwidth while the arithmetic itself is a handful of flops per
element.  A fused C kernel evaluates each tree's whole level schedule out of
an L1-resident scratch buffer — including the leaf gather, so the permuted
operand matrix is never materialised at all.

The kernels are **bitwise-identical** to the NumPy level sweep: they apply
the exact same IEEE-754 double operations in the exact same order (compiled
with ``-ffp-contract=off`` so no FMA contraction can perturb a rounding),
and the engine property tests pin them against the generic node-walk just
like every other fast path.

Availability is strictly optional and decided by the shared loader
(:mod:`repro.util.ckernel`): with no compiler, a failed compile, or
``REPRO_NO_CKERNELS`` set, :func:`has_kernel` returns False and callers stay
on the pure-NumPy path.
"""

from __future__ import annotations

import ctypes
from typing import Optional

import numpy as np

from repro.obs import get_registry
from repro.util.ckernel import CKernel

__all__ = [
    "has_kernel",
    "has_fold_kernel",
    "has_reduce_kernel",
    "sweep_matrix",
    "sweep_indexed",
    "fold_matrix",
    "fold_chunks",
    "reduce_balanced_chunks",
    "kernels_available",
]

#: One function per accumulator algebra.  ``idx == NULL`` means matrix mode
#: (row r's leaves are ``data[r*n : (r+1)*n]``); otherwise ``data`` is the
#: base operand vector and row r's leaves are ``data[idx[r*n + j]]``.
#: Every function mirrors the level loop of ``balanced_ensemble_vops``:
#: pair adjacent nodes, carry an odd trailing node up unchanged.
_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define LEAF(j) (idx ? data[idx[(size_t)r * (size_t)n + (size_t)(j)]] \
                     : data[(size_t)r * (size_t)n + (size_t)(j)])

int balanced_sweep_st(const double *data, const int64_t *idx,
                      int64_t n_rows, int64_t n, double *out)
{
    int64_t h = (n + 1) / 2;
    double *s = (double *)malloc((size_t)h * sizeof(double));
    if (!s) return 1;
    for (int64_t r = 0; r < n_rows; r++) {
        int64_t even = n - (n & 1), hw = even / 2;
        for (int64_t i = 0; i < hw; i++)
            s[i] = LEAF(2 * i) + LEAF(2 * i + 1);
        int64_t w = hw;
        if (n & 1) { s[w] = LEAF(n - 1); w++; }
        while (w > 1) {
            int64_t e2 = w - (w & 1), h2 = e2 / 2;
            for (int64_t i = 0; i < h2; i++)
                s[i] = s[2 * i] + s[2 * i + 1];
            if (w & 1) s[h2] = s[w - 1];
            w = h2 + (w & 1);
        }
        out[r] = s[0];
    }
    free(s);
    return 0;
}

int balanced_sweep_kahan(const double *data, const int64_t *idx,
                         int64_t n_rows, int64_t n, double *out)
{
    int64_t h = (n + 1) / 2;
    double *s = (double *)malloc((size_t)h * sizeof(double));
    double *c = (double *)malloc((size_t)h * sizeof(double));
    if (!s || !c) { free(s); free(c); return 1; }
    for (int64_t r = 0; r < n_rows; r++) {
        int64_t even = n - (n & 1), hw = even / 2;
        for (int64_t i = 0; i < hw; i++) {
            double a = LEAF(2 * i), b = LEAF(2 * i + 1);
            double t = a + b;
            s[i] = t;
            c[i] = (t - a) - b;
        }
        int64_t w = hw;
        if (n & 1) { s[w] = LEAF(n - 1); c[w] = 0.0; w++; }
        while (w > 1) {
            int64_t e2 = w - (w & 1), h2 = e2 / 2;
            for (int64_t i = 0; i < h2; i++) {
                double a0 = s[2 * i], b0 = s[2 * i + 1];
                double a1 = c[2 * i], b1 = c[2 * i + 1];
                double y = b0 - (a1 + b1);
                double t = a0 + y;
                s[i] = t;
                c[i] = (t - a0) - y;
            }
            if (w & 1) { s[h2] = s[w - 1]; c[h2] = c[w - 1]; }
            w = h2 + (w & 1);
        }
        out[r] = s[0];
    }
    free(s); free(c);
    return 0;
}

int balanced_sweep_kbn(const double *data, const int64_t *idx,
                       int64_t n_rows, int64_t n, double *out)
{
    int64_t h = (n + 1) / 2;
    double *s = (double *)malloc((size_t)h * sizeof(double));
    double *c = (double *)malloc((size_t)h * sizeof(double));
    if (!s || !c) { free(s); free(c); return 1; }
    for (int64_t r = 0; r < n_rows; r++) {
        int64_t even = n - (n & 1), hw = even / 2;
        for (int64_t i = 0; i < hw; i++) {
            double a = LEAF(2 * i), b = LEAF(2 * i + 1);
            double t = a + b;
            double comp = (fabs(a) >= fabs(b)) ? (a - t) + b : (b - t) + a;
            s[i] = t;
            c[i] = comp + 0.0;
        }
        int64_t w = hw;
        if (n & 1) { s[w] = LEAF(n - 1); c[w] = 0.0; w++; }
        while (w > 1) {
            int64_t e2 = w - (w & 1), h2 = e2 / 2;
            for (int64_t i = 0; i < h2; i++) {
                double a0 = s[2 * i], b0 = s[2 * i + 1];
                double a1 = c[2 * i], b1 = c[2 * i + 1];
                double t = a0 + b0;
                double comp = (fabs(a0) >= fabs(b0)) ? (a0 - t) + b0
                                                     : (b0 - t) + a0;
                s[i] = t;
                c[i] = (a1 + comp) + b1;
            }
            if (w & 1) { s[h2] = s[w - 1]; c[h2] = c[w - 1]; }
            w = h2 + (w & 1);
        }
        out[r] = s[0] + c[0];
    }
    free(s); free(c);
    return 0;
}

int balanced_sweep_cp(const double *data, const int64_t *idx,
                      int64_t n_rows, int64_t n, double *out)
{
    int64_t h = (n + 1) / 2;
    double *s = (double *)malloc((size_t)h * sizeof(double));
    double *c = (double *)malloc((size_t)h * sizeof(double));
    if (!s || !c) { free(s); free(c); return 1; }
    for (int64_t r = 0; r < n_rows; r++) {
        int64_t even = n - (n & 1), hw = even / 2;
        for (int64_t i = 0; i < hw; i++) {
            double a = LEAF(2 * i), b = LEAF(2 * i + 1);
            double sum = a + b;
            double bb = sum - a;
            double delta = (a - (sum - bb)) + (b - bb);
            s[i] = sum;
            c[i] = delta + 0.0;
        }
        int64_t w = hw;
        if (n & 1) { s[w] = LEAF(n - 1); c[w] = 0.0; w++; }
        while (w > 1) {
            int64_t e2 = w - (w & 1), h2 = e2 / 2;
            for (int64_t i = 0; i < h2; i++) {
                double a0 = s[2 * i], b0 = s[2 * i + 1];
                double a1 = c[2 * i], b1 = c[2 * i + 1];
                double sum = a0 + b0;
                double bb = sum - a0;
                double delta = (a0 - (sum - bb)) + (b0 - bb);
                s[i] = sum;
                c[i] = a1 + b1 + delta;
            }
            if (w & 1) { s[h2] = s[w - 1]; c[h2] = c[w - 1]; }
            w = h2 + (w & 1);
        }
        out[r] = s[0] + c[0];
    }
    free(s); free(c);
    return 0;
}

int balanced_sweep_dd(const double *data, const int64_t *idx,
                      int64_t n_rows, int64_t n, double *out)
{
    int64_t h = (n + 1) / 2;
    double *s = (double *)malloc((size_t)h * sizeof(double));
    double *c = (double *)malloc((size_t)h * sizeof(double));
    if (!s || !c) { free(s); free(c); return 1; }
    for (int64_t r = 0; r < n_rows; r++) {
        int64_t even = n - (n & 1), hw = even / 2;
        for (int64_t i = 0; i < hw; i++) {
            double hi1 = LEAF(2 * i), hi2 = LEAF(2 * i + 1);
            double sum = hi1 + hi2;
            double bb = sum - hi1;
            double e = (hi1 - (sum - bb)) + (hi2 - bb);
            e = e + 0.0 + 0.0;
            double s2 = sum + e;
            s[i] = s2;
            c[i] = e - (s2 - sum);
        }
        int64_t w = hw;
        if (n & 1) { s[w] = LEAF(n - 1); c[w] = 0.0; w++; }
        while (w > 1) {
            int64_t e2 = w - (w & 1), h2 = e2 / 2;
            for (int64_t i = 0; i < h2; i++) {
                double hi1 = s[2 * i], hi2 = s[2 * i + 1];
                double lo1 = c[2 * i], lo2 = c[2 * i + 1];
                double sum = hi1 + hi2;
                double bb = sum - hi1;
                double e = (hi1 - (sum - bb)) + (hi2 - bb);
                e = e + lo1 + lo2;
                double s2 = sum + e;
                s[i] = s2;
                c[i] = e - (s2 - sum);
            }
            if (w & 1) { s[h2] = s[w - 1]; c[h2] = c[w - 1]; }
            w = h2 + (w & 1);
        }
        out[r] = s[0] + c[0];
    }
    free(s); free(c);
    return 0;
}

/* -- rank-local fold kernels (the collective fast path) ---------------------
 *
 * One state per chunk: rows[r] points at chunk r's len[r] doubles (rows of
 * a packed matrix or the caller's original chunk buffers in place — no
 * copy).  Each kernel replays the matching accumulator's ``add_array``
 * op-for-op from the zero state (per-row power-of-two zero padding, the
 * TwoSum carry fold, then the algorithm's scalar merge-in recurrence), so
 * out components are bitwise-equal to
 * ``make_accumulator(); add_array(chunk)``.  ``max_len`` bounds the scratch
 * allocation (>= every len[r]).
 */

static int64_t pow2_ceil(int64_t n)
{
    int64_t p = 1;
    while (p < n) p <<= 1;
    return p;
}

/* One carry-fold level: pair adjacent (sum, carry) nodes from (s, c) into
 * (so, co).  Out-of-place with restrict operands so the compiler can SIMD
 * the TwoSum lanes (every lane is an independent, bit-exact IEEE chain).
 */
static void carry_fold_level(const double *restrict s, const double *restrict c,
                             double *restrict so, double *restrict co,
                             int64_t h2)
{
    for (int64_t i = 0; i < h2; i++) {
        double a = s[2 * i], b = s[2 * i + 1];
        double sum = a + b;
        double bb = sum - a;
        double err = (a - (sum - bb)) + (b - bb);
        co[i] = (c[2 * i] + c[2 * i + 1]) + err;
        so[i] = sum;
    }
}

/* First fold level fused with the row load: operand j is row[j] for j < n,
 * an exact-zero pad otherwise.  A TwoSum against a zero pad still runs the
 * full formula (it normalises -0.0 operands to +0.0 exactly like the
 * padded NumPy path), all-pad pairs produce exact (+0, +0) states, and the
 * level-1 carries are 0.0 + err (matching c0 + c1 + err with zero carries).
 * Levels ping-pong between the (sa, ca) and (sb, cb) scratch pairs (same
 * values as an in-place compaction, laid out for vectorisation); the row's
 * (s_blk, e_blk) lands in (*out_s, *out_c).
 */
static void carry_fold_row(const double *restrict row, int64_t n,
                           double *restrict sa, double *restrict ca,
                           double *restrict sb, double *restrict cb,
                           double *out_s, double *out_c)
{
    if (n <= 1) {               /* pow2 pad of 0/1 elements: no fold level */
        *out_s = n ? row[0] : 0.0;
        *out_c = 0.0;
        return;
    }
    if (n == 2) {               /* single level, no scratch */
        double a = row[0], b = row[1];
        double sum = a + b;
        double bb = sum - a;
        double err = (a - (sum - bb)) + (b - bb);
        *out_s = sum;
        *out_c = 0.0 + err;
        return;
    }
    /* Levels 1+2 fused: each output slot consumes a quad of leaves, so the
     * widest level's partials never touch scratch.  Pad leaves are exact
     * zeros; two_sum against them runs the full formula (identical to the
     * unfused odd-tail op), and all-pad quads reduce to exact (+0, +0) —
     * the same values the unfused zero-fill stores. */
    int64_t h2 = pow2_ceil(n) / 4, q = n / 4;
    for (int64_t i = 0; i < q; i++) {
        double a0 = row[4 * i], a1 = row[4 * i + 1];
        double a2 = row[4 * i + 2], a3 = row[4 * i + 3];
        double s1 = a0 + a1;
        double b1 = s1 - a0;
        double c1 = 0.0 + ((a0 - (s1 - b1)) + (a1 - b1));
        double s2 = a2 + a3;
        double b2 = s2 - a2;
        double c2 = 0.0 + ((a2 - (s2 - b2)) + (a3 - b2));
        double sum = s1 + s2;
        double bb = sum - s1;
        double err = (s1 - (sum - bb)) + (s2 - bb);
        sa[i] = sum;
        ca[i] = (c1 + c2) + err;
    }
    int64_t w = q;
    if (n & 3) {                /* boundary quad: 1-3 real leaves + pads */
        int64_t rem = n & 3;
        double a0 = row[4 * q];
        double a1 = rem > 1 ? row[4 * q + 1] : 0.0;
        double a2 = rem > 2 ? row[4 * q + 2] : 0.0;
        double s1 = a0 + a1;
        double b1 = s1 - a0;
        double c1 = 0.0 + ((a0 - (s1 - b1)) + (a1 - b1));
        double s2 = a2 + 0.0;
        double b2 = s2 - a2;
        double c2 = 0.0 + ((a2 - (s2 - b2)) + (0.0 - b2));
        double sum = s1 + s2;
        double bb = sum - s1;
        double err = (s1 - (sum - bb)) + (s2 - bb);
        sa[w] = sum;
        ca[w] = (c1 + c2) + err;
        w++;
    }
    for (int64_t i = w; i < h2; i++) { sa[i] = 0.0; ca[i] = 0.0; }
    double *s = sa, *c = ca, *t = sb, *d = cb;
    int64_t m = h2;
    while (m > 1) {
        int64_t half = m / 2;
        carry_fold_level(s, c, t, d, half);
        double *tmp;
        tmp = s; s = t; t = tmp;
        tmp = c; c = d; d = tmp;
        m = half;
    }
    *out_s = s[0];
    *out_c = c[0];
}

int fold_st(const double *const *restrict rows, const int64_t *restrict len,
            int64_t n_rows, int64_t max_len, double *restrict out0,
            double *restrict out1)
{
    (void)out1; (void)max_len;
    for (int64_t r = 0; r < n_rows; r++) {
        const double *row = rows[r];
        double acc = 0.0;
        for (int64_t j = 0; j < len[r]; j++)
            acc = acc + row[j];
        out0[r] = acc;
    }
    return 0;
}

/* Shared scratch for the ping-pong carry fold: one allocation, four
 * non-overlapping quarters (cap each). */
static double *fold_scratch(int64_t cap)
{
    return (double *)malloc((size_t)(4 * cap) * sizeof(double));
}

/* -- per-algebra zero-state merge-in: block (s_blk, e_blk) -> accumulator
 * state, replaying ``make_accumulator(); add_array(chunk)`` from (0, 0).
 * Shared between the fold kernels and the fused shard kernels so both
 * paths run the identical op sequence. */

static void kahan_state_from_block(double s_blk, double e_blk,
                                   double *out_s, double *out_c)
{
    double y = s_blk - 0.0;          /* add(s_blk) from (0, 0) */
    double t = 0.0 + y;
    double cc = (t - 0.0) - y;
    y = e_blk - cc;                  /* add(e_blk) */
    double t2 = t + y;
    *out_s = t2;
    *out_c = (t2 - t) - y;
}

static void kbn_state_from_block(double s_blk, double e_blk,
                                 double *out_s, double *out_c)
{
    double t = 0.0 + s_blk;          /* add(s_blk) from (0, 0) */
    double comp = (fabs(0.0) >= fabs(s_blk)) ? (0.0 - t) + s_blk
                                             : (s_blk - t) + 0.0;
    *out_s = t;
    *out_c = (0.0 + comp) + e_blk;   /* then c += float(e_blk) */
}

static void cp_state_from_block(double s_blk, double e_blk,
                                double *out_s, double *out_c)
{
    double sum = 0.0 + s_blk;        /* two_sum(0.0, s_blk) */
    double bb = sum - 0.0;
    double delta = (0.0 - (sum - bb)) + (s_blk - bb);
    *out_s = sum;
    *out_c = 0.0 + (delta + e_blk);
}

/* NumPy's pairwise summation (umath pairwise_sum_DOUBLE), reproduced
 * bit-for-bit for contiguous doubles: < 8 sequential, <= 128 eight-way
 * unrolled partials combined as ((r0+r1)+(r2+r3)) + ((r4+r5)+(r6+r7)),
 * else recursive halving on a multiple-of-8 boundary.  The Kahan fold
 * collapses each level's error mass through ``np.sum``, so the kernel
 * must produce the same bits NumPy's reduction does. */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++) res += a[i];
        return res;
    }
    else if (n <= 128) {
        double r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3];
        double r4 = a[4], r5 = a[5], r6 = a[6], r7 = a[7];
        int64_t i;
        for (i = 8; i < n - (n % 8); i += 8) {
            r0 += a[i];     r1 += a[i + 1]; r2 += a[i + 2]; r3 += a[i + 3];
            r4 += a[i + 4]; r5 += a[i + 5]; r6 += a[i + 6]; r7 += a[i + 7];
        }
        double res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; i++) res += a[i];
        return res;
    }
    else {
        int64_t n2 = n / 2;
        n2 -= n2 % 8;
        return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
    }
}

/* One flat-error TwoSum level: pair adjacent sums from s into t, errors
 * into e.  Out-of-place with restrict operands so the lanes SIMD. */
static void twosum_sum_level(const double *restrict s, double *restrict t,
                             double *restrict e, int64_t h2)
{
    for (int64_t i = 0; i < h2; i++) {
        double a = s[2 * i], b = s[2 * i + 1];
        double sum = a + b;
        double bb = sum - a;
        e[i] = (a - (sum - bb)) + (b - bb);
        t[i] = sum;
    }
}

/* Kahan's flat-error row fold (KahanAccumulator.add_array image): pairwise
 * TwoSum levels whose error arrays are collapsed by one NumPy-identical
 * pairwise_sum each, accumulated sequentially across levels — one add per
 * element on the error channel, the cost gap that keeps K cheaper than
 * CP's carried-error fold.  Pads are exact zeros: their TwoSum entries are
 * (+0, +0), level error entries are never -0.0 (the error of an exact sum
 * rounds to +0), and zero tails on power-of-two boundaries leave the
 * pairwise grouping of real entries intact — so a row-local pow2 pad
 * matches the NumPy path's global-width pad bit-for-bit. */
static void kahan_fold_row(const double *restrict row, int64_t n,
                           double *restrict sa, double *restrict sb,
                           double *restrict e1, double *restrict e2,
                           double *out_s, double *out_e)
{
    if (n <= 1) {               /* pow2 pad of 0/1 elements: no fold level */
        *out_s = n ? row[0] : 0.0;
        *out_e = 0.0;
        return;
    }
    if (n == 2) {               /* single level, single error entry */
        double a = row[0], b = row[1];
        double sum = a + b;
        double bb = sum - a;
        *out_s = sum;
        *out_e = 0.0 + ((a - (sum - bb)) + (b - bb));
        return;
    }
    /* Levels 1+2 fused: each quad of leaves yields two level-1 errors (kept
     * in level order in e1), one level-2 error (e2) and one level-2 partial
     * sum (sa) — the widest level's partials never touch scratch.  Pad
     * leaves are exact zeros; their TwoSum entries are the same (+0, +0)
     * the zero-fill stores. */
    int64_t h = pow2_ceil(n) / 2, h2 = pow2_ceil(n) / 4, q = n / 4;
    for (int64_t i = 0; i < q; i++) {
        double a0 = row[4 * i], a1 = row[4 * i + 1];
        double a2 = row[4 * i + 2], a3 = row[4 * i + 3];
        double s1 = a0 + a1;
        double b1 = s1 - a0;
        e1[2 * i] = (a0 - (s1 - b1)) + (a1 - b1);
        double s2 = a2 + a3;
        double b2 = s2 - a2;
        e1[2 * i + 1] = (a2 - (s2 - b2)) + (a3 - b2);
        double sum = s1 + s2;
        double bb = sum - s1;
        e2[i] = (s1 - (sum - bb)) + (s2 - bb);
        sa[i] = sum;
    }
    int64_t w = q;
    if (n & 3) {                /* boundary quad: 1-3 real leaves + pads */
        int64_t rem = n & 3;
        double a0 = row[4 * q];
        double a1 = rem > 1 ? row[4 * q + 1] : 0.0;
        double a2 = rem > 2 ? row[4 * q + 2] : 0.0;
        double s1 = a0 + a1;
        double b1 = s1 - a0;
        e1[2 * q] = (a0 - (s1 - b1)) + (a1 - b1);
        double s2 = a2 + 0.0;
        double b2 = s2 - a2;
        e1[2 * q + 1] = (a2 - (s2 - b2)) + (0.0 - b2);
        double sum = s1 + s2;
        double bb = sum - s1;
        e2[w] = (s1 - (sum - bb)) + (s2 - bb);
        sa[w] = sum;
        w++;
    }
    for (int64_t i = 2 * w; i < h; i++) e1[i] = 0.0;
    for (int64_t i = w; i < h2; i++) { sa[i] = 0.0; e2[i] = 0.0; }
    double err_total = 0.0;
    err_total += pairwise_sum(e1, h);
    err_total += pairwise_sum(e2, h2);
    double *s = sa, *t = sb;
    int64_t m = h2;
    while (m > 1) {
        int64_t half = m / 2;
        twosum_sum_level(s, t, e1, half);
        err_total += pairwise_sum(e1, half);
        double *tmp = s; s = t; t = tmp;
        m = half;
    }
    *out_s = s[0];
    *out_e = err_total;
}

int fold_kahan(const double *const *restrict rows, const int64_t *restrict len,
               int64_t n_rows, int64_t max_len, double *restrict out0,
               double *restrict out1)
{
    int64_t cap = pow2_ceil(max_len > 1 ? max_len : 2) / 2;
    double *buf = fold_scratch(cap);
    if (!buf) return 1;
    for (int64_t r = 0; r < n_rows; r++) {
        double s_blk, e_blk;
        kahan_fold_row(rows[r], len[r], buf, buf + cap, buf + 2 * cap,
                       buf + 3 * cap, &s_blk, &e_blk);
        kahan_state_from_block(s_blk, e_blk, &out0[r], &out1[r]);
    }
    free(buf);
    return 0;
}

int fold_kbn(const double *const *restrict rows, const int64_t *restrict len,
             int64_t n_rows, int64_t max_len, double *restrict out0,
             double *restrict out1)
{
    int64_t cap = pow2_ceil(max_len > 1 ? max_len : 2) / 2;
    double *buf = fold_scratch(cap);
    if (!buf) return 1;
    for (int64_t r = 0; r < n_rows; r++) {
        double s_blk, e_blk;
        carry_fold_row(rows[r], len[r], buf, buf + cap, buf + 2 * cap,
                       buf + 3 * cap, &s_blk, &e_blk);
        kbn_state_from_block(s_blk, e_blk, &out0[r], &out1[r]);
    }
    free(buf);
    return 0;
}

int fold_cp(const double *const *restrict rows, const int64_t *restrict len,
            int64_t n_rows, int64_t max_len, double *restrict out0,
            double *restrict out1)
{
    int64_t cap = pow2_ceil(max_len > 1 ? max_len : 2) / 2;
    double *buf = fold_scratch(cap);
    if (!buf) return 1;
    for (int64_t r = 0; r < n_rows; r++) {
        double s_blk, e_blk;
        carry_fold_row(rows[r], len[r], buf, buf + cap, buf + 2 * cap,
                       buf + 3 * cap, &s_blk, &e_blk);
        cp_state_from_block(s_blk, e_blk, &out0[r], &out1[r]);
    }
    free(buf);
    return 0;
}

/* One pairwise dd_add level out-of-place (see fold_dd). */
static void dd_fold_level(const double *restrict s, const double *restrict c,
                          double *restrict so, double *restrict co, int64_t h2)
{
    for (int64_t i = 0; i < h2; i++) {
        double hi1 = s[2 * i], hi2 = s[2 * i + 1];
        double lo1 = c[2 * i], lo2 = c[2 * i + 1];
        double sum = hi1 + hi2;
        double bb = sum - hi1;
        double e = (hi1 - (sum - bb)) + (hi2 - bb);
        e = e + lo1 + lo2;
        double s2 = sum + e;
        so[i] = s2;
        co[i] = e - (s2 - sum);
    }
}

/* One row's DD accumulator state (pairwise dd_add fold + normalized +
 * merge_parts from the zero state), using the caller's 4-quarter scratch. */
static void dd_fold_row(const double *restrict row, int64_t n,
                        double *restrict sa, double *restrict ca,
                        double *restrict sb, double *restrict cb,
                        double *out_s, double *out_c)
{
    double hi, lo;
    if (n <= 1) {
        hi = n ? row[0] : 0.0;
        lo = 0.0;
    } else {
        /* fused level 1: leaf lo components are exact zeros */
        int64_t h = pow2_ceil(n) / 2, full = n / 2;
        for (int64_t i = 0; i < full; i++) {
            double hi1 = row[2 * i], hi2 = row[2 * i + 1];
            double sum = hi1 + hi2;
            double bb = sum - hi1;
            double e = (hi1 - (sum - bb)) + (hi2 - bb);
            e = e + 0.0 + 0.0;
            double s2 = sum + e;
            sa[i] = s2;
            ca[i] = e - (s2 - sum);
        }
        int64_t w = full;
        if (n & 1) {
            double hi1 = row[n - 1];
            double sum = hi1 + 0.0;
            double bb = sum - hi1;
            double e = (hi1 - (sum - bb)) + (0.0 - bb);
            e = e + 0.0 + 0.0;
            double s2 = sum + e;
            sa[w] = s2;
            ca[w] = e - (s2 - sum);
            w++;
        }
        for (int64_t i = w; i < h; i++) { sa[i] = 0.0; ca[i] = 0.0; }
        double *s = sa, *c = ca, *t = sb, *d = cb;
        int64_t m = h;
        while (m > 1) {              /* pairwise dd_add levels */
            int64_t h2 = m / 2;
            dd_fold_level(s, c, t, d, h2);
            double *tmp;
            tmp = s; s = t; t = tmp;
            tmp = c; c = d; d = tmp;
            m = h2;
        }
        hi = s[0];
        lo = c[0];
    }
    double sum = hi + lo;            /* DoubleDouble.normalized */
    double bb = sum - hi;
    double err = (hi - (sum - bb)) + (lo - bb);
    hi = sum; lo = err;
    double s0 = 0.0 + hi;            /* merge_parts from (0, 0) */
    double bb2 = s0 - 0.0;
    double delta = (0.0 - (s0 - bb2)) + (hi - bb2);
    double e2 = delta + (0.0 + lo);
    double s2 = s0 + e2;
    *out_s = s2;
    *out_c = e2 - (s2 - s0);
}

int fold_dd(const double *const *restrict rows, const int64_t *restrict len,
            int64_t n_rows, int64_t max_len, double *restrict out0,
            double *restrict out1)
{
    int64_t cap = pow2_ceil(max_len > 1 ? max_len : 2) / 2;
    double *buf = fold_scratch(cap);
    if (!buf) return 1;
    for (int64_t r = 0; r < n_rows; r++)
        dd_fold_row(rows[r], len[r], buf, buf + cap, buf + 2 * cap,
                    buf + 3 * cap, &out0[r], &out1[r]);
    free(buf);
    return 0;
}

/* -- fused shard kernels: one call per shard of whole items ------------------
 *
 * Item-major pointer tables: item i's rank-r chunk is rows[i*n_ranks + r]
 * with len[i*n_ranks + r] doubles.  Each item is served end-to-end inside
 * the kernel: every rank chunk folds to its accumulator state (the exact
 * fold_* op sequence), the rank states collapse through the balanced
 * reduction tree (pair adjacent states in rank order, an odd trailing
 * state rides up unchanged — the `shapes.balanced` level schedule), and
 * the algebra's result extraction lands the item's value in out[i].  The
 * state-merge recurrences are the VectorOps ``merge`` formulas, identical
 * to the upper level loops of the balanced_sweep_* kernels, so out is
 * bitwise-equal to fold + compile_tree(balanced).reduce_states + result.
 */

int reduce_balanced_st(const double *const *restrict rows,
                       const int64_t *restrict len, int64_t n_items,
                       int64_t n_ranks, int64_t max_len, double *restrict out)
{
    (void)max_len;
    double *s = (double *)malloc((size_t)n_ranks * sizeof(double));
    if (!s) return 1;
    for (int64_t it = 0; it < n_items; it++) {
        const double *const *item = rows + it * n_ranks;
        const int64_t *ilen = len + it * n_ranks;
        for (int64_t r = 0; r < n_ranks; r++) {
            const double *row = item[r];
            double acc = 0.0;
            for (int64_t j = 0; j < ilen[r]; j++)
                acc = acc + row[j];
            s[r] = acc;
        }
        int64_t w = n_ranks;
        while (w > 1) {
            int64_t h2 = w / 2;
            for (int64_t i = 0; i < h2; i++)
                s[i] = s[2 * i] + s[2 * i + 1];
            if (w & 1) s[h2] = s[w - 1];
            w = h2 + (w & 1);
        }
        out[it] = s[0];
    }
    free(s);
    return 0;
}

int reduce_balanced_kahan(const double *const *restrict rows,
                          const int64_t *restrict len, int64_t n_items,
                          int64_t n_ranks, int64_t max_len,
                          double *restrict out)
{
    int64_t cap = pow2_ceil(max_len > 1 ? max_len : 2) / 2;
    double *buf = fold_scratch(cap);
    double *s = (double *)malloc((size_t)(2 * n_ranks) * sizeof(double));
    if (!buf || !s) { free(buf); free(s); return 1; }
    double *c = s + n_ranks;
    for (int64_t it = 0; it < n_items; it++) {
        const double *const *item = rows + it * n_ranks;
        const int64_t *ilen = len + it * n_ranks;
        for (int64_t r = 0; r < n_ranks; r++) {
            double s_blk, e_blk;
            kahan_fold_row(item[r], ilen[r], buf, buf + cap, buf + 2 * cap,
                           buf + 3 * cap, &s_blk, &e_blk);
            kahan_state_from_block(s_blk, e_blk, &s[r], &c[r]);
        }
        int64_t w = n_ranks;
        while (w > 1) {
            int64_t h2 = w / 2;
            for (int64_t i = 0; i < h2; i++) {
                double a0 = s[2 * i], b0 = s[2 * i + 1];
                double a1 = c[2 * i], b1 = c[2 * i + 1];
                double y = b0 - (a1 + b1);
                double t = a0 + y;
                s[i] = t;
                c[i] = (t - a0) - y;
            }
            if (w & 1) { s[h2] = s[w - 1]; c[h2] = c[w - 1]; }
            w = h2 + (w & 1);
        }
        out[it] = s[0];
    }
    free(buf); free(s);
    return 0;
}

int reduce_balanced_kbn(const double *const *restrict rows,
                        const int64_t *restrict len, int64_t n_items,
                        int64_t n_ranks, int64_t max_len,
                        double *restrict out)
{
    int64_t cap = pow2_ceil(max_len > 1 ? max_len : 2) / 2;
    double *buf = fold_scratch(cap);
    double *s = (double *)malloc((size_t)(2 * n_ranks) * sizeof(double));
    if (!buf || !s) { free(buf); free(s); return 1; }
    double *c = s + n_ranks;
    for (int64_t it = 0; it < n_items; it++) {
        const double *const *item = rows + it * n_ranks;
        const int64_t *ilen = len + it * n_ranks;
        for (int64_t r = 0; r < n_ranks; r++) {
            double s_blk, e_blk;
            carry_fold_row(item[r], ilen[r], buf, buf + cap, buf + 2 * cap,
                           buf + 3 * cap, &s_blk, &e_blk);
            kbn_state_from_block(s_blk, e_blk, &s[r], &c[r]);
        }
        int64_t w = n_ranks;
        while (w > 1) {
            int64_t h2 = w / 2;
            for (int64_t i = 0; i < h2; i++) {
                double a0 = s[2 * i], b0 = s[2 * i + 1];
                double a1 = c[2 * i], b1 = c[2 * i + 1];
                double t = a0 + b0;
                double comp = (fabs(a0) >= fabs(b0)) ? (a0 - t) + b0
                                                     : (b0 - t) + a0;
                s[i] = t;
                c[i] = (a1 + comp) + b1;
            }
            if (w & 1) { s[h2] = s[w - 1]; c[h2] = c[w - 1]; }
            w = h2 + (w & 1);
        }
        out[it] = s[0] + c[0];
    }
    free(buf); free(s);
    return 0;
}

int reduce_balanced_cp(const double *const *restrict rows,
                       const int64_t *restrict len, int64_t n_items,
                       int64_t n_ranks, int64_t max_len, double *restrict out)
{
    int64_t cap = pow2_ceil(max_len > 1 ? max_len : 2) / 2;
    double *buf = fold_scratch(cap);
    double *s = (double *)malloc((size_t)(2 * n_ranks) * sizeof(double));
    if (!buf || !s) { free(buf); free(s); return 1; }
    double *c = s + n_ranks;
    for (int64_t it = 0; it < n_items; it++) {
        const double *const *item = rows + it * n_ranks;
        const int64_t *ilen = len + it * n_ranks;
        for (int64_t r = 0; r < n_ranks; r++) {
            double s_blk, e_blk;
            carry_fold_row(item[r], ilen[r], buf, buf + cap, buf + 2 * cap,
                           buf + 3 * cap, &s_blk, &e_blk);
            cp_state_from_block(s_blk, e_blk, &s[r], &c[r]);
        }
        int64_t w = n_ranks;
        while (w > 1) {
            int64_t h2 = w / 2;
            for (int64_t i = 0; i < h2; i++) {
                double a0 = s[2 * i], b0 = s[2 * i + 1];
                double a1 = c[2 * i], b1 = c[2 * i + 1];
                double sum = a0 + b0;
                double bb = sum - a0;
                double delta = (a0 - (sum - bb)) + (b0 - bb);
                s[i] = sum;
                c[i] = a1 + b1 + delta;
            }
            if (w & 1) { s[h2] = s[w - 1]; c[h2] = c[w - 1]; }
            w = h2 + (w & 1);
        }
        out[it] = s[0] + c[0];
    }
    free(buf); free(s);
    return 0;
}

int reduce_balanced_dd(const double *const *restrict rows,
                       const int64_t *restrict len, int64_t n_items,
                       int64_t n_ranks, int64_t max_len, double *restrict out)
{
    int64_t cap = pow2_ceil(max_len > 1 ? max_len : 2) / 2;
    double *buf = fold_scratch(cap);
    double *s = (double *)malloc((size_t)(2 * n_ranks) * sizeof(double));
    if (!buf || !s) { free(buf); free(s); return 1; }
    double *c = s + n_ranks;
    for (int64_t it = 0; it < n_items; it++) {
        const double *const *item = rows + it * n_ranks;
        const int64_t *ilen = len + it * n_ranks;
        for (int64_t r = 0; r < n_ranks; r++)
            dd_fold_row(item[r], ilen[r], buf, buf + cap, buf + 2 * cap,
                        buf + 3 * cap, &s[r], &c[r]);
        int64_t w = n_ranks;
        while (w > 1) {
            int64_t h2 = w / 2;
            for (int64_t i = 0; i < h2; i++) {
                double hi1 = s[2 * i], hi2 = s[2 * i + 1];
                double lo1 = c[2 * i], lo2 = c[2 * i + 1];
                double sum = hi1 + hi2;
                double bb = sum - hi1;
                double e = (hi1 - (sum - bb)) + (hi2 - bb);
                e = e + lo1 + lo2;
                double s2 = sum + e;
                s[i] = s2;
                c[i] = e - (s2 - sum);
            }
            if (w & 1) { s[h2] = s[w - 1]; c[h2] = c[w - 1]; }
            w = h2 + (w & 1);
        }
        out[it] = s[0] + c[0];
    }
    free(buf); free(s);
    return 0;
}
"""

_FUNCTIONS = (
    "balanced_sweep_st",
    "balanced_sweep_kahan",
    "balanced_sweep_kbn",
    "balanced_sweep_cp",
    "balanced_sweep_dd",
)

#: per-algebra rank-local fold kernels; component count mirrors the VectorOps
_FOLD_FUNCTIONS = {
    "st": ("fold_st", 1),
    "kahan": ("fold_kahan", 2),
    "kbn": ("fold_kbn", 2),
    "cp": ("fold_cp", 2),
    "dd": ("fold_dd", 2),
}

#: per-algebra fused shard kernels: fold + balanced rank tree + result
_REDUCE_FUNCTIONS = {
    "st": "reduce_balanced_st",
    "kahan": "reduce_balanced_kahan",
    "kbn": "reduce_balanced_kbn",
    "cp": "reduce_balanced_cp",
    "dd": "reduce_balanced_dd",
}

_OBS = get_registry()

_SWEEP_ARGS = [
    ctypes.POINTER(ctypes.c_double),
    ctypes.POINTER(ctypes.c_int64),
    ctypes.c_int64,
    ctypes.c_int64,
    ctypes.POINTER(ctypes.c_double),
]
_FOLD_ARGS = [
    ctypes.POINTER(ctypes.c_void_p),  # per-row data pointers
    ctypes.POINTER(ctypes.c_int64),
    ctypes.c_int64,
    ctypes.c_int64,
    ctypes.POINTER(ctypes.c_double),
    ctypes.POINTER(ctypes.c_double),
]
_REDUCE_ARGS = [
    ctypes.POINTER(ctypes.c_void_p),  # item-major per-chunk pointers
    ctypes.POINTER(ctypes.c_int64),
    ctypes.c_int64,
    ctypes.c_int64,
    ctypes.c_int64,
    ctypes.POINTER(ctypes.c_double),
]

_KERNEL = CKernel(
    "balanced",
    _C_SOURCE,
    {
        **{name: (_SWEEP_ARGS, ctypes.c_int) for name in _FUNCTIONS},
        **{name: (_FOLD_ARGS, ctypes.c_int) for name, _ in _FOLD_FUNCTIONS.values()},
        **{name: (_REDUCE_ARGS, ctypes.c_int) for name in _REDUCE_FUNCTIONS.values()},
    },
    metric="repro_ckernels_compile_events_total",
)

def kernels_available() -> bool:
    """True when the compiled kernels loaded (compiler present, not gated)."""
    return _KERNEL.available()


def has_kernel(vops) -> bool:
    """True when ``vops`` advertises a compiled balanced sweep and it loads."""
    advertised = getattr(vops, "ckernel", None) is not None
    available = advertised and _KERNEL.load() is not None
    if advertised and not available and _OBS.enabled:
        # the algebra *would* run compiled but can't: a NumPy fallback
        # activation (gated, no compiler, or compile/load failure)
        _OBS.counter("repro_ckernels_fallback_total", kernel="sweep").inc()
    return available


def has_fold_kernel(vops) -> bool:
    """True when ``vops``'s algebra has a compiled rank-local fold."""
    advertised = getattr(vops, "ckernel", None) in _FOLD_FUNCTIONS
    available = advertised and _KERNEL.load() is not None
    if advertised and not available and _OBS.enabled:
        _OBS.counter("repro_ckernels_fallback_total", kernel="fold").inc()
    return available


def has_reduce_kernel(vops) -> bool:
    """True when ``vops``'s algebra has a compiled fused shard kernel."""
    advertised = getattr(vops, "ckernel", None) in _REDUCE_FUNCTIONS
    available = advertised and _KERNEL.load() is not None
    if advertised and not available and _OBS.enabled:
        _OBS.counter("repro_ckernels_fallback_total", kernel="reduce").inc()
    return available


_NULL_IDX = ctypes.POINTER(ctypes.c_int64)()


def _call(name: str, data: np.ndarray, idx, n_rows: int, n: int,
          out: np.ndarray) -> None:
    lib = _KERNEL.load()
    assert lib is not None, "compiled kernels not available"
    fn = getattr(lib, "balanced_sweep_" + name)
    data_p = data.ctypes.data_as(ctypes.POINTER(ctypes.c_double))
    idx_p = (
        _NULL_IDX
        if idx is None
        else idx.ctypes.data_as(ctypes.POINTER(ctypes.c_int64))
    )
    out_p = out.ctypes.data_as(ctypes.POINTER(ctypes.c_double))
    status = fn(data_p, idx_p, n_rows, n, out_p)
    if status != 0:  # pragma: no cover - allocation failure
        raise MemoryError(f"balanced_sweep_{name} scratch allocation failed")


def sweep_matrix(mat: np.ndarray, vops, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Balanced-tree values of every row of a ``(P, n)`` operand matrix.

    Bitwise-equal to the NumPy ``balanced_ensemble_vops`` sweep; requires
    ``has_kernel(vops)`` and ``n >= 2``.
    """
    mat = np.ascontiguousarray(mat, dtype=np.float64)
    n_rows, n = mat.shape
    if out is None:
        out = np.empty(n_rows, dtype=np.float64)
    _call(vops.ckernel, mat, None, n_rows, n, out)
    return out


def sweep_indexed(
    data: np.ndarray,
    idx: np.ndarray,
    vops,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Like :func:`sweep_matrix` but row r's leaves are ``data[idx[r]]``.

    The leaf gather happens inside the kernel, so the permuted operand
    matrix is never materialised.  Indices are **not** bounds-checked here;
    callers validate untrusted index matrices up front.
    """
    data = np.ascontiguousarray(data, dtype=np.float64)
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    n_rows, n = idx.shape
    if out is None:
        out = np.empty(n_rows, dtype=np.float64)
    _call(vops.ckernel, data, idx, n_rows, n, out)
    return out


def _call_fold(vops, row_ptrs: np.ndarray, lengths: np.ndarray, max_len: int) -> tuple:
    """Shared fold-kernel dispatch: per-row pointers in, state tuple out."""
    lib = _KERNEL.load()
    assert lib is not None, "compiled kernels not available"
    name, n_components = _FOLD_FUNCTIONS[vops.ckernel]
    n_rows = int(lengths.size)
    out0 = np.empty(n_rows, dtype=np.float64)
    out1 = np.empty(n_rows, dtype=np.float64) if n_components == 2 else out0
    fn = getattr(lib, name)
    status = fn(
        row_ptrs.ctypes.data_as(ctypes.POINTER(ctypes.c_void_p)),
        lengths.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)),
        n_rows,
        max_len,
        out0.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
        out1.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
    )
    if status != 0:  # pragma: no cover - allocation failure
        raise MemoryError(f"{name} scratch allocation failed")
    return (out0,) if n_components == 1 else (out0, out1)


def fold_matrix(matrix: np.ndarray, lengths: np.ndarray, vops) -> tuple:
    """Rank-local states of every row of a zero-padded ``(R, width)`` matrix.

    The compiled counterpart of :meth:`repro.summation.base.VectorOps.fold`:
    returns the component tuple of ``(R,)`` arrays, each row bitwise-equal
    to the algorithm's accumulator fed the unpadded chunk.  Requires
    ``has_fold_kernel(vops)``.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    lengths = np.ascontiguousarray(lengths, dtype=np.int64)
    n_rows, width = matrix.shape
    base = matrix.ctypes.data
    row_ptrs = np.arange(n_rows, dtype=np.uintp) * np.uintp(width * 8) + np.uintp(base)
    return _call_fold(vops, row_ptrs, lengths, width)


def fold_chunks(chunks, vops) -> tuple:
    """Rank-local states straight from a list of 1-D chunks — no packing.

    Zero-copy counterpart of ``pack_ragged`` + :func:`fold_matrix`: the
    kernel reads each chunk in place through a per-row pointer table, so
    ragged chunk lists cost no padded-matrix materialisation at all.
    Requires ``has_fold_kernel(vops)``.
    """
    arrays = [
        np.ascontiguousarray(np.asarray(c, dtype=np.float64).ravel())
        for c in chunks
    ]
    n_rows = len(arrays)
    if n_rows == 0:
        name, n_components = _FOLD_FUNCTIONS[vops.ckernel]
        empty = np.empty(0, dtype=np.float64)
        return (empty,) * n_components
    lengths = np.array([a.size for a in arrays], dtype=np.int64)
    row_ptrs = np.array([a.ctypes.data for a in arrays], dtype=np.uintp)
    states = _call_fold(vops, row_ptrs, lengths, int(lengths.max()))
    del arrays  # keep the chunk buffers alive through the kernel call
    return states


def reduce_balanced_chunks(
    chunks, n_ranks: int, vops, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Balanced rank-tree values of whole items in one fused kernel call.

    ``chunks`` is an item-major flat list: ``n_items`` consecutive groups of
    ``n_ranks`` 1-D chunks each (item ``i``'s rank ``r`` chunk at index
    ``i * n_ranks + r``).  Each item folds its rank chunks to accumulator
    states and collapses them through the balanced reduction tree inside the
    kernel, so a worker serves its whole contiguous shard in one ``ctypes``
    call.  Bitwise-equal to :func:`fold_chunks` +
    ``compile_tree(balanced(n_ranks)).reduce_states`` + ``vops.result``;
    requires ``has_reduce_kernel(vops)``.  ``out`` (when given) must be a
    contiguous float64 vector of ``n_items`` — e.g. a result-arena view, so
    values land in shared memory with no extra copy.
    """
    if n_ranks <= 0:
        raise ValueError("n_ranks must be positive")
    arrays = [
        np.ascontiguousarray(np.asarray(c, dtype=np.float64).ravel())
        for c in chunks
    ]
    if len(arrays) % n_ranks:
        raise ValueError(
            f"chunk count {len(arrays)} is not a multiple of n_ranks {n_ranks}"
        )
    n_items = len(arrays) // n_ranks
    if out is None:
        out = np.empty(n_items, dtype=np.float64)
    elif out.dtype != np.float64 or not out.flags.c_contiguous or out.size != n_items:
        raise ValueError("out must be a contiguous float64 vector of n_items")
    if n_items == 0:
        return out
    lib = _KERNEL.load()
    assert lib is not None, "compiled kernels not available"
    lengths = np.array([a.size for a in arrays], dtype=np.int64)
    row_ptrs = np.array([a.ctypes.data for a in arrays], dtype=np.uintp)
    fn = getattr(lib, _REDUCE_FUNCTIONS[vops.ckernel])
    status = fn(
        row_ptrs.ctypes.data_as(ctypes.POINTER(ctypes.c_void_p)),
        lengths.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)),
        n_items,
        n_ranks,
        int(lengths.max()),
        out.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
    )
    if status != 0:  # pragma: no cover - allocation failure
        raise MemoryError("reduce_balanced scratch allocation failed")
    del arrays  # keep the chunk buffers alive through the kernel call
    return out
