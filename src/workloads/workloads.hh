/**
 * @file
 * Factory functions for the paper's benchmarks (Table 3) and the Fig 2
 * microbenchmarks. Every factory parameterizes the input size so tests
 * run small (functional + timing) and benches run the paper's sizes
 * (timing only).
 *
 * Array-id convention: each workload's setup() declares its arrays in a
 * fixed order starting at id 0; the tDFG builders reference those ids.
 */

#ifndef INFS_WORKLOADS_WORKLOADS_HH
#define INFS_WORKLOADS_WORKLOADS_HH

#include "core/workload.hh"

namespace infs {

// --- §2.2 microbenchmarks (Fig 2). ---

/** C[i] = A[i] + B[i]. Arrays: A=0, B=1, C=2. */
Workload makeVecAdd(Coord n);

/** v = sum(A[i]): in-memory partial reduce + near-memory final reduce.
 * Arrays: A=0, Out=1 (Out[0] holds the sum). */
Workload makeArraySum(Coord n);

// --- Table 3 benchmarks. ---

/** 3-point 1-D Jacobi, @p iters sweeps alternating A<->B. A=0, B=1. */
Workload makeStencil1d(Coord n, unsigned iters = 10);

/** 5-point 2-D Jacobi. A=0, B=1 with shape {n0, n1}. */
Workload makeStencil2d(Coord n0, Coord n1, unsigned iters = 10);

/** 7-point 3-D Jacobi. A=0, B=1 with shape {n0, n1, n2}. */
Workload makeStencil3d(Coord n0, Coord n1, Coord n2, unsigned iters = 10);

/**
 * Undecimated (stationary) 5/3 lifting wavelet, one level, rows then
 * columns. Shift + elementwise movement, matching Table 3's dwt2d entry.
 * Arrays: A=0 (in), D=1 (detail), S=2 (smooth).
 */
Workload makeDwt2d(Coord n0, Coord n1);

/** Gaussian elimination (Fig 4c / Fig 7). Arrays: A=0 {n, n}, B=1 {1, n}.
 * The shrinking per-k tensors defeat JIT memoization (§8). */
Workload makeGaussElim(Coord n);

/**
 * 3x3 2-D convolution with constant weights (Fig 6). A=0, B=1. Its phase
 * graph is conv2dTdfg() after one e-graph optimization per Workload.
 */
Workload makeConv2d(Coord n0, Coord n1);

/** conv2d's tDFG as written, before the static e-graph compile. */
TdfgGraph conv2dTdfg(Coord n0, Coord n1);

/**
 * Multi-channel 3x3 convolution (conv3d): input {w, h, ci}, weights
 * broadcast per channel, channel contraction by in-memory reduction.
 * Arrays: In=0 {w, h, ci}, W=1 {3*3*ci, co}, Out=2 {w, h, co}.
 */
Workload makeConv3d(Coord w, Coord h, Coord ci, Coord co);

/**
 * Dense GEMM C[M,N] = A x B. @p outer selects the outer-product dataflow
 * (Fig 8, Inf-S's preferred form); otherwise inner-product (reduction).
 * Arrays: A=0 {K, M}, B=1 {N, K}, C=2 {N, M}.
 */
Workload makeMm(Coord m, Coord n, Coord k, bool outer);

/**
 * One Lloyd iteration of k-means: in-memory distance computation (+
 * argmin), near-memory indirect centroid update (§3.3). @p outer picks
 * the elementwise accumulate-over-dims dataflow; inner reduces over the
 * feature dimension. Arrays: X=0 {dim, points}, C=1 {centers, dim},
 * Dist=2 {centers, points}, Assign=3 {points}, NewC=4 {centers, dim}.
 */
Workload makeKmeans(Coord points, Coord dim, Coord centers, bool outer);

/**
 * gather_mlp: indirect gather of feature rows followed by a dense layer
 * (M x K gathered, K x N weights). Arrays: Table=0 {k, rows}, Idx=1 {m},
 * W=2 {n, k}, G=3 {k, m}, Out=4 {n, m}.
 */
Workload makeGatherMlp(Coord m, Coord n, Coord k, Coord rows, bool outer);

} // namespace infs

#endif // INFS_WORKLOADS_WORKLOADS_HH
