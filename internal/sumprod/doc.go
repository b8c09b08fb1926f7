// Package sumprod implements Appendix B of the memo: evaluation of the
// "sum of products" expressions that arise when the maximum-entropy product
// formula (Eq. 12) is summed over attribute values — the normalizing constant
// 1/a0 (Eq. 89) and predicted marginal probabilities (Eq. 109).
//
// Two layers are provided:
//
//   - Evaluator, the general R-attribute recursion S_n = Σ_{n+1} (Q_{n+1} X
//     S_{n+1}) (Eq. 105): variables are eliminated from the highest position
//     downward, each level folding in the product Q of every term whose
//     highest variable sits at that level. Peak memory is the joint space of
//     the first R-1 attributes — one cardinality smaller than materializing
//     the full joint. An Evaluator is cheap to build and validate per use;
//     it is the reference implementation the compiled engine is
//     equivalence-tested against.
//
//   - Compiled, the compile-once/query-many engine behind production
//     serving and discovery scans. Compile snapshots the coefficients,
//     fixes the elimination plan, and pools scratch buffers, making every
//     query allocation-free and safe for unlimited concurrent callers. On
//     top of the per-query primitives (Sum, SumFixed, SumPinned) it adds
//     batch marginals: Marginal/MarginalFixed keep a family's variables
//     un-eliminated through one sweep and return every cell of the marginal
//     at once, instead of one full recursion per cell.
//
// Compiled is bit-identical to Evaluator by construction — the fold visits
// levels, cells, and factors in the same order — so switching between the
// per-cell and batch paths never changes a result, only its cost.
package sumprod
