// Package maxent implements the memo's maximum-entropy product model
// (Eq. 12) and the iterative calculation of its a-values (Eqs. 25-31,
// 75-87, Figure 4, Table 2).
//
// A Model is a joint distribution over R categorical attributes in the form
//
//	p(i,j,k,...) = a0 · Π_families a_family(values restricted to family)
//
// where each registered constraint — a target probability for one cell of
// one attribute family — owns one adjustable coefficient. Fitting adjusts
// the coefficients until every constraint's predicted probability matches
// its target, which by the memo's Lagrange-multiplier derivation (Eqs. 8-13)
// is exactly the maximum-entropy distribution subject to those constraints.
//
// Fit runs one solver, Gauss–Seidel iterative scaling (the memo's Figure 4
// procedure, generalized): constraints are visited in sequence and each
// update is an exact binary-partition IPF step — the matched cells are
// scaled by target/predicted and the complement by
// (1-target)/(1-predicted), which in product form is a single odds-ratio
// coefficient update.
//
// Joint spaces wider than the dense threshold run factored (blocks.go): the
// model is a product over the connected components of its constraint
// graph, each block is solved and compiled densely over its own attributes,
// and a compiled snapshot indexes every attribute to its block and its
// position there. A fit builds that decomposition once: each block's view
// holds its families over block-local positions, aliasing the model's
// coefficient arrays, and its constraints in the model's order, and the
// block solves, the one-pass sums of clean blocks and the snapshot compile
// all read it. The dense fit is the same solver over the identity view. A
// query pays an engine sweep only on the blocks its attributes or pins
// touch, plus one multiplication per other block by that block's cached
// sum, always in block order, so the bits do not depend on which blocks a
// query touches.
//
// With RecordTrace set, the solver records per-sweep coefficient
// trajectories, which is how the repro binary regenerates the memo's
// Table 2.
package maxent
