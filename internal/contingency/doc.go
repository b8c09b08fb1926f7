// Package contingency implements the N-dimensional contingency tables of the
// memo's Figures 1-2: integer counts indexed by attribute value tuples,
// with marginalization over any subset of attributes (Eqs. 1-6),
// subset/family enumeration for the level-wise discovery scan, text
// rendering in the memo's layout, and JSON and binary persistence.
//
// Two backends hold the counts: the dense *Table, one cell per value
// combination, and the hash-backed *Sparse, one entry per occupied cell,
// for wide schemas whose joint space would not fit in memory. Counts is
// the one contract both satisfy, and the only view the rest of the system
// needs: marginal counts and tables (Marginalize), a deterministic cell
// walk (EachCell), a self-check (CheckConsistency), all-or-nothing batched
// mutation (ApplyBatch), and the tagged binary form
// (EncodeCounts/DecodeCounts). The sparse table caches its marginal
// projections and maintains them in place under mutation.
//
// Attribute subsets are represented as VarSet multi-word bitmasks over
// attribute positions — an inline word covers the first 64 positions
// allocation-free, and wider schemas spill into further words up to the
// MaxVars sanity ceiling — far beyond the enumeration limits of the dense
// representation itself.
package contingency
