// Package stats provides the numeric substrate used throughout pka:
// log-gamma based combinatorics, the binomial distribution of Eqs. 32-34 of
// the memo, information-theoretic quantities (entropy, KL divergence, mutual
// information), chi-square statistics and tail probabilities for the
// association screen and the goodness-of-fit test, and a deterministic seeded
// random source for synthetic workloads.
//
// Everything here is pure computation on float64/int64 and is safe for
// concurrent use except RNG, which is documented separately.
package stats
