package kb

import (
	"fmt"
)

// Explanation is a full assignment of every attribute with its joint
// probability — the output of MostProbableExplanation.
type Explanation struct {
	Assignments []Assignment
	Probability float64
}

// MostProbableExplanation returns the highest-probability completion of the
// evidence over all remaining attributes (MPE / MAP inference): the single
// world state the knowledge base considers most likely given what is known.
//
// Dense models enumerate the free attributes' joint space; wide factored
// models take the exact argmax independently per constraint block, so MPE
// stays affordable on schemas whose joint space cannot be enumerated. Ties
// break toward lower value indices for determinism. Evidence with zero
// probability is an error, mirroring Conditional.
func (k *KnowledgeBase) MostProbableExplanation(given ...Assignment) (Explanation, error) {
	vs, values, err := k.resolve(given)
	if err != nil {
		return Explanation{}, err
	}
	pEvidence, err := k.cachedProb(vs, values)
	if err != nil {
		return Explanation{}, err
	}
	if pEvidence == 0 {
		return Explanation{}, fmt.Errorf("kb: evidence %v has zero probability", given)
	}
	return k.cachedMPE(vs, values, func() []int { return k.clamp(vs, values) })
}

// explanationFrom labels a full cell as an Explanation.
func (k *KnowledgeBase) explanationFrom(best []int, p float64) Explanation {
	out := Explanation{Probability: p}
	for pos := 0; pos < k.schema.R(); pos++ {
		a := k.schema.Attr(pos)
		out.Assignments = append(out.Assignments, Assignment{
			Attr:  a.Name,
			Value: a.Values[best[pos]],
		})
	}
	return out
}
