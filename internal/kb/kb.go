package kb

import (
	"fmt"
	"sort"
	"strings"

	"pka/internal/contingency"
	"pka/internal/dataset"
	"pka/internal/maxent"
	"pka/internal/memo"
)

// KnowledgeBase is a queryable probabilistic model bound to a schema. It
// serves every query from an immutable compiled inference engine built at
// construction time, so any number of goroutines may query one knowledge
// base concurrently with no locking and near-zero allocation.
type KnowledgeBase struct {
	schema *dataset.Schema
	model  *maxent.Model
	eng    *maxent.Compiled
	// cache, when non-nil, memoizes engine primitives across requests
	// under cacheVersion — see WithCache in cache.go. Both fields are set
	// only at construction of a view; a KnowledgeBase never mutates.
	cache        *memo.Cache
	cacheVersion int64
}

// New binds a fitted model to its schema and compiles the model's inference
// engine. The schema's attribute order and cardinalities must match the
// model's. The knowledge base snapshots the model's coefficients: mutating
// the model afterwards (AddConstraint/Fit) is not reflected — build a new
// knowledge base from the refitted model instead.
func New(schema *dataset.Schema, model *maxent.Model) (*KnowledgeBase, error) {
	if schema == nil || model == nil {
		return nil, fmt.Errorf("kb: nil schema or model")
	}
	if schema.R() != model.R() {
		return nil, fmt.Errorf("kb: schema has %d attributes, model has %d",
			schema.R(), model.R())
	}
	cards := model.Cards()
	for i := 0; i < schema.R(); i++ {
		if schema.Attr(i).Card() != cards[i] {
			return nil, fmt.Errorf("kb: attribute %q has %d values in schema, %d in model",
				schema.Attr(i).Name, schema.Attr(i).Card(), cards[i])
		}
	}
	eng, err := model.Compile()
	if err != nil {
		return nil, fmt.Errorf("kb: compiling model: %w", err)
	}
	return &KnowledgeBase{schema: schema, model: model, eng: eng}, nil
}

// Schema returns the bound schema.
func (k *KnowledgeBase) Schema() *dataset.Schema { return k.schema }

// Model returns the underlying product-form model.
func (k *KnowledgeBase) Model() *maxent.Model { return k.model }

// Assignment names one attribute value, by label. The JSON form is the
// serving wire format's building block: {"attr": "CANCER", "value": "Yes"}.
type Assignment struct {
	Attr  string `json:"attr"`
	Value string `json:"value"`
}

// String renders "CANCER=Yes".
func (a Assignment) String() string { return a.Attr + "=" + a.Value }

// resolve converts label assignments to (VarSet, ascending values), checking
// for unknown names, unknown values, and contradictory duplicates. Positions
// are bounded by the schema width, so a stack array stands in for a per-call
// map on narrow schemas (wider ones size a slice to the schema) — the values
// slice is the query hot path's only allocation here.
func (k *KnowledgeBase) resolve(assigns []Assignment) (contingency.VarSet, []int, error) {
	var vs contingency.VarSet
	var stack [64]int
	byPos := stack[:]
	if r := k.schema.R(); r > len(byPos) {
		byPos = make([]int, r)
	}
	for _, a := range assigns {
		attr, pos, err := k.schema.AttrByName(a.Attr)
		if err != nil {
			return contingency.VarSet{}, nil, fmt.Errorf("kb: %w", err)
		}
		vi := attr.ValueIndex(a.Value)
		if vi < 0 {
			return contingency.VarSet{}, nil, fmt.Errorf("kb: attribute %q has no value %q", a.Attr, a.Value)
		}
		if vs.Has(pos) {
			if byPos[pos] != vi {
				return contingency.VarSet{}, nil, fmt.Errorf("kb: contradictory assignments for %q", a.Attr)
			}
			continue
		}
		byPos[pos] = vi
		vs = vs.Add(pos)
	}
	members := vs.Members()
	values := make([]int, len(members))
	for i, p := range members {
		values[i] = byPos[p]
	}
	return vs, values, nil
}

// clamp renders a resolved assignment as the engine's full-width fixed
// vector: each assigned position holds its value, every other one -1.
func (k *KnowledgeBase) clamp(vs contingency.VarSet, values []int) []int {
	fixed := make([]int, k.schema.R())
	for i := range fixed {
		fixed[i] = -1
	}
	for i, p := range vs.Members() {
		fixed[p] = values[i]
	}
	return fixed
}

// Probability returns the joint probability of the given assignments.
// With no assignments it returns 1 (the empty event is certain).
func (k *KnowledgeBase) Probability(assigns ...Assignment) (float64, error) {
	if len(assigns) == 0 {
		return 1, nil
	}
	vs, values, err := k.resolve(assigns)
	if err != nil {
		return 0, err
	}
	return k.cachedProb(vs, values)
}

// errZeroEvidence is the one rendering of the zero-probability-evidence
// failure, shared by Conditional and Distribution.
func errZeroEvidence(given []Assignment) error {
	return fmt.Errorf("kb: conditioning on zero-probability evidence %v", given)
}

// Conditional returns P(target | given) = P(target, given) / P(given),
// the memo's ratio of joint probabilities. It errors when the evidence has
// zero probability or when target and evidence contradict each other.
func (k *KnowledgeBase) Conditional(target []Assignment, given []Assignment) (float64, error) {
	if len(target) == 0 {
		return 1, nil
	}
	denom, err := k.Probability(given...)
	if err != nil {
		return 0, err
	}
	if denom == 0 {
		return 0, errZeroEvidence(given)
	}
	both := make([]Assignment, 0, len(target)+len(given))
	both = append(both, target...)
	both = append(both, given...)
	num, err := k.Probability(both...)
	if err != nil {
		return 0, err
	}
	return num / denom, nil
}

// Distribution returns the full conditional distribution of attr given the
// evidence: one probability per value label, summing to 1. The numerators
// of every value are computed in a single batch elimination sweep.
func (k *KnowledgeBase) Distribution(attr string, given ...Assignment) (map[string]float64, error) {
	a, pos, err := k.schema.AttrByName(attr)
	if err != nil {
		return nil, fmt.Errorf("kb: %w", err)
	}
	for _, g := range given {
		if g.Attr == attr {
			return nil, fmt.Errorf("kb: cannot condition %q on itself", attr)
		}
	}
	gvs, gvals, err := k.resolve(given)
	if err != nil {
		return nil, err
	}
	denom := 1.0
	if len(given) > 0 {
		denom, err = k.cachedProb(gvs, gvals)
		if err != nil {
			return nil, err
		}
		if denom == 0 {
			return nil, errZeroEvidence(given)
		}
	}
	nums, err := k.cachedMarginal(gvs, gvals, pos, func() []int { return k.clamp(gvs, gvals) })
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, a.Card())
	total := 0.0
	for i, v := range a.Values {
		p := nums[i] / denom
		out[v] = p
		total += p
	}
	if total < 0.999999 || total > 1.000001 {
		return nil, fmt.Errorf("kb: conditional distribution of %q sums to %g", a.Name, total)
	}
	return out, nil
}

// MostLikely returns the most probable value of attr given the evidence and
// its probability; ties break toward the earlier value label.
func (k *KnowledgeBase) MostLikely(attr string, given ...Assignment) (string, float64, error) {
	a, _, err := k.schema.AttrByName(attr)
	if err != nil {
		return "", 0, fmt.Errorf("kb: %w", err)
	}
	dist, err := k.Distribution(attr, given...)
	if err != nil {
		return "", 0, err
	}
	best, bestP := "", -1.0
	for _, v := range a.Values {
		if dist[v] > bestP {
			best, bestP = v, dist[v]
		}
	}
	return best, bestP, nil
}

// Lift returns P(target | given) / P(target): how much the evidence moves
// the target relative to its base rate. Lift > 1 means positive association.
func (k *KnowledgeBase) Lift(target Assignment, given ...Assignment) (float64, error) {
	base, err := k.Probability(target)
	if err != nil {
		return 0, err
	}
	if base == 0 {
		return 0, fmt.Errorf("kb: target %v has zero base probability", target)
	}
	cond, err := k.Conditional([]Assignment{target}, given)
	if err != nil {
		return 0, err
	}
	return cond / base, nil
}

// Explain renders the stored formula constraint by constraint in the memo's
// notation, most significant families first, value labels spelled out.
func (k *KnowledgeBase) Explain() string {
	var b strings.Builder
	cons := k.model.Constraints()
	sort.SliceStable(cons, func(i, j int) bool {
		if cons[i].Order() != cons[j].Order() {
			return cons[i].Order() < cons[j].Order()
		}
		return cons[i].Family.Less(cons[j].Family)
	})
	fmt.Fprintf(&b, "p(cell) = a0 · Π a_constraint   (%d constraints)\n", len(cons))
	for _, c := range cons {
		members := c.Family.Members()
		parts := make([]string, len(members))
		for i, p := range members {
			attr := k.schema.Attr(p)
			parts[i] = fmt.Sprintf("%s=%s", attr.Name, attr.Values[c.Values[i]])
		}
		fmt.Fprintf(&b, "  P(%s) = %.6f\n", strings.Join(parts, ", "), c.Target)
	}
	return b.String()
}
