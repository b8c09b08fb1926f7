package kb

import (
	"strconv"
	"sync"

	"pka/internal/contingency"
	"pka/internal/memo"
)

// The engine-tier (L2) cache: a knowledge base optionally carries a
// version-keyed memo.Cache and serves its engine primitives — joint
// probabilities (the shared conditional denominators), conditional-slice
// sweeps, and MPE argmax passes — from it. A model arms one across
// requests; query.AnswerBatch arms one per batch when the model has none,
// so the queries of a batch price their shared work once.
//
// Cached values are immutable once inserted (pkalint's memoimmut rule):
// float64s copy by value, numerator slices are returned to callers as
// read-only views, and Explanations are copied on every hit.

// keyScratchPool pools the byte buffers cache keys render into: a
// knowledge base is queried from many goroutines at once, so each
// rendering borrows a buffer.
var keyScratchPool = sync.Pool{New: func() any { return new(cacheKeyBuf) }}

type cacheKeyBuf struct{ buf []byte }

// WithCache returns a view of the knowledge base that memoizes engine
// primitives in c, keyed under the given model version. The receiver is
// not modified; the view shares schema, model, and compiled engine, so it
// answers bit-identically — hits replay exactly the float64s a cold call
// would compute.
func (k *KnowledgeBase) WithCache(c *memo.Cache, version int64) *KnowledgeBase {
	view := *k
	view.cache = c
	view.cacheVersion = version
	return &view
}

// Cache returns the attached memoization cache (nil when off) — the
// serving layer reads its Stats for GET /v1/stats.
func (k *KnowledgeBase) Cache() *memo.Cache { return k.cache }

// appendAssignKey renders a resolved assignment canonically as its VarSet
// key and ascending values, so every ordering of one evidence set hits the
// same entry.
func appendAssignKey(dst []byte, vs contingency.VarSet, values []int) []byte {
	dst = vs.AppendKey(dst)
	for _, v := range values {
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return dst
}

// cachedProb is eng.Prob behind the cache: key "p|" + canonical
// assignment.
func (k *KnowledgeBase) cachedProb(vs contingency.VarSet, values []int) (float64, error) {
	if k.cache == nil {
		return k.eng.Prob(vs, values)
	}
	ks := keyScratchPool.Get().(*cacheKeyBuf)
	key := append(ks.buf[:0], 'p', '|')
	key = appendAssignKey(key, vs, values)
	ks.buf = key
	if v, ok := k.cache.Get(key, k.cacheVersion); ok {
		keyScratchPool.Put(ks)
		return v.(float64), nil
	}
	p, err := k.eng.Prob(vs, values)
	if err == nil {
		k.cache.Put(key, k.cacheVersion, p, 8)
	}
	keyScratchPool.Put(ks)
	return p, err
}

// cachedMarginal is eng.MarginalGiven behind the cache: the conditional-
// slice numerators of attribute pos under the resolved evidence, keyed
// "m|" + canonical evidence + "|" + pos. fixed supplies the full-width
// clamp vector and is only invoked on a miss, so hits skip building it.
// The returned slice is the published cache value: callers must treat it
// as read-only.
func (k *KnowledgeBase) cachedMarginal(vs contingency.VarSet, values []int, pos int, fixed func() []int) ([]float64, error) {
	if k.cache == nil {
		return k.eng.MarginalGiven(contingency.NewVarSet(pos), fixed())
	}
	ks := keyScratchPool.Get().(*cacheKeyBuf)
	key := append(ks.buf[:0], 'm', '|')
	key = appendAssignKey(key, vs, values)
	key = append(key, '|')
	key = strconv.AppendInt(key, int64(pos), 10)
	ks.buf = key
	if v, ok := k.cache.Get(key, k.cacheVersion); ok {
		keyScratchPool.Put(ks)
		return v.([]float64), nil
	}
	nums, err := k.eng.MarginalGiven(contingency.NewVarSet(pos), fixed())
	if err == nil {
		k.cache.Put(key, k.cacheVersion, nums, int64(8*len(nums)))
	}
	keyScratchPool.Put(ks)
	return nums, err
}

// cachedMPE is eng.MaxCell + labeling behind the cache, keyed "x|" +
// canonical evidence. Hits return a fresh copy so callers may keep or
// mutate their Explanation freely; the cached value stays frozen.
func (k *KnowledgeBase) cachedMPE(vs contingency.VarSet, values []int, fixed func() []int) (Explanation, error) {
	if k.cache == nil {
		best, bestP, err := k.eng.MaxCell(fixed())
		if err != nil {
			return Explanation{}, err
		}
		return k.explanationFrom(best, bestP), nil
	}
	ks := keyScratchPool.Get().(*cacheKeyBuf)
	key := append(ks.buf[:0], 'x', '|')
	key = appendAssignKey(key, vs, values)
	ks.buf = key
	if v, ok := k.cache.Get(key, k.cacheVersion); ok {
		keyScratchPool.Put(ks)
		return copyExplanation(v.(Explanation)), nil
	}
	best, bestP, err := k.eng.MaxCell(fixed())
	if err != nil {
		keyScratchPool.Put(ks)
		return Explanation{}, err
	}
	exp := k.explanationFrom(best, bestP)
	k.cache.Put(key, k.cacheVersion, exp, explanationCost(exp))
	keyScratchPool.Put(ks)
	return copyExplanation(exp), nil
}

// copyExplanation guards the cached completion from caller mutation.
func copyExplanation(e Explanation) Explanation {
	return Explanation{
		Assignments: append([]Assignment(nil), e.Assignments...),
		Probability: e.Probability,
	}
}

// explanationCost estimates an Explanation's resident bytes for the
// cache's budget accounting.
func explanationCost(e Explanation) int64 {
	cost := int64(16) // probability + slice header
	for _, a := range e.Assignments {
		cost += int64(32 + len(a.Attr) + len(a.Value))
	}
	return cost
}
