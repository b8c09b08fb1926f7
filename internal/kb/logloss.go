package kb

import "pka/internal/contingency"

// LogLoss returns the average negative log-likelihood (nats per sample) the
// knowledge base assigns to observed data — the deployment-time validation
// measure, computed by the compiled engine's LogLoss.
func (k *KnowledgeBase) LogLoss(t contingency.Counts) (float64, error) { return k.eng.LogLoss(t) }
