package shard

// CacheBudgetsForTest returns each shard engine's cache budget in shard
// order, 0 for an engine without a cache.
func CacheBudgetsForTest(c *Coordinator) []int64 {
	budgets := make([]int64, len(c.workers))
	for s, w := range c.workers {
		if cache := w.eng.Cache(); cache != nil {
			budgets[s] = cache.Stats().Budget
		}
	}
	return budgets
}
