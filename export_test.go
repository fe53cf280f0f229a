package wwt

// WithoutTables returns an engine over e's searcher whose generation
// holds no tables, so every Read1 that resolves a hit panics. The panic
// isolation tests use it; e must be an in-memory engine, whose searcher
// Close leaves usable.
func WithoutTables(e *Engine) *Engine {
	return newEngine(newGeneration(e.Searcher(), nil), &e.Opts)
}
