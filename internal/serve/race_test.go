//go:build race

package serve

// The race detector makes sync.Pool drop a share of what is put back
// on purpose, so pool-backed allocation counts only hold without it.
func init() { raceEnabled = true }
