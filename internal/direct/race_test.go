//go:build race

package direct

// Under the race detector sync.Pool drops items at random, so
// allocation counts are not meaningful.
func init() { raceEnabled = true }
