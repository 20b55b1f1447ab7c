//go:build race

package experiments

// raceEnabled reports a race-detector build, whose sync.Pool drops
// items at random, so allocation counts of pooled paths vary.
const raceEnabled = true
