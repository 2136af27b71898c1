//go:build race

package core

// raceEnabled reports a race-detector build, under which sync.Pool drops
// items at random, so that pooled paths allocate.
const raceEnabled = true
