//go:build race

package engine

// raceEnabled reports whether the tests run under the race detector,
// which makes sync.Pool drop entries at random: allocation counts of code
// that formats through fmt stop being deterministic.
const raceEnabled = true
