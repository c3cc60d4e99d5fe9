//go:build race

package fingerprint_test

// The race detector makes sync.Pool drop a share of what is Put, so a warm
// hash allocates there by design.
func init() { raceEnabled = true }
