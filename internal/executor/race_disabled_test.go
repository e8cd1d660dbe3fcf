//go:build !race

package executor

// See race_enabled_test.go.
const raceEnabled = false
