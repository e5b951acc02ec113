//go:build race

package t10

// raceEnabled reports a -race build, whose sync.Pool drops Puts at random.
const raceEnabled = true
