//go:build race

package main

// raceEnabled reports a -race build, whose sync.Pool drops Puts at random.
const raceEnabled = true
