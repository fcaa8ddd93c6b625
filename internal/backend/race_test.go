//go:build race

package backend

func init() { raceEnabled = true }
