//go:build race

package chunk

func init() { raceEnabled = true }
