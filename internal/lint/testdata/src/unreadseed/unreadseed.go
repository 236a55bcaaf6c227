// Package unreadseed is a miclint test fixture: functions that take a seed
// and ignore it, beside ones that use it and a reviewed suppression.
//
// lint:deterministic
package unreadseed

import "math/rand"

type config struct{ Seed int64 }

// ignored builds its config without the seed it was handed.
func ignored(seed int64) config { // want `parameter seed is never used`
	return config{}
}

// threaded passes its seed on.
func threaded(seed int64) config {
	return config{Seed: seed}
}

// drawn roots a generator in its seed.
func drawn(n int, seed int64) int {
	return rand.New(rand.NewSource(seed)).Intn(n)
}

// trials ignores the seed of each trial in a literal.
func trials() []config {
	run := func(seed int64) config { // want `parameter seed is never used`
		return config{Seed: 1}
	}
	return []config{run(1), run(2)}
}

// other names are not the check's business.
func other(salt int64) config {
	return config{}
}

// suppressed carries a reviewed lint:ignore.
func suppressed(
	seed int64, // lint:ignore unreadseed the signature matches a seeded sibling
) config {
	return config{}
}
