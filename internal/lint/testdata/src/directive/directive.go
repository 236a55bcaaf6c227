// Package directive is a miclint test fixture for suppression parsing:
// malformed and misplaced lint:ignore directives must not suppress, and
// must surface as findings themselves.
//
// lint:deterministic
package directive

import "time"

// typo: the check name does not exist, so the directive reports itself and
// the diagnostic still fires.
func typoCheck() time.Time {
	// lint:ignore virtclck misspelled check name // want `unknown check virtclck`
	return time.Now() // want `time.Now reads the wall clock`
}

// retired: a directive left behind for an analyzer that was deleted names an
// unknown check like any other typo; it cannot go on suppressing nothing.
func retiredCheck() time.Time {
	// lint:ignore seqlock field was guarded by mu // want `unknown check seqlock`
	return time.Now() // want `time.Now reads the wall clock`
}

// position drift: a directive separated from the code it once annotated
// (same line or line directly above) stops suppressing.
func drifted() time.Time {
	// lint:ignore virtclock drifted away from its statement

	return time.Now() // want `time.Now reads the wall clock`
}

// wellPlaced still works, directly above the flagged line.
func wellPlaced() time.Time {
	// lint:ignore virtclock fixture demonstrating a valid suppression
	return time.Now()
}

// sameLine works too.
func sameLine() time.Time {
	return time.Now() // lint:ignore virtclock fixture demonstrating a same-line suppression
}
