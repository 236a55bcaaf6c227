// Package lib is the library half of the unused fixture: what the command
// reaches stays silent, what nothing reaches is reported.
package lib

// Used is called from the command: a use from another package.
func Used() { helper() }

// helper is reached through Used.
func helper() {}

// Shape is the interface the command calls Area through.
type Shape interface{ Area() int }

// Square is converted to Shape; Area is reached only through the interface.
type Square struct{ Side int }

func (s Square) Area() int { return s.Side * s.Side }

// Perimeter is a method of a live type that no call or interface reaches.
func (s Square) Perimeter() int { return 4 * s.Side } // want `Square.Perimeter is unused`

// countdown's only use is itself.
func countdown(n int) int { // want `countdown is unused`
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// orphan is used only by its own methods, which nothing calls.
type orphan struct{ n int } // want `orphan is unused`

func (o *orphan) inc() { o.n++ } // want `orphan.inc is unused`

// TestOnly is called from lib_test.go only.
func TestOnly() int { return 1 } // want `TestOnly is unused`

// Oracle is kept, and a kept type keeps its methods and what they use.
// lint:ignore unused fixture: a reviewed keep
type Oracle struct{}

func (Oracle) Check() bool { return checked() }

func checked() bool { return true }

// noReason's directive has no reason, so it keeps nothing.
func noReason() {} /* want `noReason is unused` */ /* want `lint:ignore unused needs a reason` */ // lint:ignore unused

// Kind is an iota enum: the command uses only Second, and all three live.
type Kind int

const (
	First Kind = iota
	Second
	Third
)
