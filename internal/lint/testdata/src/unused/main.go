// Command unused is a miclint test fixture for the unused check: a command,
// every declaration of which is a root, calling into its library package.
package main

import "mic/internal/lint/testdata/src/unused/lib"

func main() {
	lib.Used()
	var s lib.Shape = lib.Square{Side: 2}
	_ = s.Area()
	var sc lib.Scaler = lib.Square{Side: 2}
	_ = sc.Scale(3)
	var g lib.Grower = lib.Square{Side: 2}
	_ = g.Grow(1)
	_ = lib.Second
}
