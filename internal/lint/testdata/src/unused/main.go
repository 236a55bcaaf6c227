// Command unused is a miclint test fixture for the unused check: a command,
// every declaration of which is a root, calling into its library package.
package main

import "mic/internal/lint/testdata/src/unused/lib"

func main() {
	lib.Used()
	var s lib.Shape = lib.Square{Side: 2}
	_ = s.Area()
	_ = lib.Second
}
