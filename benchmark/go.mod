module mic/benchmark

go 1.22

// The benchmark is its own module so that it builds with its own build
// file; the replace points at the repository it measures. The module path
// keeps the mic/ prefix, which is what lets it import mic/internal/...
require mic v0.0.0

replace mic => ../
