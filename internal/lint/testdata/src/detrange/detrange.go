// Package detrange is a miclint test fixture: order-sensitive and
// order-insensitive map iteration, plus a reviewed suppression.
//
// lint:deterministic
package detrange

import "sort"

// emitsInOrder appends in map order — the canonical bug.
func emitsInOrder(m map[string]int) []string {
	var out []string
	for k := range m { // want `range over map`
		out = append(out, k)
	}
	return out
}

// firstMatch returns whichever key the iterator happens to visit first.
func firstMatch(m map[string]bool) string {
	for k, ok := range m { // want `range over map`
		if ok {
			return k
		}
	}
	return ""
}

// argmax breaks ties by iteration order.
func argmax(m map[string]int) string {
	best := ""
	bestV := -1
	for k, v := range m { // want `range over map`
		if v > bestV {
			best, bestV = k, v
		}
	}
	return best
}

// sumValues is exempt: commutative accumulation.
func sumValues(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// count is exempt: counters, conditionals, and body-locals only.
func count(m map[string]int) int {
	n := 0
	for _, v := range m {
		if v > 0 {
			doubled := v * 2
			_ = doubled
			n++
		} else {
			n += 0
		}
	}
	return n
}

// rekey is exempt: each iteration writes a distinct key of the target map.
func rekey(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v * 2
	}
	return out
}

// rekeyCall is exempt too: the value comes from a call, but each iteration
// still writes its own key.
func rekeyCall(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = double(v)
	}
	return out
}

func double(v int) int { return 2 * v }

var visited []string

// effect is a call made for its side effect, which depends on call order.
func effect(k string) error {
	visited = append(visited, k)
	return nil
}

// blankedEffect discards the result of a call for effect: the blank target
// hides the call from nothing, and the calls run in map order.
func blankedEffect(m map[string]int) {
	for k := range m { // want `range over map`
		_ = effect(k)
	}
}

// drain is exempt: delete of the visited key.
func drain(m map[string]int) {
	for k := range m {
		delete(m, k)
	}
}

// collectSorted is the reviewed pattern: collect keys, sort, iterate. The
// classifier cannot see the sort, so the loop carries a suppression.
func collectSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	// lint:ignore detrange keys are collected then sorted immediately below
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sliceRange is exempt: not a map at all.
func sliceRange(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}
