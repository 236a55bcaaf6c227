package sim

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256**, seeded through splitmix64). Each simulated component takes
// its own RNG stream, derived from the trial seed and a component label, so
// adding a component never perturbs the random choices of another — a
// requirement for meaningful A/B experiments between schemes.
type RNG struct {
	s [4]uint64
}

// RecordRoot, when non-nil, receives the seed of every generator NewRNG
// makes, Stream's children included, on the goroutine making it. A test
// seam: set it only while no engine runs, and serialise what it records,
// since the harness runs trials on several goroutines.
var RecordRoot func(seed uint64)

// NewRNG returns a generator seeded from seed via splitmix64.
func NewRNG(seed uint64) *RNG {
	if RecordRoot != nil {
		RecordRoot(seed)
	}
	r := &RNG{}
	for i := range r.s {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Stream derives an independent child generator from r and a label. The
// label is hashed (FNV-1a) into the seed so distinct labels give distinct,
// reproducible streams.
func (r *RNG) Stream(label string) *RNG {
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return NewRNG(r.Uint64() ^ h)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Uint32 returns the next 32 random bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 { return float64(r.Uint64()>>11) / (1 << 53) }

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.PermInto(make([]int, n)) }

// PermInto fills p with a random permutation of [0, len(p)) and returns it,
// drawing exactly as Perm(len(p)) does; what p held before does not matter.
func (r *RNG) PermInto(p []int) []int {
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Pick returns a uniformly chosen element of xs. It panics on empty input.
func Pick[T any](r *RNG, xs []T) T {
	return xs[r.Intn(len(xs))]
}
