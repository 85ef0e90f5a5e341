package sim

// RNG is a small, fast, deterministic pseudo-random number generator
// (xorshift64* by Vigna). Every stochastic decision in the simulator —
// traffic destinations, injection timing, and the random arbitration the
// paper specifies — draws from an explicitly seeded RNG so that runs are
// exactly reproducible.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is remapped to a
// fixed non-zero constant because xorshift has an all-zero fixed point.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state.
func (r *RNG) Seed(seed uint64) {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	r.state = seed
	// Scramble the seed so that small consecutive seeds do not produce
	// correlated early outputs.
	for i := 0; i < 4; i++ {
		r.Uint64()
	}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Discard advances the stream past its next n draws without computing their
// values. A component whose draws would be dead this cycle uses it to skip
// the computing and still leave the stream where making them would have.
func (r *RNG) Discard(n int) {
	x := r.state
	for ; n > 0; n-- {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
	}
	r.state = x
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm fills dst with a uniform random permutation of [0, len(dst)) using
// Fisher-Yates. Reusing the caller's slice avoids per-cycle allocation in
// arbitration hot paths.
func (r *RNG) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	Shuffle(r, dst)
}

// Shuffle permutes s uniformly at random in place by Fisher-Yates, drawing
// r.Intn(i+1) for each i from len(s)-1 down to 1: the arbitration order of
// every fabric's router, so the draws and their order are part of every
// pinned result.
func Shuffle[T any](r *RNG, s []T) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Split derives an independent generator from this one. It is used to give
// each node its own stream so adding components does not perturb the draws
// seen by others.
func (r *RNG) Split() *RNG {
	child := &RNG{}
	r.SplitInto(child)
	return child
}

// SplitInto is Split into a generator the caller already holds: child restarts
// as the stream Split would have returned, whatever it had drawn before.
func (r *RNG) SplitInto(child *RNG) {
	child.Seed(r.Uint64() | 1)
}
