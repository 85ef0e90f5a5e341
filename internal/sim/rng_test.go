package sim

import (
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(123), NewRNG(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed stuck at zero state")
	}
}

func TestIntnBoundsProperty(t *testing.T) {
	r := NewRNG(99)
	f := func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v outside [0,1)", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(11)
	hits := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / trials
	if frac < 0.27 || frac > 0.33 {
		t.Fatalf("Bool(0.3) hit rate %.3f, want ~0.30", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	dst := make([]int, 17)
	for trial := 0; trial < 50; trial++ {
		r.Perm(dst)
		seen := make([]bool, len(dst))
		for _, v := range dst {
			if v < 0 || v >= len(dst) || seen[v] {
				t.Fatalf("Perm produced invalid permutation %v", dst)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformish(t *testing.T) {
	// Each position should receive each value roughly equally often.
	r := NewRNG(13)
	const n, trials = 4, 12000
	counts := [n][n]int{}
	dst := make([]int, n)
	for i := 0; i < trials; i++ {
		r.Perm(dst)
		for pos, v := range dst {
			counts[pos][v]++
		}
	}
	want := trials / n
	for pos := 0; pos < n; pos++ {
		for v := 0; v < n; v++ {
			if counts[pos][v] < want*8/10 || counts[pos][v] > want*12/10 {
				t.Fatalf("Perm bias: value %d at position %d occurred %d times, want ~%d", v, pos, counts[pos][v], want)
			}
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	root := NewRNG(42)
	a := root.Split()
	b := root.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams produced %d/100 identical draws", same)
	}
}

// TestDiscardEqualsDrawing: skipping over n draws leaves the stream exactly
// where making them would — for the draws Perm makes in particular, which is
// what lets a router not compute a permutation nobody will read.
func TestDiscardEqualsDrawing(t *testing.T) {
	for n := 0; n <= 9; n++ {
		drawn, skipped := NewRNG(21), NewRNG(21)
		for i := 0; i < n; i++ {
			drawn.Uint64()
		}
		skipped.Discard(n)
		if a, b := drawn.Uint64(), skipped.Uint64(); a != b {
			t.Fatalf("after %d draws the stream reads %x, after Discard(%d) %x", n, a, n, b)
		}
	}
	for size := 1; size <= 7; size++ {
		permuted, skipped := NewRNG(5), NewRNG(5)
		permuted.Perm(make([]int, size))
		skipped.Discard(size - 1)
		if a, b := permuted.Uint64(), skipped.Uint64(); a != b {
			t.Fatalf("Perm of %d does not make %d draws", size, size-1)
		}
	}
}
