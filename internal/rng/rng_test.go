package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("streams with equal seed diverged at draw %d: %d != %d", i, got, want)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds produced %d identical draws", same)
	}
}

func TestChildIndependentOfParentAdvance(t *testing.T) {
	p1 := New(7)
	p2 := New(7)
	p2.Uint64() // advancing the copy must not change a child derived earlier
	c1 := p1.Child(3)
	// Children depend on parent state, so derive both before advancing.
	if c1.Uint64() == p2.Child(3).Uint64() {
		t.Fatal("child derived after parent advanced should differ (state-dependent derivation)")
	}
	// Same state + same path => same child.
	q1, q2 := New(7).Child(3), New(7).Child(3)
	for i := 0; i < 100; i++ {
		if q1.Uint64() != q2.Uint64() {
			t.Fatalf("equal-path children diverged at draw %d", i)
		}
	}
}

func TestChildPathsDistinct(t *testing.T) {
	p := New(99)
	c1 := p.Child(1)
	c2 := p.Child(2)
	c12 := p.Child(1, 2)
	seen := map[uint64]string{}
	for name, c := range map[string]*Stream{"c1": c1, "c2": c2, "c12": c12} {
		v := c.Uint64()
		if prev, ok := seen[v]; ok {
			t.Fatalf("children %s and %s produced identical first draw", prev, name)
		}
		seen[v] = name
	}
}

func TestNamedStable(t *testing.T) {
	a := New(5).Named("mobility")
	b := New(5).Named("mobility")
	c := New(5).Named("placement")
	if a.Uint64() != b.Uint64() {
		t.Fatal("equal labels must give equal streams")
	}
	if New(5).Named("mobility").Uint64() == c.Uint64() {
		t.Fatal("distinct labels should give distinct streams")
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(11)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	s := New(123)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Fatalf("bucket %d count %d deviates more than 10%% from %f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(77)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestRange(t *testing.T) {
	s := New(8)
	for i := 0; i < 1000; i++ {
		v := s.Range(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("Range(-3,5) produced %v", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(4)
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-0.3) > 0.02 {
		t.Fatalf("Bool(0.3) frequency %v", got)
	}
}

func TestPickCoversAll(t *testing.T) {
	s := New(3)
	xs := []string{"a", "b", "c"}
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		seen[Pick(s, xs)] = true
	}
	if len(seen) != len(xs) {
		t.Fatalf("Pick over 200 draws covered only %v", seen)
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(seed)
		xs := []int{1, 2, 2, 3, 5, 8, 13}
		sum := 0
		for _, v := range xs {
			sum += v
		}
		s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		got := 0
		for _, v := range xs {
			got += v
		}
		return got == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	s := New(0)
	if s.Uint64() == 0 && s.Uint64() == 0 && s.Uint64() == 0 {
		t.Fatal("zero-seeded stream looks stuck at zero")
	}
}

func TestDeriveSeedStable(t *testing.T) {
	if DeriveSeed(1, 5) != DeriveSeed(1, 5) {
		t.Fatal("DeriveSeed is not a pure function")
	}
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Fatal("different bases produced the same run seed")
	}
}

// TestDeriveSeedDecorrelated checks the property that motivated replacing
// base+index: seeds of adjacent indices must not produce correlated
// low-bit sequences.
func TestDeriveSeedDecorrelated(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 1000; i++ {
		s := DeriveSeed(42, i)
		if seen[s] {
			t.Fatalf("duplicate seed at index %d", i)
		}
		seen[s] = true
	}
	// Adjacent streams should disagree on roughly half their bits.
	agree := 0
	const trials = 64
	for i := uint64(0); i < trials; i++ {
		a, b := New(DeriveSeed(7, i)), New(DeriveSeed(7, i+1))
		for j := 0; j < 16; j++ {
			if a.Uint64()&1 == b.Uint64()&1 {
				agree++
			}
		}
	}
	frac := float64(agree) / float64(trials*16)
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("adjacent derived streams agree on %.2f of low bits, want ~0.5", frac)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Intn(300)
	}
}
