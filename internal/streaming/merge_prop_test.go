package streaming

import (
	"math"
	"math/rand"
	"testing"
)

// Property tests for the sketch merge operations. DeterministicMerge
// (and any future cross-shard reducer combination) silently relies on
// merges being order-insensitive; these tests pin the exact algebraic
// contract each reducer provides: HyperLogLog merges are a semilattice
// join (commutative, associative, idempotent), DampedWelford merges
// are exactly commutative and associative only to floating-point
// tolerance, IntMean merges are exactly commutative and associative
// to the ±1 truncation of integer division.

// ---- HyperLogLog ----

func hllFrom(t *testing.T, r *rand.Rand, n int) *HyperLogLog {
	t.Helper()
	h, err := NewHyperLogLog(10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		h.Observe(r.Int63n(1<<20), 0)
	}
	return h
}

func hllClone(t *testing.T, h *HyperLogLog) *HyperLogLog {
	t.Helper()
	c, err := NewHyperLogLog(10)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Merge(h); err != nil {
		t.Fatal(err)
	}
	return c
}

func hllEqual(a, b *HyperLogLog) bool {
	if len(a.buckets) != len(b.buckets) {
		return false
	}
	for i := range a.buckets {
		if a.buckets[i] != b.buckets[i] {
			return false
		}
	}
	return true
}

func TestHLLMergeProperties(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 50; trial++ {
		a := hllFrom(t, r, 1+r.Intn(2000))
		b := hllFrom(t, r, 1+r.Intn(2000))
		c := hllFrom(t, r, 1+r.Intn(2000))

		// Commutativity: a ∪ b == b ∪ a, exactly.
		ab := hllClone(t, a)
		must(t, ab.Merge(b))
		ba := hllClone(t, b)
		must(t, ba.Merge(a))
		if !hllEqual(ab, ba) {
			t.Fatalf("trial %d: HLL merge not commutative", trial)
		}

		// Associativity: (a ∪ b) ∪ c == a ∪ (b ∪ c), exactly.
		abc1 := hllClone(t, ab)
		must(t, abc1.Merge(c))
		bc := hllClone(t, b)
		must(t, bc.Merge(c))
		abc2 := hllClone(t, a)
		must(t, abc2.Merge(bc))
		if !hllEqual(abc1, abc2) {
			t.Fatalf("trial %d: HLL merge not associative", trial)
		}

		// Idempotence: a ∪ a == a, exactly.
		aa := hllClone(t, a)
		must(t, aa.Merge(a))
		if !hllEqual(aa, a) {
			t.Fatalf("trial %d: HLL merge not idempotent", trial)
		}
	}
}

func TestHLLMergeUnionEquivalence(t *testing.T) {
	// Merging two sketches must equal one sketch of the combined
	// stream — the property that makes sharded cardinality estimation
	// exact with respect to the sketch.
	r := rand.New(rand.NewSource(5))
	a, _ := NewHyperLogLog(10)
	b, _ := NewHyperLogLog(10)
	union, _ := NewHyperLogLog(10)
	for i := 0; i < 5000; i++ {
		x := r.Int63n(1 << 24)
		union.Observe(x, 0)
		if i%2 == 0 {
			a.Observe(x, 0)
		} else {
			b.Observe(x, 0)
		}
	}
	must(t, a.Merge(b))
	if !hllEqual(a, union) {
		t.Fatal("merged shard sketches differ from the union-stream sketch")
	}
}

func TestHLLMergeSizeMismatch(t *testing.T) {
	a, _ := NewHyperLogLog(8)
	b, _ := NewHyperLogLog(10)
	if err := a.Merge(b); err == nil {
		t.Fatal("bucket-count mismatch accepted")
	}
}

// ---- DampedWelford ----

func dampedFrom(r *rand.Rand, n int, base int64) *DampedWelford {
	d := &DampedWelford{Lambda: 0.1}
	ts := base
	for i := 0; i < n; i++ {
		ts += r.Int63n(50_000_000) // up to 50ms apart
		d.ObserveAt(r.Float64()*1000, ts)
	}
	return d
}

func dampedEqual(a, b *DampedWelford) bool {
	return a.w == b.w && a.linSum == b.linSum && a.sqSum == b.sqSum && a.lastTime == b.lastTime
}

func dampedClose(a, b *DampedWelford, tol float64) bool {
	near := func(x, y float64) bool {
		d := math.Abs(x - y)
		return d <= tol*(1+math.Abs(x)+math.Abs(y))
	}
	return near(a.w, b.w) && near(a.linSum, b.linSum) && near(a.sqSum, b.sqSum) && a.lastTime == b.lastTime
}

func TestDampedMergeProperties(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		a := dampedFrom(r, 1+r.Intn(200), 1_000_000)
		b := dampedFrom(r, 1+r.Intn(200), 2_000_000)
		c := dampedFrom(r, 1+r.Intn(200), 3_000_000)

		// Commutativity is exact: both orders decay to the same common
		// timestamp and perform the same float additions.
		ab, ba := *a, *b
		ab.Merge(b)
		ba.Merge(a)
		if !dampedEqual(&ab, &ba) {
			t.Fatalf("trial %d: damped merge not commutative: %+v vs %+v", trial, ab, ba)
		}

		// Associativity only to floating-point tolerance: decay
		// factors compose multiplicatively in one order and through
		// a single larger exponent in the other.
		abc1 := ab
		abc1.Merge(c)
		bc := *b
		bc.Merge(c)
		abc2 := *a
		abc2.Merge(&bc)
		if !dampedClose(&abc1, &abc2, 1e-9) {
			t.Fatalf("trial %d: damped merge drifted past tolerance: %+v vs %+v", trial, abc1, abc2)
		}

		// The never-started zero value is the identity (damped merges
		// are deliberately NOT idempotent — self-merge doubles the
		// weight).
		id := DampedWelford{Lambda: 0.1}
		ai := *a
		ai.Merge(&id)
		if !dampedEqual(&ai, a) {
			t.Fatalf("trial %d: merging the empty statistic changed the receiver", trial)
		}
		ia := id
		ia.Merge(a)
		if !dampedEqual(&ia, a) {
			t.Fatalf("trial %d: merging into the empty statistic lost state", trial)
		}
	}
}

func TestDampedMergeMatchesInterleavedStream(t *testing.T) {
	// Feeding two shards and merging approximates one statistic fed
	// the interleaved stream. With identical timestamps on the merge
	// boundary the agreement is exact in the moments.
	r := rand.New(rand.NewSource(17))
	var whole, shardA, shardB DampedWelford
	whole.Lambda, shardA.Lambda, shardB.Lambda = 1, 1, 1
	ts := int64(0)
	type sample struct {
		x  float64
		ts int64
	}
	var sa, sb []sample
	for i := 0; i < 400; i++ {
		ts += r.Int63n(10_000_000)
		x := r.Float64() * 100
		whole.ObserveAt(x, ts)
		if i%2 == 0 {
			sa = append(sa, sample{x, ts})
		} else {
			sb = append(sb, sample{x, ts})
		}
	}
	for _, s := range sa {
		shardA.ObserveAt(s.x, s.ts)
	}
	for _, s := range sb {
		shardB.ObserveAt(s.x, s.ts)
	}
	shardA.Merge(&shardB)
	if math.Abs(shardA.Mean()-whole.Mean()) > 1e-6*(1+math.Abs(whole.Mean())) {
		t.Fatalf("merged mean %g vs interleaved %g", shardA.Mean(), whole.Mean())
	}
	if math.Abs(shardA.Weight()-whole.Weight()) > 1e-6*(1+whole.Weight()) {
		t.Fatalf("merged weight %g vs interleaved %g", shardA.Weight(), whole.Weight())
	}
}

// ---- IntMean ----

func intMeanFrom(r *rand.Rand, n int) *IntMean {
	im := &IntMean{}
	for i := 0; i < n; i++ {
		im.Observe(r.Int63n(100_000))
	}
	return im
}

func TestIntMeanMergeProperties(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		a := intMeanFrom(r, 1+r.Intn(500))
		b := intMeanFrom(r, 1+r.Intn(500))
		c := intMeanFrom(r, 1+r.Intn(500))

		// Commutativity is exact: the weighted formula is symmetric
		// and integer arithmetic has no rounding order-dependence.
		ab, ba := *a, *b
		ab.Merge(b)
		ba.Merge(a)
		if ab.Mean() != ba.Mean() || ab.Count() != ba.Count() {
			t.Fatalf("trial %d: intmean merge not commutative: %d/%d vs %d/%d",
				trial, ab.Mean(), ab.Count(), ba.Mean(), ba.Count())
		}

		// Associativity to ±1: the truncating division happens at
		// different intermediate points.
		abc1 := ab
		abc1.Merge(c)
		bc := *b
		bc.Merge(c)
		abc2 := *a
		abc2.Merge(&bc)
		if abc1.Count() != abc2.Count() {
			t.Fatalf("trial %d: counts diverged: %d vs %d", trial, abc1.Count(), abc2.Count())
		}
		if d := abc1.Mean() - abc2.Mean(); d < -1 || d > 1 {
			t.Fatalf("trial %d: means diverged past ±1: %d vs %d", trial, abc1.Mean(), abc2.Mean())
		}

		// Zero value is the identity, in both directions.
		ai := *a
		ai.Merge(&IntMean{})
		if ai.Mean() != a.Mean() || ai.Count() != a.Count() {
			t.Fatalf("trial %d: merging empty changed the receiver", trial)
		}
		ia := IntMean{}
		ia.Merge(a)
		if ia.Mean() != a.Mean() || ia.Count() != a.Count() {
			t.Fatalf("trial %d: merging into empty lost state", trial)
		}
	}
}

func TestIntMeanMergeTracksTrueMean(t *testing.T) {
	// The merged mean must match the exact mean of the union within
	// the reducer's own approximation envelope.
	r := rand.New(rand.NewSource(77))
	a := &IntMean{}
	b := &IntMean{}
	var sum, n int64
	for i := 0; i < 10_000; i++ {
		x := r.Int63n(1_000)
		sum, n = sum+x, n+1
		if i%2 == 0 {
			a.Observe(x)
		} else {
			b.Observe(x)
		}
	}
	a.Merge(b)
	exact := sum / n
	if d := a.Mean() - exact; d < -5 || d > 5 {
		t.Fatalf("merged mean %d drifted from exact %d", a.Mean(), exact)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
