package streaming

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// The shared arithmetic's exact-math tests (shared.go). Both legs of
// every differential run this code, so no differential can see a slip
// in it: each function is held here to an independent statement of what
// it computes.

// TestExp2MatchesMathExp2: the decay's exp2 is math.Exp2 bit for bit —
// across its scaled range, at every catalog rate over intervals up to
// 2^31 ns, at the half-integers where the reduction's k rounds, at the
// edges of the range and at the special values — and DecayFactor is
// math.Exp2 of -λ·Δt. So is every lane of a Decay row, which computes
// its lanes in one pass: rows at the catalog rates, and rows that mix
// lanes in range with lanes whose -λ·Δt falls below -1022 (λ = 5 beside
// λ = 0.01 past ~204.4 s) and underflows.
func TestExp2MatchesMathExp2(t *testing.T) {
	bad := 0
	// exp2 is the row's one-lane case at an exponent: λ = -x over one
	// second, -(-x)·1 = x exactly.
	exp2 := func(x float64) float64 {
		var f [1]float64
		exp2Row(f[:], []float64{-x}, 1e9)
		return f[0]
	}
	same := func(x float64) {
		if got, want := exp2(x), math.Exp2(x); math.Float64bits(got) != math.Float64bits(want) && bad < 10 {
			bad++
			t.Errorf("exp2(%v) = %v (%#x), math.Exp2 %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<19; i++ {
		same(-1022 * rng.Float64())
		same(-math.Ldexp(rng.Float64(), -rng.Intn(64))) // near 0, where decays mostly are
	}
	for k := 0; k <= 1022; k++ {
		h := -float64(k) - 0.5
		same(h)
		same(math.Nextafter(h, 0))
		same(math.Nextafter(h, math.Inf(-1)))
	}
	for _, x := range []float64{0, math.Copysign(0, -1), -1022, -1022.5, -1074, -1075,
		math.Nextafter(-1022, 0), math.Nextafter(-1022, -2000), math.NaN(), math.Inf(-1)} {
		same(x)
	}
	catalog := []float64{5, 3, 1, 0.1, 0.01}
	for _, lambda := range catalog {
		check := func(dt int64) {
			want := math.Exp2(-lambda * (float64(dt) / 1e9))
			if got := DecayFactor(lambda, dt); math.Float64bits(got) != math.Float64bits(want) && bad < 10 {
				bad++
				t.Errorf("DecayFactor(%v, %d) = %v, math.Exp2 %v", lambda, dt, got, want)
			}
		}
		for dt := int64(1); dt <= 1<<31; dt += dt/64 + 1 {
			check(dt)
		}
		for i := 0; i < 1<<14; i++ {
			check(1 + rng.Int63n(1<<31))
		}
	}
	rows := func(lambdas []float64, dts func() int64, n int) {
		var d Decay
		for _, l := range lambdas {
			d.Lane(l)
		}
		for i := 0; i < n; i++ {
			dt := dts()
			d.Reset()
			for l, got := range d.row(dt) {
				want := math.Exp2(-d.lambdas[l] * (float64(dt) / 1e9))
				if math.Float64bits(got) != math.Float64bits(want) && bad < 10 {
					bad++
					t.Errorf("row %v at %d ns, lane %d: %v, math.Exp2 %v", d.lambdas, dt, l, got, want)
				}
			}
		}
	}
	rows(catalog, func() int64 { return 1 + rng.Int63n(1<<31) }, 1<<14)
	rows(catalog, func() int64 { return 1 + rng.Int63n(1e12) }, 1<<14)
	// -5·Δt passes -1022 at Δt = 204.4 s and the factor underflows to 0
	// past ~215 s, while λ = 0.01 stays in range.
	past := func() int64 { return 200e9 + rng.Int63n(30e9) }
	for _, lambdas := range [][]float64{{5, 0.01}, {0.01, 5}, {5, 3, 0.01, 1, 0.1}, {0.1, 5, 0.01, 5.5}} {
		rows(lambdas, past, 1<<12)
	}
}

// TestHash32IsFmix64: Hash32 is the low 32 bits of MurmurHash3's 64-bit
// finalizer fmix64, computed here independently in arbitrary precision
// from its definition: k ^= k>>33; k *= 0xff51afd7ed558ccd; k ^= k>>33;
// k *= 0xc4ceb9fe1a85ec53; k ^= k>>33, every product taken mod 2^64.
func TestHash32IsFmix64(t *testing.T) {
	mod := new(big.Int).Lsh(big.NewInt(1), 64)
	c1, _ := new(big.Int).SetString("ff51afd7ed558ccd", 16)
	c2, _ := new(big.Int).SetString("c4ceb9fe1a85ec53", 16)
	fmix64 := func(x int64) uint32 {
		k := new(big.Int).SetInt64(x)
		k.Mod(k, mod) // the two's-complement bits as a non-negative integer
		shiftXor := func() { k.Xor(k, new(big.Int).Rsh(k, 33)) }
		shiftXor()
		k.Mod(k.Mul(k, c1), mod)
		shiftXor()
		k.Mod(k.Mul(k, c2), mod)
		shiftXor()
		return uint32(new(big.Int).And(k, big.NewInt(math.MaxUint32)).Uint64())
	}
	xs := []int64{0, 1, -1, math.MinInt64, math.MaxInt64}
	rng := rand.New(rand.NewSource(1))
	for range 2000 {
		xs = append(xs, int64(rng.Uint64()), rng.Int63n(1<<16))
	}
	for _, x := range xs {
		if got, want := Hash32(x), fmix64(x); got != want {
			t.Fatalf("Hash32(%d) = %#x, fmix64 %#x", x, got, want)
		}
	}
}

// TestHLLEstimateConstants: for every register count a sketch can have
// (2^2 … 2^16), the raw estimate is α_m·m²/sum with Flajolet et al.'s
// constants, α16 = 0.673, α32 = 0.697, α64 = 0.709 and
// α_m = 0.7213/(1+1.079/m) otherwise; while a register is empty, an
// estimate of at most 2.5m switches to linear counting, m·ln(m/zeros),
// and a sketch of empty registers estimates 0.
func TestHLLEstimateConstants(t *testing.T) {
	for b := 2; b <= 16; b++ {
		m := 1 << b
		mf := float64(m)
		alpha := 0.7213 / (1 + 1.079/mf)
		switch m {
		case 16:
			alpha = 0.673
		case 32:
			alpha = 0.697
		case 64:
			alpha = 0.709
		}
		raw := func(sum float64) float64 { return alpha * mf * mf / sum }
		same := func(what string, got, want float64) {
			t.Helper()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("m=%d %s: %v, want %v", m, what, got, want)
			}
		}
		// No empty register: the raw estimate, however small.
		for _, sum := range []float64{mf, mf / 2, mf / 1000, alpha * mf / 2.4} {
			same("no empty register", HLLEstimate(m, sum, 0), raw(sum))
		}
		// An empty register: linear counting at or below 2.5m, raw above.
		zeros := max(1, m/4)
		lin := mf * math.Log(mf/float64(zeros))
		same("2.4m, a quarter empty", HLLEstimate(m, alpha*mf/2.4, zeros), lin)
		same("2.6m, a quarter empty", HLLEstimate(m, alpha*mf/2.6, zeros), raw(alpha*mf/2.6))
		same("every register empty", HLLEstimate(m, mf, m), 0)
	}
}

// TestStateBytesTable pins the modelled footprint of every family: what
// the NIC memory model charges (Kernel.Bytes, Runtime.StateBytes,
// state_bytes.golden) and ProvisionedBytes starts from. A log grows by
// 8 bytes a sample up to its cap, a naive log by 16 (each sample and its
// time).
func TestStateBytesTable(t *testing.T) {
	hist := func(f Func, bins int) spec {
		return spec{f, Params{BinWidth: 64, Bins: bins, Quantile: 0.5}}
	}
	for _, c := range []struct {
		s    spec
		want int
	}{
		{spec{FSum, Params{}}, 16}, {spec{FMax, Params{}}, 9}, {spec{FMin, Params{}}, 9},
		{spec{FMean, Params{}}, 24}, {spec{FVar, Params{}}, 24}, {spec{FStd, Params{}}, 24},
		{spec{FSkew, Params{}}, 40}, {spec{FKurtosis, Params{}}, 40},
		{spec{FMag, Params{}}, 80}, {spec{FRadius, Params{}}, 80}, {spec{FCov, Params{}}, 80}, {spec{FPCC, Params{}}, 80},
		{hist(FHist, 1), 12}, {hist(FHist, 4), 24}, {hist(FHist, 8), 40}, {hist(FHist, 9), 44}, {hist(FHist, 128), 520},
		{hist(FPDF, 8), 40}, {hist(FCDF, 9), 44}, {hist(FPercent, 16), 72},
		{spec{FCard, Params{HLLBits: 2}}, 4}, {spec{FCard, Params{}}, 64}, {spec{FCard, Params{HLLBits: 6}}, 64},
		{spec{FCard, Params{HLLBits: 16}}, 65536},
		{spec{FDWeight, Params{Lambda: 5}}, 33}, {spec{FDMean, Params{Lambda: 0.1}}, 33}, {spec{FDStd, Params{Lambda: 1}}, 33},
		{spec{FD2DMag, Params{Lambda: 5}}, 90}, {spec{FD2DRadius, Params{Lambda: 1}}, 90},
		{spec{FD2DCov, Params{Lambda: 1}}, 90}, {spec{FD2DPCC, Params{Lambda: 0.01}}, 90},
		{spec{FArray, Params{}}, 0}, {spec{FArray, Params{MaxLen: 3}}, 0},
	} {
		f, p := c.s.f, c.s.p
		if got := stateBytes(FamilyOf(f, p)); got != c.want {
			t.Errorf("%s %+v: %d bytes, want %d", f, p, got, c.want)
		}
		k, err := KernelFor(f, p, new(Decay), new(Logs))
		if err != nil {
			t.Fatal(err)
		}
		if got := k.Bytes(make([]uint64, k.Words)); got != c.want {
			t.Errorf("%s %+v: a fresh kernel models %d bytes, want %d", f, p, got, c.want)
		}
		if got := ProvisionedBytes(f, p); f != FArray && !IsTimed(f) && got != c.want {
			t.Errorf("%s %+v: provisions %d bytes, want %d", f, p, got, c.want)
		}
	}
	var logs Logs
	arr, _ := KernelFor(FArray, Params{MaxLen: 3}, nil, &logs)
	naive, _ := NaiveKernel(FMean, Params{}, &logs)
	a, n := make([]uint64, 1), make([]uint64, 1)
	var s Step
	for i, want := range []int{8, 16, 24, 24, 24} {
		arr.Observe(a, int64(i), &s)
		naive.Observe(n, int64(i), &s)
		if got := arr.Bytes(a); got != want {
			t.Errorf("f_array cap 3 after %d samples: %d bytes, want %d", i+1, got, want)
		}
		if got := naive.Bytes(n); got != 16*(i+1) {
			t.Errorf("naive log after %d samples: %d bytes, want %d", i+1, got, 16*(i+1))
		}
	}
}
