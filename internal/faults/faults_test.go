package faults

import (
	"math/bits"
	"testing"
)

// injected sums the injected-fault counters across kinds.
func injected(s Stats) uint64 {
	var t uint64
	for _, n := range s.Injected {
		t += n
	}
	return t
}

// drainWire records n wire decisions from a fresh injector.
func drainWire(p *Plan, shard, n int) []Kind {
	inj := p.NewInjector(shard)
	out := make([]Kind, n)
	for i := range out {
		out[i] = inj.WireKind()
	}
	return out
}

func TestDeterministicSequences(t *testing.T) {
	p := &Plan{Seed: 42, Rate: 0.3, Kinds: AllKinds}
	a := drainWire(p, 0, 4096)
	b := drainWire(p, 0, 4096)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("wire decision %d: %v vs %v — identical seeds must reproduce identical fault sequences", i, a[i], b[i])
		}
	}
	injected := 0
	for _, k := range a {
		if k != KindNone {
			injected++
		}
	}
	if injected == 0 {
		t.Fatal("rate 0.3 over 4096 decisions injected nothing")
	}
}

func TestShardsDrawIndependentStreams(t *testing.T) {
	p := &Plan{Seed: 42, Rate: 0.3, Kinds: AllKinds}
	a := drainWire(p, 0, 4096)
	b := drainWire(p, 1, 4096)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("shard 0 and shard 1 produced identical wire sequences")
	}
}

// TestStreamIndependence checks the wire decision stream is not
// perturbed by consuming the switch and NIC streams — the property
// that lets a test enable extra fault categories without changing
// which frames take wire faults.
func TestStreamIndependence(t *testing.T) {
	p := &Plan{Seed: 7, Rate: 0.25, Kinds: AllKinds}
	quiet := drainWire(p, 0, 1024)

	inj := p.NewInjector(0)
	interleaved := make([]Kind, 1024)
	for i := range interleaved {
		inj.AgingStall()
		inj.SoftError(uint32(i))
		inj.IslandBusy()
		inj.EMEMFail(uint32(i))
		interleaved[i] = inj.WireKind()
	}
	for i := range quiet {
		if quiet[i] != interleaved[i] {
			t.Fatalf("wire decision %d changed when switch/NIC streams were consumed", i)
		}
	}
}

func TestScope(t *testing.T) {
	p := &Plan{Seed: 1, Rate: 1, Kinds: WireKinds, ScopeLo: 100, ScopeHi: 200}
	inj := p.NewInjector(0)
	if inj.InScope(99) || inj.InScope(201) {
		t.Fatal("out-of-range hashes reported in scope")
	}
	if !inj.InScope(100) || !inj.InScope(200) || !inj.InScope(150) {
		t.Fatal("in-range hashes reported out of scope")
	}
	// Flow-scoped decisions respect the scope even at rate 1.
	if inj.SoftError(99) || inj.EMEMFail(201) {
		t.Fatal("flow-scoped faults fired outside the scope")
	}
}

func TestNilInjectorIsSafeAndInert(t *testing.T) {
	var p *Plan
	inj := p.NewInjector(0)
	if inj != nil {
		t.Fatal("nil plan must yield nil injector")
	}
	if inj.InScope(0) || inj.WireKind() != KindNone || inj.AgingStall() != 0 ||
		inj.SoftError(0) || inj.IslandBusy() || inj.EMEMFail(0) || inj.TruncateLen(8) != 0 {
		t.Fatal("nil injector must decide nothing")
	}
	inj.Corrupt([]byte{1, 2, 3})
	inj.CountQuarantined()
	inj.CountRetry()
	inj.CountRetryDrop()
	inj.CountDegradedTransition()
	if s := inj.Stats(); s != (Stats{}) {
		t.Fatalf("nil injector stats = %v, want zero", s)
	}
}

func TestCorruptAlwaysMutates(t *testing.T) {
	p := &Plan{Seed: 3, Rate: 1, Kinds: WireKinds}
	inj := p.NewInjector(0)
	for trial := 0; trial < 256; trial++ {
		buf := make([]byte, 32)
		inj.Corrupt(buf)
		flipped := 0
		for _, b := range buf {
			flipped += bits.OnesCount8(b)
		}
		if flipped != corruptFlips {
			t.Fatalf("trial %d: corruption flipped %d bits, want %d single-bit flips", trial, flipped, corruptFlips)
		}
	}
}

func TestTruncateLenBounds(t *testing.T) {
	inj := (&Plan{Seed: 5, Rate: 1, Kinds: WireKinds}).NewInjector(0)
	for trial := 0; trial < 1024; trial++ {
		if n := inj.TruncateLen(40); n < 0 || n >= 40 {
			t.Fatalf("truncate length %d out of [0,40)", n)
		}
	}
}

func TestStatsAddAndTotal(t *testing.T) {
	var a, b Stats
	a.Injected[KindDrop] = 3
	a.Quarantined = 1
	b.Injected[KindDrop] = 2
	b.Injected[KindCorrupt] = 5
	b.Retries = 4
	b.RetryDrops = 2
	b.DegradedTransitions = 1
	a.Add(b)
	if a.Injected[KindDrop] != 5 || a.Injected[KindCorrupt] != 5 ||
		a.Quarantined != 1 || a.Retries != 4 || a.RetryDrops != 2 || a.DegradedTransitions != 1 {
		t.Fatalf("merge wrong: %+v", a)
	}
	if injected(a) != 10 {
		t.Fatalf("injected total = %d, want 10", injected(a))
	}
	if a.String() == "" {
		t.Fatal("empty stats rendering")
	}
}

// TestInjectorRowsFollowDecisions: the injector's rows are bound to
// its live counters — every decision shows through them without a
// hook — and a nil injector still declares the same schema.
func TestInjectorRowsFollowDecisions(t *testing.T) {
	inj := (&Plan{Seed: 9, Rate: 1, Kinds: AllKinds}).NewInjector(0)
	rows := inj.Rows()
	k := inj.WireKind()
	if k == KindNone {
		t.Fatal("rate 1 must inject")
	}
	if !inj.IslandBusy() {
		t.Fatal("rate 1 island check must stall")
	}
	inj.CountQuarantined()
	for _, r := range rows {
		want := uint64(0)
		switch {
		case len(r.Labels) == 1 && (r.Labels[0].Value == k.String() || r.Labels[0].Value == KindIslandStall.String()),
			r.Name == "superfe_frames_quarantined_total":
			want = 1
		}
		if *r.Word != want {
			t.Errorf("row %s%v reads %d, want %d", r.Name, r.Labels, *r.Word, want)
		}
	}
	if st := inj.Stats(); injected(st) != 2 {
		t.Fatalf("stats total %d, want 2", injected(st))
	}
	var none *Injector
	if got := none.Rows(); len(got) != len(rows) {
		t.Fatalf("nil injector declares %d rows, a live one %d", len(got), len(rows))
	}
}

func TestParse(t *testing.T) {
	p, err := Parse("seed=7,rate=0.01,kinds=drop+corrupt,scope=0:3fffffff")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.Rate != 0.01 {
		t.Fatalf("seed/rate wrong: %+v", p)
	}
	if !p.Kinds.Has(KindDrop) || !p.Kinds.Has(KindCorrupt) || p.Kinds.Has(KindDup) {
		t.Fatalf("kinds wrong: %v", p.Kinds)
	}
	if p.ScopeLo != 0 || p.ScopeHi != 0x3fffffff {
		t.Fatalf("scope wrong: %x:%x", p.ScopeLo, p.ScopeHi)
	}

	p, err = Parse("seed=1,kinds=all,window=4,retries=5")
	if err != nil {
		t.Fatal(err)
	}
	if p.Kinds != AllKinds || p.ReorderWindow != 4 || p.MaxRetries != 5 {
		t.Fatalf("alias/window/retries wrong: %+v", p)
	}
	if p.Rate != 0.01 {
		t.Fatalf("default rate wrong: %g", p.Rate)
	}

	for _, bad := range []string{
		"", "seed", "seed=x", "rate=2", "kinds=gremlins",
		"scope=5", "scope=zz:ff", "bogus=1", "kinds=",
		"window=0", "window=-3", "retries=0", "retries=-1",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestPlanStringRoundTrips(t *testing.T) {
	for _, spec := range []string{
		"seed=3,rate=0.5,kinds=drop,scope=10:20",
		"seed=4,rate=0.25,kinds=reorder+islandstall,window=5,retries=7",
	} {
		p, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		q, err := Parse(p.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", p.String(), err)
		}
		if q.normalised() != p.normalised() {
			t.Fatalf("round trip of %q lost fields: %v vs %v", spec, p, q)
		}
	}
}

func TestKindAndSetStrings(t *testing.T) {
	if KindDrop.String() != "drop" || KindEMEMFail.String() != "ememfail" || KindNone.String() != "none" {
		t.Fatal("kind names changed — metric labels and CLI specs depend on them")
	}
	if s := (WireKinds).String(); s != "drop+dup+reorder+corrupt+truncate" {
		t.Fatalf("wire set renders %q", s)
	}
	if Set(0).String() != "none" {
		t.Fatal("empty set rendering")
	}
}
