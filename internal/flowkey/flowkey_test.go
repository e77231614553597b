package flowkey

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func tupleOf(a, b uint32, sp, dp uint16, pr Proto) FiveTuple {
	return FiveTuple{SrcIP: a, DstIP: b, SrcPort: sp, DstPort: dp, Proto: pr}
}

func TestGranularityString(t *testing.T) {
	cases := map[Granularity]string{
		GranFlow: "flow", GranHost: "host", GranChannel: "channel", GranSocket: "socket",
	}
	for g, want := range cases {
		if got := g.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", g, got, want)
		}
	}
}

func TestGranularityDirectional(t *testing.T) {
	if GranFlow.Directional() {
		t.Error("flow must not record direction (Appendix A)")
	}
	for _, g := range []Granularity{GranHost, GranChannel, GranSocket} {
		if !g.Directional() {
			t.Errorf("%s must record direction", g)
		}
	}
}

func TestCoarser(t *testing.T) {
	if !GranHost.Coarser(GranChannel) || !GranChannel.Coarser(GranSocket) {
		t.Error("dependency chain host ⊃ channel ⊃ socket broken")
	}
	// A socket group is the canonicalised 5-tuple and contains both
	// raw-tuple orientations, so socket is strictly coarser than flow:
	// the containment invariant the parallel engine's CG sharding needs.
	if !GranSocket.Coarser(GranFlow) {
		t.Error("socket must be coarser than flow (it contains both orientations)")
	}
	if GranFlow.Coarser(GranSocket) {
		t.Error("flow must not be coarser than socket")
	}
	if GranSocket.Coarser(GranHost) {
		t.Error("socket must not be coarser than host")
	}
}

func TestChainSort(t *testing.T) {
	got := ChainSort([]Granularity{GranSocket, GranHost, GranChannel})
	want := []Granularity{GranHost, GranChannel, GranSocket}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ChainSort = %v, want %v", got, want)
		}
	}
	// Socket must sort before flow regardless of input order: a
	// flow-keyed CG would split socket groups across shards.
	got = ChainSort([]Granularity{GranFlow, GranSocket})
	if got[0] != GranSocket || got[1] != GranFlow {
		t.Errorf("ChainSort([flow, socket]) = %v, want [socket, flow]", got)
	}
	// Input must not be mutated.
	in := []Granularity{GranSocket, GranHost}
	_ = ChainSort(in)
	if in[0] != GranSocket {
		t.Error("ChainSort mutated its input")
	}
}

func TestReverse(t *testing.T) {
	a := tupleOf(1, 2, 10, 20, ProtoTCP)
	r := a.Reverse()
	if r.SrcIP != 2 || r.DstIP != 1 || r.SrcPort != 20 || r.DstPort != 10 {
		t.Errorf("Reverse() = %+v", r)
	}
	if r.Reverse() != a {
		t.Error("double Reverse must be identity")
	}
}

func TestCanonicalInvariants(t *testing.T) {
	f := func(a, b uint32, sp, dp uint16, pr uint8) bool {
		tup := tupleOf(a, b, sp, dp, Proto(pr))
		c1, fwd1 := tup.Canonical()
		c2, fwd2 := tup.Reverse().Canonical()
		// Both directions canonicalise to the same tuple.
		if c1 != c2 {
			return false
		}
		// Exactly one orientation is forward (unless palindromic).
		if tup != tup.Reverse() && fwd1 == fwd2 {
			return false
		}
		// Canonical of canonical is itself and forward.
		cc, fwd := c1.Canonical()
		return cc == c1 && fwd
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyForDirections(t *testing.T) {
	tup := tupleOf(IPv4(10, 0, 0, 1), IPv4(10, 0, 0, 2), 1234, 80, ProtoTCP)
	for _, g := range []Granularity{GranHost, GranChannel, GranSocket} {
		k1, fwd1 := KeyFor(g, tup)
		k2, fwd2 := KeyFor(g, tup.Reverse())
		if k1 != k2 {
			t.Errorf("%s: both directions must share a key: %v vs %v", g, k1, k2)
		}
		if fwd1 == fwd2 {
			t.Errorf("%s: directions must differ", g)
		}
	}
	// Flow: directions are distinct groups.
	k1, _ := KeyFor(GranFlow, tup)
	k2, _ := KeyFor(GranFlow, tup.Reverse())
	if k1 == k2 {
		t.Error("flow granularity must keep directions separate")
	}
}

func TestKeyForHostUsesLowerIP(t *testing.T) {
	lo, hi := IPv4(10, 0, 0, 1), IPv4(10, 0, 0, 9)
	tup := tupleOf(hi, lo, 5, 6, ProtoUDP)
	k, fwd := KeyFor(GranHost, tup)
	if k.Tuple.SrcIP != lo {
		t.Errorf("host key = %v, want lower IP %d", k, lo)
	}
	if fwd {
		t.Error("packet from the higher IP must be backward")
	}
}

func TestProjectConsistency(t *testing.T) {
	f := func(a, b uint32, sp, dp uint16) bool {
		tup := tupleOf(a|1, b|1, sp, dp, ProtoTCP)
		canon, _ := tup.Canonical()
		// Projecting the canonical FG tuple must equal direct keying.
		for _, g := range []Granularity{GranHost, GranChannel, GranSocket} {
			direct, _ := KeyFor(g, tup)
			proj := Project(g, canon)
			if direct != proj {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWordsRoundTrip(t *testing.T) {
	f := func(a, b uint32, sp, dp uint16, pr uint8, g uint8) bool {
		k := Key{Gran: Granularity(g % 4), Tuple: tupleOf(a, b, sp, dp, Proto(pr))}
		return FromWords(k.Words()) == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clientServerTuple draws a client-server shaped tuple: one /16 of
// clients, a few servers and service ports, ephemeral source ports.
func clientServerTuple(r *rand.Rand) FiveTuple {
	return tupleOf(IPv4(10, 7, byte(r.Uint32()), byte(r.Uint32())), IPv4(192, 168, 0, byte(r.Intn(16))),
		uint16(32768+r.Intn(28232)), []uint16{53, 80, 443}[r.Intn(3)], ProtoTCP)
}

func TestHash32Deterministic(t *testing.T) {
	tup := tupleOf(1, 2, 3, 4, ProtoTCP)
	if HashKey(Key{Tuple: tup}) != HashKey(Key{Tuple: tup}) {
		t.Error("hash not deterministic")
	}
	if HashKey(Key{Tuple: tup}) == HashKey(Key{Tuple: tup.Reverse()}) {
		t.Error("hash should distinguish directions (raw tuples)")
	}
}

// TestHashKeyGranularityMixing checks that the granularity is mixed
// in: no client-server tuple hashes alike at two granularities.
func TestHashKeyGranularityMixing(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 4096; i++ {
		tup := clientServerTuple(r)
		seen := map[uint32]Granularity{}
		for _, g := range []Granularity{GranFlow, GranHost, GranChannel, GranSocket} {
			hg := HashKey(Key{Gran: g, Tuple: tup})
			if o, dup := seen[hg]; dup {
				t.Fatalf("%v hashes alike at %s and %s", tup, o, g)
			}
			seen[hg] = g
		}
	}
}

// TestHashDistribution checks the bit budget HashKey's doc comment
// promises, on client-server shaped keys: the four fastrange quarters
// (shards at workers=4) are balanced, and inside every quarter each of
// the 2¹⁴ values of the low 14 bits (a default switch's slot, or FG
// index) is taken, so no shard's switch leaves slots idle.
func TestHashDistribution(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const (
		n        = 1 << 21
		quarters = 4
		lowBits  = 14
	)
	var counts [quarters][1 << lowBits]int32
	for i := 0; i < n; i++ {
		h := HashKey(Key{Gran: GranSocket, Tuple: clientServerTuple(r)})
		counts[uint64(h)*quarters>>32][h&(1<<lowBits-1)]++
	}
	for q := range counts {
		total, empty := 0, 0
		for _, c := range counts[q] {
			total += int(c)
			if c == 0 {
				empty++
			}
		}
		if d := total - n/quarters; d > n/quarters/100 || -d > n/quarters/100 {
			t.Errorf("quarter %d holds %d keys, want %d ± 1%%", q, total, n/quarters)
		}
		if empty > 0 {
			t.Errorf("quarter %d: %d of %d low-bit buckets empty", q, empty, 1<<lowBits)
		}
	}
}

func TestIPv4(t *testing.T) {
	if IPv4(10, 1, 2, 3) != 0x0a010203 {
		t.Errorf("IPv4 packing wrong: %x", IPv4(10, 1, 2, 3))
	}
}

func TestKeyString(t *testing.T) {
	tup := tupleOf(IPv4(10, 0, 0, 1), IPv4(10, 0, 0, 2), 1234, 80, ProtoTCP)
	k, _ := KeyFor(GranHost, tup)
	if got := k.String(); got != "host(10.0.0.1)" {
		t.Errorf("host key string = %q", got)
	}
	kc, _ := KeyFor(GranChannel, tup)
	if got := kc.String(); got != "channel(10.0.0.1->10.0.0.2)" {
		t.Errorf("channel key string = %q", got)
	}
}
