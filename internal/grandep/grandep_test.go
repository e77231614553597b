package grandep

import (
	"math/rand"
	"testing"

	"superfe/internal/flowkey"
)

func TestBuiltinChainIsOneChain(t *testing.T) {
	// host ⊃ channel ⊃ socket is a single dependency chain.
	gs := []Gran{
		Builtin(flowkey.GranSocket),
		Builtin(flowkey.GranHost),
		Builtin(flowkey.GranChannel),
	}
	c := MinChainCover(gs)
	if c.Width() != 1 {
		t.Fatalf("width = %d, want 1:\n%s", c.Width(), c.Deployments())
	}
	if err := c.Validate(gs); err != nil {
		t.Fatal(err)
	}
	chain := c.Chains[0]
	if chain[0].Name != "host" || chain[1].Name != "channel" || chain[2].Name != "socket" {
		t.Errorf("chain order: %v", chain)
	}
}

func TestKitsuneChainPlusFlow(t *testing.T) {
	// host ⊃ channel ⊃ socket, plus flow (socket without direction):
	// flow is coarser than socket (direction refinement), so all four
	// still fit one... no: flow ⊂ socket means flow→socket, and
	// channel→socket too, but flow and channel are incomparable
	// (channel lacks ports, flow lacks direction). Width is 2.
	gs := []Gran{
		Builtin(flowkey.GranHost),
		Builtin(flowkey.GranChannel),
		Builtin(flowkey.GranSocket),
		Builtin(flowkey.GranFlow),
	}
	c := MinChainCover(gs)
	if err := c.Validate(gs); err != nil {
		t.Fatal(err)
	}
	if c.Width() != 2 {
		t.Fatalf("width = %d, want 2:\n%s", c.Width(), c.Deployments())
	}
}

func TestCoarserRelation(t *testing.T) {
	host := Builtin(flowkey.GranHost)
	channel := Builtin(flowkey.GranChannel)
	socket := Builtin(flowkey.GranSocket)
	flow := Builtin(flowkey.GranFlow)
	if !Coarser(host, channel) || !Coarser(channel, socket) || !Coarser(host, socket) {
		t.Error("built-in chain broken")
	}
	if Coarser(channel, host) {
		t.Error("coarser is not symmetric")
	}
	if Coarser(socket, socket) {
		t.Error("coarser must be irreflexive")
	}
	// flow vs socket: same fields, direction refines.
	if !Coarser(flow, socket) || Coarser(socket, flow) {
		t.Error("direction refinement broken")
	}
	// channel vs flow: incomparable (ports vs direction).
	if onOneChain(channel, flow) {
		t.Error("channel and flow should be incomparable")
	}
	// Directional coarse vs non-directional fine: host+dir vs flow —
	// merging directional groups into a non-directional coarser view
	// loses direction, so host (directional) is NOT coarser than flow.
	if Coarser(host, flow) {
		t.Error("directional→non-directional refinement must be rejected")
	}
}

func TestAntichainNeedsOneChainEach(t *testing.T) {
	// srcIP-only, dstIP-only, srcPort-only: pairwise incomparable.
	gs := []Gran{
		{Fields: FieldSrcIP, Name: "per-src"},
		{Fields: FieldDstIP, Name: "per-dst"},
		{Fields: FieldSrcPort, Name: "per-sport"},
	}
	c := MinChainCover(gs)
	if c.Width() != 3 {
		t.Fatalf("antichain width = %d, want 3", c.Width())
	}
	if err := c.Validate(gs); err != nil {
		t.Fatal(err)
	}
}

func TestDiamondGraph(t *testing.T) {
	// src ⊂ {src,dst} and src ⊂ {src,sport}; both ⊂ full tuple.
	// Diamond: minimum cover is 2 chains.
	src := Gran{Fields: FieldSrcIP}
	pair := Gran{Fields: FieldSrcIP | FieldDstIP}
	sport := Gran{Fields: FieldSrcIP | FieldSrcPort}
	full := Gran{Fields: FieldSrcIP | FieldDstIP | FieldSrcPort | FieldDstPort | FieldProto}
	gs := []Gran{src, pair, sport, full}
	c := MinChainCover(gs)
	if err := c.Validate(gs); err != nil {
		t.Fatal(err)
	}
	if c.Width() != 2 {
		t.Fatalf("diamond width = %d, want 2:\n%s", c.Width(), c.Deployments())
	}
}

func TestDeduplication(t *testing.T) {
	gs := []Gran{Builtin(flowkey.GranHost), Builtin(flowkey.GranHost)}
	c := MinChainCover(gs)
	if c.Width() != 1 || len(c.Chains[0]) != 1 {
		t.Errorf("duplicates not merged: %v", c.Chains)
	}
}

func TestEmptyCover(t *testing.T) {
	c := MinChainCover(nil)
	if c.Width() != 0 {
		t.Error("empty input should give empty cover")
	}
	if err := c.Validate(nil); err != nil {
		t.Error(err)
	}
}

func TestCoverOptimalityAgainstBruteForce(t *testing.T) {
	// Random subsets of fields: the matching-based cover must equal
	// the brute-force minimum partition into chains.
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(5)
		var gs []Gran
		used := map[Gran]bool{}
		for len(gs) < n {
			g := Gran{Fields: Field(1 + r.Intn(31)), Directional: r.Intn(2) == 0}
			if !used[g] {
				used[g] = true
				gs = append(gs, g)
			}
		}
		c := MinChainCover(gs)
		if err := c.Validate(gs); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if bf := bruteMinChains(gs); c.Width() != bf {
			t.Fatalf("trial %d: cover %d chains, brute force %d\n%s", trial, c.Width(), bf, c.Deployments())
		}
	}
}

// bruteMinChains finds the minimum chain partition by trying all
// assignments of granularities to at most n chains (n ≤ 6 here).
func bruteMinChains(gs []Gran) int {
	n := len(gs)
	assign := make([]int, n)
	valid := func(k int) bool {
		// Check every chain is totally ordered.
		for c := 0; c < k; c++ {
			var members []Gran
			for i, a := range assign {
				if a == c {
					members = append(members, gs[i])
				}
			}
			for i := 0; i < len(members); i++ {
				for j := i + 1; j < len(members); j++ {
					if !onOneChain(members[i], members[j]) {
						return false
					}
				}
			}
		}
		return true
	}
	for k := 1; k <= n; k++ {
		var rec func(i int) bool
		rec = func(i int) bool {
			if i == n {
				return valid(k)
			}
			for c := 0; c < k; c++ {
				assign[i] = c
				if rec(i + 1) {
					return true
				}
			}
			return false
		}
		if rec(0) {
			return k
		}
	}
	return n
}

func TestGranString(t *testing.T) {
	g := Gran{Fields: FieldSrcIP | FieldDstPort, Directional: true}
	if s := g.String(); s != "{srcIP,dstPort}+dir" {
		t.Errorf("string = %q", s)
	}
	if Builtin(flowkey.GranHost).String() != "host" {
		t.Error("builtin name lost")
	}
}

func TestValidateCatchesBrokenCovers(t *testing.T) {
	host := Builtin(flowkey.GranHost)
	channel := Builtin(flowkey.GranChannel)
	flow := Builtin(flowkey.GranFlow)
	// Chain out of order.
	bad := Cover{Chains: []Chain{{channel, host}}}
	if bad.Validate([]Gran{host, channel}) == nil {
		t.Error("reversed chain accepted")
	}
	// Incomparable members.
	bad = Cover{Chains: []Chain{{channel, flow}}}
	if bad.Validate([]Gran{channel, flow}) == nil {
		t.Error("incomparable chain accepted")
	}
	// Missing granularity.
	bad = Cover{Chains: []Chain{{host}}}
	if bad.Validate([]Gran{host, channel}) == nil {
		t.Error("incomplete cover accepted")
	}
	// Duplicate across chains.
	bad = Cover{Chains: []Chain{{host}, {host}}}
	if bad.Validate([]Gran{host}) == nil {
		t.Error("duplicated granularity accepted")
	}
}

// onOneChain reports whether a and b sit on a common chain.
func onOneChain(a, b Gran) bool {
	return a == b || Coarser(a, b) || Coarser(b, a)
}
