// Package grandep implements the granularity dependency-graph
// machinery the paper sketches as future work (§9 "More complex
// granularity dependency relationships"): when a traffic analysis
// application groups by granularities that do not form a single
// dependency chain, MGPV cannot cover them with one deployment.
// The paper's proposed solution — "split the dependency graph into a
// minimum number of dependency chains and allocate resources for each
// granularity chain to apply MGPV separately" — is exactly a minimum
// chain cover of a partially ordered set, which by Dilworth's theorem
// equals n minus the maximum matching of the poset's bipartite
// comparability graph.
//
// Granularities here generalise the four built-ins: a granularity is
// the set of key fields it groups by (plus whether it records
// direction). g1 is coarser than g2 iff fields(g1) ⊊ fields(g2), in
// which case g2's groups can be merged into g1's — the dependency the
// MGPV FG-key mechanism exploits.
package grandep

import (
	"fmt"
	"sort"
	"strings"

	"superfe/internal/flowkey"
)

// Field is one component of a grouping key.
type Field uint8

// Grouping key fields.
const (
	FieldSrcIP Field = 1 << iota
	FieldDstIP
	FieldSrcPort
	FieldDstPort
	FieldProto
)

// Gran is a generalised granularity: a set of key fields plus the
// direction-recording property.
type Gran struct {
	Fields      Field
	Directional bool
	// Name is a human-readable label ("host", "subnet-pair", ...).
	Name string
}

// Builtin converts one of the paper's four granularities.
func Builtin(g flowkey.Granularity) Gran {
	switch g {
	case flowkey.GranHost:
		return Gran{Fields: FieldSrcIP, Directional: true, Name: "host"}
	case flowkey.GranChannel:
		return Gran{Fields: FieldSrcIP | FieldDstIP, Directional: true, Name: "channel"}
	case flowkey.GranSocket:
		return Gran{
			Fields:      FieldSrcIP | FieldDstIP | FieldSrcPort | FieldDstPort | FieldProto,
			Directional: true, Name: "socket",
		}
	default: // flow
		return Gran{
			Fields: FieldSrcIP | FieldDstIP | FieldSrcPort | FieldDstPort | FieldProto,
			Name:   "flow",
		}
	}
}

// Coarser reports whether a is strictly coarser than b: a's fields
// are a strict subset of b's (direction being recorded at b but not a
// also counts as refinement).
//
// This is a field/annotation refinement order over generalised
// granularities, used only for planning analysis. It is NOT the
// runtime group-containment order of flowkey.Granularity.Coarser,
// which ChainSort and the compiler use: there, socket is strictly
// coarser than flow, because a directional granularity canonicalises
// its tuple and one socket group contains both raw-tuple
// orientations. Under the field view here, direction is extra
// recorded information, so flow (same fields, no direction) refines
// to socket instead.
func Coarser(a, b Gran) bool {
	if a.Fields&^b.Fields != 0 {
		return false // a uses a field b lacks: incomparable
	}
	if a.Fields == b.Fields {
		return !a.Directional && b.Directional
	}
	// a ⊂ b strictly; direction must not go from recorded to dropped.
	return !a.Directional || b.Directional
}

// String renders the granularity.
func (g Gran) String() string {
	if g.Name != "" {
		return g.Name
	}
	var parts []string
	for _, f := range []struct {
		bit  Field
		name string
	}{
		{FieldSrcIP, "srcIP"}, {FieldDstIP, "dstIP"},
		{FieldSrcPort, "srcPort"}, {FieldDstPort, "dstPort"}, {FieldProto, "proto"},
	} {
		if g.Fields&f.bit != 0 {
			parts = append(parts, f.name)
		}
	}
	s := "{" + strings.Join(parts, ",") + "}"
	if g.Directional {
		s += "+dir"
	}
	return s
}

// Chain is one dependency chain, coarsest first.
type Chain []Gran

// Cover is a partition of the input granularities into dependency
// chains; each chain maps to one MGPV deployment on the switch.
type Cover struct {
	Chains []Chain
}

// MinChainCover partitions the granularities into the minimum number
// of dependency chains (Dilworth). Duplicates are merged. The result
// is deterministic for a given input ordering.
func MinChainCover(gs []Gran) Cover {
	// Deduplicate, preserving first-seen order.
	var nodes []Gran
	seen := map[Gran]bool{}
	for _, g := range gs {
		if !seen[g] {
			seen[g] = true
			nodes = append(nodes, g)
		}
	}
	n := len(nodes)
	if n == 0 {
		return Cover{}
	}
	// Sort topologically by field count (coarse first) for stable
	// chains; ties by name then mask.
	sort.SliceStable(nodes, func(i, j int) bool {
		ci, cj := popcount(nodes[i].Fields), popcount(nodes[j].Fields)
		if ci != cj {
			return ci < cj
		}
		if nodes[i].Directional != nodes[j].Directional {
			return !nodes[i].Directional
		}
		return nodes[i].String() < nodes[j].String()
	})

	// Bipartite graph: left copy i → right copy j when nodes[i] is
	// strictly coarser than nodes[j]. A maximum matching yields a
	// minimum path (chain) cover of the DAG.
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && Coarser(nodes[i], nodes[j]) {
				adj[i] = append(adj[i], j)
			}
		}
	}
	matchL := make([]int, n) // matchL[i] = successor of i in its chain
	matchR := make([]int, n) // matchR[j] = predecessor of j
	for i := range matchL {
		matchL[i], matchR[i] = -1, -1
	}
	var try func(i int, visited []bool) bool
	try = func(i int, visited []bool) bool {
		for _, j := range adj[i] {
			if visited[j] {
				continue
			}
			visited[j] = true
			if matchR[j] == -1 || try(matchR[j], visited) {
				matchL[i], matchR[j] = j, i
				return true
			}
		}
		return false
	}
	for i := 0; i < n; i++ {
		try(i, make([]bool, n))
	}

	// Chains start at unmatched-right nodes and follow matchL.
	var cover Cover
	for j := 0; j < n; j++ {
		if matchR[j] != -1 {
			continue
		}
		var chain Chain
		for k := j; k != -1; k = matchL[k] {
			chain = append(chain, nodes[k])
		}
		cover.Chains = append(cover.Chains, chain)
	}
	return cover
}

// Validate checks that the cover is a legal partition into chains of
// the given granularity set.
func (c Cover) Validate(gs []Gran) error {
	want := map[Gran]bool{}
	for _, g := range gs {
		want[g] = true
	}
	got := map[Gran]bool{}
	for ci, chain := range c.Chains {
		for i := 0; i < len(chain); i++ {
			if got[chain[i]] {
				return fmt.Errorf("grandep: %s appears in two chains", chain[i])
			}
			got[chain[i]] = true
			if !want[chain[i]] {
				return fmt.Errorf("grandep: %s not in the input set", chain[i])
			}
			if i > 0 && !Coarser(chain[i-1], chain[i]) {
				return fmt.Errorf("grandep: chain %d breaks at %s → %s", ci, chain[i-1], chain[i])
			}
		}
	}
	for g := range want {
		if !got[g] {
			return fmt.Errorf("grandep: %s missing from the cover", g)
		}
	}
	return nil
}

// Deployments returns a human-readable summary: one line per chain,
// the per-chain CG/FG bracket the switch deployment uses.
func (c Cover) Deployments() string {
	var b strings.Builder
	for i, chain := range c.Chains {
		fmt.Fprintf(&b, "deployment %d: ", i)
		for j, g := range chain {
			if j > 0 {
				b.WriteString(" ⊃ ")
			}
			b.WriteString(g.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Width returns the poset's width (the size of the largest antichain)
// which by Dilworth equals the minimum number of chains.
func (c Cover) Width() int { return len(c.Chains) }

func popcount(f Field) int {
	n := 0
	for f != 0 {
		n += int(f & 1)
		f >>= 1
	}
	return n
}
