package switchsim_test

import (
	"math/rand"
	"testing"

	"superfe/internal/apps"
	"superfe/internal/flowkey"
	"superfe/internal/packet"
	"superfe/internal/policy"
	"superfe/internal/switchsim"
	"superfe/internal/trace"
)

// refKeyFor derives a key with one plain case per granularity, written
// apart from flowkey.KeyFor as an independent reference: the software
// baseline calls the same KeyFor, so the engine differential cannot
// see a change in it.
func refKeyFor(g flowkey.Granularity, t flowkey.FiveTuple) (flowkey.Key, bool) {
	switch g {
	case flowkey.GranFlow:
		return flowkey.Key{Gran: flowkey.GranFlow, Tuple: t}, true
	case flowkey.GranHost:
		a, b := t.SrcIP, t.DstIP
		fwd := true
		if b < a {
			a, fwd = b, false
		}
		return flowkey.Key{Gran: flowkey.GranHost, Tuple: flowkey.FiveTuple{SrcIP: a}}, fwd
	case flowkey.GranChannel:
		a, b := t.SrcIP, t.DstIP
		fwd := true
		if b < a {
			a, b = b, a
			fwd = false
		}
		return flowkey.Key{Gran: flowkey.GranChannel, Tuple: flowkey.FiveTuple{SrcIP: a, DstIP: b}}, fwd
	case flowkey.GranSocket:
		c, fwd := t.Canonical()
		return flowkey.Key{Gran: flowkey.GranSocket, Tuple: c}, fwd
	}
	return flowkey.Key{Gran: g, Tuple: t}, true
}

// refWords is the two-word layout written out: the IP pair in a; the
// granularity above SrcPort, DstPort and Proto in b.
func refWords(k flowkey.Key) (a, b uint64) {
	t := k.Tuple
	return uint64(t.SrcIP)<<32 | uint64(t.DstIP),
		uint64(k.Gran)<<40 | uint64(t.SrcPort)<<24 | uint64(t.DstPort)<<8 | uint64(t.Proto)
}

// TestKeyWordsPath holds the router's key path — KeyFor, Key.Words,
// HashKey and the KeyA/KeyB columns Append packs from the key's fields
// — to the references above, at every granularity, over seeded tuples
// drawn from small pools so that equal endpoints (SrcIP == DstIP,
// SrcPort == DstPort, and both) come up beside the distinct ones.
func TestKeyWordsPath(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	tuples := []flowkey.FiveTuple{
		{SrcIP: 7, DstIP: 7, SrcPort: 1, DstPort: 2, Proto: flowkey.ProtoTCP},
		{SrcIP: 7, DstIP: 9, SrcPort: 443, DstPort: 443, Proto: flowkey.ProtoUDP},
		{SrcIP: 9, DstIP: 9, SrcPort: 53, DstPort: 53, Proto: flowkey.ProtoUDP},
	}
	ips := []uint32{0, 1, flowkey.IPv4(10, 0, 0, 1), flowkey.IPv4(10, 0, 0, 2), flowkey.IPv4(192, 168, 1, 1), 1<<32 - 1}
	ports := []uint16{0, 1, 53, 443, 32768, 1<<16 - 1}
	for len(tuples) < 4096 {
		tuples = append(tuples, flowkey.FiveTuple{
			SrcIP: ips[r.Intn(len(ips))], DstIP: ips[r.Intn(len(ips))],
			SrcPort: ports[r.Intn(len(ports))], DstPort: ports[r.Intn(len(ports))],
			Proto: flowkey.Proto(r.Intn(256)),
		})
	}
	var sameIP, samePort, both int
	for _, tup := range tuples {
		if tup.SrcIP == tup.DstIP {
			sameIP++
		}
		if tup.SrcPort == tup.DstPort {
			samePort++
		}
		if tup.SrcIP == tup.DstIP && tup.SrcPort == tup.DstPort {
			both++
		}
	}
	if sameIP < 100 || samePort < 100 || both < 10 {
		t.Fatalf("equal endpoints too rare: %d same IP, %d same port, %d both", sameIP, samePort, both)
	}
	for _, g := range []flowkey.Granularity{flowkey.GranFlow, flowkey.GranHost, flowkey.GranChannel, flowkey.GranSocket} {
		cols := switchsim.NewColumns(len(tuples), 0)
		for i, tup := range tuples {
			want, wantFwd := refKeyFor(g, tup)
			key, fwd := flowkey.KeyFor(g, tup)
			if key != want || fwd != wantFwd {
				t.Fatalf("%s %v: KeyFor = %v, %t; want %v, %t", g, tup, key, fwd, want, wantFwd)
			}
			wa, wb := refWords(want)
			if a, b := key.Words(); a != wa || b != wb {
				t.Fatalf("%v: Words = %#x, %#x; want %#x, %#x", key, a, b, wa, wb)
			}
			if back := flowkey.FromWords(key.Words()); back != key {
				t.Fatalf("%v: FromWords(Words) = %v", key, back)
			}
			h := flowkey.HashKey(key)
			if mix := flowkey.HashWords(wa, wb); h != mix {
				t.Fatalf("%v: HashKey = %#x, the mix of its words %#x", key, h, mix)
			}
			cols.Append(&packet.Packet{Tuple: tup}, key, h, true, nil)
			if cols.KeyA[i] != wa || cols.KeyB[i] != wb || cols.Hashes[i] != h {
				t.Fatalf("%v: row %d holds %#x, %#x, %#x; want %#x, %#x, %#x", key, i, cols.KeyA[i], cols.KeyB[i], cols.Hashes[i], wa, wb, h)
			}
		}
	}
}

// BenchmarkAppend prices the router's per-packet work, in the calls
// the engine's Process makes: the CG key and its hash
// (flowkey.KeyFor, flowkey.HashKey), the filter verdict (Pred.Eval)
// and the column fill (Columns.Append), over 256-row batches of NPOD
// on a MAWI-shaped trace, resetting the batch where the engine would
// hand it to a shard. One op is one pass over the trace; it reports
// ns/pkt and fails if a pass allocates.
func BenchmarkAppend(b *testing.B) {
	plan, err := policy.Compile(apps.NPOD())
	if err != nil {
		b.Fatal(err)
	}
	sp := plan.Switch
	pkts := trace.Generate(trace.MAWIConfig, 42).Packets
	cols := switchsim.NewColumns(256, len(sp.MetadataFields))
	passed := 0
	pass := func() {
		for i := range pkts {
			p := &pkts[i]
			key, _ := flowkey.KeyFor(sp.CG, p.Tuple)
			ok := sp.Pred.Eval(p)
			if ok {
				passed++
			}
			cols.Append(p, key, flowkey.HashKey(key), ok, sp.MetadataFields)
			if cols.N == 256 {
				cols.Reset()
			}
		}
		cols.Reset()
	}
	if avg := testing.AllocsPerRun(1, pass); avg != 0 {
		b.Fatalf("a pass of %d packets allocates %.0f times", len(pkts), avg)
	}
	if passed == 0 {
		b.Fatal("the filter passed no packet")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(pkts)), "ns/pkt")
}
