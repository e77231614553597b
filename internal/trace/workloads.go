package trace

import (
	"fmt"
	"math/rand"
	"strings"

	"superfe/internal/flowkey"
)

// WorkloadConfig parameterises a Table 2-style background workload.
type WorkloadConfig struct {
	Name        string
	Flows       int     // number of flows to synthesise
	MeanFlowLen float64 // target average packets per flow (Table 2)
	LenSigma    float64 // lognormal tail parameter
	// MeanPktSize is the target average packet size (Table 2). The
	// size distribution is bimodal (small control packets + large
	// data packets) mixed to hit the mean.
	MeanPktSize float64
	// MeanIPT is the mean intra-flow inter-packet time in ns.
	MeanIPT float64
	// SpanNS is the window over which flow start times are spread.
	SpanNS int64
	// UDPShare is the fraction of UDP flows.
	UDPShare float64
	// Hosts bounds the address pool (distinct /32 sources).
	Hosts int
}

// The three Table 2 workloads. Flow counts are sized so each trace
// is a few hundred thousand packets — large enough to exercise the
// caches, small enough for CI.
var (
	// MAWIConfig models the MAWI IXP trace: long flows, large
	// packets (104 pkts/flow, 1246 B/pkt).
	MAWIConfig = WorkloadConfig{
		Name: "MAWI-IXP", Flows: 3000, MeanFlowLen: 104, LenSigma: 1.6,
		MeanPktSize: 1246, MeanIPT: 2e6, SpanNS: 2e9, UDPShare: 0.15, Hosts: 1200,
	}
	// EnterpriseConfig models the cloud-gateway trace: short flows,
	// medium packets (9.2 pkts/flow, 739 B/pkt).
	EnterpriseConfig = WorkloadConfig{
		Name: "ENTERPRISE", Flows: 30000, MeanFlowLen: 9.2, LenSigma: 1.1,
		MeanPktSize: 739, MeanIPT: 1e6, SpanNS: 2e9, UDPShare: 0.3, Hosts: 4000,
	}
	// CampusConfig models the department core router: medium flows,
	// small packets (58 pkts/flow, 135 B/pkt).
	CampusConfig = WorkloadConfig{
		Name: "CAMPUS", Flows: 5500, MeanFlowLen: 58, LenSigma: 1.4,
		MeanPktSize: 135, MeanIPT: 5e6, SpanNS: 2e9, UDPShare: 0.2, Hosts: 800,
	}
)

// Workload returns the Table 2 workload a short name selects (mawi,
// enterprise or campus), case-insensitively.
func Workload(name string) (WorkloadConfig, bool) {
	switch strings.ToLower(name) {
	case "mawi":
		return MAWIConfig, true
	case "enterprise":
		return EnterpriseConfig, true
	case "campus":
		return CampusConfig, true
	}
	return WorkloadConfig{}, false
}

// Named generates the trace a short name selects, case-insensitively:
// a Table 2 workload or an application scenario (wfp, botnet, covert,
// mirai, osscan, ssdp) at its default size.
func Named(name string, seed int64) (*Trace, error) {
	if cfg, ok := Workload(name); ok {
		return Generate(cfg, seed), nil
	}
	switch strings.ToLower(name) {
	case "wfp":
		return GenerateWebsites(DefaultWebsiteConfig(), seed), nil
	case "botnet":
		return GenerateBotnet(DefaultBotnetConfig(), seed), nil
	case "covert":
		return GenerateCovert(DefaultCovertConfig(), seed), nil
	case "mirai":
		return GenerateIntrusion(DefaultIntrusionConfig(AttackMirai), seed), nil
	case "osscan":
		return GenerateIntrusion(DefaultIntrusionConfig(AttackOSScan), seed), nil
	case "ssdp":
		return GenerateIntrusion(DefaultIntrusionConfig(AttackSSDPFlood), seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Generate synthesises the workload deterministically from the seed.
func Generate(cfg WorkloadConfig, seed int64) *Trace {
	r := rand.New(rand.NewSource(seed))
	t := &Trace{Name: cfg.Name}
	sizes := sizeSampler(cfg.MeanPktSize)
	for i := 0; i < cfg.Flows; i++ {
		proto := flowkey.ProtoTCP
		if r.Float64() < cfg.UDPShare {
			proto = flowkey.ProtoUDP
		}
		f := flowSpec{
			tuple:   randTuple(r, cfg.Hosts, proto),
			start:   int64(r.Float64() * float64(cfg.SpanNS)),
			length:  lognormalLength(r, cfg.MeanFlowLen, cfg.LenSigma),
			meanIPT: cfg.MeanIPT,
			sizes:   sizes,
			bidir:   true,
		}
		emitFlow(t, r, f, 0, false)
	}
	sortByTime(t)
	return t
}

// sizeSampler returns a bimodal packet-size sampler whose mean is
// approximately the target: a mix of small control packets (40-80 B)
// and large data packets (capped at 1500 B), with the mix fraction
// solved from the target mean.
func sizeSampler(mean float64) func(r *rand.Rand) uint32 {
	// Component means: the big mode draws uniformly from
	// [1250, 1450] (mean 1350), the small mode from [40, 80]
	// (mean 60).
	const small, big = 60.0, 1350.0
	// fraction p of big packets such that p·big + (1-p)·small = mean
	p := (mean - small) / (big - small)
	if p < 0.02 {
		p = 0.02
	}
	if p > 0.98 {
		p = 0.98
	}
	return func(r *rand.Rand) uint32 {
		if r.Float64() < p {
			// Data packet around the big mode.
			s := big - r.Float64()*200
			return uint32(s)
		}
		return uint32(small - 20 + r.Float64()*40)
	}
}

// randTuple draws a flow tuple from the host pool. Sources come from
// 10.0.0.0/16-style pools; destinations from a disjoint pool so host
// granularity has meaningful fan-out.
func randTuple(r *rand.Rand, hosts int, proto flowkey.Proto) flowkey.FiveTuple {
	if hosts < 2 {
		hosts = 2
	}
	src := flowkey.IPv4(10, 0, byte(r.Intn(hosts)/256), byte(r.Intn(hosts)%256))
	dst := flowkey.IPv4(172, 16, byte(r.Intn(hosts)/256), byte(r.Intn(hosts)%256))
	return flowkey.FiveTuple{
		SrcIP:   src,
		DstIP:   dst,
		SrcPort: uint16(1024 + r.Intn(60000)),
		DstPort: wellKnownPort(r),
		Proto:   proto,
	}
}

func wellKnownPort(r *rand.Rand) uint16 {
	ports := []uint16{80, 443, 22, 53, 25, 8080, 3306, 6881}
	return ports[r.Intn(len(ports))]
}

// Amplify models the in-switch traffic amplification the paper uses
// for experiments needing more than the generator's 40 Gbps ("we
// employ techniques in [35, 82] to amplify the traffic by replicating
// and modifying packets with the programmable switch"): the trace is
// replicated factor times with the source address space shifted per
// replica so the copies form distinct flows.
func Amplify(t *Trace, factor int) *Trace {
	if factor <= 1 {
		return t
	}
	out := &Trace{Name: t.Name + "-amplified"}
	out.Packets = append(out.Packets, t.Packets...)
	if len(t.Labels) > 0 {
		out.Labels = append(out.Labels, t.Labels...)
	}
	for k := 1; k < factor; k++ {
		shift := uint32(k) << 24 // move each replica into its own /8
		for i := range t.Packets {
			p := t.Packets[i]
			p.Tuple.SrcIP ^= shift
			p.Tuple.DstIP ^= shift
			out.Packets = append(out.Packets, p)
			if len(t.Labels) > 0 {
				out.Labels = append(out.Labels, t.Labels[i])
			}
		}
	}
	sortByTime(out)
	return out
}
