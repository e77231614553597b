package faults

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse builds a Plan from the CLI spec syntax used by the -faults
// flag:
//
//	seed=7,rate=0.01,kinds=drop+corrupt,scope=0:3fffffff
//
// Fields (all optional, any order):
//
//	seed=N          PRNG seed (decimal; default 0)
//	rate=F          per-opportunity fault probability (default 0.01)
//	kinds=a+b+c     fault kinds by name, or the aliases wire,
//	                switch, nic, all (default wire)
//	scope=LO:HI     inclusive CG-hash range, hex (default full space)
//	window=N        reorder window in frames, N >= 1 (default 8)
//	retries=N       deliver retry budget, N >= 1 (default 3)
//
// The returned plan has been validated.
func Parse(spec string) (*Plan, error) {
	p := &Plan{Rate: 0.01, Kinds: WireKinds}
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("faults: empty spec")
	}
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return nil, fmt.Errorf("faults: bad field %q (want key=value)", field)
		}
		var err error
		switch key {
		case "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
		case "rate":
			p.Rate, err = strconv.ParseFloat(val, 64)
		case "kinds":
			p.Kinds, err = parseKinds(val)
		case "scope":
			p.ScopeLo, p.ScopeHi, err = parseScope(val)
		case "window":
			p.ReorderWindow, err = parsePositive(val)
		case "retries":
			p.MaxRetries, err = parsePositive(val)
		default:
			return nil, fmt.Errorf("faults: unknown field %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("faults: field %q: %w", field, err)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// kindByName maps the CLI spelling of each kind and the category
// aliases to their sets.
func parseKinds(spec string) (Set, error) {
	var s Set
	for _, name := range strings.Split(spec, "+") {
		switch name {
		case "wire":
			s |= WireKinds
		case "switch":
			s |= SwitchKinds
		case "nic":
			s |= NICKinds
		case "all":
			s |= AllKinds
		default:
			found := false
			for k := Kind(0); k < numKinds; k++ {
				if k.String() == name {
					s = s.With(k)
					found = true
					break
				}
			}
			if !found {
				return 0, fmt.Errorf("unknown fault kind %q", name)
			}
		}
	}
	return s, nil
}

// parsePositive parses a count that must be at least 1: zero and
// negative values are errors, not requests for the default.
func parsePositive(spec string) (int, error) {
	n, err := strconv.Atoi(spec)
	if err == nil && n < 1 {
		err = fmt.Errorf("want a count >= 1, got %d", n)
	}
	return n, err
}

func parseScope(spec string) (lo, hi uint32, err error) {
	loS, hiS, ok := strings.Cut(spec, ":")
	if !ok {
		return 0, 0, fmt.Errorf("want LO:HI hex range, got %q", spec)
	}
	lo64, err := strconv.ParseUint(loS, 16, 32)
	if err != nil {
		return 0, 0, err
	}
	hi64, err := strconv.ParseUint(hiS, 16, 32)
	if err != nil {
		return 0, 0, err
	}
	return uint32(lo64), uint32(hi64), nil
}
