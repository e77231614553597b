package harness

import (
	"strconv"
	"strings"
	"testing"
)

func TestAllExperimentsProduceRows(t *testing.T) {
	ids := IDs()
	for i, tab := range All(Quick) {
		if tab.ID != ids[i] {
			t.Errorf("experiment %d is registered as %q but reports id %q", i, ids[i], tab.ID)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s: no rows", tab.ID)
		}
		for i, r := range tab.Rows {
			if len(r) != len(tab.Headers) {
				t.Errorf("%s row %d: %d cells for %d headers", tab.ID, i, len(r), len(tab.Headers))
			}
		}
		if out := tab.Render(); !strings.Contains(out, tab.Title) {
			t.Errorf("%s: render missing title", tab.ID)
		}
	}
}

// TestByID resolves every registered id, in either case; running them
// is TestAllExperimentsProduceRows's job, so only a static table runs
// here.
func TestByID(t *testing.T) {
	ids := IDs()
	if len(ids) != 12 {
		t.Fatalf("%d experiments registered, want 12: %v", len(ids), ids)
	}
	for _, id := range ids {
		for _, q := range []string{id, strings.ToUpper(id)} {
			if _, ok := lookup(q); !ok {
				t.Errorf("%s not found", q)
			}
		}
	}
	if tab, ok := ByID("TABLE3", Quick); !ok || tab.ID != "table3" {
		t.Errorf("ByID(TABLE3) = %q, %v", tab.ID, ok)
	}
	if _, ok := ByID("nonsense", Quick); ok {
		t.Error("nonsense id resolved")
	}
}

func pct(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("bad percentage %q", cell)
	}
	return v
}

func num(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64)
	if err != nil {
		t.Fatalf("bad number %q", cell)
	}
	return v
}

// The following tests assert the headline claims of each figure hold
// in our reproduction — the "shape" contract of the reproduction.

func TestFig12Claim_Over80PercentReduction(t *testing.T) {
	tab := Fig12(Quick)
	for _, r := range tab.Rows {
		if red := pct(t, r[4]); red < 80 {
			t.Errorf("%s/%s: reduction %.1f%% < 80%%", r[0], r[1], red)
		}
	}
}

func TestFig13Claim_MGPVConstantGPVLinear(t *testing.T) {
	tab := Fig13(Quick)
	if len(tab.Rows) < 3 {
		t.Fatal("need 3 apps")
	}
	// Compare the 2-granularity and 4-granularity rows.
	mgpvMem2, mgpvMem4 := num(t, tab.Rows[1][2]), num(t, tab.Rows[2][2])
	gpvMem2, gpvMem4 := num(t, tab.Rows[1][3]), num(t, tab.Rows[2][3])
	if mgpvMem4 > mgpvMem2*1.1 {
		t.Errorf("MGPV memory grew with granularities: %g → %g", mgpvMem2, mgpvMem4)
	}
	if gpvMem4 < gpvMem2*1.5 {
		t.Errorf("GPV memory did not grow linearly: %g → %g", gpvMem2, gpvMem4)
	}
	// GPV always costs more than MGPV at multi-granularity.
	if gpvMem2 <= mgpvMem2 {
		t.Error("GPV should exceed MGPV at 2 granularities")
	}
}

func TestFig14Claim_AgingRaisesBufferEfficiency(t *testing.T) {
	tab := Fig14(Quick)
	// Per trace: efficiency with a good T (20ms) must beat aging-off.
	byTrace := map[string]map[string]float64{}
	for _, r := range tab.Rows {
		if byTrace[r[0]] == nil {
			byTrace[r[0]] = map[string]float64{}
		}
		byTrace[r[0]][r[1]] = pct(t, r[3])
	}
	for tr, vals := range byTrace {
		if vals["20"] <= vals["off"] {
			t.Errorf("%s: aging (T=20ms, %.1f%%) did not beat off (%.1f%%)", tr, vals["20"], vals["off"])
		}
	}
}

// The naive store-everything extractor needs more NIC state and more
// modelled cycles per cell than the streaming one.
func TestFig15Claim_NaiveExceedsStreaming(t *testing.T) {
	tab := Fig15(Quick)
	if len(tab.Rows) != 2 || tab.Rows[0][0] != "streaming" || tab.Rows[1][0] != "naive" {
		t.Fatalf("rows %v, want streaming then naive", tab.Rows)
	}
	streaming, naive := tab.Rows[0], tab.Rows[1]
	for _, col := range []int{1, 3} { // StateBytes, ModelCycles/cell
		if s, n := num(t, streaming[col]), num(t, naive[col]); n <= s {
			t.Errorf("%s: naive %g does not exceed streaming %g", tab.Headers[col], n, s)
		}
	}
}

func TestFig16Claim_LinearScalingAndTFFastest(t *testing.T) {
	tab := Fig16()
	first := tab.Rows[0]
	last := tab.Rows[len(tab.Rows)-1]
	cores1, cores120 := num(t, first[0]), num(t, last[0])
	for col := 1; col <= 4; col++ {
		r1, r120 := num(t, first[col]), num(t, last[col])
		speedup := r120 / r1
		ideal := cores120 / cores1
		if speedup < ideal*0.95 {
			t.Errorf("%s: scaling %gx of ideal %gx", tab.Headers[col], speedup, ideal)
		}
	}
	// TF (col 1) is the fastest at every row.
	for _, r := range tab.Rows {
		tf := num(t, r[1])
		for col := 2; col <= 4; col++ {
			if num(t, r[col]) > tf {
				t.Errorf("%s beats TF at %s cores", tab.Headers[col], r[0])
			}
		}
	}
}

func TestFig17Claim_4xWithDivisionElimLargest(t *testing.T) {
	tab := Fig17()
	if len(tab.Rows) != 4 {
		t.Fatal("want 4 optimization steps")
	}
	total := num(t, tab.Rows[3][3])
	if total < 3 || total > 8 {
		t.Errorf("total speedup %gx outside the paper's ~4x ballpark", total)
	}
	// Division elimination contributes the largest step.
	s1 := num(t, tab.Rows[1][3])
	s2 := num(t, tab.Rows[2][3])
	s3 := num(t, tab.Rows[3][3])
	divGain := s3 / s2
	if divGain < s2/s1 {
		t.Error("division elimination is not the largest win")
	}
}

func TestFig10Claim_SuperFEErrorBounded(t *testing.T) {
	tab := Fig10(Quick)
	for _, r := range tab.Rows {
		sfe := pct(t, r[1])
		switch r[0] {
		case "fd_mean", "fd_std", "fd_mag", "fd_radius":
			if sfe > 4 {
				t.Errorf("%s: SuperFE error %.2f%% > 4%%", r[0], sfe)
			}
		case "ft_percent{p50}", "f_card":
			if sfe > 15 {
				t.Errorf("%s: SuperFE error %.2f%% implausibly high", r[0], sfe)
			}
		}
		// SuperFE never worse than the original emulation by a
		// meaningful margin.
		orig := pct(t, r[2])
		if sfe > orig*1.1+0.5 {
			t.Errorf("%s: SuperFE (%.2f%%) worse than original (%.2f%%)", r[0], sfe, orig)
		}
	}
}

func TestFig11Claim_DetectionAccuracy(t *testing.T) {
	tab := Fig11(Quick)
	for _, r := range tab.Rows {
		if auc := num(t, r[2]); auc < 0.85 {
			t.Errorf("%s: AUC %.3f < 0.85 — detection degraded", r[0], auc)
		}
	}
}

func TestFig9Claim_TwoOrdersOfMagnitude(t *testing.T) {
	tab := Fig9(Quick)
	for _, r := range tab.Rows {
		superfe := num(t, r[1])
		speedup := num(t, r[3])
		if superfe < 100 {
			t.Errorf("%s: SuperFE %g Gbps is not multi-100Gbps", r[0], superfe)
		}
		if speedup < 30 {
			t.Errorf("%s: speedup %gx too low for 'nearly two orders of magnitude'", r[0], speedup)
		}
	}
}

func TestTable4Claim_WithinPaperBallpark(t *testing.T) {
	tab := Table4()
	for _, r := range tab.Rows {
		tables, salus, sram := pct(t, r[1]), pct(t, r[2]), pct(t, r[3])
		if tables < 20 || tables > 40 {
			t.Errorf("%s: tables %.1f%% outside 20-40%%", r[0], tables)
		}
		if salus < 60 || salus > 85 {
			t.Errorf("%s: sALUs %.1f%% outside 60-85%%", r[0], salus)
		}
		if sram < 12 || sram > 25 {
			t.Errorf("%s: SRAM %.1f%% outside 12-25%%", r[0], sram)
		}
	}
}
