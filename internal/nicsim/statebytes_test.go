package nicsim

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"superfe/internal/apps"
	"superfe/internal/feature"
	"superfe/internal/policy"
	"superfe/internal/switchsim"
	"superfe/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata goldens")

// TestStateBytesGolden pins Runtime.StateBytes — the Figure 15 memory
// metric — for the ten Table 3 applications, streaming and naive, on a
// fixed trace. The values were recorded before the runtime began
// sharing one state between the reduce specs of a family: the
// modelled footprint stays priced per spec, whatever the executable
// keeps.
func TestStateBytesGolden(t *testing.T) {
	wl := trace.EnterpriseConfig
	wl.Flows = 300
	tr := trace.Generate(wl, 42)
	var got strings.Builder
	for _, app := range apps.Catalog() {
		plan, err := policy.Compile(app.Build())
		if err != nil {
			t.Fatal(err)
		}
		for _, naive := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Naive = naive
			rt, err := NewRuntime(cfg, plan, func(feature.Vector) {})
			if err != nil {
				t.Fatal(err)
			}
			sw, err := switchsim.New(switchsim.DefaultConfig(), plan.Switch, rt.Process)
			if err != nil {
				t.Fatal(err)
			}
			for i := range tr.Packets {
				sw.Process(&tr.Packets[i])
			}
			sw.Flush()
			mode := "streaming"
			if naive {
				mode = "naive"
			}
			fmt.Fprintf(&got, "%s %s groups=%d state_bytes=%d\n", app.Name, mode, rt.Stats().GroupsLive, rt.StateBytes())
		}
	}
	goldenCompare(t, "state_bytes.golden", got.String())
}
