package policy

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"superfe/internal/flowkey"
	"superfe/internal/packet"
	"superfe/internal/streaming"
)

// crossGranProbe maps "ipt" at the host granularity and reduces "ipt"
// at the flow granularity, where nothing maps it and no field is named
// so: the reduce reads no value.
func crossGranProbe() *Builder {
	return New("probe").
		GroupBy(flowkey.GranHost).
		Map("ipt", SrcField(packet.FieldTimestamp), MapIPT).
		GroupBy(flowkey.GranFlow).
		Reduce("ipt", RF(streaming.FMax)).
		Collect()
}

// TestCrossGranularityKeyFailsBuild: a key resolves within its
// granularity only, so the probe fails Build rather than deploy, and
// moving the reduce next to its map makes it build.
func TestCrossGranularityKeyFailsBuild(t *testing.T) {
	if _, err := crossGranProbe().Build(); !errors.Is(err, ErrUnknownSourceKey) {
		t.Fatalf("probe: err = %v, want %v", err, ErrUnknownSourceKey)
	}
	if _, err := New("same-gran").
		GroupBy(flowkey.GranHost).
		Map("ipt", SrcField(packet.FieldTimestamp), MapIPT).
		Reduce("ipt", RF(streaming.FMax)).
		Collect().
		Build(); err != nil {
		t.Fatal(err)
	}
}

// TestStagesCarryResolvedOperands checks each operand kind on a
// compiled plan: a field at its cell position, an earlier map stage
// (which shadows a built-in field of the same name), and none.
func TestStagesCarryResolvedOperands(t *testing.T) {
	p := New("ops").
		GroupBy(flowkey.GranFlow).
		Map("one", SrcNone, MapOne).               // stage 0
		Reduce("one", RF(streaming.FSum)).         // stage 1
		Collect().                                 // stage 2
		Map("ttl", SrcKey("ip.ttl"), MapIdentity). // stage 3
		Map("size", SrcKey("ttl"), MapIdentity).   // stage 4
		Reduce("size", RF(streaming.FMax)).        // stage 5
		Reduce("tcp.flags", RF(streaming.FMax)).   // stage 6
		Collect().                                 // stage 7
		MustBuild()
	plan, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	field := func(f packet.FieldName) Operand {
		for i, m := range plan.Switch.MetadataFields {
			if m == f {
				return Operand{Kind: OperandField, Field: f, Pos: i}
			}
		}
		t.Fatalf("%s not batched: %v", f, plan.Switch.MetadataFields)
		return Operand{}
	}
	stage := func(i int) Operand { return Operand{Kind: OperandStage, Stage: i} }
	want := []Operand{{}, stage(0), {}, field(packet.FieldTTL), stage(3), stage(4), field(packet.FieldFlags), {}}
	if len(plan.NIC.Stages) != len(want) {
		t.Fatalf("%d stages, want %d", len(plan.NIC.Stages), len(want))
	}
	for i, st := range plan.NIC.Stages {
		if st.In != want[i] {
			t.Errorf("stage %d (%s): In = %+v, want %+v", i, st.Op, st.In, want[i])
		}
	}
	if len(plan.Switch.MetadataFields) != 2 {
		t.Errorf("metadata fields = %v, want ttl and flags only (size is shadowed)", plan.Switch.MetadataFields)
	}
}

// TestOnlyPolicyAndBaselineResolveNames: downstream of Build, a stage
// is read through its resolved operand. No package besides policy,
// which resolves, and baseline, the oracle that resolves by name on
// purpose, calls BuiltinField.
func TestOnlyPolicyAndBaselineResolveNames(t *testing.T) {
	const self = "superfe/internal/policy"
	allowed := map[string]bool{"internal/policy": true, "internal/baseline": true}
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel("../..", path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || allowed[filepath.ToSlash(rel)]) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files++
		name := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == self {
				name = "policy"
				if imp.Name != nil {
					name = imp.Name.Name
				}
			}
		}
		if name == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "BuiltinField" {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == name {
					t.Errorf("%s: resolves a key by name (policy.BuiltinField); read NICStage.In", fset.Position(sel.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("walked %d Go files: the walk did not reach the module", files)
	}
}
