package core

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"

	"diestack/internal/canon"
	"diestack/internal/thermal"
)

// TestCatalogCoversEveryRunFunction parses the package source and
// asserts that every exported Run* function is reachable through some
// catalog entry: adding a new experiment without registering it is a
// test failure, not a silent gap in the service surface.
func TestCatalogCoversEveryRunFunction(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv != nil {
					continue
				}
				if strings.HasPrefix(fd.Name.Name, "Run") && ast.IsExported(fd.Name.Name) {
					declared[fd.Name.Name] = true
				}
			}
		}
	}
	if len(declared) < 10 {
		t.Fatalf("parsed only %d Run* functions; parsing is broken", len(declared))
	}

	registered := map[string]bool{
		// The dispatcher itself is the entry point, not an experiment.
		"RunExperiment": true,
	}
	for _, e := range Experiments() {
		for _, fn := range e.fn {
			registered[fn] = true
		}
	}
	for fn := range declared {
		if !registered[fn] {
			t.Errorf("exported %s is not reachable from any catalog experiment", fn)
		}
	}
	// And the inverse: fn lists must not drift from the source.
	for fn := range registered {
		if fn != "RunExperiment" && fn != "CampaignJobs" && fn != "Figure6Maps" && !declared[fn] {
			t.Errorf("catalog claims %s but no such function is declared", fn)
		}
	}
}

func TestCatalogNamesUniqueAndResolvable(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if e.Name == "" || e.Doc == "" || e.Runner == nil {
			t.Errorf("experiment %+v missing name, doc, or runner", e.Name)
		}
		if seen[e.Name] {
			t.Errorf("duplicate experiment name %q", e.Name)
		}
		seen[e.Name] = true
		got, ok := ExperimentByName(e.Name)
		if !ok || got.Name != e.Name {
			t.Errorf("ExperimentByName(%q) failed", e.Name)
		}
	}
	if _, ok := ExperimentByName("fig99"); ok {
		t.Error("unknown name resolved")
	}
	if _, err := RunExperiment(context.Background(), "fig99", ExperimentRequest{}); err == nil {
		t.Error("RunExperiment accepted an unknown name")
	}
}

func TestParamsSchema(t *testing.T) {
	e, _ := ExperimentByName("memory-perf")
	schema := e.ParamsSchema()
	want := map[string]string{
		"capacity_mb": "number",
		"benchmark":   "string",
		"faults":      "object",
	}
	if !reflect.DeepEqual(schema, want) {
		t.Errorf("memory-perf schema = %v, want %v", schema, want)
	}
	fig5, _ := ExperimentByName("fig5")
	if fig5.ParamsSchema() != nil {
		t.Error("parameterless experiment reported a schema")
	}
}

// TestEncodeRequestCanonical pins the property stackd's cache depends
// on: semantically equal requests encode to equal bytes, whether
// defaults are spelled out or omitted.
func TestEncodeRequestCanonical(t *testing.T) {
	e, _ := ExperimentByName("memory-perf")

	bare, err := e.EncodeRequest(ExperimentRequest{Spec: RunSpec{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := e.EncodeRequest(ExperimentRequest{
		Spec:   RunSpec{Seed: 1, Method: thermal.MethodDefault},
		Params: &MemoryPerfParams{CapacityMB: 0, Benchmark: ""},
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(bare) != string(explicit) {
		t.Fatalf("explicit defaults changed the encoding:\n%s\n%s", bare, explicit)
	}
	if canon.HashBytes(bare) != canon.HashBytes(explicit) {
		t.Fatal("cache keys differ for equal requests")
	}
	if want := `{"experiment":"memory-perf","spec":{"seed":1}}`; string(bare) != want {
		t.Fatalf("canonical form = %s, want %s", bare, want)
	}

	// Decode → re-encode canonicalizes a sprawling hand-written body.
	req, err := e.DecodeRequest([]byte(`{"spec":{"seed":1,"grid":0,"scale":0},"params":{"benchmark":"","capacity_mb":0}}`))
	if err != nil {
		t.Fatal(err)
	}
	re, err := e.EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if string(re) != string(bare) {
		t.Fatalf("decode/re-encode not canonical: %s vs %s", re, bare)
	}
	// The removed "parallelism" key is unknown: strict decode rejects it.
	if _, err := e.DecodeRequest([]byte(`{"spec":{"parallelism":2}}`)); err == nil {
		t.Fatal("legacy parallelism key accepted")
	}

	// Non-default method and params survive the round trip.
	full := ExperimentRequest{
		Spec:   RunSpec{Seed: 2, Grid: 16, Method: thermal.MethodMultigrid},
		Params: &MemoryPerfParams{CapacityMB: 32, Benchmark: "pcg"},
	}
	raw, err := e.EncodeRequest(full)
	if err != nil {
		t.Fatal(err)
	}
	back, err := e.DecodeRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, full) {
		t.Fatalf("round trip mutated the request:\nin:  %+v\nout: %+v", full, back)
	}
	if !strings.Contains(string(raw), `"method":"multigrid"`) {
		t.Fatalf("non-default method missing from the wire: %s", raw)
	}

	// An explicit line-SOR is not the default (steady solves default to
	// multigrid), so it is always written and keys a different entry.
	sor, err := e.EncodeRequest(ExperimentRequest{Spec: RunSpec{Seed: 1, Method: thermal.MethodLineSOR}})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"experiment":"memory-perf","spec":{"seed":1,"method":"line-sor"}}`; string(sor) != want {
		t.Fatalf("explicit line-SOR encodes as %s, want %s", sor, want)
	}
	back, err = e.DecodeRequest(sor)
	if err != nil {
		t.Fatal(err)
	}
	if back.Spec.Method != thermal.MethodLineSOR {
		t.Fatalf("explicit line-SOR decoded as %v", back.Spec.Method)
	}
}

func TestDecodeRequestRejects(t *testing.T) {
	e, _ := ExperimentByName("memory-perf")
	if _, err := e.DecodeRequest([]byte(`{"spec":{"seed":1},"leases":true}`)); err == nil {
		t.Error("unknown top-level field accepted")
	}
	if _, err := e.DecodeRequest([]byte(`{"params":{"capacity_gb":1}}`)); err == nil {
		t.Error("unknown params field accepted")
	}
	if _, err := e.DecodeRequest([]byte(`{"experiment":"fig5"}`)); err == nil {
		t.Error("mismatched experiment name accepted")
	}
	if _, err := e.DecodeRequest([]byte(`{"spec":{"method":"jacobi"}}`)); err == nil {
		t.Error("unknown method accepted")
	}
	fig5, _ := ExperimentByName("fig5")
	if _, err := fig5.DecodeRequest([]byte(`{"params":{"x":1}}`)); err == nil {
		t.Error("params accepted by a parameterless experiment")
	}
	if _, err := fig5.EncodeRequest(ExperimentRequest{Params: &MemoryPerfParams{}}); err == nil {
		t.Error("EncodeRequest accepted params for a parameterless experiment")
	}
	if _, err := e.Run(context.Background(), ExperimentRequest{Params: &MemoryThermalParams{}}); err == nil {
		t.Error("Run accepted the wrong params type")
	}
}

// TestCatalogMatchesDirectCall pins the refactor's acceptance bar: the
// catalog path returns the same values as calling the core function
// directly.
func TestCatalogMatchesDirectCall(t *testing.T) {
	ctx := context.Background()
	spec := RunSpec{Grid: testGrid}
	res, err := RunExperiment(ctx, "memory-thermal", ExperimentRequest{
		Spec:   spec,
		Params: &MemoryThermalParams{CapacityMB: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := RunMemoryThermal(ctx, spec, Stacked32MB)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Value, direct) {
		t.Fatalf("catalog diverges from direct call:\ncatalog: %+v\ndirect:  %+v", res.Value, direct)
	}
	if res.Experiment != "memory-thermal" {
		t.Errorf("result names %q", res.Experiment)
	}
}

// TestCampaignWirePin pins the exact canonical bytes and cache-key
// hash of a default-solver campaign spec: the default method stays off
// the wire, and workers hash these bytes to fence campaigns, so any
// drift here is a cross-version interop break.
func TestCampaignWirePin(t *testing.T) {
	spec := CampaignSpec{Seed: 3, Scale: 0.5, Grid: 64}
	raw, err := spec.EncodeWire()
	if err != nil {
		t.Fatal(err)
	}
	const wantBytes = `{"seed":3,"scale":0.5,"grid":64}`
	if string(raw) != wantBytes {
		t.Fatalf("wire bytes drifted:\ngot  %s\nwant %s", raw, wantBytes)
	}
	const wantHash = "7d4cf354b064e77324ba9fa359a5e55308fa27bf1cd092b5459ceeabe96369bc"
	if h := canon.HashBytes(raw); h != wantHash {
		t.Fatalf("wire hash drifted: %s", h)
	}
	got, err := DecodeWireSpec(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spec) {
		t.Fatalf("round trip mutated the spec: %+v", got)
	}
}
