package core

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"gpunoc/internal/gpu"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the paper must be registered.
	want := []string{"table1"}
	for i := 1; i <= 23; i++ {
		want = append(want, "fig"+itoa(i))
	}
	want = append(want, "ext1", "ext2", "ext3", "ext4", "ext5")
	for _, id := range want {
		if _, err := Lookup(id); err != nil {
			t.Errorf("experiment %s missing: %v", id, err)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry holds %d experiments, want %d", len(All()), len(want))
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestAllOrdering(t *testing.T) {
	all := All()
	if all[0].ID != "table1" {
		t.Errorf("first experiment %s, want table1", all[0].ID)
	}
	if all[1].ID != "fig1" || all[23].ID != "fig23" {
		t.Errorf("figure ordering wrong: %s .. %s", all[1].ID, all[23].ID)
	}
	if all[len(all)-1].ID != "ext5" {
		t.Errorf("extensions should sort last, got %s", all[len(all)-1].ID)
	}
}

// All lists the registry in orderKey order, as one copy that the caller
// may reorder without disturbing the next listing.
func TestAllMatchesOrderKey(t *testing.T) {
	all := All()
	if len(all) != len(registry) {
		t.Fatalf("All lists %d experiments, registry holds %d", len(all), len(registry))
	}
	for i, e := range all {
		if registry[e.ID] != e {
			t.Errorf("All()[%d] = %s is not the registered experiment", i, e.ID)
		}
		if i > 0 && orderKey(all[i-1].ID) >= orderKey(e.ID) {
			t.Errorf("All()[%d:%d] = %s, %s: not in orderKey order", i-1, i+1, all[i-1].ID, e.ID)
		}
	}
	first := all[0]
	all[0] = all[len(all)-1]
	if All()[0] != first {
		t.Error("reordering a listing changed the next one")
	}
	if n := testing.AllocsPerRun(100, func() { All() }); n > 1 {
		t.Errorf("All allocates %.0f times per listing, want at most 1", n)
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("fig99"); err == nil {
		t.Error("unknown id should fail")
	}
}

func TestSupportsGPU(t *testing.T) {
	e, err := Lookup("fig1")
	if err != nil {
		t.Fatal(err)
	}
	if !e.SupportsGPU(gpu.GenV100) || e.SupportsGPU(gpu.GenA100) {
		t.Error("fig1 is a V100 experiment")
	}
	tab, err := Lookup("table1")
	if err != nil {
		t.Fatal(err)
	}
	if !tab.SupportsGPU(gpu.GenH100) {
		t.Error("table1 is generation-neutral")
	}
}

// Every experiment runs successfully in quick mode on each generation it
// supports and produces renderable, CSV-exportable artifacts.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full registry")
	}
	ctxs := map[gpu.Generation]*Context{}
	for _, cfg := range gpu.AllConfigs() {
		ctx, err := NewContext(cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		ctxs[cfg.Name] = ctx
	}
	for _, e := range All() {
		for gen, ctx := range ctxs {
			if !e.SupportsGPU(gen) {
				continue
			}
			arts, err := e.Run(ctx)
			if err != nil {
				t.Errorf("%s on %s: %v", e.ID, gen, err)
				continue
			}
			if len(arts) == 0 {
				t.Errorf("%s on %s produced no artifacts", e.ID, gen)
			}
			for _, a := range arts {
				if a.Title() == "" {
					t.Errorf("%s on %s: artifact without title", e.ID, gen)
				}
				if strings.TrimSpace(a.Render()) == "" {
					t.Errorf("%s (%s): empty rendering", e.ID, a.Title())
				}
				if strings.TrimSpace(a.CSV()) == "" {
					t.Errorf("%s (%s): empty CSV", e.ID, a.Title())
				}
			}
		}
	}
}

// The paper's twelve observations all hold in the model.
func TestObservationsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-generation sweep")
	}
	obs, err := CheckObservations()
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 12 {
		t.Fatalf("%d observations checked, want 12", len(obs))
	}
	for _, o := range obs {
		if !o.Pass {
			t.Errorf("Observation #%d (%s) failed: %s", o.ID, o.Text, o.Detail)
		}
	}
}

// The paper's six implications all hold in the model.
func TestImplicationsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-generation sweep")
	}
	imps, err := CheckImplications()
	if err != nil {
		t.Fatal(err)
	}
	if len(imps) != 6 {
		t.Fatalf("%d implications checked, want 6", len(imps))
	}
	for _, im := range imps {
		if !im.Pass {
			t.Errorf("Implication #%d (%s) failed: %s", im.ID, im.Text, im.Detail)
		}
	}
}

func TestWriteReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full registry")
	}
	var buf strings.Builder
	err := WriteReportOptions(&buf, []gpu.Config{gpu.V100()}, ReportOptions{Quick: true, Now: time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# gpunoc characterization report", "## fig1", "## fig23", "## ext5", "Observations #1"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Every observation passes, so every checkbox is ticked.
	if strings.Contains(out, "- [ ]") {
		t.Error("report contains a failed observation")
	}
	if err := WriteReportOptions(&buf, nil, ReportOptions{Quick: true}); err == nil {
		t.Error("empty generation list should fail")
	}
}

func TestMarshalArtifacts(t *testing.T) {
	arts := []Artifact{
		&Series{Name: "s", XLabel: "x", YLabel: "y", X: []float64{1}, Y: []float64{2}},
		&Table{Name: "t", Columns: []string{"a"}, Rows: [][]string{{"1"}}},
		&Heatmap{Name: "h", Values: [][]float64{{1}}},
		&Text{Name: "x", Body: "hello"},
		&MultiSeries{Name: "m", X: []float64{1}, Lines: []NamedLine{{Label: "l", Y: []float64{1}}}},
	}
	data, err := MarshalArtifacts(arts)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []ArtifactJSON
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 5 {
		t.Fatalf("decoded %d artifacts", len(decoded))
	}
	kinds := map[string]bool{}
	for _, d := range decoded {
		kinds[d.Kind] = true
		if d.Title == "" {
			t.Error("artifact without title")
		}
	}
	for _, k := range []string{"series", "table", "heatmap", "text", "multiseries"} {
		if !kinds[k] {
			t.Errorf("kind %s missing", k)
		}
	}
	if decoded[3].Body != "hello" {
		t.Error("text body lost")
	}
}
