package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runBench runs the benchmark in-process and returns its exit code and
// parsed result line (nil when it printed none).
func runBench(t *testing.T, args ...string) (int, *result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"--expected", "expected.json", "--workdir", t.TempDir()}, args...)
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res *result
	if last := lines[len(lines)-1]; last != "" {
		res = &result{}
		if err := json.Unmarshal([]byte(last), res); err != nil {
			t.Fatalf("last stdout line is not a result: %q: %v", last, err)
		}
	}
	return code, res, stderr.String()
}

func TestCleanRunPasses(t *testing.T) {
	code, res, stderr := runBench(t, "--workload", "noc_full", "--seconds", "1")
	if code != 0 || res == nil || !res.Correct || res.Failed != 0 {
		t.Fatalf("clean noc_full run: code %d, result %+v\n%s", code, res, stderr)
	}
}

// The gate's self-test: a sabotaged digest and a body altered by one
// byte must each fail an operation and exit non-zero.
func TestSabotagedDigestFails(t *testing.T) {
	exp, err := loadExpected("expected.json")
	if err != nil {
		t.Fatal(err)
	}
	e := exp[nocFullKeys()[0].String()]
	b := []byte(e.SHA256[0])
	b[0] ^= 1
	e.SHA256[0] = string(b)
	data, err := json.Marshal(exp)
	if err != nil {
		t.Fatal(err)
	}
	sabotaged := filepath.Join(t.TempDir(), "expected.json")
	if err := os.WriteFile(sabotaged, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, res, stderr := runBench(t, "--workload", "noc_full", "--seconds", "1", "--expected", sabotaged)
	if code == 0 || res == nil || res.Correct || res.Failed == 0 {
		t.Fatalf("sabotaged digest passed: code %d, result %+v", code, res)
	}
	if !strings.Contains(stderr, "sha256") {
		t.Errorf("stderr does not name the mismatch:\n%s", stderr)
	}
}

func TestAlteredFillBodyFails(t *testing.T) {
	code, res, _ := runBench(t, "--workload", "noc_full", "--seconds", "1", "--sabotage-body")
	if code == 0 || res == nil || res.Correct || res.Failed != 1 {
		t.Fatalf("altered body passed: code %d, result %+v", code, res)
	}
}

func TestAlteredServedBodyFails(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a two-node cluster and warms it")
	}
	bin := filepath.Join(t.TempDir(), "nocserve")
	if out, err := exec.Command("go", "build", "-o", bin, "gpunoc/cmd/nocserve").CombinedOutput(); err != nil {
		t.Fatalf("build nocserve: %v\n%s", err, out)
	}
	code, res, stderr := runBench(t, "--workload", "serve_churn", "--seconds", "1", "--nocserve", bin, "--sabotage-body")
	if code == 0 || res == nil || res.Correct || res.Failed == 0 {
		t.Fatalf("altered served body passed: code %d, result %+v\n%s", code, res, stderr)
	}
	if !strings.Contains(stderr, "served body") {
		t.Errorf("stderr does not name the served body:\n%s", stderr)
	}
}

// The known defect is a standing failure: counted failed, but not a
// problem. Any other failure is.
func TestKnownDefectIsStandingFailure(t *testing.T) {
	var tl tally
	defect := key{GPU: knownDefect.gpu, Exp: knownDefect.exp, Quick: true}
	verifyFill(defect, fill{err: errors.New("core: fig19 models the partitioned-GPU RSA kernel; run on A100 or H100")}, expected{}, &tl)
	if tl.attempted != 1 || tl.failed != 1 || len(tl.problems) != 0 {
		t.Fatalf("known refusal: attempted %d failed %d problems %v", tl.attempted, tl.failed, tl.problems)
	}
	verifyFill(defect, fill{err: errors.New("some other error")}, expected{}, &tl)
	if tl.failed != 2 || len(tl.problems) != 1 {
		t.Fatalf("other error on the defect key: failed %d problems %v", tl.failed, tl.problems)
	}
}

// BENCHMARK.json names exactly the metrics the benchmark prints.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, want []string, got []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i].Name != want[i] || got[i].Unit != unitOf[want[i]] {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i], unitOf[want[i]])
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer(), spec.PerLayer)
}

// timeMedian weights each value by itself and interpolates between the
// centres of the two values around the middle of the sum.
func TestTimeMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 1, 1, 1}, 1},
		// Centres at 1/8 and 5/8 of the sum: 0.5 lies 3/4 of the way.
		{[]float64{3, 1}, 2.5},
		// The short values carry little weight.
		{[]float64{0.1, 0.2, 10, 10}, 10},
	} {
		if got := timeMedian(c.xs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("timeMedian(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
