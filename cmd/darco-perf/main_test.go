package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// fakeTree writes a tree whose BENCHMARK.json command is a shell script:
// it appends "<name> <args>" to log, then runs body, which prints the
// benchmark's output.
func fakeTree(t *testing.T, name, log, body string) string {
	t.Helper()
	dir := t.TempDir()
	cfg := `{"command": ["sh", "bench.sh"], "run_seconds": 2,
		"end_to_end": [{"name": "guest_mips", "better": "higher", "bound": 0.25}],
		"per_layer": [{"name": "tol.dispatches", "better": "lower"}]}`
	script := fmt.Sprintf("echo \"%s $*\" >> '%s'\n%s\n", name, log, body)
	for file, data := range map[string]string{"BENCHMARK.json": cfg, "bench.sh": script} {
		if err := os.WriteFile(filepath.Join(dir, file), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// result is a canned benchmark output: a metric line, then the result.
func result(mips float64) string {
	return fmt.Sprintf(`echo 'fake guest_mips %g MIPS'
echo '{"correct": true, "attempted": 6, "failed": 0, "metrics": {"guest_mips": {"value": %g, "unit": "MIPS"}}}'`, mips, mips)
}

func needSh(t *testing.T) {
	if _, err := exec.LookPath("sh"); err != nil {
		t.Skip("no sh")
	}
}

func TestABAlternatesTrees(t *testing.T) {
	needSh(t)
	log := filepath.Join(t.TempDir(), "runs.log")
	base := fakeTree(t, "B", log, result(10))
	cand := fakeTree(t, "C", log, result(12))
	var out bytes.Buffer
	res, err := runAB(context.Background(), &out, base, cand,
		abRun{baseLabel: "parent", candLabel: "change", workload: "w", pairs: 10, seed: 3, trace: 0})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	args := " -workload w -seed 3 -seconds 2 -trace 0"
	var want []string
	for _, side := range strings.Split("BCCBBCCBBCCBBCCBBCCB", "") {
		want = append(want, side+args)
	}
	if got := strings.Split(strings.TrimSpace(string(data)), "\n"); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("runs:\n%s\nwant B,C / C,B / ... with the benchmark's arguments:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if res.BaseAttempted != 60 || res.CandAttempted != 60 || len(res.Metrics) != 1 {
		t.Fatalf("attempted %d/%d, metrics %+v", res.BaseAttempted, res.CandAttempted, res.Metrics)
	}
	for _, line := range []string{
		"| guest_mips | 10 / 10 / 10 | 12 / 12 / 12 | +20.0 % | 10/10 |",
		"verdict guest_mips: better (",
		"verdict failed share: not higher (baseline 0/60, candidate 0/60)",
		"layout unavailable: ",
	} {
		if !strings.Contains(out.String(), line) {
			t.Errorf("record lacks %q:\n%s", line, out.String())
		}
	}
}

func TestABRunFailureFailsComparison(t *testing.T) {
	needSh(t)
	for _, c := range []struct{ name, body, want string }{
		{"exit non-zero", result(12) + "\nexit 3", "exit status 3"},
		{"no JSON", "echo 'fake guest_mips 12 MIPS'", "no JSON result line"},
	} {
		t.Run(c.name, func(t *testing.T) {
			log := filepath.Join(t.TempDir(), "runs.log")
			base := fakeTree(t, "B", log, result(10))
			cand := fakeTree(t, "C", log, c.body)
			_, err := runAB(context.Background(), &bytes.Buffer{}, base, cand,
				abRun{workload: "w", pairs: 2})
			if err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "candidate run 1") {
				t.Fatalf("err = %v, want the candidate's first run to fail with %q", err, c.want)
			}
		})
	}
}
