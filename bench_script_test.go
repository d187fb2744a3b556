// Regression tests for scripts/bench.sh. The script's BENCH_INPUT hook
// feeds it a pre-recorded raw `go test -bench` output so the tests cover
// the parsing and guard logic without running any benchmarks.
package repro

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func runBenchScript(t *testing.T, rawContent string) (jsonPath string, out string, err error) {
	t.Helper()
	return runBenchScriptIn(t, "scripts/bench.sh", filepath.Join(t.TempDir(), "out"), rawContent)
}

// runBenchScriptIn runs the bench script at path on rawContent, from the
// repository root, with its snapshots going to outDir.
func runBenchScriptIn(t *testing.T, path, outDir, rawContent string) (jsonPath string, out string, err error) {
	t.Helper()
	if _, lookErr := exec.LookPath("bash"); lookErr != nil {
		t.Skip("bash not available")
	}
	input := filepath.Join(t.TempDir(), "raw.txt")
	if werr := os.WriteFile(input, []byte(rawContent), 0o644); werr != nil {
		t.Fatal(werr)
	}
	cmd := exec.Command("bash", path)
	cmd.Env = append(os.Environ(), "BENCH_INPUT="+input, "OUT_DIR="+outDir)
	b, err := cmd.CombinedOutput()
	matches, globErr := filepath.Glob(filepath.Join(outDir, "BENCH_*.json"))
	if globErr != nil {
		t.Fatal(globErr)
	}
	if len(matches) > 0 {
		jsonPath = matches[0]
	}
	return jsonPath, string(b), err
}

// TestBenchScriptZeroMatchFails is the regression test for the hollow-
// snapshot bug: a BENCH_PATTERN that matches no benchmarks used to exit 0
// and write a snapshot with an empty benchmark list, which a downstream
// benchstat compare reads as "no regressions". The script must exit
// non-zero and leave no snapshot files behind.
func TestBenchScriptZeroMatchFails(t *testing.T) {
	empty := "goos: linux\ngoarch: amd64\npkg: repro\nPASS\nok  \trepro\t0.01s\n"
	jsonPath, out, err := runBenchScript(t, empty)
	if err == nil {
		t.Fatalf("bench.sh exited 0 on zero matched benchmarks; output:\n%s", out)
	}
	if jsonPath != "" {
		t.Errorf("bench.sh left a snapshot %s despite matching nothing", jsonPath)
	}
	if !strings.Contains(out, "matched no benchmarks") {
		t.Errorf("missing diagnostic in output:\n%s", out)
	}
}

// TestBenchScriptParsesSnapshot: the happy path still works — a raw file
// with two benchmarks yields an exit-0 run and a JSON snapshot naming both
// and averaging repeated counts.
func TestBenchScriptParsesSnapshot(t *testing.T) {
	raw := strings.Join([]string{
		"goos: linux",
		"BenchmarkSimKernelEvents-8 \t 1000000 \t 400 ns/op \t 0 B/op \t 0 allocs/op",
		"BenchmarkSimKernelEvents-8 \t 1000000 \t 200 ns/op \t 0 B/op \t 0 allocs/op",
		"BenchmarkFluidServer-8 \t 500 \t 2500000 ns/op \t 12 B/op \t 1 allocs/op",
		"PASS",
		"ok  \trepro\t2.5s",
		"",
	}, "\n")
	jsonPath, out, err := runBenchScript(t, raw)
	if err != nil {
		t.Fatalf("bench.sh failed on valid input: %v\noutput:\n%s", err, out)
	}
	if jsonPath == "" {
		t.Fatalf("no JSON snapshot written; output:\n%s", out)
	}
	data, rerr := os.ReadFile(jsonPath)
	if rerr != nil {
		t.Fatal(rerr)
	}
	js := string(data)
	for _, want := range []string{"BenchmarkSimKernelEvents", "BenchmarkFluidServer", `"runs": 2`} {
		if !strings.Contains(js, want) {
			t.Errorf("snapshot missing %q:\n%s", want, js)
		}
	}
	// The two SimKernelEvents counts (400, 200) must be averaged to 300.
	if !strings.Contains(js, "300") {
		t.Errorf("snapshot did not average repeated runs:\n%s", js)
	}
}

// TestBenchScriptRefusesOverwrite is the regression test for silently
// replaced snapshots: two runs at one commit into one OUT_DIR used to
// write the same BENCH_<sha> files, the second over the first. The second
// run must exit non-zero, name the file, and leave the first snapshot as
// it was.
func TestBenchScriptRefusesOverwrite(t *testing.T) {
	outDir := filepath.Join(t.TempDir(), "out")
	first := "BenchmarkSimKernelEvents-8 \t 1000000 \t 400 ns/op\n"
	jsonPath, out, err := runBenchScriptIn(t, "scripts/bench.sh", outDir, first)
	if err != nil || jsonPath == "" {
		t.Fatalf("first run failed: %v\noutput:\n%s", err, out)
	}
	want, rerr := os.ReadFile(jsonPath)
	if rerr != nil {
		t.Fatal(rerr)
	}
	second := "BenchmarkFluidServer-8 \t 500 \t 2500000 ns/op\n"
	_, out, err = runBenchScriptIn(t, "scripts/bench.sh", outDir, second)
	if err == nil {
		t.Fatalf("second run into the same OUT_DIR exited 0; output:\n%s", out)
	}
	if !strings.Contains(out, strings.TrimSuffix(filepath.Base(jsonPath), ".json")) {
		t.Errorf("diagnostic does not name the existing snapshot:\n%s", out)
	}
	got, rerr := os.ReadFile(jsonPath)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if string(got) != string(want) {
		t.Errorf("first snapshot changed:\nbefore:\n%s\nafter:\n%s", want, got)
	}
}

// TestBenchScriptBenchmarksCallersCheckout is the regression test for the
// merge-base compare: CI copies scripts/ out of the tree, checks out the
// base commit and runs the copy. The script used to cd to its own parent
// directory, i.e. outside any checkout, and filed the snapshot as "nogit".
// Run from the repository, a copy elsewhere must name its snapshot after
// the repository's commit.
func TestBenchScriptBenchmarksCallersCheckout(t *testing.T) {
	sha, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		t.Skip("not a git checkout, or git not available")
	}
	script, err := os.ReadFile(filepath.Join("scripts", "bench.sh"))
	if err != nil {
		t.Fatal(err)
	}
	harness := filepath.Join(t.TempDir(), "harness")
	if err := os.Mkdir(harness, 0o755); err != nil {
		t.Fatal(err)
	}
	copied := filepath.Join(harness, "bench.sh")
	if err := os.WriteFile(copied, script, 0o755); err != nil {
		t.Fatal(err)
	}
	raw := "BenchmarkSimKernelEvents-8 \t 1000000 \t 400 ns/op\n"
	jsonPath, out, err := runBenchScriptIn(t, copied, filepath.Join(t.TempDir(), "out"), raw)
	if err != nil {
		t.Fatalf("bench.sh copy failed: %v\noutput:\n%s", err, out)
	}
	want := "BENCH_" + strings.TrimSpace(string(sha))
	if !strings.HasPrefix(filepath.Base(jsonPath), want) {
		t.Errorf("snapshot %q not named after the checkout's commit %s\noutput:\n%s", jsonPath, want, out)
	}
}
