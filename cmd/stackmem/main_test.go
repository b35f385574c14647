package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"diestack/internal/trace"
	"diestack/internal/workload"
)

// runMainEnv marks a re-executed test binary that should run main
// with its arguments instead of the tests.
const runMainEnv = "STACKMEM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// stackmem runs the command in a child process with working directory
// dir ("" = the package directory) and returns its stdout, its stderr
// and the error from waiting on it.
func stackmem(dir string, args ...string) (stdout, stderr []byte, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	cmd.Dir = dir
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.Bytes(), errOut.Bytes(), err
}

// writeTrace writes gauss at scale 0.05, seed 1, as a binary trace
// file — the same bytes `tracegen -bench gauss -scale 0.05` writes.
func writeTrace(t *testing.T, path string) {
	t.Helper()
	b, _ := workload.ByName("gauss")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := trace.NewWriter(f)
	for _, r := range b.Generate(1, 0.05) {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// checkGolden compares got with testdata/<name>.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from testdata/%s:\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestGolden pins each report mode byte for byte at test scale. Each
// case runs in a fresh directory holding gauss.trace (see writeTrace).
// Regenerate a file with
//
//	go run ./cmd/stackmem <args> > cmd/stackmem/testdata/<name>.golden
//
// run from a directory holding gauss.trace, and copy map.png to
// testdata/<name>.png for the cases that write one. Regenerate only
// when a change is meant to move the numbers or the layout.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		png  bool // the case writes map.png, compared with testdata/<name>.png
	}{
		// All twelve kernels: Figures 5, 7 and 8.
		{"all", []string{"-scale", "0.05", "-grid", "16"}, false},
		{"faults", []string{"-bench", "gauss", "-scale", "0.05", "-grid", "16",
			"-fault-uncorr", "100", "-fault-dead-banks", "0,1", "-fault-tsv", "0.25", "-fault-seed", "3"}, false},
		{"config", []string{"-config"}, false},
		{"power", []string{"-power"}, false},
		{"thermal", []string{"-thermal", "-grid", "16"}, false},
		{"thermal-png", []string{"-thermal", "-grid", "16", "-png", "map.png"}, true},
		{"trace", []string{"-trace", "gauss.trace"}, false},
		{"trace-faults", []string{"-trace", "gauss.trace",
			"-fault-uncorr", "100", "-fault-dead-banks", "0,1", "-fault-seed", "3"}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeTrace(t, filepath.Join(dir, "gauss.trace"))
			got, stderr, err := stackmem(dir, tc.args...)
			if err != nil {
				t.Fatalf("stackmem %s: %v\n%s", strings.Join(tc.args, " "), err, stderr)
			}
			checkGolden(t, tc.name+".golden", got)
			if tc.png {
				png, err := os.ReadFile(filepath.Join(dir, "map.png"))
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, tc.name+".png", png)
			}
		})
	}
}

// TestCheckpointGolden pins the checkpointed replay: a full run that
// snapshots every 10000 records, then a -resume from its last
// snapshot, must both print testdata/checkpoint.golden, generated by
//
//	go run ./cmd/stackmem -bench gauss -scale 0.05 -capacity 32 \
//	    -checkpoint run.ckpt -checkpoint-every 10000 > cmd/stackmem/testdata/checkpoint.golden
func TestCheckpointGolden(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-bench", "gauss", "-scale", "0.05", "-capacity", "32",
		"-checkpoint", "run.ckpt", "-checkpoint-every", "10000"}
	for _, extra := range [][]string{nil, {"-resume"}} {
		args := append(append([]string(nil), args...), extra...)
		got, stderr, err := stackmem(dir, args...)
		if err != nil {
			t.Fatalf("stackmem %s: %v\n%s", strings.Join(args, " "), err, stderr)
		}
		checkGolden(t, "checkpoint.golden", got)
	}
}
