package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv marks a re-executed test binary that should run main
// with its arguments instead of the tests.
const runMainEnv = "THERMAL3D_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// thermal3d runs the command in a child process with working
// directory dir ("" = the package directory) and returns its stdout,
// its stderr and the error from waiting on it.
func thermal3d(dir string, args ...string) (stdout, stderr []byte, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	cmd.Dir = dir
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.Bytes(), errOut.Bytes(), err
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

// TestGolden pins each report mode byte for byte at a coarse grid,
// each case in a fresh directory. Regenerate a file with
//
//	go run ./cmd/thermal3d <args> > cmd/thermal3d/testdata/<name>.golden
//
// and copy map.png to testdata/<name>.png for the cases that write
// one. Regenerate only when a change is meant to move the numbers or
// the layout.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		png  bool // the case writes map.png, compared with testdata/<name>.png
	}{
		// Table 2, Figure 6 and Figure 3.
		{"all", []string{"-grid", "16"}, false},
		{"dtm", []string{"-dtm", "-grid", "16", "-sensor-noise", "1", "-fault-seed", "2"}, false},
		{"materials", []string{"-materials"}, false},
		{"sweep", []string{"-sweep", "-grid", "16"}, false},
		{"baseline-png", []string{"-baseline", "-grid", "16", "-png", "map.png"}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			got, stderr, err := thermal3d(dir, tc.args...)
			if err != nil {
				t.Fatalf("thermal3d %s: %v\n%s", strings.Join(tc.args, " "), err, stderr)
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
