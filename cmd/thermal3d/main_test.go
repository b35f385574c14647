package main

import (
	"bytes"
	"os"
	"os/exec"
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

// thermal3d runs the command in a child process and returns its
// stdout, its stderr and the error from waiting on it.
func thermal3d(args ...string) (stdout, stderr []byte, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.Bytes(), errOut.Bytes(), err
}

// TestGolden pins each report mode byte for byte at a coarse grid.
// Regenerate a file with
//
//	go run ./cmd/thermal3d <args> > cmd/thermal3d/testdata/<name>.golden
//
// only when a change is meant to move the numbers or the layout.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		// Table 2, Figure 6 and Figure 3.
		{"all", []string{"-grid", "16"}},
		{"dtm", []string{"-dtm", "-grid", "16", "-sensor-noise", "1", "-fault-seed", "2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile("testdata/" + tc.name + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			got, stderr, err := thermal3d(tc.args...)
			if err != nil {
				t.Fatalf("thermal3d %s: %v\n%s", strings.Join(tc.args, " "), err, stderr)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("thermal3d %s differs from testdata/%s.golden:\ngot:\n%s\nwant:\n%s",
					strings.Join(tc.args, " "), tc.name, got, want)
			}
		})
	}
}
