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
const runMainEnv = "STACKMEM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// stackmem runs the command in a child process and returns its stdout,
// its stderr and the error from waiting on it.
func stackmem(args ...string) (stdout, stderr []byte, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.Bytes(), errOut.Bytes(), err
}

// TestGolden pins each report mode byte for byte at test scale.
// Regenerate a file with
//
//	go run ./cmd/stackmem <args> > cmd/stackmem/testdata/<name>.golden
//
// only when a change is meant to move the numbers or the layout.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		// All twelve kernels: Figures 5, 7 and 8.
		{"all", []string{"-scale", "0.05", "-grid", "16"}},
		{"faults", []string{"-bench", "gauss", "-scale", "0.05", "-grid", "16",
			"-fault-uncorr", "100", "-fault-dead-banks", "0,1", "-fault-tsv", "0.25", "-fault-seed", "3"}},
		{"config", []string{"-config"}},
		{"power", []string{"-power"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile("testdata/" + tc.name + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			got, stderr, err := stackmem(tc.args...)
			if err != nil {
				t.Fatalf("stackmem %s: %v\n%s", strings.Join(tc.args, " "), err, stderr)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("stackmem %s differs from testdata/%s.golden:\ngot:\n%s\nwant:\n%s",
					strings.Join(tc.args, " "), tc.name, got, want)
			}
		})
	}
}
