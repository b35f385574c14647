package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv marks a re-executed test binary that should run main
// with its arguments instead of the tests.
const runMainEnv = "STACKLOGIC_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// stacklogic runs the command in a child process and returns its
// stdout, its stderr and the error from waiting on it.
func stacklogic(args ...string) (stdout, stderr []byte, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.Bytes(), errOut.Bytes(), err
}

// TestTable4Golden pins the Table 4 report byte for byte. Regenerate
// testdata/table4.golden with
//
//	go run ./cmd/stacklogic -table4 -n 20000 -seed 1 > cmd/stacklogic/testdata/table4.golden
//
// only when a change is meant to move the numbers or the layout.
func TestTable4Golden(t *testing.T) {
	want, err := os.ReadFile("testdata/table4.golden")
	if err != nil {
		t.Fatal(err)
	}
	got, stderr, err := stacklogic("-table4", "-n", "20000", "-seed", "1")
	if err != nil {
		t.Fatalf("stacklogic: %v\n%s", err, stderr)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stacklogic -table4 -n 20000 -seed 1 differs from testdata/table4.golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestGolden pins the combined, autofold and Figure 11 reports byte
// for byte at a coarse grid; the parallel Figure 11 run must print the
// serial run's bytes. Regenerate a file with
//
//	go run ./cmd/stacklogic <args> > cmd/stacklogic/testdata/<name>.golden
//
// only when a change is meant to move the numbers or the layout.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		// Table 4, the wire and power derivations, Figure 11, Table 5.
		{"all", []string{"-n", "20000", "-grid", "16"}},
		{"autofold", []string{"-autofold", "-grid", "16"}},
		// Figure 11 solved serially and on three parallel workers: the
		// bars come back in paper order either way.
		{"thermal", []string{"-thermal", "-grid", "16", "-jobs", "1"}},
		{"thermal-jobs3", []string{"-thermal", "-grid", "16", "-jobs", "3"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			golden := strings.TrimSuffix(tc.name, "-jobs3")
			want, err := os.ReadFile("testdata/" + golden + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			got, stderr, err := stacklogic(tc.args...)
			if err != nil {
				t.Fatalf("stacklogic %s: %v\n%s", strings.Join(tc.args, " "), err, stderr)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("stacklogic %s differs from testdata/%s.golden:\ngot:\n%s\nwant:\n%s",
					strings.Join(tc.args, " "), golden, got, want)
			}
		})
	}
}

// TestInstructionCap: -n above core.MaxTable4Instructions exits 1 with
// the cap error instead of allocating the programs.
func TestInstructionCap(t *testing.T) {
	_, stderr, err := stacklogic("-table4", "-n", "2000001")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 ||
		!bytes.Contains(stderr, []byte("exceeds the maximum 2000000")) {
		t.Fatalf("stacklogic -n 2000001: %v\n%s", err, stderr)
	}
}
