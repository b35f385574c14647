package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// Provenance records what a run measured and where, so two result sets
// can be told apart.
type Provenance struct {
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        bool   `json:"trace"`
	Nproc        int    `json:"nproc"`
	NumCPU       int    `json:"num_cpu"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	CPU          string `json:"cpu"`
	Go           string `json:"go"`
	GitCommit    string `json:"git_commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func provenance(w Workload, seed uint64, seconds int, traced bool) Provenance {
	return Provenance{
		Workload:     w.Name,
		Seed:         seed,
		Seconds:      seconds,
		Trace:        traced,
		Nproc:        nproc(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPU:          cpuModel(),
		Go:           runtime.Version(),
		GitCommit:    gitCommit(),
		SourceSHA256: sourceDigest("."),
	}
}

// cpuTimes is the aggregate line of /proc/stat: total and stolen
// jiffies (zero where the file is unreadable).
type cpuTimes struct{ total, steal uint64 }

func readSteal() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var t cpuTimes
	// cpu user nice system idle iowait irq softirq steal ...
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// since is the share of CPU time the hypervisor stole since t0, in %:
// a run with a high share measured the host as much as the program.
func (t cpuTimes) since(t0 cpuTimes) float64 {
	if t.total <= t0.total {
		return 0
	}
	return 100 * float64(t.steal-t0.steal) / float64(t.total-t0.total)
}

// nproc is the shell's view of usable CPUs (-1 when nproc is missing).
func nproc() int {
	out, err := exec.Command("nproc").Output()
	if err != nil {
		return -1
	}
	n, err := strconv.Atoi(strings.TrimSpace(string(out)))
	if err != nil {
		return -1
	}
	return n
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit names the checked-out commit; a source tree exported
// without .git reports "none", and source_sha256 identifies it instead.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every go.mod and .go file under root (skipping
// dot-directories such as the build directory), in path order.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() != "go.mod" && !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path))
		h.Write([]byte{0})
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
