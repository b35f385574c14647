package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// stackd is one running cmd/stackd process on a loopback port.
type stackd struct {
	cmd     *exec.Cmd
	URL     string
	logDone chan struct{}
	log     strings.Builder // stderr after the listen line; owned by the log goroutine until logDone
}

// startStackd launches bin with its default flags except -addr (an
// ephemeral loopback port, learned from the listen log line) and waits
// until /healthz answers.
func startStackd(ctx context.Context, bin string) (*stackd, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	// Should the benchmark die without stopping it, stackd follows.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting stackd: %w", err)
	}
	s := &stackd{cmd: cmd, logDone: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.logDone)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if _, a, ok := strings.Cut(line, " on http://"); ok && !sent {
				addr <- a
				sent = true
				continue
			}
			s.log.WriteString(line + "\n")
		}
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			s.stop()
			return nil, fmt.Errorf("stackd exited before listening:\n%s", s.log.String())
		}
		s.URL = "http://" + a
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("stackd did not report its listen address within 30s")
	case <-ctx.Done():
		s.stop()
		return nil, ctx.Err()
	}
	if err := s.waitHealthy(ctx); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *stackd) waitHealthy(ctx context.Context) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := c.Get(s.URL + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.CloseIdleConnections()
				return nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return errors.New("stackd /healthz not OK within 30s")
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func (s *stackd) peakRSSMB() (float64, error) {
	f, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(f), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop drains stackd with SIGTERM (SIGKILL after 15 s) and waits for
// the process and its log reader to end.
func (s *stackd) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		err = <-done
	}
	<-s.logDone
	return err
}
