package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"diestack/internal/harness"
	"diestack/internal/obs"
)

// testValue is what test jobs return; two fields so struct field order
// is observable in the manifest bytes.
type testValue struct {
	Job string `json:"job"`
	Sum int    `json:"sum"`
}

// testSpec parameterizes the test campaign carried as the spec payload.
type testSpec struct {
	N     int `json:"n"`
	Every int `json:"every,omitempty"` // every Every-th job fails
}

// testJobs deterministically expands a testSpec: job i returns
// {job-i, i*i}, unless Every divides i+1, in which case it fails after
// its attempts.
func testJobs(spec testSpec) []harness.Job {
	jobs := make([]harness.Job, spec.N)
	for i := 0; i < spec.N; i++ {
		i := i
		name := fmt.Sprintf("job-%03d", i)
		jobs[i] = harness.Job{Name: name, Run: func(ctx context.Context) (any, error) {
			if spec.Every > 0 && (i+1)%spec.Every == 0 {
				return nil, fmt.Errorf("job %d fails deterministically", i)
			}
			return testValue{Job: name, Sum: i * i}, nil
		}}
	}
	return jobs
}

func testMakeJobs(raw json.RawMessage) ([]harness.Job, error) {
	var spec testSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, err
	}
	return testJobs(spec), nil
}

func jobNames(jobs []harness.Job) []string {
	names := make([]string, len(jobs))
	for i, j := range jobs {
		names[i] = j.Name
	}
	return names
}

func manifestBytes(t *testing.T, m *harness.Manifest) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// singleProcessManifest is the golden a distributed run must match
// byte-for-byte.
func singleProcessManifest(t *testing.T, spec testSpec) []byte {
	t.Helper()
	m, err := harness.Run(context.Background(), harness.Config{Workers: 2}, testJobs(spec))
	if err != nil {
		t.Fatalf("single-process run: %v", err)
	}
	return manifestBytes(t, m)
}

// startCoordinator runs RunCoordinator in a goroutine and returns the
// bound address plus a channel carrying its outcome.
type coordOutcome struct {
	m   *harness.Manifest
	err error
}

func startCoordinator(t *testing.T, ctx context.Context, cfg CoordinatorConfig) (string, <-chan coordOutcome) {
	t.Helper()
	ready := make(chan string, 1)
	cfg.Addr = "127.0.0.1:0"
	cfg.Ready = ready
	out := make(chan coordOutcome, 1)
	go func() {
		m, err := RunCoordinator(ctx, cfg)
		out <- coordOutcome{m, err}
	}()
	select {
	case addr := <-ready:
		return addr, out
	case o := <-out:
		t.Fatalf("coordinator exited before listening: %v", o.err)
		return "", nil
	}
}

func waitOutcome(t *testing.T, out <-chan coordOutcome) coordOutcome {
	t.Helper()
	select {
	case o := <-out:
		return o
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator did not finish in time")
		return coordOutcome{}
	}
}

func mustPayload(t *testing.T, spec testSpec) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestDistributedManifestMatchesSingleProcess(t *testing.T) {
	spec := testSpec{N: 24, Every: 7}
	golden := singleProcessManifest(t, spec)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	payload := mustPayload(t, spec)
	addr, out := startCoordinator(t, ctx, CoordinatorConfig{
		Jobs:        jobNames(testJobs(spec)),
		SpecPayload: payload,
		LeaseTTL:    5 * time.Second,
	})
	workerErrs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("w%d", i)
		go func() {
			err := RunWorker(ctx, WorkerConfig{
				Addr: addr, Name: name, MakeJobs: testMakeJobs, Parallel: 2,
			})
			if err != nil {
				err = fmt.Errorf("worker %s: %w", name, err)
			}
			workerErrs <- err
		}()
	}
	o := waitOutcome(t, out)
	// A worker that missed the coordinator's "done" keeps redialing
	// until canceled; join both before the test returns.
	cancel()
	for i := 0; i < 2; i++ {
		if err := <-workerErrs; err != nil && !errors.Is(err, context.Canceled) {
			t.Error(err)
		}
	}
	if o.err != nil {
		t.Fatalf("coordinator: %v", o.err)
	}
	got := manifestBytes(t, o.m)
	if !bytes.Equal(got, golden) {
		t.Errorf("distributed manifest differs from single-process golden:\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
	want := spec.N - spec.N/spec.Every
	if o.m.OK != want {
		t.Errorf("OK = %d, want %d", o.m.OK, want)
	}
}

func TestCoordinatorResumesFromPartialJournal(t *testing.T) {
	spec := testSpec{N: 12}
	golden := singleProcessManifest(t, spec)
	jobs := testJobs(spec)
	payload := mustPayload(t, spec)
	jpath := filepath.Join(t.TempDir(), "merge.journal")

	// Pre-record the first 5 results, as if a previous coordinator
	// crashed after merging them.
	j, recorded, err := openJournal(jpath, specHash(payload), len(jobs))
	if err != nil {
		t.Fatal(err)
	}
	if len(recorded) != 0 {
		t.Fatalf("fresh journal replayed %d results", len(recorded))
	}
	for i := 0; i < 5; i++ {
		res := harness.RunOne(context.Background(), harness.Config{}, jobs[i])
		wr, err := encodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.append(wr); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	reg := obs.NewRegistry()
	addr, out := startCoordinator(t, ctx, CoordinatorConfig{
		Jobs:        jobNames(jobs),
		SpecPayload: payload,
		LeaseTTL:    5 * time.Second,
		JournalPath: jpath,
		Obs:         reg,
	})
	go func() {
		if err := RunWorker(ctx, WorkerConfig{Addr: addr, Name: "w0", MakeJobs: testMakeJobs}); err != nil {
			t.Errorf("worker: %v", err)
		}
	}()
	o := waitOutcome(t, out)
	if o.err != nil {
		t.Fatalf("coordinator: %v", o.err)
	}
	if got := manifestBytes(t, o.m); !bytes.Equal(got, golden) {
		t.Errorf("resumed manifest differs from golden:\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
	// All 12 results merged, but only 7 leases were ever granted: the
	// journaled 5 were resumed, not rerun.
	if got := reg.CounterValue(obs.MetricResultsAccepted); got != 12 {
		t.Errorf("accepted = %d, want 12", got)
	}
	if got := reg.CounterValue(obs.MetricLeaseGrants); got != 7 {
		t.Errorf("lease grants = %d, want 7", got)
	}
}

func TestJournalRejectsMismatchedCampaign(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "merge.journal")
	j, _, err := openJournal(jpath, "hash-a", 3)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, _, err := openJournal(jpath, "hash-b", 3); !errors.Is(err, ErrJournalMismatch) {
		t.Errorf("spec hash change: err = %v, want ErrJournalMismatch", err)
	}
	if _, _, err := openJournal(jpath, "hash-a", 4); !errors.Is(err, ErrJournalMismatch) {
		t.Errorf("job count change: err = %v, want ErrJournalMismatch", err)
	}
	if j, _, err := openJournal(jpath, "hash-a", 3); err != nil {
		t.Errorf("same campaign: %v", err)
	} else {
		j.Close()
	}
}

func TestJournalRejectsForeignFile(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "notes.txt")
	if err := os.WriteFile(jpath, []byte("these are not the results you are looking for\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := openJournal(jpath, "hash", 1)
	if err == nil || !strings.Contains(err.Error(), "not a campaign journal") {
		t.Errorf("err = %v, want 'not a campaign journal'", err)
	}
}

func TestJournalTruncatesTornTailKeepsMidfileStrict(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "merge.journal")
	j, _, err := openJournal(jpath, "hash", 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := j.append(wireResult{Name: fmt.Sprintf("job-%d", i), Status: harness.StatusOK,
			Attempts: 1, Value: json.RawMessage(`{"x":1}`)}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// A torn final line (crash mid-append) is truncated away.
	intact, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jpath, append(append([]byte{}, intact...), []byte(`{"crc":123,"resu`)...), 0o644); err != nil {
		t.Fatal(err)
	}
	j2, results, err := openJournal(jpath, "hash", 3)
	if err != nil {
		t.Fatalf("torn tail: %v", err)
	}
	j2.Close()
	if len(results) != 2 {
		t.Fatalf("replayed %d results, want 2", len(results))
	}
	if after, _ := os.ReadFile(jpath); !bytes.Equal(after, intact) {
		t.Error("torn tail was not truncated back to the last intact line")
	}

	// Corruption before the end is a hard error: those results were
	// acknowledged and must not vanish silently.
	lines := bytes.SplitAfter(intact, []byte("\n"))
	lines[1] = bytes.Replace(lines[1], []byte(`"crc":`), []byte(`"crc":1,"x":`), 1)
	if err := os.WriteFile(jpath, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openJournal(jpath, "hash", 3); err == nil || !strings.Contains(err.Error(), "corrupt mid-file") {
		t.Errorf("mid-file corruption: err = %v, want 'corrupt mid-file'", err)
	}
}

func TestFingerprintIgnoresAttemptsAndStacks(t *testing.T) {
	a := wireResult{Name: "j", Status: harness.StatusOK, Attempts: 1, Value: json.RawMessage(`{"x":1}`)}
	b := a
	b.Attempts = 3
	b.Stack = "goroutine 7 [running]"
	if a.fingerprint() != b.fingerprint() {
		t.Error("fingerprint should ignore attempts and stacks")
	}
	c := a
	c.Value = json.RawMessage(`{"x":2}`)
	if a.fingerprint() == c.fingerprint() {
		t.Error("fingerprint should see value changes")
	}
	d := a
	d.Status = harness.StatusFailed
	d.Error = "boom"
	if a.fingerprint() == d.fingerprint() {
		t.Error("fingerprint should see status/error changes")
	}
}

// protoClient drives the wire protocol by hand for tests that need
// exact control over who submits what.
type protoClient struct {
	t  *testing.T
	lc *lineConn
}

func dialProto(t *testing.T, addr, worker string) *protoClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	pc := &protoClient{t: t, lc: newLineConn(conn)}
	if resp := pc.roundTrip(request{Type: "hello", Proto: protoVersion, Worker: worker}); resp.Type != "spec" {
		t.Fatalf("hello: got %q response", resp.Type)
	}
	return pc
}

func (pc *protoClient) roundTrip(req request) response {
	pc.t.Helper()
	resp, err := pc.lc.roundTrip(req)
	if err != nil {
		pc.t.Fatalf("%s round trip: %v", req.Type, err)
	}
	return resp
}

func TestDivergentDuplicateFlaggedAsIntegrityError(t *testing.T) {
	spec := testSpec{N: 2}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	reg := obs.NewRegistry()
	addr, out := startCoordinator(t, ctx, CoordinatorConfig{
		Jobs:        jobNames(testJobs(spec)),
		SpecPayload: mustPayload(t, spec),
		LeaseTTL:    5 * time.Second,
		Obs:         reg,
	})
	a := dialProto(t, addr, "honest")
	b := dialProto(t, addr, "liar")

	submit := func(pc *protoClient, name, payload string) string {
		wr := &wireResult{Name: name, Status: harness.StatusOK, Attempts: 1,
			Value: json.RawMessage(payload)}
		return pc.roundTrip(request{Type: "result", Result: wr}).Outcome
	}
	if got := submit(a, "job-000", `{"job":"job-000","sum":0}`); got != "accepted" {
		t.Errorf("first result: outcome %q, want accepted", got)
	}
	if got := submit(b, "job-000", `{"job":"job-000","sum":0}`); got != "duplicate" {
		t.Errorf("identical duplicate: outcome %q, want duplicate", got)
	}
	if got := submit(b, "job-000", `{"job":"job-000","sum":999}`); got != "divergent" {
		t.Errorf("divergent duplicate: outcome %q, want divergent", got)
	}
	if got := submit(a, "job-001", `{"job":"job-001","sum":1}`); got != "accepted" {
		t.Errorf("second job: outcome %q, want accepted", got)
	}

	o := waitOutcome(t, out)
	var ie *IntegrityError
	if !errors.As(o.err, &ie) {
		t.Fatalf("err = %v, want *IntegrityError", o.err)
	}
	if len(ie.Reports) != 1 || !strings.Contains(ie.Reports[0], "job-000") {
		t.Errorf("reports = %q", ie.Reports)
	}
	if o.m.OK != 2 {
		t.Errorf("manifest still completes with the first results: OK = %d, want 2", o.m.OK)
	}
	if got := reg.CounterValue(obs.MetricResultsDivergent); got != 1 {
		t.Errorf("divergent counter = %d, want 1", got)
	}
}

func TestCoordinatorIgnoresWorkerLocalCancellation(t *testing.T) {
	spec := testSpec{N: 1}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	addr, out := startCoordinator(t, ctx, CoordinatorConfig{
		Jobs:        jobNames(testJobs(spec)),
		SpecPayload: mustPayload(t, spec),
		LeaseTTL:    5 * time.Second,
	})
	pc := dialProto(t, addr, "w0")
	if resp := pc.roundTrip(request{Type: "pull", Max: 1}); resp.Type != "grant" {
		t.Fatalf("pull: got %q", resp.Type)
	}
	resp := pc.roundTrip(request{Type: "result", Result: &wireResult{
		Name: "job-000", Status: harness.StatusCanceled, Error: "context canceled"}})
	if resp.Outcome != "ignored" {
		t.Errorf("canceled result: outcome %q, want ignored", resp.Outcome)
	}
	// The job is still owed a real result.
	if got := pc.roundTrip(request{Type: "result", Result: &wireResult{
		Name: "job-000", Status: harness.StatusOK, Attempts: 1,
		Value: json.RawMessage(`{"job":"job-000","sum":0}`)}}).Outcome; got != "accepted" {
		t.Errorf("real result after ignored cancel: outcome %q, want accepted", got)
	}
	if o := waitOutcome(t, out); o.err != nil || o.m.OK != 1 {
		t.Errorf("campaign: err=%v OK=%d", o.err, o.m.OK)
	}
}

func TestHelloRejectsVersionSkew(t *testing.T) {
	spec := testSpec{N: 1}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, out := startCoordinator(t, ctx, CoordinatorConfig{
		Jobs:        jobNames(testJobs(spec)),
		SpecPayload: mustPayload(t, spec),
		LeaseTTL:    5 * time.Second,
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	lc := newLineConn(conn)
	_, err = lc.roundTrip(request{Type: "hello", Proto: protoVersion + 1, Worker: "future"})
	if err == nil || !strings.Contains(err.Error(), "protocol version") {
		t.Errorf("version skew: err = %v", err)
	}
	cancel()
	waitOutcome(t, out)
}

// TestHelloRejectsProtoV1 fences version-1 peers: they read a spec
// without a "method" key as line-SOR, where version 2 runs the default
// (multigrid) schedule under the same spec hash. The hello is refused
// with the typed protocol error and counted as a violation.
func TestHelloRejectsProtoV1(t *testing.T) {
	var pe *ProtocolError
	if err := error(checkProto(1)); !errors.As(err, &pe) || pe.Reason != "protocol version 1, want 2" {
		t.Fatalf("checkProto(1) = %v, want *ProtocolError for version 1", err)
	}
	if pe := checkProto(protoVersion); pe != nil {
		t.Fatalf("checkProto(%d) = %v, want nil", protoVersion, pe)
	}

	spec := testSpec{N: 1}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := obs.NewRegistry()
	addr, out := startCoordinator(t, ctx, CoordinatorConfig{
		Jobs:        jobNames(testJobs(spec)),
		SpecPayload: mustPayload(t, spec),
		LeaseTTL:    5 * time.Second,
		Obs:         reg,
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	resp, err := newLineConn(conn).roundTrip(request{Type: "hello", Proto: 1, Worker: "v1"})
	if err == nil || resp.Type != "error" || resp.Err != "protocol version 1, want 2" {
		t.Errorf("v1 hello: resp %+v, err %v; want a protocol-version rejection", resp, err)
	}
	if got := reg.CounterValue(obs.MetricProtoViolations); got != 1 {
		t.Errorf("proto violations = %d, want 1", got)
	}
	cancel()
	waitOutcome(t, out)
}

func TestWorkerShardJournalResubmitsOnRestart(t *testing.T) {
	spec := testSpec{N: 3}
	golden := singleProcessManifest(t, spec)
	payload := mustPayload(t, spec)
	shard := filepath.Join(t.TempDir(), "worker.journal")

	// First worker life: complete everything but crash before the
	// submissions count (we simulate the lost-ack case by journaling
	// results without a coordinator).
	jobs := testJobs(spec)
	j, _, err := openJournal(shard, specHash(payload), len(jobs))
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range jobs[:2] {
		res := harness.RunOne(context.Background(), harness.Config{}, job)
		wr, err := encodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.append(wr); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	reg := obs.NewRegistry()
	addr, out := startCoordinator(t, ctx, CoordinatorConfig{
		Jobs:        jobNames(jobs),
		SpecPayload: payload,
		LeaseTTL:    5 * time.Second,
		Obs:         reg,
	})
	// Second life: the restarted worker resubmits its shard before
	// pulling, so only one lease is ever granted.
	if err := RunWorker(ctx, WorkerConfig{
		Addr: addr, Name: "w0", MakeJobs: testMakeJobs, JournalPath: shard,
	}); err != nil {
		t.Fatalf("worker: %v", err)
	}
	o := waitOutcome(t, out)
	if o.err != nil {
		t.Fatalf("coordinator: %v", o.err)
	}
	if got := manifestBytes(t, o.m); !bytes.Equal(got, golden) {
		t.Errorf("manifest differs from golden:\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
	if got := reg.CounterValue(obs.MetricLeaseGrants); got != 1 {
		t.Errorf("lease grants = %d, want 1 (journaled results must not re-run)", got)
	}
}

func TestCoordinatorCancelRecordsCanceledJobs(t *testing.T) {
	spec := testSpec{N: 4}
	ctx, cancel := context.WithCancel(context.Background())
	addr, out := startCoordinator(t, ctx, CoordinatorConfig{
		Jobs:        jobNames(testJobs(spec)),
		SpecPayload: mustPayload(t, spec),
		LeaseTTL:    5 * time.Second,
	})
	pc := dialProto(t, addr, "w0")
	if got := pc.roundTrip(request{Type: "result", Result: &wireResult{
		Name: "job-000", Status: harness.StatusOK, Attempts: 1,
		Value: json.RawMessage(`{"job":"job-000","sum":0}`)}}).Outcome; got != "accepted" {
		t.Fatalf("outcome %q", got)
	}
	cancel()
	o := waitOutcome(t, out)
	if o.m == nil {
		t.Fatal("canceled campaign must still produce a manifest")
	}
	if o.m.OK != 1 || o.m.Canceled != 3 {
		t.Errorf("OK=%d Canceled=%d, want 1/3", o.m.OK, o.m.Canceled)
	}
}
