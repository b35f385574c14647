package dist

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"diestack/internal/harness"
)

// The wire protocol: line-delimited JSON over one TCP connection per
// worker. The worker is always the initiator — every exchange is one
// request line up, one response line back — which keeps the
// coordinator stateless per connection beyond the worker's identity.
//
//	hello      -> spec        handshake: spec payload, hash, lease TTL
//	pull       -> grant|wait|done   lease up to Max jobs (work-stealing)
//	heartbeat  -> ok          renew the named leases
//	result     -> ok          submit one job result (Accepted reports dedup)
//
// Responses with Type "error" carry Err; the worker treats them as
// fatal for the exchange that triggered them.

// protoVersion gates handshakes: both sides must agree exactly.
// Version 2: a campaign spec without a "method" key runs the solver's
// default schedule (multigrid for steady solves) where version 1 ran
// line-SOR, so the same spec bytes and hash now mean different
// computations and the two versions must not share a campaign.
const protoVersion = 2

// maxLineBytes bounds one protocol line; a job value bigger than this
// is a bug, not a workload.
const maxLineBytes = 16 << 20

// ProtocolError marks a peer speaking the protocol wrong — an
// oversized line, unparseable JSON, an unknown request type — as
// distinct from transport failures (resets, timeouts, EOF). The
// coordinator accounts for violations separately (dist_proto_violations)
// instead of silently dropping the connection, because a protocol
// violation means a version skew or a bug, never a flaky network.
type ProtocolError struct {
	Reason string
}

func (e *ProtocolError) Error() string {
	return "dist: protocol violation: " + e.Reason
}

// checkProto rejects a hello carrying any protocol version but
// protoVersion.
func checkProto(v int) *ProtocolError {
	if v != protoVersion {
		return &ProtocolError{Reason: fmt.Sprintf("protocol version %d, want %d", v, protoVersion)}
	}
	return nil
}

// request is a worker-to-coordinator message.
type request struct {
	Type     string      `json:"type"`
	Proto    int         `json:"proto,omitempty"`
	Worker   string      `json:"worker,omitempty"`
	SpecHash string      `json:"spec_hash,omitempty"`
	Max      int         `json:"max,omitempty"`
	Leases   []uint64    `json:"leases,omitempty"`
	LeaseID  uint64      `json:"lease_id,omitempty"`
	Result   *wireResult `json:"result,omitempty"`
}

// response is a coordinator-to-worker message.
type response struct {
	Type       string          `json:"type"`
	Err        string          `json:"err,omitempty"`
	Spec       json.RawMessage `json:"spec,omitempty"`
	SpecHash   string          `json:"spec_hash,omitempty"`
	LeaseTTLMS int64           `json:"lease_ttl_ms,omitempty"`
	Grants     []wireGrant     `json:"grants,omitempty"`
	WaitMS     int64           `json:"wait_ms,omitempty"`
	Renewed    int             `json:"renewed,omitempty"`
	Outcome    string          `json:"outcome,omitempty"`
}

// wireGrant is one lease offer inside a pull response.
type wireGrant struct {
	Job     string `json:"job"`
	LeaseID uint64 `json:"lease_id"`
	Stolen  bool   `json:"stolen,omitempty"`
}

// wireResult is a harness.JobResult in transit: identical fields, with
// the job's value carried as the raw JSON encoding the worker
// produced. Embedding those bytes verbatim into the merged manifest is
// what makes the distributed manifest byte-identical to a
// single-process one — the value never round-trips through a Go map,
// so field order survives.
type wireResult struct {
	Name     string          `json:"name"`
	Status   harness.Status  `json:"status"`
	Attempts int             `json:"attempts"`
	Error    string          `json:"error,omitempty"`
	Stack    string          `json:"stack,omitempty"`
	Value    json.RawMessage `json:"value,omitempty"`
	// Synthetic marks a terminal result the coordinator fabricated
	// itself (re-issue budget exhaustion) rather than received from a
	// worker execution. It matters for the journal: a synthetic result
	// has no execution content to diverge from, so its fingerprint is
	// empty and a straggling real result replayed against it dedups as
	// a duplicate instead of a divergence — on a resumed coordinator
	// exactly as on the original one.
	Synthetic bool `json:"synthetic,omitempty"`
}

// encodeResult converts a finished job's result for the wire.
func encodeResult(res harness.JobResult) (wireResult, error) {
	w := wireResult{
		Name:     res.Name,
		Status:   res.Status,
		Attempts: res.Attempts,
		Error:    res.Error,
		Stack:    res.Stack,
	}
	if res.Value != nil {
		raw, err := json.Marshal(res.Value)
		if err != nil {
			return wireResult{}, fmt.Errorf("dist: encoding result for job %s: %w", res.Name, err)
		}
		w.Value = raw
	}
	return w, nil
}

// jobResult converts back to the manifest form. The value stays raw
// JSON so the merge preserves the worker's exact bytes.
func (w wireResult) jobResult() harness.JobResult {
	res := harness.JobResult{
		Name:     w.Name,
		Status:   w.Status,
		Attempts: w.Attempts,
		Error:    w.Error,
		Stack:    w.Stack,
	}
	if len(w.Value) > 0 {
		res.Value = w.Value
	}
	return res
}

// fingerprint digests the observable content of a result — status,
// error, value — for duplicate-completion comparison. Attempt counts
// and panic stacks are excluded: duplicate executions may legitimately
// retry a different number of times or capture different goroutine
// stacks without the *result* diverging.
func (w wireResult) fingerprint() string {
	if w.Synthetic {
		return ""
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x1f%s\x1f", w.Status, w.Error)
	h.Write(w.Value)
	return hex.EncodeToString(h.Sum(nil))
}

// specHash fences coordinator and workers onto the same campaign.
func specHash(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// lineConn frames line-delimited JSON messages over a net.Conn. The
// worker side serializes whole request/response exchanges under mu so
// its job goroutines and heartbeat loop can share one connection.
// A nonzero ioTimeout arms a fresh read/write deadline before every
// socket operation, so a hung or partitioned peer surfaces as
// os.ErrDeadlineExceeded instead of wedging the loop forever.
type lineConn struct {
	conn      net.Conn
	r         *bufio.Reader
	w         *bufio.Writer
	mu        sync.Mutex
	ioTimeout time.Duration
}

func newLineConn(conn net.Conn) *lineConn {
	return &lineConn{conn: conn, r: bufio.NewReaderSize(conn, 64<<10), w: bufio.NewWriter(conn)}
}

// writeJSON sends one message as a single line.
func (lc *lineConn) writeJSON(v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if len(raw) > maxLineBytes {
		return fmt.Errorf("dist: message of %d bytes exceeds the %d-byte line cap", len(raw), maxLineBytes)
	}
	if lc.ioTimeout > 0 {
		if err := lc.conn.SetWriteDeadline(time.Now().Add(lc.ioTimeout)); err != nil {
			return err
		}
	}
	if _, err := lc.w.Write(raw); err != nil {
		return err
	}
	if err := lc.w.WriteByte('\n'); err != nil {
		return err
	}
	return lc.w.Flush()
}

// readLine reads one newline-terminated line, enforcing the cap.
func (lc *lineConn) readLine() ([]byte, error) {
	if lc.ioTimeout > 0 {
		if err := lc.conn.SetReadDeadline(time.Now().Add(lc.ioTimeout)); err != nil {
			return nil, err
		}
	}
	var line []byte
	for {
		chunk, err := lc.r.ReadSlice('\n')
		line = append(line, chunk...)
		if len(line) > maxLineBytes {
			return nil, &ProtocolError{Reason: fmt.Sprintf("line exceeds the %d-byte cap", maxLineBytes)}
		}
		if err == nil {
			return line[:len(line)-1], nil
		}
		if err != bufio.ErrBufferFull {
			return nil, err
		}
	}
}

// readRequest decodes one request line (coordinator side).
func (lc *lineConn) readRequest() (request, error) {
	line, err := lc.readLine()
	if err != nil {
		return request{}, err
	}
	var req request
	if err := json.Unmarshal(line, &req); err != nil {
		return request{}, &ProtocolError{Reason: fmt.Sprintf("malformed request: %v", err)}
	}
	return req, nil
}

// roundTrip sends one request and reads its response (worker side).
func (lc *lineConn) roundTrip(req request) (response, error) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if err := lc.writeJSON(req); err != nil {
		return response{}, err
	}
	line, err := lc.readLine()
	if err != nil {
		return response{}, err
	}
	var resp response
	if err := json.Unmarshal(line, &resp); err != nil {
		return response{}, fmt.Errorf("dist: malformed response: %w", err)
	}
	if resp.Type == "error" {
		return resp, fmt.Errorf("dist: coordinator rejected %s: %s", req.Type, resp.Err)
	}
	return resp, nil
}
