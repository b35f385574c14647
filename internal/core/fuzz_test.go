package core

import (
	"bytes"
	"testing"

	"diestack/internal/canon"
)

// The seed corpora live in testdata/fuzz/<target>: the request and
// campaign-spec bodies the unit tests and smokes use, plus bodies
// carrying the removed "parallelism" key, which must fail to decode
// without panicking.

// FuzzDecodeWireSpec: DecodeWireSpec never panics, and every spec it
// accepts re-encodes to canonical bytes that decode and re-encode to
// the same bytes and hash.
func FuzzDecodeWireSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeWireSpec(data)
		if err != nil {
			return
		}
		raw, err := spec.EncodeWire()
		if err != nil {
			t.Fatalf("decoded spec %+v does not encode: %v", spec, err)
		}
		checkFixpoint(t, raw, func(raw []byte) ([]byte, error) {
			back, err := DecodeWireSpec(raw)
			if err != nil {
				return nil, err
			}
			return back.EncodeWire()
		})
	})
}

// FuzzDecodeRequest runs every catalog entry's DecodeRequest on the
// same body, with the same properties as FuzzDecodeWireSpec.
func FuzzDecodeRequest(f *testing.F) {
	exps := Experiments()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, e := range exps {
			req, err := e.DecodeRequest(data)
			if err != nil {
				continue
			}
			raw, err := e.EncodeRequest(req)
			if err != nil {
				t.Fatalf("%s: decoded request %+v does not encode: %v", e.Name, req, err)
			}
			checkFixpoint(t, raw, func(raw []byte) ([]byte, error) {
				back, err := e.DecodeRequest(raw)
				if err != nil {
					return nil, err
				}
				return e.EncodeRequest(back)
			})
		}
	})
}

// checkFixpoint requires encode(decode(raw)) to reproduce the
// canonical bytes raw and their hash.
func checkFixpoint(t *testing.T, raw []byte, reencode func([]byte) ([]byte, error)) {
	t.Helper()
	again, err := reencode(raw)
	if err != nil {
		t.Fatalf("canonical bytes %s do not round-trip: %v", raw, err)
	}
	if !bytes.Equal(raw, again) || canon.HashBytes(raw) != canon.HashBytes(again) {
		t.Fatalf("encode → decode → encode is not a fixpoint:\n%s\n%s", raw, again)
	}
}
