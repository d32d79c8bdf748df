package store

import (
	"strings"
	"testing"
	"time"
)

// putTruncated files the first half of key's envelope as its record —
// the shape of a partially transferred worker response or an upload
// cut short, framed intact so only the envelope check can catch it.
func putTruncated(t *testing.T, p *Packed, key Key) {
	t.Helper()
	env, err := EncodeEnvelope(key, testResult(key.Seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.PutObject(key, env[:len(env)/2]); err != nil {
		t.Fatal(err)
	}
}

// TestGetRejectsTruncatedEnvelope: a half-written entry is an error (a
// degraded miss to the engine), never a served result.
func TestGetRejectsTruncatedEnvelope(t *testing.T) {
	p := openPackedTest(t)
	key := Key{Hash: "0123456789abcdef", Seed: 3}
	putTruncated(t, p, key)
	if _, ok, err := p.Get(key); ok || err == nil || !strings.Contains(err.Error(), "malformed envelope") {
		t.Errorf("truncated entry: ok=%v err=%v, want malformed-envelope error", ok, err)
	}
}

// TestDecodeEnvelopeFailurePaths drives the shared verifier (disk reads
// and worker responses alike) through every rejection class directly.
func TestDecodeEnvelopeFailurePaths(t *testing.T) {
	key := Key{Hash: "0123456789abcdef", Seed: 3}
	good, err := EncodeEnvelope(key, testResult(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeEnvelope(key, good); err != nil {
		t.Fatalf("DecodeEnvelope(intact): %v", err)
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "malformed envelope"},
		{"truncated", good[:len(good)/2], "malformed envelope"},
		{"not-json", []byte("junk"), "malformed envelope"},
		{"bit-flip", flipResultByte(t, good), "checksum mismatch"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := DecodeEnvelope(key, c.data); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want %q", err, c.want)
			}
		})
	}
	// The same intact bytes under the wrong key are an identity error:
	// a coordinator must reject a worker answering for another cell.
	if _, err := DecodeEnvelope(Key{Hash: "fedcba9876543210", Seed: 3}, good); err == nil || !strings.Contains(err.Error(), "identifies") {
		t.Errorf("wrong key: err = %v, want identity error", err)
	}
}

// flipResultByte flips one digit inside the result payload, leaving the
// recorded checksum vouching for bytes that no longer exist.
func flipResultByte(t *testing.T, env []byte) []byte {
	t.Helper()
	out := append([]byte(nil), env...)
	i := strings.Index(string(out), `"ber":`)
	if i < 0 {
		t.Fatalf("no ber field in %s", out)
	}
	out[i+6] ^= 0x01
	return out
}

// TestVerifyFlagsTruncatedAndBitFlipped: an integrity pass over a
// partially damaged corpus reports exactly the damaged entries.
func TestVerifyFlagsTruncatedAndBitFlipped(t *testing.T) {
	p := openPackedTest(t)
	keys := []Key{
		{Hash: "0123456789abcdef", Seed: 1},
		{Hash: "0123456789abcdef", Seed: 2},
		{Hash: "0123456789abcdef", Seed: 3},
	}
	putTruncated(t, p, keys[0])
	for _, k := range keys[1:] {
		if err := p.Put(k, testResult(k.Seed)); err != nil {
			t.Fatal(err)
		}
	}
	corrupt(t, p, keys[1])
	rep, err := p.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != 3 {
		t.Errorf("Entries = %d, want 3", rep.Entries)
	}
	if len(rep.Problems) != 2 {
		t.Fatalf("Problems = %+v, want the truncated and bit-flipped entries", rep.Problems)
	}
}

// TestGCWithEmptyCorpus: a retention pass over nothing is a no-op, not
// an error — including with every retention knob set.
func TestGCWithEmptyCorpus(t *testing.T) {
	p := openPackedTest(t)
	for _, opts := range []GCOptions{{}, {MaxAge: time.Hour}, {MaxBytes: 1}, {MaxAge: time.Hour, MaxBytes: 1}} {
		rep, err := p.GCWith(opts)
		if err != nil {
			t.Fatalf("GCWith(%+v) on empty corpus: %v", opts, err)
		}
		if *rep != (GCReport{}) {
			t.Errorf("GCWith(%+v) on empty corpus = %+v, want zero report", opts, rep)
		}
	}
}

// TestGCWithPartiallyCorruptCorpus: GC removes exactly the damaged
// entries (truncated and bit-flipped) and the survivors still serve.
func TestGCWithPartiallyCorruptCorpus(t *testing.T) {
	p := openPackedTest(t)
	keys := []Key{
		{Hash: "0123456789abcdef", Seed: 1},
		{Hash: "0123456789abcdef", Seed: 2},
		{Hash: "0123456789abcdef", Seed: 3},
		{Hash: "0123456789abcdef", Seed: 4},
	}
	putTruncated(t, p, keys[0])
	for _, k := range keys[1:] {
		if err := p.Put(k, testResult(k.Seed)); err != nil {
			t.Fatal(err)
		}
	}
	corrupt(t, p, keys[1])
	rep, err := p.GCWith(GCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RemovedCorrupt != 2 || rep.Kept != 2 {
		t.Fatalf("report = %+v, want 2 removed corrupt, 2 kept", rep)
	}
	for _, k := range keys[:2] {
		if _, ok, err := p.Get(k); ok || err != nil {
			t.Errorf("removed entry %s: ok=%v err=%v, want a clean miss", k, ok, err)
		}
	}
	for _, k := range keys[2:] {
		if _, ok, err := p.Get(k); !ok || err != nil {
			t.Errorf("surviving entry %s: ok=%v err=%v, want served", k, ok, err)
		}
	}
}
