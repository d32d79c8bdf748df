package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ichannels/internal/exp"
	"ichannels/internal/scenario"
)

// envelope is the envelope as a json-tagged struct: the form the store
// decoded with two encoding/json passes before the one-pass codec. It
// survives here only as the oracle the codec is checked against.
type envelope struct {
	Version  int             `json:"version"`
	Hash     string          `json:"hash"`
	Seed     int64           `json:"seed"`
	Checksum string          `json:"checksum"`
	Result   json.RawMessage `json:"result"`
}

func checksumOf(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// oracleEncode is the two-pass writer: marshal the result, then marshal
// the envelope struct around it.
func oracleEncode(key Key, res *scenario.Result) ([]byte, error) {
	raw, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	return json.Marshal(envelope{
		Version: EnvelopeVersion, Hash: key.Hash, Seed: key.Seed,
		Checksum: checksumOf(raw), Result: raw,
	})
}

// oracleDecode is the two-pass reader: json.Unmarshal the envelope,
// check it, then json.Unmarshal the result.
func oracleDecode(key Key, data []byte) (*scenario.Result, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, err
	}
	if env.Version != EnvelopeVersion || env.Hash != key.Hash || env.Seed != key.Seed ||
		checksumOf(env.Result) != env.Checksum {
		return nil, ErrCorrupt
	}
	var res scenario.Result
	if err := json.Unmarshal(env.Result, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// bitsResult is a channel cell's result carrying n sent and n decoded
// bits, shaped like a real sweep cell's.
func bitsResult(n int) *scenario.Result {
	res := &scenario.Result{
		Role: scenario.RoleChannel, Processor: "Cannon Lake", Kind: scenario.KindCores,
		Hash: "0123456789abcdef", Seed: 3, Bits: n,
		ThroughputBPS: 2857.142857142857, BER: 0.015625, SymbolErrors: 2, ElapsedSimUS: 358400.5,
		Extra: map[string]float64{"calibration_gap_cycles": 4213, "threshold": 0.5},
	}
	if n > 0 {
		res.SentBits = make([]int, n)
		res.DecodedBits = make([]int, n)
		for i := range res.SentBits {
			res.SentBits[i] = (i * 7 / 3) % 2
			res.DecodedBits[i] = res.SentBits[i]
		}
		res.DecodedBits[n/2] ^= 1
	}
	return res
}

// codecResults covers every result shape the codec must round-trip: bit
// streams of several lengths, nil and empty slices, strings JSON must
// escape, Extra, and an experiment report.
func codecResults() []*scenario.Result {
	empty := bitsResult(0)
	empty.SentBits, empty.DecodedBits = []int{}, []int{}
	escapes := bitsResult(16)
	escapes.DecodedPayload = "<hi> & \"bye\" \\ é — ✓ \u2028\x01"
	escapes.Notes = []string{"a<b>&c", "\"quoted\" \\ back", "non-ASCII: Überraschung 日本", "\t\n"}
	rep := exp.NewReport("fig13", "Figure 13 <&>")
	rep.Metric("ber pct", 0.25)
	rep.Table("t", "a", "b").AddRow("1", "x&y")
	rep.Note("note %d", 1)
	expRes := &scenario.Result{Role: scenario.RoleExperiment, Experiment: "fig13", Hash: "0123456789abcdef", Seed: 3, Report: rep}
	return []*scenario.Result{bitsResult(0), empty, bitsResult(1), bitsResult(16), bitsResult(1024), escapes, expRes}
}

var (
	plainKey   = Key{Hash: "0123456789abcdef", Seed: 3}
	escapedKey = Key{Hash: "a\"b\\c<d>&e\u2028é\x7f", Seed: -9}
)

// seal wraps raw result bytes in an envelope whose checksum matches
// them, so a fuzzed result reaches the result decoder.
func seal(key Key, raw []byte) []byte {
	var b bytes.Buffer
	b.WriteString(`{"version":1,"hash":`)
	b.Write(hashLiteral(key.Hash))
	b.WriteString(`,"seed":`)
	b.WriteString(strconv.FormatInt(key.Seed, 10))
	b.WriteString(`,"checksum":"` + checksumOf(raw) + `","result":`)
	b.Write(raw)
	b.WriteByte('}')
	return b.Bytes()
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// checkAgainstOracle: the codec never panics, fails only with
// ErrCorrupt, accepts only what the oracle accepts, and then decodes the
// same result. envelopeKey accepts only envelopes the oracle's outer
// pass reads as the same key.
func checkAgainstOracle(t *testing.T, key Key, data []byte) {
	t.Helper()
	got, err := DecodeEnvelope(key, data)
	if err != nil {
		if !IsCorrupt(err) {
			t.Fatalf("rejection is not ErrCorrupt: %v", err)
		}
	} else {
		want, oerr := oracleDecode(key, data)
		if oerr != nil {
			t.Fatalf("codec accepted what the oracle rejects (%v):\n%q", oerr, data)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("codec and oracle disagree on %q:\ncodec  %#v\noracle %#v", data, got, want)
		}
	}
	if k, ok := envelopeKey(data); ok {
		var env envelope
		if err := json.Unmarshal(data, &env); err != nil || env.Version != EnvelopeVersion ||
			(Key{Hash: env.Hash, Seed: env.Seed}) != k || checksumOf(env.Result) != env.Checksum {
			t.Fatalf("envelopeKey read %v from an envelope the oracle reads as %+v (%v)", k, env, err)
		}
	}
}

// FuzzDecodeEnvelope checks the one-pass codec against the two-pass
// oracle on arbitrary bytes, both as an envelope and as a result sealed
// into one with a matching checksum.
func FuzzDecodeEnvelope(f *testing.F) {
	for _, key := range []Key{plainKey, escapedKey} {
		for _, res := range codecResults() {
			env, err := EncodeEnvelope(key, res)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(env)
		}
	}
	for _, raw := range []string{
		`{"role":"channel","sent_bits":[],"decoded_bits":[0]}`,
		`{"sent_bits":null}`,
		`{"sent_bits":[1, 0]}`,
		`{"sent_bits":[-0,01]}`,
		`{"sent_bits":[1e0,1.0]}`,
		`{"sent_bits":[9223372036854775807,-9223372036854775808]}`,
		`{"sent_bits":[9223372036854775808]}`,
		`{"SENT_BITS":[1],"sent_bits":[1,0],"sent_bits":[0]}`,
		`{"sent_bits":[1]} `,
		`{"sent_bits":[1]}}{`,
		`{"extra":{"a":1},"notes":["\u003c"]}`,
		`{"bits":2,"sent_bits":[1,0],"decoded_bits":[0,1],"ber":0.5}`,
		`{"bits":1,"sent_bits":[1],"SENT_BITS":[0]}`,
		`{"bits":1,"sent_bits":[1],"decoded_bits":[0],"decoded_bits":null}`,
		`{"bits":1,"sent_bits":[1],"decoded_bits":[0 ]}`,
		`{"bits":1,"sent_bits":[1]`,
	} {
		f.Add([]byte(raw))
	}
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, key := range []Key{plainKey, escapedKey} {
			checkAgainstOracle(t, key, data)
			checkAgainstOracle(t, key, seal(key, data))
		}
	})
}

// TestDecodeEnvelopeStrictLayout lists what the one-pass codec rejects
// as ErrCorrupt, including layouts the two-pass decoder used to accept.
func TestDecodeEnvelopeStrictLayout(t *testing.T) {
	key := plainKey
	good, err := EncodeEnvelope(key, bitsResult(16))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(bitsResult(16))
	replace := func(old, new string) []byte {
		if !bytes.Contains(good, []byte(old)) {
			t.Fatalf("%q not in envelope", old)
		}
		return bytes.Replace(good, []byte(old), []byte(new), 1)
	}
	var reordered map[string]json.RawMessage
	if err := json.Unmarshal(good, &reordered); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name          string
		data          []byte
		want          string
		oracleAccepts bool
	}{
		{"whitespace", replace(`"version":1,`, `"version": 1, `), "malformed envelope", true},
		{"whitespace in bit stream", seal(key, bytes.Replace(raw, []byte(`"sent_bits":[0,`), []byte(`"sent_bits":[0, `), 1)), "malformed result", true},
		{"reordered keys", mustJSON(reordered), "malformed envelope", true},
		{"extra key", replace(`{"version":1,`, `{"version":1,"x":0,`), "malformed envelope", true},
		{"trailing newline", append(append([]byte(nil), good...), '\n'), "malformed envelope", true},
		{"trailing bytes", append(append([]byte(nil), good...), 'x'), "malformed envelope", false},
		{"bumped version", replace(`"version":1,`, `"version":2,`), "envelope version 2", false},
		{"non-canonical version", replace(`"version":1,`, `"version":1.0,`), "malformed envelope", false},
		{"renamed hash key", replace(`"hash":`, `"Hash":`), "malformed envelope", true},
		{"renamed hash", replace(`"hash":"0123456789abcdef"`, `"hash":"0123456789abcdee"`), "identifies 0123456789abcdee-3", false},
		{"escaped hash", replace(`"hash":"0123456789abcdef"`, `"hash":"0123456789abcde\u0066"`), "malformed envelope hash", true},
		{"uppercase checksum", bytes.Replace(good, []byte(checksumOf(raw)), []byte(strings.ToUpper(checksumOf(raw))), 1), "checksum mismatch", false},
		{"truncated", good[:len(good)/2], "malformed envelope", false},
		// The reader cannot tell where the result ends before the
		// checksum: a lost closing brace is a checksum mismatch.
		{"truncated by one byte", good[:len(good)-1], "checksum mismatch", false},
		{"empty", nil, "malformed envelope", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := DecodeEnvelope(key, c.data)
			if !IsCorrupt(err) || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want ErrCorrupt containing %q", err, c.want)
			}
			if _, oerr := oracleDecode(key, c.data); (oerr == nil) != c.oracleAccepts {
				t.Errorf("oracle err = %v, want accepted=%v", oerr, c.oracleAccepts)
			}
		})
	}
}

// TestEncodeEnvelopeMatchesOracle: the direct writer is byte-identical
// to marshalling the envelope struct, for plain and escaped hashes and
// for every result shape.
func TestEncodeEnvelopeMatchesOracle(t *testing.T) {
	keys := []Key{plainKey, escapedKey, {Hash: "bad\xffutf8", Seed: 1 << 62}, {Hash: "", Seed: 0}}
	for _, key := range keys {
		for i, res := range codecResults() {
			got, err := EncodeEnvelope(key, res)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracleEncode(key, res)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("key %q result %d:\ncodec  %s\noracle %s", key.Hash, i, got, want)
			}
		}
	}
}

// TestDecodeEnvelopeRoundTrip: every result shape decodes to what the
// oracle decodes, nil vs empty bit streams included, under plain and
// escaped hashes.
func TestDecodeEnvelopeRoundTrip(t *testing.T) {
	for _, key := range []Key{plainKey, escapedKey} {
		for i, res := range codecResults() {
			env, err := EncodeEnvelope(key, res)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeEnvelope(key, env)
			if err != nil {
				t.Fatalf("key %q result %d: %v", key.Hash, i, err)
			}
			want, err := oracleDecode(key, env)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("key %q result %d:\ncodec  %#v\noracle %#v", key.Hash, i, got, want)
			}
			if k, ok := envelopeKey(env); !ok || k != key {
				t.Fatalf("envelopeKey = %v, %v, want %v", k, ok, key)
			}
		}
	}
	// A key whose hash is not valid UTF-8 encodes, but json.Marshal maps
	// the bad byte to U+FFFD, so the envelope can never name that key.
	bad := Key{Hash: "bad\xffutf8", Seed: 1}
	env, err := EncodeEnvelope(bad, bitsResult(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeEnvelope(bad, env); !IsCorrupt(err) {
		t.Fatalf("invalid-UTF-8 key decoded: %v", err)
	}
}

// benchEnvelope is a cell envelope with n-bit streams.
func benchEnvelope(b *testing.B, n int) []byte {
	env, err := EncodeEnvelope(plainKey, bitsResult(n))
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// BenchmarkEnvelopeDecode is the store's per-get codec cost.
func BenchmarkEnvelopeDecode(b *testing.B) {
	for _, n := range []int{16, 1024} {
		env := benchEnvelope(b, n)
		b.Run(fmt.Sprintf("bits=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(env)))
			for b.Loop() {
				if _, err := DecodeEnvelope(plainKey, env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnvelopeEncode is the store's per-put codec cost.
func BenchmarkEnvelopeEncode(b *testing.B) {
	for _, n := range []int{16, 1024} {
		res := bitsResult(n)
		b.Run(fmt.Sprintf("bits=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := EncodeEnvelope(plainKey, res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
