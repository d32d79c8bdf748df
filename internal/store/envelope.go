package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"ichannels/internal/scenario"
)

// The envelope codec: the one place that knows an entry's byte layout.
// EncodeEnvelope writes, with no whitespace and in exactly this key
// order,
//
//	{"version":1,"hash":<hash>,"seed":<seed>,"checksum":"<sha256>","result":<result>}
//
// where <hash> is the key hash as a JSON string, <seed> the key seed in
// decimal, <result> the compact json.Marshal encoding of the
// scenario.Result, and <sha256> the lowercase hex SHA-256 of the
// <result> bytes. Readers accept only that layout — whitespace,
// reordered or extra keys, trailing bytes or a non-canonical number or
// string are ErrCorrupt, which every consumer degrades to a recompute.
// The layout is fixed, so a reader cuts it apart in one pass instead of
// handing the outer object to encoding/json.

// EncodeEnvelope wraps a result in the versioned, checksummed envelope
// the store persists — and the byte format the distributed tier ships
// over the wire: a worker answers a cell dispatch with exactly these
// bytes, and the coordinator accepts them only through DecodeEnvelope,
// so a byzantine or stale worker is detected by the same integrity
// check a corrupt disk entry is.
func EncodeEnvelope(key Key, res *scenario.Result) ([]byte, error) {
	if res == nil {
		return nil, fmt.Errorf("store: encode %s: nil result", key)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("store: encode %s: %w", key, err)
	}
	sum := checksumHex(raw)
	buf := make([]byte, 0, len(raw)+len(key.Hash)+128)
	buf = append(buf, `{"version":`...)
	buf = strconv.AppendInt(buf, EnvelopeVersion, 10)
	buf = append(buf, `,"hash":`...)
	buf = append(buf, hashLiteral(key.Hash)...)
	buf = append(buf, `,"seed":`...)
	buf = strconv.AppendInt(buf, key.Seed, 10)
	buf = append(buf, `,"checksum":"`...)
	buf = append(buf, sum[:]...)
	buf = append(buf, `","result":`...)
	buf = append(buf, raw...)
	return append(buf, '}'), nil
}

// DecodeEnvelope validates one envelope's bytes against the key the
// caller expects — layout, version, identity, and result checksum — and
// returns the result. It is the read half of EncodeEnvelope, shared by
// every store read path (Get/Verify/GC/pack), the share server's upload
// check, and the distributed coordinator (worker-response
// verification).
func DecodeEnvelope(key Key, data []byte) (*scenario.Result, error) {
	return decodeEnvelope(key, data)
}

// decodeEnvelope validates one entry's bytes against its key and
// returns the result. Every failure is tagged with ErrCorrupt: the
// bytes themselves are wrong, so no amount of retrying the same source
// helps — callers classify these as permanent.
func decodeEnvelope(key Key, data []byte) (*scenario.Result, error) {
	p, ok := splitEnvelope(data)
	if !ok {
		return nil, markCorrupt(fmt.Errorf("store: entry %s: malformed envelope", key))
	}
	if p.version != EnvelopeVersion {
		return nil, markCorrupt(fmt.Errorf("store: entry %s: envelope version %d, want %d", key, p.version, EnvelopeVersion))
	}
	if !hashIs(p.hash, key.Hash) || p.seed != key.Seed {
		h, ok := parseHash(p.hash)
		if !ok {
			return nil, markCorrupt(fmt.Errorf("store: entry %s: malformed envelope hash", key))
		}
		return nil, markCorrupt(fmt.Errorf("store: entry %s: envelope identifies %s-%d (renamed file?)", key, h, p.seed))
	}
	if !p.checksumOK() {
		return nil, markCorrupt(fmt.Errorf("store: entry %s: checksum mismatch (corrupt result payload)", key))
	}
	res, err := decodeResult(p.result)
	if err != nil {
		return nil, markCorrupt(fmt.Errorf("store: entry %s: malformed result: %w", key, err))
	}
	return res, nil
}

// envelopeKey verifies an envelope whose key the caller does not know
// (a segment rescan) and returns the key it carries: the same layout,
// version and checksum checks as decodeEnvelope, and the result must be
// valid JSON, but it is not decoded.
func envelopeKey(data []byte) (Key, bool) {
	p, ok := splitEnvelope(data)
	if !ok || p.version != EnvelopeVersion || !p.checksumOK() || !json.Valid(p.result) {
		return Key{}, false
	}
	h, ok := parseHash(p.hash)
	if !ok || h == "" {
		return Key{}, false
	}
	return Key{Hash: h, Seed: p.seed}, true
}

// envelopeParts is an envelope cut along its layout.
type envelopeParts struct {
	version int64
	// hash is the hash's JSON string literal, quotes included.
	hash     []byte
	seed     int64
	checksum []byte
	result   []byte
}

// splitEnvelope cuts data along the layout EncodeEnvelope writes; ok is
// false for any other layout. It checks shape only: the version,
// identity and checksum are the caller's to judge.
func splitEnvelope(data []byte) (p envelopeParts, ok bool) {
	r := envReader{b: data, ok: true}
	r.lit(`{"version":`)
	p.version = r.int()
	r.lit(`,"hash":`)
	p.hash = r.str()
	r.lit(`,"seed":`)
	p.seed = r.int()
	r.lit(`,"checksum":"`)
	p.checksum = r.take(2 * sha256.Size)
	r.lit(`","result":`)
	p.result = r.object()
	return p, r.ok
}

// checksumOK reports whether the recorded checksum is the SHA-256 of
// the result bytes.
func (p *envelopeParts) checksumOK() bool {
	sum := checksumHex(p.result)
	return bytes.Equal(sum[:], p.checksum)
}

// checksumHex is the lowercase hex SHA-256 an envelope records for its
// result bytes.
func checksumHex(raw []byte) [2 * sha256.Size]byte {
	sum := sha256.Sum256(raw)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return out
}

// envReader walks an envelope left to right. The first mismatch clears
// ok, and every later step is then a no-op.
type envReader struct {
	b  []byte
	ok bool
}

// lit consumes the literal s.
func (r *envReader) lit(s string) {
	if !r.ok || len(r.b) < len(s) || string(r.b[:len(s)]) != s {
		r.ok = false
		return
	}
	r.b = r.b[len(s):]
}

// int consumes a canonical decimal int64, as strconv.AppendInt writes
// it.
func (r *envReader) int() int64 {
	if !r.ok {
		return 0
	}
	v, n, ok := parseInt(r.b)
	if !ok {
		r.ok = false
		return 0
	}
	r.b = r.b[n:]
	return v
}

// str consumes a JSON string literal and returns it, quotes included.
// Escapes are skipped, not decoded; parseHash judges the contents.
func (r *envReader) str() []byte {
	if !r.ok || len(r.b) == 0 || r.b[0] != '"' {
		r.ok = false
		return nil
	}
	for i := 1; i < len(r.b); i++ {
		switch c := r.b[i]; {
		case c == '"':
			lit := r.b[:i+1]
			r.b = r.b[i+1:]
			return lit
		case c == '\\':
			i++
		case c < 0x20:
			r.ok = false
			return nil
		}
	}
	r.ok = false
	return nil
}

// take consumes n bytes.
func (r *envReader) take(n int) []byte {
	if !r.ok || len(r.b) < n {
		r.ok = false
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// object consumes the rest of the envelope: a value that starts with
// '{' and ends with '}', followed by the envelope's own closing '}'. It
// returns the value; decodeResult or json.Valid checks that it is one
// JSON object.
func (r *envReader) object() []byte {
	n := len(r.b)
	if !r.ok || n < 3 || r.b[0] != '{' || r.b[n-2] != '}' || r.b[n-1] != '}' {
		r.ok = false
		return nil
	}
	out := r.b[:n-1]
	r.b = nil
	return out
}

// parseInt reads a canonical decimal integer from the front of b —
// optional '-', no leading zeros, no "-0", within int64 — and returns
// it with the number of bytes it spans.
func parseInt(b []byte) (v int64, n int, ok bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		n = 1
	}
	start := n
	var u uint64 // wraps past 19 digits, which are rejected below
	for n < len(b) && b[n] >= '0' && b[n] <= '9' {
		u = u*10 + uint64(b[n]-'0')
		n++
	}
	digits := n - start
	switch {
	case digits == 0, digits > 19, b[start] == '0' && (digits > 1 || neg):
		return 0, 0, false
	case neg && u <= math.MaxInt64+1:
		return int64(-u), n, true
	case !neg && u <= math.MaxInt64:
		return int64(u), n, true
	}
	return 0, 0, false
}

// hashLiteral is the JSON string EncodeEnvelope writes for a key hash.
func hashLiteral(h string) []byte {
	lit, _ := json.Marshal(h) // a string always marshals
	return lit
}

// hashIs reports whether lit is the literal EncodeEnvelope writes for
// the hash h and decodes back to h. json.Marshal maps invalid UTF-8 to
// U+FFFD, so for such an h no literal qualifies.
func hashIs(lit []byte, h string) bool {
	return utf8.ValidString(h) && bytes.Equal(lit, hashLiteral(h))
}

// parseHash decodes a hash literal; ok is false unless the literal is
// exactly what EncodeEnvelope writes for the hash it spells.
func parseHash(lit []byte) (string, bool) {
	var h string
	if err := json.Unmarshal(lit, &h); err != nil {
		return "", false
	}
	return h, hashIs(lit, h)
}

// storedResult decodes a stored result. Its two bit-stream fields
// shadow the embedded Result's, so encoding/json still validates the
// whole result and decodes every other field, but hands each bit
// stream's raw array to intArray instead of reflecting over every
// element. It is the store codec's own type: HTTP and CLI decoders of
// scenario.Result are unaffected.
type storedResult struct {
	scenario.Result
	SentBits    intArray `json:"sent_bits"`
	DecodedBits intArray `json:"decoded_bits"`
}

// decodeResult decodes a result's JSON encoding.
func decodeResult(raw []byte) (*scenario.Result, error) {
	var s storedResult
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, err
	}
	res := s.Result
	res.SentBits, res.DecodedBits = s.SentBits, s.DecodedBits
	return &res, nil
}

// intArray is a []int that decodes only the compact form json.Marshal
// writes: '[', canonical decimal ints separated by ',', ']'.
type intArray []int

// UnmarshalJSON implements json.Unmarshaler.
func (a *intArray) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '[' || b[len(b)-1] != ']' {
		return fmt.Errorf("bit stream is not an int array")
	}
	body := b[1 : len(b)-1]
	n := 0
	if len(body) > 0 {
		n = bytes.Count(body, []byte{','}) + 1
	}
	out := make(intArray, n)
	for i := range out {
		if i > 0 {
			if body[0] != ',' {
				return fmt.Errorf("bit stream is not a compact int array")
			}
			body = body[1:]
		}
		v, m, ok := parseInt(body)
		if !ok || int64(int(v)) != v {
			return fmt.Errorf("bit stream holds a non-int element")
		}
		out[i] = int(v)
		body = body[m:]
	}
	if len(body) != 0 {
		return fmt.Errorf("bit stream is not a compact int array")
	}
	*a = out
	return nil
}
