package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
)

// A successful single-object POST /v1/scenarios response is the
// indented JSON object
//
//	{
//	  "name": <name>,
//	  "hash": <hash>,
//	  "seed": <seed>,
//	  "cached": <cached>,
//	  "elapsed_us": <elapsed_us>,
//	  "result": <result>
//	}
//
// followed by a newline, with "name" omitted when empty: the bytes
// json.NewEncoder with SetIndent("", "  ") writes for that object. The
// result is the deterministic payload; the other fields are serving
// metadata (the name is the requester's label — results are shared
// through the cache, so the label lives here, not in them). A cache
// hit differs from the previous response for its entry only in those
// fields, so the result's indented encoding is built once per entry and
// every response writes it as stored.

// resultBlock returns the entry's result encoded as the response nests
// it, one level deep. It is built on the first single-object response
// that needs it, so batch, sweep and worker entries never pay for it.
// Call only after the entry is ready and holds a result.
func (e *cacheEntry) resultBlock() ([]byte, error) {
	e.blockOnce.Do(func() {
		e.block, e.blockErr = json.MarshalIndent(e.result, "  ", "  ")
	})
	return e.block, e.blockErr
}

// writeScenario writes a successful single-object response for ent. As
// with encoding/json's Encoder, a result that does not encode leaves
// the body empty.
func writeScenario(w http.ResponseWriter, name, hash string, seed int64, cached bool, elapsedUS float64, ent *cacheEntry) {
	block, err := ent.resultBlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if err != nil {
		return
	}
	head := make([]byte, 0, 128+len(name)+len(hash))
	head = append(head, "{\n"...)
	if name != "" {
		head = append(head, `  "name": `...)
		head = appendString(head, name)
		head = append(head, ",\n"...)
	}
	head = append(head, `  "hash": `...)
	head = appendString(head, hash)
	head = append(head, ",\n  \"seed\": "...)
	head = strconv.AppendInt(head, seed, 10)
	head = append(head, ",\n  \"cached\": "...)
	head = strconv.AppendBool(head, cached)
	head = append(head, ",\n  \"elapsed_us\": "...)
	head = appendFloat(head, elapsedUS)
	head = append(head, ",\n  \"result\": "...)
	w.Write(head)
	w.Write(block)
	w.Write(responseTail)
}

// responseTail closes the result block and the response object.
var responseTail = []byte("\n}\n")

// appendString appends s as encoding/json encodes a string. Printable
// ASCII that needs no escaping is copied as is; anything else takes
// encoding/json's own path, so HTML escaping, U+2028/U+2029 and invalid
// UTF-8 come out exactly as it writes them.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			lit, _ := json.Marshal(s) // a string always marshals
			return append(b, lit...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends a finite f as encoding/json encodes a float64:
// the shortest representation, in exponent form below 1e-6 and from
// 1e21 on, with the exponent's leading zero dropped.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
