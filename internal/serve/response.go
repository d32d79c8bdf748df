package serve

import (
	"encoding/json"
	"net/http"
	"strconv"

	"ichannels/internal/jsonenc"
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
		head = jsonenc.AppendString(head, name)
		head = append(head, ",\n"...)
	}
	head = append(head, `  "hash": `...)
	head = jsonenc.AppendString(head, hash)
	head = append(head, ",\n  \"seed\": "...)
	head = strconv.AppendInt(head, seed, 10)
	head = append(head, ",\n  \"cached\": "...)
	head = strconv.AppendBool(head, cached)
	head = append(head, ",\n  \"elapsed_us\": "...)
	head = jsonenc.AppendFloat(head, elapsedUS)
	head = append(head, ",\n  \"result\": "...)
	w.Write(head)
	w.Write(block)
	w.Write(responseTail)
}

// responseTail closes the result block and the response object.
var responseTail = []byte("\n}\n")
