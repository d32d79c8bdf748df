// Package jsonenc appends JSON scalars byte for byte as encoding/json
// writes them, for the hand-written encoders on hot paths (a served
// scenario response, a scenario's content hash) that must match
// json.Marshal exactly without reflecting over a struct.
package jsonenc

import (
	"encoding/json"
	"math"
	"strconv"
)

// AppendString appends s as encoding/json encodes a string. Printable
// ASCII that needs no escaping is copied as is; anything else takes
// encoding/json's own path, so HTML escaping, U+2028/U+2029 and invalid
// UTF-8 come out exactly as it writes them.
func AppendString(b []byte, s string) []byte {
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

// AppendFloat appends a finite f as encoding/json encodes a float64:
// the shortest representation, in exponent form below 1e-6 and from
// 1e21 on, with the exponent's leading zero dropped.
func AppendFloat(b []byte, f float64) []byte {
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
