package jsonenc

import (
	"encoding/json"
	"math"
	"testing"
)

// TestAppendMatchesMarshal compares both appenders with json.Marshal
// across the escaping classes and the float format's cut-offs.
func TestAppendMatchesMarshal(t *testing.T) {
	for _, s := range []string{"", "plain ASCII", `<>&"\`, "tab\tnl\n\x00", "  ", "ünï", "bad \xff utf-8"} {
		want, _ := json.Marshal(s)
		if got := AppendString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Errorf("AppendString(%q) = %s, json.Marshal %s", s, got[1:], want)
		}
	}
	for _, f := range []float64{0, -0.0, 1, -2.5, 1e-6, 9.99e-7, 1e-7, 5e-324, 1e20, 1e21, -1e21,
		123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64, 1.0 / 3} {
		want, _ := json.Marshal(f)
		if got := AppendFloat(nil, f); string(got) != string(want) {
			t.Errorf("AppendFloat(%v) = %s, json.Marshal %s", f, got, want)
		}
	}
}
