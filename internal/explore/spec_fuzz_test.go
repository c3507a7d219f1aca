package explore

import (
	"math"
	"testing"
)

// FuzzParseSpec checks ParseSpec's contract on adversarial specs: an
// accepted spec's Canonical() form re-parses to the same canonical
// string with the same NumPoints(), and every value it holds is finite
// and positive. A spec that broke either property would give one grid
// two ETags, or hand the DRAM model a rate it cannot time.
func FuzzParseSpec(f *testing.F) {
	for _, tc := range specErrorCases {
		f.Add(tc.in)
	}
	for _, in := range []string{
		"rows=32:256:2x,channels=2|4",
		"sram=480K:1920K",
		"freq=1G:4G,bw=2.5G|10G",
		"window=8:32:1.5x,burstbytes=64",
		"rows=16:48:+16",
	} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseSpec(in)
		if err != nil {
			return
		}
		for _, ax := range s.axes {
			for _, v := range ax.values {
				if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					t.Fatalf("%q: axis %s holds %v", in, ax.def.name, v)
				}
			}
		}
		canon := s.Canonical()
		again, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("%q: canonical form %q does not re-parse: %v", in, canon, err)
		}
		if got := again.Canonical(); got != canon {
			t.Fatalf("%q: canonical form %q re-parses to %q", in, canon, got)
		}
		if got, want := again.NumPoints(), s.NumPoints(); got != want {
			t.Fatalf("%q: canonical form has %d points, want %d", in, got, want)
		}
	})
}
