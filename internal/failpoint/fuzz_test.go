package failpoint

import "testing"

// FuzzFailpointParse checks the spec parser on adversarial input: it
// never panics, and an accepted point's probability lies in (0, 1] —
// the domain Inject's sampling assumes (a NaN probability would skip
// sampling and fire on every call).
func FuzzFailpointParse(f *testing.F) {
	for _, spec := range append(append([]string{}, badSpecs...), badProbSpecs...) {
		f.Add(spec)
	}
	for _, spec := range []string{"off", "error(a*b)", "0.3*error", "1*error(boom)", "0.5*sleep(1ms)", "0.01*panic", "0.9*corrupt"} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := parse(spec)
		if err != nil || p == nil {
			return
		}
		if !(p.prob > 0 && p.prob <= 1) {
			t.Fatalf("%q: accepted probability %v outside (0, 1]", spec, p.prob)
		}
	})
}
