package failpoint

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestDisarmedInjectIsNil(t *testing.T) {
	defer Reset()
	if err := Inject(context.Background(), "nope"); err != nil {
		t.Fatalf("disarmed inject: %v", err)
	}
	if Active("nope") {
		t.Fatal("unarmed point reports active")
	}
	// Arming one point must not fire others.
	if err := Enable("a", "error"); err != nil {
		t.Fatal(err)
	}
	if err := Inject(context.Background(), "b"); err != nil {
		t.Fatalf("other point fired: %v", err)
	}
}

func TestErrorMode(t *testing.T) {
	defer Reset()
	if err := Enable("p", "error"); err != nil {
		t.Fatal(err)
	}
	err := Inject(nil, "p")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if err := Enable("p", "error(disk is sad)"); err != nil {
		t.Fatal(err)
	}
	err = Inject(nil, "p")
	if !errors.Is(err, ErrInjected) || !strings.Contains(err.Error(), "disk is sad") {
		t.Fatalf("err = %v, want wrapped message", err)
	}
	// Re-enabling replaced the point, so the counter restarted.
	if Triggers("p") != 1 {
		t.Fatalf("triggers = %d, want 1 (reset on re-enable)", Triggers("p"))
	}
}

func TestSleepModeHonorsContext(t *testing.T) {
	defer Reset()
	if err := Enable("p", "sleep(30s)"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	start := time.Now()
	err := Inject(ctx, "p")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancelled sleep did not return promptly")
	}
	// A short sleep completes and injects nothing.
	if err := Enable("p", "sleep(1ms)"); err != nil {
		t.Fatal(err)
	}
	if err := Inject(context.Background(), "p"); err != nil {
		t.Fatalf("completed sleep: %v", err)
	}
}

func TestPanicMode(t *testing.T) {
	defer Reset()
	if err := Enable("p", "panic(boom)"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "boom") {
			t.Fatalf("recover = %v, want injected panic", r)
		}
	}()
	Inject(nil, "p") //nolint:errcheck
	t.Fatal("unreachable")
}

func TestFuncMode(t *testing.T) {
	defer Reset()
	sentinel := errors.New("from func")
	var got context.Context
	EnableFunc("p", func(ctx context.Context) error {
		got = ctx
		return sentinel
	})
	ctx := context.Background()
	if err := Inject(ctx, "p"); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if got != ctx {
		t.Fatal("callback did not receive the site context")
	}
}

func TestCorrupt(t *testing.T) {
	defer Reset()
	blob := []byte("all good bytes here")
	if out := Corrupt("p", blob); !bytes.Equal(out, blob) {
		t.Fatal("disarmed Corrupt modified the blob")
	}
	if err := Enable("p", "corrupt"); err != nil {
		t.Fatal(err)
	}
	out := Corrupt("p", blob)
	if bytes.Equal(out, blob) {
		t.Fatal("armed Corrupt returned intact bytes")
	}
	if !bytes.Equal(blob, []byte("all good bytes here")) {
		t.Fatal("Corrupt mutated the caller's blob in place")
	}
	if len(Corrupt("p", nil)) == 0 {
		t.Fatal("corrupting an empty blob should produce junk, not nothing")
	}
	// Non-corrupt modes leave payloads alone.
	if err := Enable("p", "error"); err != nil {
		t.Fatal(err)
	}
	if out := Corrupt("p", blob); !bytes.Equal(out, blob) {
		t.Fatal("error-mode Corrupt modified the blob")
	}
}

func TestDisableAndReset(t *testing.T) {
	defer Reset()
	if err := Enable("p", "error"); err != nil {
		t.Fatal(err)
	}
	Disable("p")
	if Active("p") || Inject(nil, "p") != nil {
		t.Fatal("disabled point still fires")
	}
	Disable("p") // double-disable is a no-op
	if err := Enable("p", "error"); err != nil {
		t.Fatal(err)
	}
	if err := Enable("q", "off"); err != nil { // off == disable
		t.Fatal(err)
	}
	Reset()
	if Active("p") || armed.Load() != 0 {
		t.Fatalf("reset left state: active=%v armed=%d", Active("p"), armed.Load())
	}
}

// badSpecs and badProbSpecs pin the parser's rejections (the second
// set all through the probability modifier); FuzzFailpointParse seeds
// its corpus from them.
var (
	badSpecs     = []string{"", "explode", "sleep", "sleep(xyz)", "error(unclosed", "sleep(1s"}
	badProbSpecs = []string{"0*error", "-0.5*error", "1.1*error", "NaN*error(boom)", "x*error", "*error", "0.5*explode"}
)

func TestParseErrors(t *testing.T) {
	for _, spec := range badSpecs {
		if err := Enable("p", spec); err == nil {
			t.Errorf("spec %q: expected parse error", spec)
			Disable("p")
		}
	}
}

func TestLoadEnv(t *testing.T) {
	defer Reset()
	t.Setenv(EnvVar, " a=error , b=sleep(1ms),, c=error(x) ")
	if err := LoadEnv(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if !Active(name) {
			t.Fatalf("%s not armed from env", name)
		}
	}
	Reset()
	t.Setenv(EnvVar, "")
	if err := LoadEnv(); err != nil || armed.Load() != 0 {
		t.Fatalf("empty env: err=%v armed=%d", err, armed.Load())
	}
	t.Setenv(EnvVar, "garbage-without-equals")
	if err := LoadEnv(); err == nil {
		t.Fatal("malformed env accepted")
	}
}

func TestProbabilityParse(t *testing.T) {
	defer Reset()
	for _, spec := range []string{"0.3*error", "1*error(boom)", "0.5*sleep(1ms)", "0.01*panic", "0.9*corrupt", "0.2*off"} {
		if err := Enable("p", spec); err != nil {
			t.Errorf("spec %q: unexpected parse error: %v", spec, err)
		}
		Disable("p")
	}
	for _, spec := range badProbSpecs {
		if err := Enable("p", spec); err == nil {
			t.Errorf("spec %q: expected parse error", spec)
			Disable("p")
		}
	}
	// '*' inside a message argument is not a modifier.
	if err := Enable("p", "error(a*b)"); err != nil {
		t.Fatalf("star in message rejected: %v", err)
	}
	if err := Inject(nil, "p"); err == nil || !strings.Contains(err.Error(), "a*b") {
		t.Fatalf("message with star not preserved: %v", err)
	}
}

func TestProbabilitySampling(t *testing.T) {
	defer Reset()
	if err := Enable("p", "0.3*error(flaky)"); err != nil {
		t.Fatal(err)
	}
	SeedSampling(1)
	const n = 10_000
	fired := 0
	for range n {
		if err := Inject(nil, "p"); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("wrong error: %v", err)
			}
			fired++
		}
	}
	// Binomial(10k, 0.3): ±5 percentage points is > 10 sigma.
	if fired < n*25/100 || fired > n*35/100 {
		t.Fatalf("p=0.3 fired %d/%d times", fired, n)
	}
	if got := Triggers("p"); got != uint64(fired) {
		t.Fatalf("triggers %d, want %d (sampled-out passes must not count)", got, fired)
	}

	// Same seed, same site: the exact fault sequence replays.
	sequence := func() []bool {
		SeedSampling(42)
		seq := make([]bool, 200)
		for i := range seq {
			seq[i] = Inject(nil, "p") != nil
		}
		return seq
	}
	a, b := sequence(), sequence()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded sequences diverge at pass %d", i)
		}
	}

	// p=1 is exactly the unmodified behavior: every pass fires.
	if err := Enable("p", "1*error"); err != nil {
		t.Fatal(err)
	}
	for i := range 50 {
		if err := Inject(nil, "p"); err == nil {
			t.Fatalf("p=1 pass %d did not fire", i)
		}
	}
}

func TestProbabilityCorrupt(t *testing.T) {
	defer Reset()
	if err := Enable("c", "0.5*corrupt"); err != nil {
		t.Fatal(err)
	}
	SeedSampling(7)
	blob := []byte("payload-payload-payload")
	changed := 0
	const n = 2000
	for range n {
		if !bytes.Equal(Corrupt("c", blob), blob) {
			changed++
		}
	}
	if changed < n*42/100 || changed > n*58/100 {
		t.Fatalf("p=0.5 corrupt changed %d/%d payloads", changed, n)
	}
	if got := Triggers("c"); got != uint64(changed) {
		t.Fatalf("triggers %d, want %d", got, changed)
	}
}
