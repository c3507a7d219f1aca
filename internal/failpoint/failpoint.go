// Package failpoint provides named fault-injection sites for chaos
// testing the serving stack. A failpoint is a named hook compiled into
// production code paths (disk reads and writes in rescache, the
// compute entry of the result cache, the sweep handler of seda-serve);
// it does nothing until armed, and arming is either programmatic
// (tests call Enable/EnableFunc) or environmental (operators set
// SEDA_FAILPOINTS and the server calls LoadEnv at boot).
//
// Supported actions, written as specs:
//
//	off            disarm (same as Disable)
//	error          return ErrInjected from the site
//	error(msg)     return ErrInjected wrapped with msg
//	sleep(dur)     block for dur, honoring the site's context — the
//	               "slow compute" fault; cancellation interrupts the
//	               sleep and returns ctx.Err()
//	panic          panic at the site — the "compute panic" fault
//	panic(msg)     panic with msg
//	corrupt        flip a byte in the site's payload (Corrupt sites)
//
// Any spec may carry a probability modifier, p*spec with p in (0, 1]:
//
//	0.3*error(boom)   fire on ~30% of passes, no-op otherwise
//
// so chaos suites can model partial and flaky failures, not just
// deterministic ones. Sampling draws from a package-level source that
// tests can pin with SeedSampling for reproducible runs; a sampled-out
// pass does not count as a trigger.
//
// Arbitrary behavior — notably cancel-at-point, where reaching the
// site cancels the request under test — is armed with EnableFunc: the
// callback receives the site's context and may do anything, including
// calling a cancel function captured by the test.
//
// The disarmed fast path is one atomic load: sites cost nothing in
// production until a fault is armed. All functions are safe for
// concurrent use.
package failpoint

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the error returned by sites armed in error mode.
// Injected failures wrap it, so tests and callers can distinguish a
// chaos fault from an organic one with errors.Is.
var ErrInjected = errors.New("failpoint: injected fault")

// EnvVar is the environment variable LoadEnv reads:
// comma-separated name=spec pairs, e.g.
//
//	SEDA_FAILPOINTS='rescache.compute=sleep(30s),rescache.diskPut=error'
const EnvVar = "SEDA_FAILPOINTS"

type action uint8

const (
	actError action = iota
	actSleep
	actPanic
	actCorrupt
	actFunc
)

type point struct {
	act      action
	msg      string
	dur      time.Duration
	prob     float64 // (0, 1]; 1 = always fire
	fn       func(context.Context) error
	triggers atomic.Uint64
}

var (
	// armed counts enabled points; Inject/Corrupt return immediately
	// while it is zero, so disarmed sites stay off the profile.
	armed  atomic.Int32
	mu     sync.RWMutex
	points = make(map[string]*point)

	// rng drives probability-modified specs. Guarded by its own mutex so
	// sampling never contends with point lookups.
	rngMu sync.Mutex
	rng   = rand.New(rand.NewPCG(rand.Uint64(), rand.Uint64()))
)

// SeedSampling pins the source behind probability-modified specs so a
// chaos run's fault sequence is reproducible. Tests call it with a
// fixed seed; production leaves the default (randomly seeded) source.
func SeedSampling(seed uint64) {
	rngMu.Lock()
	rng = rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	rngMu.Unlock()
}

// sample reports whether a pass through a p-modified site fires.
func sample(p float64) bool {
	rngMu.Lock()
	ok := rng.Float64() < p
	rngMu.Unlock()
	return ok
}

// Enable arms the named failpoint with a spec (see the package
// comment for the grammar). Re-enabling replaces the previous action.
func Enable(name, spec string) error {
	p, err := parse(spec)
	if err != nil {
		return fmt.Errorf("failpoint %s: %w", name, err)
	}
	if p == nil { // "off"
		Disable(name)
		return nil
	}
	install(name, p)
	return nil
}

// EnableFunc arms the named failpoint with an arbitrary callback. The
// callback runs at the site with the site's context; a non-nil return
// is injected as the site's failure.
func EnableFunc(name string, fn func(context.Context) error) {
	install(name, &point{act: actFunc, prob: 1, fn: fn})
}

func install(name string, p *point) {
	mu.Lock()
	if _, ok := points[name]; !ok {
		armed.Add(1)
	}
	points[name] = p
	mu.Unlock()
}

// Disable disarms the named failpoint. Disarming an unarmed point is
// a no-op.
func Disable(name string) {
	mu.Lock()
	if _, ok := points[name]; ok {
		delete(points, name)
		armed.Add(-1)
	}
	mu.Unlock()
}

// Reset disarms every failpoint. Chaos tests defer it so faults never
// leak across test boundaries.
func Reset() {
	mu.Lock()
	armed.Add(-int32(len(points)))
	clear(points)
	mu.Unlock()
}

// Active reports whether the named failpoint is armed.
func Active(name string) bool {
	if armed.Load() == 0 {
		return false
	}
	mu.RLock()
	_, ok := points[name]
	mu.RUnlock()
	return ok
}

// Triggers returns how many times the named site has fired since it
// was (last) enabled.
func Triggers(name string) uint64 {
	mu.RLock()
	p := points[name]
	mu.RUnlock()
	if p == nil {
		return 0
	}
	return p.triggers.Load()
}

// LoadEnv arms every failpoint named in SEDA_FAILPOINTS. An empty or
// unset variable arms nothing.
func LoadEnv() error {
	raw := strings.TrimSpace(os.Getenv(EnvVar))
	if raw == "" {
		return nil
	}
	for _, pair := range strings.Split(raw, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, spec, ok := strings.Cut(pair, "=")
		if !ok {
			return fmt.Errorf("failpoint: malformed %s entry %q (want name=spec)", EnvVar, pair)
		}
		if err := Enable(strings.TrimSpace(name), strings.TrimSpace(spec)); err != nil {
			return err
		}
	}
	return nil
}

// Inject is the hook production code places at a fault site. Disarmed
// (the common case) it returns nil after one atomic load. Armed, it
// performs the configured action: returns an injected error, sleeps
// (interruptibly — a cancelled ctx cuts the sleep short and returns
// ctx.Err()), panics, or runs an EnableFunc callback. A nil ctx is
// treated as context.Background().
func Inject(ctx context.Context, name string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.RLock()
	p := points[name]
	mu.RUnlock()
	if p == nil {
		return nil
	}
	if p.prob < 1 && !sample(p.prob) {
		return nil
	}
	p.triggers.Add(1)
	if ctx == nil {
		ctx = context.Background()
	}
	switch p.act {
	case actError:
		if p.msg != "" {
			return fmt.Errorf("%w: %s", ErrInjected, p.msg)
		}
		return ErrInjected
	case actSleep:
		t := time.NewTimer(p.dur)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	case actPanic:
		msg := p.msg
		if msg == "" {
			msg = "injected panic"
		}
		panic(fmt.Sprintf("failpoint %s: %s", name, msg))
	case actFunc:
		return p.fn(ctx)
	}
	return nil
}

// Corrupt is the hook for sites that can serve damaged payloads: when
// the named failpoint is armed in corrupt mode it returns a copy of
// blob with one byte flipped (or a one-byte blob if blob is empty),
// simulating a torn or bit-rotted read. Any other mode — and the
// disarmed state — returns blob untouched.
func Corrupt(name string, blob []byte) []byte {
	if armed.Load() == 0 {
		return blob
	}
	mu.RLock()
	p := points[name]
	mu.RUnlock()
	if p == nil || p.act != actCorrupt {
		return blob
	}
	if p.prob < 1 && !sample(p.prob) {
		return blob
	}
	p.triggers.Add(1)
	if len(blob) == 0 {
		return []byte{0xff}
	}
	out := make([]byte, len(blob))
	copy(out, blob)
	out[len(out)/2] ^= 0xff
	return out
}

// parse turns a spec string into a point; "off" parses to nil. A
// leading "<p>*" (with p in (0, 1]) is the probability modifier; it
// is recognized only before the verb, so message arguments may contain
// '*' freely.
func parse(spec string) (*point, error) {
	full := spec
	prob := 1.0
	if star := strings.IndexByte(spec, '*'); star >= 0 {
		if paren := strings.IndexByte(spec, '('); paren < 0 || star < paren {
			raw := spec[:star]
			p, err := strconv.ParseFloat(raw, 64)
			if err != nil || !(p > 0 && p <= 1) { // NaN fails both compares
				return nil, fmt.Errorf("probability %q in spec %q must be a number in (0, 1]", raw, full)
			}
			prob = p
			spec = spec[star+1:]
		}
	}
	verb, arg := spec, ""
	if i := strings.IndexByte(spec, '('); i >= 0 {
		if !strings.HasSuffix(spec, ")") {
			return nil, fmt.Errorf("malformed spec %q", full)
		}
		verb, arg = spec[:i], spec[i+1:len(spec)-1]
	}
	switch verb {
	case "off":
		return nil, nil
	case "error":
		return &point{act: actError, msg: arg, prob: prob}, nil
	case "sleep":
		d, err := time.ParseDuration(arg)
		if err != nil {
			return nil, fmt.Errorf("sleep spec %q: %w", full, err)
		}
		return &point{act: actSleep, dur: d, prob: prob}, nil
	case "panic":
		return &point{act: actPanic, msg: arg, prob: prob}, nil
	case "corrupt":
		return &point{act: actCorrupt, prob: prob}, nil
	}
	return nil, fmt.Errorf("unknown spec %q (want off, error[(msg)], sleep(dur), panic[(msg)] or corrupt, optionally p*spec)", full)
}
