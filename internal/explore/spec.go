package explore

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/seda"
)

// A grid spec names axes of the NPU/DRAM config space and the values
// each sweeps; the explored grid is their cartesian product over a
// base configuration that supplies every unswept knob.
//
// Grammar (axes comma-separated, values '|'-separated):
//
//	spec   := axis ( ',' axis )*
//	axis   := name '=' values
//	values := item ( '|' item )*
//	item   := value | range
//	range  := lo ':' hi [ ':' step ]        // hi inclusive
//	step   := FLOAT 'x'                     // geometric, e.g. 2x, 1.5x
//	        | '+' VALUE                     // additive, e.g. +64, +1M
//	                                        // default: 2x
//	value  := FLOAT [ 'K' | 'M' | 'G' | 'T' ]
//
// Suffixes are binary (x1024) on byte/size axes and decimal (x1000)
// on rate axes; rate axes also accept scientific notation (2.75e9).
// Example: rows=32:256,sram=480K:24M,channels=2|4|8,rowbytes=1K:4K.
//
// Axis names (case-insensitive): rows, cols, sram, freq, bw,
// channels, banks, rowbytes, burstbytes, window. Sweeping rows
// without mentioning cols keeps the array square (cols tracks rows);
// every other unswept axis holds the base config's value.

// axisKind selects the value grammar of an axis.
type axisKind int

const (
	kindCount axisKind = iota // plain integers (rows, channels, ...)
	kindBytes                 // integers with binary K/M/G/T suffixes
	kindRate                  // floats with decimal suffixes (Hz, B/s)
)

type axisDef struct {
	name string
	kind axisKind
	set  func(*seda.NPUConfig, float64)
}

// axisTable fixes the canonical axis order: enumeration, canonical
// spec strings and point naming all follow it, so identical specs
// written in any axis order produce identical results (and ETags).
var axisTable = []axisDef{
	{"rows", kindCount, func(c *seda.NPUConfig, v float64) { c.ArrayRows = int(v) }},
	{"cols", kindCount, func(c *seda.NPUConfig, v float64) { c.ArrayCols = int(v) }},
	{"sram", kindBytes, func(c *seda.NPUConfig, v float64) { c.SRAMBytes = int(v) }},
	{"freq", kindRate, func(c *seda.NPUConfig, v float64) { c.FreqHz = v }},
	{"bw", kindRate, func(c *seda.NPUConfig, v float64) { c.BandwidthB = v }},
	{"channels", kindCount, func(c *seda.NPUConfig, v float64) { c.Channels = int(v) }},
	{"banks", kindCount, func(c *seda.NPUConfig, v float64) { c.BanksPerChan = int(v) }},
	{"rowbytes", kindBytes, func(c *seda.NPUConfig, v float64) { c.RowBytes = int(v) }},
	{"burstbytes", kindBytes, func(c *seda.NPUConfig, v float64) { c.BurstBytes = int(v) }},
	{"window", kindCount, func(c *seda.NPUConfig, v float64) { c.WindowSize = int(v) }},
}

func axisByName(name string) (axisDef, bool) {
	for _, a := range axisTable {
		if strings.EqualFold(a.name, name) {
			return a, true
		}
	}
	return axisDef{}, false
}

func axisNames() []string {
	names := make([]string, len(axisTable))
	for i, a := range axisTable {
		names[i] = a.name
	}
	return names
}

// maxAxisValues bounds a single axis so a typo'd step cannot enumerate
// forever; the grid-level budget is the caller's MaxPoints.
const maxAxisValues = 4096

// maxIntValue is the largest value an integer axis accepts: every
// integer up to 2^53 is exact in a float64, so Canonical prints it
// back verbatim and the NPUConfig field receives it unchanged.
const maxIntValue = 1 << 53

// Spec is a parsed grid specification.
type Spec struct {
	// axes in axisTable order; only swept axes present.
	axes []specAxis
}

type specAxis struct {
	def    axisDef
	values []float64 // normalized, deduplicated, ascending input order
}

// ParseSpec parses a grid spec. The returned Spec is canonical:
// Canonical() of two specs describing the same grid are equal strings.
func ParseSpec(spec string) (*Spec, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("explore: empty spec (axes: %s)", strings.Join(axisNames(), ", "))
	}
	seen := map[string][]float64{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		name, vals, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("explore: axis %q is not name=values", part)
		}
		def, ok := axisByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("explore: unknown axis %q (axes: %s)", name, strings.Join(axisNames(), ", "))
		}
		if _, dup := seen[def.name]; dup {
			return nil, fmt.Errorf("explore: axis %q specified twice", def.name)
		}
		values, err := parseValues(def, vals)
		if err != nil {
			return nil, fmt.Errorf("explore: axis %s: %w", def.name, err)
		}
		seen[def.name] = values
	}
	s := &Spec{}
	for _, def := range axisTable {
		if values, ok := seen[def.name]; ok {
			s.axes = append(s.axes, specAxis{def: def, values: values})
		}
	}
	return s, nil
}

func parseValues(def axisDef, spec string) ([]float64, error) {
	var out []float64
	for _, item := range strings.Split(spec, "|") {
		item = strings.TrimSpace(item)
		vals, err := parseItem(def, item)
		if err != nil {
			return nil, err
		}
		out = append(out, vals...)
	}
	// Deduplicate while preserving order (ranges emit ascending).
	dedup := out[:0]
	have := map[float64]bool{}
	for _, v := range out {
		if !have[v] {
			have[v] = true
			dedup = append(dedup, v)
		}
	}
	if len(dedup) == 0 {
		return nil, fmt.Errorf("no values")
	}
	return dedup, nil
}

func parseItem(def axisDef, item string) ([]float64, error) {
	parts := strings.Split(item, ":")
	switch len(parts) {
	case 1:
		v, err := parseValue(def, parts[0])
		if err != nil {
			return nil, err
		}
		return []float64{v}, nil
	case 2, 3:
		lo, err := parseValue(def, parts[0])
		if err != nil {
			return nil, err
		}
		hi, err := parseValue(def, parts[1])
		if err != nil {
			return nil, err
		}
		if hi < lo {
			return nil, fmt.Errorf("range %q descends", item)
		}
		step := "2x"
		if len(parts) == 3 {
			step = strings.TrimSpace(parts[2])
		}
		return expandRange(def, lo, hi, step)
	default:
		return nil, fmt.Errorf("range %q has more than two ':'", item)
	}
}

func expandRange(def axisDef, lo, hi float64, step string) ([]float64, error) {
	var out []float64
	emit := func(v float64) error {
		if len(out) >= maxAxisValues {
			return fmt.Errorf("range expands past %d values", maxAxisValues)
		}
		v = normalize(def, v)
		if err := checkValue(def, v); err != nil {
			return fmt.Errorf("range value %g %w", v, err)
		}
		out = append(out, v)
		return nil
	}
	// hi is inclusive with a relative tolerance, so 32:256:2x ends on
	// 256 even after accumulated float multiplication error.
	tol := hi * (1 + 1e-9)
	switch {
	case strings.HasSuffix(step, "x"):
		f, err := strconv.ParseFloat(strings.TrimSuffix(step, "x"), 64)
		if err != nil || f <= 1 {
			return nil, fmt.Errorf("geometric step %q must be a factor > 1", step)
		}
		for v := lo; v <= tol; v *= f {
			if err := emit(v); err != nil {
				return nil, err
			}
		}
	case strings.HasPrefix(step, "+"):
		d, err := parseValue(def, strings.TrimPrefix(step, "+"))
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("additive step %q must be a positive value", step)
		}
		for v := lo; v <= tol; v += d {
			if err := emit(v); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("step %q is neither Nx (geometric) nor +N (additive)", step)
	}
	return out, nil
}

// normalize rounds integer axes to whole values so geometric steps
// with fractional factors still land on representable configs.
func normalize(def axisDef, v float64) float64 {
	if def.kind == kindRate {
		return v
	}
	return math.Round(v)
}

func parseValue(def axisDef, s string) (float64, error) {
	s = strings.TrimSpace(s)
	mult := 1.0
	unit := 1000.0
	if def.kind != kindRate {
		unit = 1024.0
	}
	if n := len(s); n > 0 {
		switch s[n-1] {
		case 'K', 'k':
			mult, s = unit, s[:n-1]
		case 'M', 'm':
			mult, s = unit*unit, s[:n-1]
		case 'G', 'g':
			mult, s = unit*unit*unit, s[:n-1]
		case 'T', 't':
			mult, s = unit*unit*unit*unit, s[:n-1]
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("value %q: %w", s, err)
	}
	v *= mult
	if err := checkValue(def, v); err != nil {
		return 0, fmt.Errorf("value %q %w", s, err)
	}
	return v, nil
}

// checkValue enforces an axis's value domain: finite and positive
// (ParseFloat accepts "NaN" and "Inf", and a NaN rate would derive DRAM
// timings no drain finishes), and on integer axes a whole number no
// larger than maxIntValue.
func checkValue(def axisDef, v float64) error {
	switch {
	case math.IsNaN(v) || math.IsInf(v, 0):
		return errors.New("is not finite")
	case v <= 0:
		return errors.New("is not positive")
	case def.kind == kindRate:
		return nil
	case v != math.Trunc(v):
		return errors.New("is not an integer")
	case v > maxIntValue:
		return fmt.Errorf("exceeds %d", int64(maxIntValue))
	}
	return nil
}

// Canonical returns the normalized spec string: axes in table order,
// every value expanded and printed exactly. Two specs enumerating the
// same grid canonicalize identically, which is what the serving
// layer's ETag hashes.
func (s *Spec) Canonical() string {
	var b strings.Builder
	for i, ax := range s.axes {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(ax.def.name)
		b.WriteByte('=')
		for j, v := range ax.values {
			if j > 0 {
				b.WriteByte('|')
			}
			if ax.def.kind == kindRate {
				b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
			} else {
				b.WriteString(strconv.FormatInt(int64(v), 10))
			}
		}
	}
	return b.String()
}

// NumPoints returns the grid size (product of axis lengths),
// saturating at math.MaxInt: a cross product of maximal axes
// (maxAxisValues^len(axisTable)) overflows int, and a wrapped product
// would slip past the MaxPoints guard and materialize the whole grid.
func (s *Spec) NumPoints() int {
	n := 1
	for _, ax := range s.axes {
		if n > math.MaxInt/len(ax.values) {
			return math.MaxInt
		}
		n *= len(ax.values)
	}
	return n
}

// hasAxis reports whether the spec sweeps the named axis.
func (s *Spec) hasAxis(name string) bool {
	for _, ax := range s.axes {
		if ax.def.name == name {
			return true
		}
	}
	return false
}

// Points enumerates the grid over the base configuration in canonical
// order (last axis fastest). Every point gets a deterministic
// geometry-derived name, so the same platform reached through two
// different specs shares one cache fingerprint. Points are not
// validated — the engine partitions valid from invalid so a cross
// product with some impossible combinations still explores the rest.
func (s *Spec) Points(base seda.NPUConfig) []seda.NPUConfig {
	squared := s.hasAxis("rows") && !s.hasAxis("cols")
	pts := make([]seda.NPUConfig, 0, s.NumPoints())
	idx := make([]int, len(s.axes))
	for {
		cfg := base
		for i, ax := range s.axes {
			ax.def.set(&cfg, ax.values[idx[i]])
		}
		if squared {
			cfg.ArrayCols = cfg.ArrayRows
		}
		cfg.Name = PointName(cfg)
		pts = append(pts, cfg)
		// Odometer increment, last axis fastest.
		i := len(s.axes) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(s.axes[i].values) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return pts
		}
	}
}

// PointName derives the canonical name of an explored configuration
// from its effective geometry (DRAM knobs after default resolution),
// so a knob left at zero and the same knob set to its default name —
// and therefore fingerprint — identically.
func PointName(c seda.NPUConfig) string {
	d := c.DRAMConfig()
	return fmt.Sprintf("x%dx%d-s%d-f%s-b%s-c%d-k%d-r%d-q%d-w%d",
		c.ArrayRows, c.ArrayCols, c.SRAMBytes,
		strconv.FormatFloat(c.FreqHz, 'g', -1, 64),
		strconv.FormatFloat(c.BandwidthB, 'g', -1, 64),
		d.Channels, d.BanksPerChan, d.RowBytes, d.BurstBytes, d.WindowSize)
}

// SortedAxisNames returns the table-order names of the spec's axes.
func (s *Spec) SortedAxisNames() []string {
	names := make([]string, len(s.axes))
	for i, ax := range s.axes {
		names[i] = ax.def.name
	}
	sort.Strings(names)
	return names
}
