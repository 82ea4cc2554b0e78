package sig

// The access-history backend layer. Every profiler variant, experiment
// driver and ddprofd session selects its store through one registry keyed by
// a spec string ("signature:slots=1m", "hybrid:slots=1m,exact=4096"), so the
// precision/memory trade-off of §III-B is a first-class knob instead of
// scattered constructor closures. Backends register themselves at init time:
// signature and perfect live here; shadow, hashtab and hybrid register from
// their own packages (internal/shadow, internal/hashtab), which already
// depend on sig for the Store contract.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// DefaultBackend is the spec every layer falls back to when none is given:
// the paper's bounded-memory signature store.
const DefaultBackend = "signature"

// Spec is a parsed backend specification: a backend name plus ordered
// key=value parameters. The canonical textual form is
//
//	name
//	name:key=value,key=value
//
// Integer parameters accept k/m/g binary-size suffixes ("64k" = 65536,
// "1m" = 1048576). ParseSpec validates only the syntax; each backend's
// constructor rejects parameters it does not understand.
type Spec struct {
	// Name selects the registered backend.
	Name string

	keys []string
	vals map[string]string

	// DefaultSlots sizes slot-count parameters the spec omits. It is set by
	// the caller (the profiler from Config.SlotsPerWorker, the daemon from
	// the session's worker budget), not by ParseSpec; zero means the
	// backend's own built-in default applies.
	DefaultSlots int
}

func specNameOK(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// ParseSpec parses a backend spec string. Syntax errors (empty name, bad
// characters, duplicate or malformed parameters) are reported here; unknown
// backend names and unsupported parameters are the registry's and the
// backend constructor's business respectively.
func ParseSpec(s string) (Spec, error) {
	name, rest, has := strings.Cut(s, ":")
	if !specNameOK(name) {
		return Spec{}, fmt.Errorf("sig: bad backend spec %q: want name[:key=value,...]", s)
	}
	sp := Spec{Name: name}
	if !has {
		return sp, nil
	}
	if rest == "" {
		return Spec{}, fmt.Errorf("sig: bad backend spec %q: empty parameter list after %q", s, name+":")
	}
	sp.vals = make(map[string]string)
	for _, kv := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || !specNameOK(k) || !specNameOK(v) {
			return Spec{}, fmt.Errorf("sig: bad backend spec %q: parameter %q is not key=value", s, kv)
		}
		if _, dup := sp.vals[k]; dup {
			return Spec{}, fmt.Errorf("sig: bad backend spec %q: duplicate parameter %q", s, k)
		}
		sp.keys = append(sp.keys, k)
		sp.vals[k] = v
	}
	return sp, nil
}

// String renders the canonical spec form; ParseSpec(sp.String()) yields sp
// back (parameter order and values are preserved verbatim).
func (sp Spec) String() string {
	if len(sp.keys) == 0 {
		return sp.Name
	}
	var b strings.Builder
	b.WriteString(sp.Name)
	for i, k := range sp.keys {
		if i == 0 {
			b.WriteByte(':')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(sp.vals[k])
	}
	return b.String()
}

// Param returns the raw value of a parameter.
func (sp Spec) Param(key string) (string, bool) {
	v, ok := sp.vals[key]
	return v, ok
}

// Int returns an integer parameter, applying k/m/g binary suffixes, or def
// when the spec does not carry the key.
func (sp Spec) Int(key string, def int) (int, error) {
	raw, ok := sp.vals[key]
	if !ok {
		return def, nil
	}
	n, err := parseSize(raw)
	if err != nil {
		return 0, fmt.Errorf("sig: backend %s: parameter %s=%q: %v", sp.Name, key, raw, err)
	}
	return n, nil
}

// Only rejects any parameter outside the allowed set — how each backend
// constructor surfaces typos instead of silently ignoring them.
func (sp Spec) Only(allowed ...string) error {
	for _, k := range sp.keys {
		ok := false
		for _, a := range allowed {
			if k == a {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("sig: backend %s does not take parameter %q (allowed: %s)",
				sp.Name, k, strings.Join(allowed, ", "))
		}
	}
	return nil
}

// SlotsDefault is the slot default chain: Spec.DefaultSlots if the caller
// provided one, else the backend's built-in fallback. Exported for backend
// constructors registered from other packages.
func (sp Spec) SlotsDefault(fallback int) int {
	if sp.DefaultSlots > 0 {
		return sp.DefaultSlots
	}
	return fallback
}

// parseSize parses a non-negative integer with an optional k/m/g binary
// suffix (case-insensitive).
func parseSize(s string) (int, error) {
	shift := 0
	if n := len(s); n > 0 {
		switch s[n-1] {
		case 'k', 'K':
			shift, s = 10, s[:n-1]
		case 'm', 'M':
			shift, s = 20, s[:n-1]
		case 'g', 'G':
			shift, s = 30, s[:n-1]
		}
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("not a size (digits with optional k/m/g suffix)")
	}
	if v > (1<<62)>>shift {
		return 0, fmt.Errorf("size overflows")
	}
	return int(v << shift), nil
}

// Backend is one registered access-history store kind.
type Backend struct {
	// Name is the registry key and the spec's leading token.
	Name string
	// Exact reports whether the store is collision-free: no false positives
	// or negatives in the profile (perfect, shadow, hashtab; hybrid only on
	// its exact tier).
	Exact bool
	// Doc is a one-line description for flag help and the README matrix.
	Doc string
	// New builds a store from a parsed spec, rejecting parameters the
	// backend does not understand.
	New func(Spec) (Store, error)
	// EstimateBytes returns the store's worst-case footprint, the bound
	// admission control holds a session to: Bytes never exceeds it, however
	// much of the store the run touches. Zero means unbounded: the
	// footprint grows with the target's address footprint and cannot be
	// promised up front.
	EstimateBytes func(Spec) uint64
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]Backend)
)

// Register adds a backend to the registry; it panics on a duplicate or
// incomplete registration (registration is init-time wiring, not input).
func Register(b Backend) {
	if b.Name == "" || b.New == nil {
		panic("sig: Register: backend needs a Name and a New constructor")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[b.Name]; dup {
		panic("sig: Register: duplicate backend " + b.Name)
	}
	registry[b.Name] = b
}

// LookupBackend returns the backend registered under name.
func LookupBackend(name string) (Backend, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	b, ok := registry[name]
	return b, ok
}

// Backends lists the registered backends sorted by name.
func Backends() []Backend {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Backend, 0, len(registry))
	for _, b := range registry {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// BackendNames lists the registered backend names sorted; used by error
// messages and flag help.
func BackendNames() []string {
	bs := Backends()
	names := make([]string, len(bs))
	for i, b := range bs {
		names[i] = b.Name
	}
	return names
}

// OpenStore parses a spec string, resolves its backend and builds the store.
// defaultSlots sizes slot-count parameters the spec omits (0 = backend
// default); spec "" selects DefaultBackend.
func OpenStore(spec string, defaultSlots int) (Store, error) {
	if spec == "" {
		spec = DefaultBackend
	}
	sp, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	sp.DefaultSlots = defaultSlots
	b, ok := LookupBackend(sp.Name)
	if !ok {
		return nil, fmt.Errorf("sig: unknown store backend %q (registered: %s)",
			sp.Name, strings.Join(BackendNames(), ", "))
	}
	return b.New(sp)
}

// EstimateStoreBytes predicts one store's footprint under a spec for
// admission control. bounded is false when the backend cannot bound its
// growth (perfect, shadow, unbounded-tier hybrid).
func EstimateStoreBytes(spec string, defaultSlots int) (bytes uint64, bounded bool, err error) {
	if spec == "" {
		spec = DefaultBackend
	}
	sp, err := ParseSpec(spec)
	if err != nil {
		return 0, false, err
	}
	sp.DefaultSlots = defaultSlots
	b, ok := LookupBackend(sp.Name)
	if !ok {
		return 0, false, fmt.Errorf("sig: unknown store backend %q (registered: %s)",
			sp.Name, strings.Join(BackendNames(), ", "))
	}
	if b.EstimateBytes == nil {
		return 0, false, nil
	}
	n := b.EstimateBytes(sp)
	return n, n > 0, nil
}

// Promoter is implemented by stores with an exact heavy-hitter tier that can
// adopt an address on demand (the hybrid store). The producer seeds it with
// its Misra–Gries heavy hitters; the store also promotes worker-locally.
type Promoter interface {
	Promote(addr uint64)
}

// Tiered is implemented by stores that split state across an exact tier and
// an approximate tail, for per-tier telemetry and memory accounting.
type Tiered interface {
	// TierBytes returns the footprint of the exact tier and the signature
	// tail separately; their sum is Bytes().
	TierBytes() (exact, tail uint64)
	// ExactResident returns the number of addresses currently held exactly.
	ExactResident() int
}

// Tracker is implemented by stores that can maintain live Eq. (2) accuracy
// statistics (the Signature, and the hybrid store via its tail).
type Tracker interface {
	EnableTracking()
	Accuracy() (AccuracyStats, bool)
}

const slotBytes = 24 // three 64-bit words per Slot

func init() {
	Register(Backend{
		Name:  "signature",
		Exact: false,
		Doc:   "bounded slot store paged on first touch, one locality-preserving hash (§III-B); Eq. (2) collision rate",
		New: func(sp Spec) (Store, error) {
			if err := sp.Only("slots"); err != nil {
				return nil, err
			}
			slots, err := sp.Int("slots", sp.SlotsDefault(1<<20))
			if err != nil {
				return nil, err
			}
			if slots < 1 {
				return nil, fmt.Errorf("sig: backend signature: slots = %d; want >= 1", slots)
			}
			return NewSignature(slots), nil
		},
		EstimateBytes: func(sp Spec) uint64 {
			slots, err := sp.Int("slots", sp.SlotsDefault(1<<20))
			if err != nil || slots < 1 {
				return 0
			}
			return MaxSignatureBytes(slots)
		},
	})
	Register(Backend{
		Name:  "perfect",
		Exact: true,
		Doc:   "per-address map, the §VI-A ground truth; unbounded memory",
		New: func(sp Spec) (Store, error) {
			if err := sp.Only(); err != nil {
				return nil, err
			}
			return NewPerfectSignature(), nil
		},
	})
}
