package vocab

import (
	"fmt"
	"sort"
	"sync"
)

// Registry maps vocabulary prefixes to vocabularies, mirroring the
// paper's "the notation X:x expresses that the meaning of the concept x
// can be found by using the prefix X" (§III-A). It is safe for
// concurrent use.
type Registry struct {
	mu     sync.RWMutex
	m      map[string]*Vocabulary
	frozen bool
}

// NewRegistry returns a registry holding the given vocabularies.
// It panics on duplicate prefixes (a programming error in static setup).
func NewRegistry(vs ...*Vocabulary) *Registry {
	r := &Registry{m: make(map[string]*Vocabulary, len(vs))}
	for _, v := range vs {
		if err := r.Register(v); err != nil {
			panic(err)
		}
	}
	return r
}

// Register adds a vocabulary; it fails if the prefix is already taken
// or the registry is frozen.
func (r *Registry) Register(v *Vocabulary) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.frozen {
		return fmt.Errorf("vocab: registry is frozen (a metric was built over it); register %q before building", v.prefix)
	}
	if _, dup := r.m[v.prefix]; dup {
		return fmt.Errorf("vocab: prefix %q already registered", v.prefix)
	}
	r.m[v.prefix] = v
	return nil
}

// Freeze makes the registry read-only: every later Register fails.
// semdist.New freezes the registry it is given, because a metric (and
// every embedding built under it) resolves terms against the
// vocabularies present at that point; a vocabulary added afterwards
// would change how stored and new triples compare.
func (r *Registry) Freeze() {
	r.mu.Lock()
	r.frozen = true
	r.mu.Unlock()
}

// Get returns the vocabulary registered under prefix.
func (r *Registry) Get(prefix string) (*Vocabulary, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.m[prefix]
	return v, ok
}

// Prefixes returns all registered prefixes in sorted order.
func (r *Registry) Prefixes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.m))
	for p := range r.m {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
