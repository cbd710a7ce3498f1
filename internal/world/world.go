// Package world implements possible worlds: a world is a complete database
// instance (named relations) with an optional probability. World-sets (see
// internal/worldset) hold many worlds; the I-SQL engine evaluates every
// statement in each world independently.
package world

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"maybms/internal/relation"
)

// World is one possible state of the database. Relation names are
// case-insensitive; the display spelling of the first Put wins.
type World struct {
	// Name identifies the world for display; split operations derive child
	// names from the parent's ("w1" → "w1.2").
	Name string
	// Prob is the world's probability. It is meaningful only inside a
	// weighted world-set.
	Prob float64

	rels  map[string]*relation.Relation // keyed by lower-case name
	names map[string]string             // lower-case → display name
}

// New creates an empty world.
func New(name string) *World {
	return &World{
		Name:  name,
		rels:  make(map[string]*relation.Relation),
		names: make(map[string]string),
	}
}

// Put stores rel under name, replacing any previous relation with that name.
func (w *World) Put(name string, rel *relation.Relation) {
	key := strings.ToLower(name)
	if _, ok := w.rels[key]; !ok {
		w.names[key] = name
	}
	w.rels[key] = rel
}

// ErrUnknown is the cause of every Lookup of a relation the world does not
// hold.
var ErrUnknown = errors.New("relation does not exist")

// lookupError is a failed Lookup: it names the relation and the world, and
// unwraps to ErrUnknown.
type lookupError struct{ name, world string }

func (e lookupError) Error() string {
	return fmt.Sprintf("relation %q does not exist in world %s", e.name, e.world)
}

func (e lookupError) Unwrap() error { return ErrUnknown }

// Lookup returns the relation stored under name.
func (w *World) Lookup(name string) (*relation.Relation, error) {
	rel, ok := w.rels[strings.ToLower(name)]
	if !ok {
		return nil, lookupError{name: name, world: w.Name}
	}
	return rel, nil
}

// Has reports whether a relation exists under name.
func (w *World) Has(name string) bool {
	_, ok := w.rels[strings.ToLower(name)]
	return ok
}

// Drop removes the relation stored under name; it reports whether one
// existed.
func (w *World) Drop(name string) bool {
	key := strings.ToLower(name)
	if _, ok := w.rels[key]; !ok {
		return false
	}
	delete(w.rels, key)
	delete(w.names, key)
	return true
}

// Names returns the display names of all relations, sorted.
func (w *World) Names() []string {
	out := make([]string, 0, len(w.names))
	for _, n := range w.names {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of relations.
func (w *World) Len() int { return len(w.rels) }

// Clone returns a copy sharing the (immutable) relations but owning its
// name map, so Put/Drop on the copy never affect the original.
func (w *World) Clone(name string) *World {
	out := New(name)
	out.Prob = w.Prob
	for k, v := range w.rels {
		out.rels[k] = v
		out.names[k] = w.names[k]
	}
	return out
}

// Fingerprint is an order-insensitive hash of the world's contents: the set
// of (relation name, relation set-fingerprint) pairs. Probabilities and
// world names are excluded.
func (w *World) Fingerprint() uint64 {
	keys := make([]string, 0, len(w.rels))
	for k := range w.rels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%x;", k, w.rels[k].Fingerprint())
	}
	return h.Sum64()
}

// String renders the world header and all relations, for the REPL and the
// reproduction harness.
func (w *World) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "world %s", w.Name)
	b.WriteString("\n")
	for _, n := range w.Names() {
		rel, _ := w.Lookup(n)
		fmt.Fprintf(&b, "%s:\n%s", n, rel)
	}
	return b.String()
}
