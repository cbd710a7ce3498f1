// Package relation implements in-memory relations: a schema plus a bag of
// tuples. Relations support the set-level operations the possible-worlds
// engine needs — deduplication, union, intersection, difference, sorting,
// order-insensitive fingerprints — plus pretty printing and CSV I/O.
//
// A relation is its batch: a Relation is a schema and one colbatch.Batch,
// nothing else — no index or second copy of the rows is cached beside it.
// The batch holds the rows in whatever form colbatch picked for their
// number, and every operation here reads and builds batches without asking
// which form that is: a derived relation is one colbatch gather of the rows
// it keeps. A relation grows tuple by tuple (Append) only while it is being
// built. Rows materializes tuples on every call; outside tests only the CSV
// writer asks for them.
package relation

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"maybms/internal/colbatch"
	"maybms/internal/schema"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

// Relation is a schema plus a bag of tuples, stored as one batch. Engine
// operations treat relations as immutable after construction; Append is
// only used while building.
type Relation struct {
	Schema *schema.Schema

	store *colbatch.Batch // nil on a bare literal, read as empty
}

// ensure returns the batch, installing an empty one on a relation built as
// a bare literal.
func (r *Relation) ensure() *colbatch.Batch {
	if r.store == nil {
		r.store = colbatch.New(r.Schema)
	}
	return r.store
}

// New creates an empty relation with the given schema.
func New(s *schema.Schema) *Relation {
	return &Relation{Schema: s, store: colbatch.New(s)}
}

// FromRows builds a relation from a schema and rows, validating widths.
// The slice is copied; the tuples are shared.
func FromRows(s *schema.Schema, rows []tuple.Tuple) (*Relation, error) {
	for _, row := range rows {
		if len(row) != s.Len() {
			return nil, fmt.Errorf("relation: tuple width %d does not match schema %s", len(row), s)
		}
	}
	cp := make([]tuple.Tuple, len(rows))
	copy(cp, rows)
	return FromBatch(colbatch.FromRows(s, cp)), nil
}

// FromBatch wraps a batch as the relation, zero-copy. The batch must be
// treated as owned by the relation.
func FromBatch(b *colbatch.Batch) *Relation {
	return &Relation{Schema: b.Schema, store: b}
}

// Batch returns the relation's batch. Callers must treat it as immutable.
func (r *Relation) Batch() *colbatch.Batch {
	if r.store == nil {
		return colbatch.New(r.Schema)
	}
	return r.store
}

// Rows materializes the relation's tuples (colbatch.Batch.Rows). Callers
// must treat the returned tuples as immutable.
func (r *Relation) Rows() []tuple.Tuple {
	if r == nil || r.store == nil {
		return nil
	}
	return r.store.Rows()
}

// Append adds a tuple, checking its width against the schema.
func (r *Relation) Append(t tuple.Tuple) error {
	if len(t) != r.Schema.Len() {
		return fmt.Errorf("relation: tuple width %d does not match schema %s", len(t), r.Schema)
	}
	r.ensure().Append(t)
	return nil
}

// MustAppend is Append that panics; for fixtures and tests.
func (r *Relation) MustAppend(t tuple.Tuple) {
	if err := r.Append(t); err != nil {
		panic(err)
	}
}

// Len returns the number of tuples (bag cardinality).
func (r *Relation) Len() int {
	if r == nil || r.store == nil {
		return 0
	}
	return r.store.Len()
}

// Empty reports whether the relation has no tuples.
func (r *Relation) Empty() bool { return r.Len() == 0 }

// Clone returns a copy sharing r's data zero-copy behind a
// capacity-clamped slice, so appends to either copy reallocate instead of
// aliasing.
func (r *Relation) Clone() *Relation {
	b := r.Batch()
	return FromBatch(b.Slice(0, b.Len()))
}

// WithSchema returns a shallow view of r under a different schema of the
// same width (used for aliasing: from I i2). Appends through the view never
// reach back into r.
func (r *Relation) WithSchema(s *schema.Schema) *Relation {
	if s.Len() != r.Schema.Len() {
		panic(fmt.Sprintf("relation: WithSchema width mismatch %d vs %d", s.Len(), r.Schema.Len()))
	}
	return FromBatch(r.Batch().WithSchema(s))
}

// Distinct returns the set version of r: duplicates removed, first
// occurrence order preserved, assembled by gather.
func (r *Relation) Distinct() *Relation {
	b := r.Batch()
	n := b.Len()
	seen := make(map[string]struct{}, n)
	var buf []byte
	sel := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		// One scratch buffer for all rows; the string(buf) lookup does not
		// allocate, and the key string is materialized only on first
		// occurrence.
		buf = b.AppendKey(buf[:0], i)
		if _, ok := seen[string(buf)]; ok {
			continue
		}
		seen[string(buf)] = struct{}{}
		sel = append(sel, int32(i))
	}
	return r.gather(sel)
}

// gather returns r's rows at sel as a relation under r's schema.
func (r *Relation) gather(sel []int32) *Relation {
	out := r.Batch().Gather(sel)
	out.Schema = r.Schema
	return FromBatch(out)
}

// Sort returns a copy of r with tuples in canonical order (tuple.Compare).
func (r *Relation) Sort() *Relation {
	b := r.Batch()
	w := b.Width()
	perm := make([]int32, b.Len())
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(x, y int) bool {
		i, j := int(perm[x]), int(perm[y])
		for c := 0; c < w; c++ {
			if d := value.Compare(b.At(i, c), b.At(j, c)); d != 0 {
				return d < 0
			}
		}
		return false
	})
	return r.gather(perm)
}

// Fingerprint returns an order-insensitive hash of the deduplicated tuple
// set. Two relations have equal fingerprints iff they are equal as sets
// (up to hash collisions; tuples are canonically encoded and sorted before
// hashing, so collisions require FNV collisions).
func (r *Relation) Fingerprint() uint64 {
	// Encode every row into one arena, sort offset indexes by encoded
	// bytes, and stream the unique keys straight into the hash — the same
	// byte stream FingerprintKeys hashes, with no per-tuple key strings and
	// no tuple materialization on a columnar store.
	b := r.Batch()
	n := b.Len()
	arena := make([]byte, 0, n*16)
	offs := make([]int32, n+1)
	for i := 0; i < n; i++ {
		arena = b.AppendKey(arena, i)
		offs[i+1] = int32(len(arena))
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	seg := func(i int32) []byte { return arena[offs[i]:offs[i+1]] }
	sort.Slice(idx, func(a, b int) bool { return bytes.Compare(seg(idx[a]), seg(idx[b])) < 0 })
	h := fnv.New64a()
	var num [24]byte
	var prev []byte
	first := true
	for _, id := range idx {
		s := seg(id)
		if !first && bytes.Equal(s, prev) {
			continue
		}
		first = false
		prev = s
		pre := strconv.AppendInt(num[:0], int64(len(s)), 10)
		pre = append(pre, ':')
		h.Write(pre)
		h.Write(s)
	}
	return h.Sum64()
}

// CanonicalKeyBytes encodes an already deduplicated, already sorted list
// of canonical tuple keys as the byte stream Fingerprint hashes: each key
// length-prefixed so concatenations stay injective. It is the single
// source of the encoding — FingerprintKeys hashes it, and the compact
// engine's group-worlds-by frontier uses it both to deduplicate answer
// sets and to fingerprint them, so the two can never desynchronize.
func CanonicalKeyBytes(sortedKeys []string) []byte {
	n := 0
	for _, k := range sortedKeys {
		n += len(k) + 12
	}
	out := make([]byte, 0, n)
	for _, k := range sortedKeys {
		out = strconv.AppendInt(out, int64(len(k)), 10)
		out = append(out, ':')
		out = append(out, k...)
	}
	return out
}

// FingerprintKeys hashes an already deduplicated, already sorted list of
// canonical tuple keys — the byte stream underlying Fingerprint, exposed
// so the compact engine can fingerprint a tuple-key set it assembled
// without materializing a Relation (group-worlds-by combines per-component
// answer key sets and must produce the same uint64, collisions included,
// that the naive engine gets from Fingerprint on the evaluated answer).
func FingerprintKeys(sortedKeys []string) uint64 {
	h := fnv.New64a()
	h.Write(CanonicalKeyBytes(sortedKeys))
	return h.Sum64()
}

// EqualSet reports whether r and s contain the same set of tuples
// (duplicates and order ignored). Schemas are not compared.
func (r *Relation) EqualSet(s *Relation) bool {
	a := keySet(r)
	b := keySet(s)
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

func keySet(r *Relation) map[string]struct{} {
	b := r.Batch()
	n := b.Len()
	out := make(map[string]struct{}, n)
	var buf []byte
	for i := 0; i < n; i++ {
		buf = b.AppendKey(buf[:0], i)
		if _, ok := out[string(buf)]; !ok {
			out[string(buf)] = struct{}{}
		}
	}
	return out
}

// Intersect returns the set intersection of r and s, in r's first-
// appearance order. r's schema is kept.
func Intersect(r, s *Relation) *Relation {
	in := keySet(s)
	b := r.Batch()
	seen := map[string]struct{}{}
	var sel []int32
	var buf []byte
	for i := 0; i < b.Len(); i++ {
		buf = b.AppendKey(buf[:0], i)
		if _, dup := seen[string(buf)]; dup {
			continue
		}
		if _, ok := in[string(buf)]; ok {
			sel = append(sel, int32(i))
			seen[string(buf)] = struct{}{}
		}
	}
	return r.gather(sel)
}

// String renders the relation as an aligned ASCII table, rows in canonical
// order, suitable for the REPL and the reproduction harness.
func (r *Relation) String() string { return r.Sort().table() }

// StoredString renders like String with the rows in stored order: for an
// answer whose order is the statement's (ORDER BY).
func (r *Relation) StoredString() string { return r.table() }

// table renders r's rows in stored order under its schema.
func (r *Relation) table() string {
	var b strings.Builder
	names := r.Schema.Names()
	widths := make([]int, len(names))
	for i, n := range names {
		widths[i] = len(n)
	}
	rows := r.Batch()
	cells := make([][]string, rows.Len())
	for i := range cells {
		cells[i] = make([]string, rows.Width())
		for j := range cells[i] {
			s := rows.At(i, j).String()
			cells[i][j] = s
			if len(s) > widths[j] {
				widths[j] = len(s)
			}
		}
	}
	writeRow := func(row []string) {
		for j, c := range row {
			if j > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if j < len(row)-1 { // no trailing padding on the last column
				b.WriteString(strings.Repeat(" ", widths[j]-len(c)))
			}
		}
		b.WriteString("\n")
	}
	writeRow(names)
	sep := make([]string, len(names))
	for j := range sep {
		sep[j] = strings.Repeat("-", widths[j])
	}
	writeRow(sep)
	for _, row := range cells {
		writeRow(row)
	}
	if len(cells) == 0 {
		b.WriteString("(empty)\n")
	}
	return b.String()
}
