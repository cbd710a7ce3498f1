// Package relation implements in-memory relations: a schema plus a bag of
// tuples. Relations support the set-level operations the possible-worlds
// engine needs — deduplication, union, intersection, difference, sorting,
// order-insensitive fingerprints — plus pretty printing and CSV I/O.
//
// Storage invariant: the batch is the truth, rows are a view. A Relation is
// backed by a colbatch.Batch — columnar when built by the bulk loaders and
// closure builders (FromBatch), row-backed when built tuple-at-a-time (New,
// FromRows, Append) — and Rows() materializes tuple.Tuple views lazily, once,
// only when a row path asks. The vectorized read path (Batch, BatchView),
// the key-encoding paths (Distinct, Fingerprint, Contains) and both
// engines' UPDATE/DELETE (plan's BoundDML.Apply over BatchView) never touch
// tuples on a columnar-backed relation: an UPDATE's result is columnar
// again (FromBatch), sharing its untouched columns with its input.
package relation

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"maybms/internal/colbatch"
	"maybms/internal/schema"
	"maybms/internal/tuple"
)

// Relation is a schema plus a bag of tuples backed by a columnar or
// row-backed batch. Most engine operations treat relations as immutable
// after construction; Append is only used while building.
//
// Lazily built caches ride along: a materialized row view (Rows), a columnar
// view for row-backed stores (Batch) and an encoded-key set (Contains). All
// are validated by tuple count, so appending after a cached read rebuilds
// them; they are safe for concurrent readers.
type Relation struct {
	Schema *schema.Schema

	store *colbatch.Batch // the truth; nil means empty

	rows atomic.Pointer[rowsView]       // lazy row view of a columnar store
	col  atomic.Pointer[colbatch.Batch] // lazy columnar view of a row-backed store
	keys atomic.Pointer[keyIndex]
}

type rowsView struct {
	n    int
	rows []tuple.Tuple
}

type keyIndex struct {
	n   int
	set map[string]struct{}
}

// ensure returns the backing store, installing an empty row-backed one on a
// relation built as a bare literal.
func (r *Relation) ensure() *colbatch.Batch {
	if r.store == nil {
		r.store = colbatch.FromRowsShared(r.Schema, make([]tuple.Tuple, 0))
	}
	return r.store
}

// New creates an empty relation with the given schema. The store starts
// row-backed, so tuple-at-a-time building stays allocation-cheap.
func New(s *schema.Schema) *Relation {
	return &Relation{Schema: s, store: colbatch.FromRowsShared(s, make([]tuple.Tuple, 0))}
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
	return &Relation{Schema: s, store: colbatch.FromRowsShared(s, cp)}, nil
}

// FromRowsShared wraps already materialized rows as a row-backed relation
// without copying: the relation takes ownership of the slice.
func FromRowsShared(s *schema.Schema, rows []tuple.Tuple) *Relation {
	return &Relation{Schema: s, store: colbatch.FromRowsShared(s, rows)}
}

// FromBatch wraps a batch as the relation's backing store, zero-copy. The
// batch (columnar or row-backed) must be treated as owned by the relation.
func FromBatch(b *colbatch.Batch) *Relation {
	return &Relation{Schema: b.Schema, store: b}
}

// Batch returns a columnar view of the relation. For a columnar-backed
// relation this is the store itself (identity, zero-copy); for a row-backed
// one the columnar view is built and cached on first use. The view is valid
// as long as the tuple count is unchanged; callers must treat it as
// immutable.
func (r *Relation) Batch() *colbatch.Batch {
	if r.store == nil {
		return colbatch.New(r.Schema)
	}
	if !r.store.RowBacked() {
		return r.store
	}
	if b := r.mirror(); b != nil {
		return b
	}
	b := colbatch.FromRows(r.Schema, r.store.Rows())
	r.col.Store(b)
	return b
}

// mirror returns the valid cached columnar view of a row-backed store, or
// nil when there is none.
func (r *Relation) mirror() *colbatch.Batch {
	if b := r.col.Load(); b != nil && b.Len() == r.store.Len() {
		return b
	}
	return nil
}

// BatchView returns a batch over the relation's contents without ever
// columnarizing: the store itself when columnar, the cached columnar view
// when one is valid, else the row-backed store as-is. Key-encoding
// consumers (Distinct, the worldset closures) read typed columns
// when available and fall back to tuple encoding otherwise, with identical
// bytes.
func (r *Relation) BatchView() *colbatch.Batch {
	if r.store == nil {
		return colbatch.FromRowsShared(r.Schema, nil)
	}
	if !r.store.RowBacked() {
		return r.store
	}
	if b := r.mirror(); b != nil {
		return b
	}
	return r.store
}

// Rows returns the relation's tuples as a row view. For a row-backed store
// this is the underlying slice (free); for a columnar store the rows are
// materialized once (one slab) and cached. Callers must treat the returned
// tuples as immutable and must not append through the returned slice.
func (r *Relation) Rows() []tuple.Tuple {
	if r == nil || r.store == nil {
		return nil
	}
	if r.store.RowBacked() {
		return r.store.Rows()
	}
	n := r.store.Len()
	if v := r.rows.Load(); v != nil && v.n == n {
		return v.rows
	}
	rows := r.store.Rows()
	r.rows.Store(&rowsView{n: n, rows: rows})
	return rows
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

// AppendRow adds a tuple without a width check — the builder fast path for
// callers that constructed the tuple against the schema already.
func (r *Relation) AppendRow(t tuple.Tuple) {
	r.ensure().Append(t)
}

// AppendRows bulk-appends tuples without width checks.
func (r *Relation) AppendRows(ts []tuple.Tuple) {
	b := r.ensure()
	for _, t := range ts {
		b.Append(t)
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

// Clone returns a deep-enough copy. A row-backed store's tuple slice is
// copied (the tuples themselves are immutable and shared); a columnar store
// is shared zero-copy behind a capacity-clamped slice, so appends to either
// copy reallocate instead of aliasing.
func (r *Relation) Clone() *Relation {
	if r.store == nil {
		return New(r.Schema)
	}
	if r.store.RowBacked() {
		src := r.store.Rows()
		cp := make([]tuple.Tuple, len(src))
		copy(cp, src)
		return FromRowsShared(r.Schema, cp)
	}
	return &Relation{Schema: r.Schema, store: r.store.Slice(0, r.store.Len())}
}

// WithSchema returns a shallow view of r under a different schema of the
// same width (used for aliasing: from I i2).
func (r *Relation) WithSchema(s *schema.Schema) *Relation {
	if s.Len() != r.Schema.Len() {
		panic(fmt.Sprintf("relation: WithSchema width mismatch %d vs %d", s.Len(), r.Schema.Len()))
	}
	if r.store == nil {
		return New(s)
	}
	// Slice(0, n) gives a capacity-clamped view with its own column headers,
	// so appends through the view never reach back into r.
	b := r.store.Slice(0, r.store.Len())
	b.Schema = s
	return &Relation{Schema: s, store: b}
}

// Distinct returns the set version of r: duplicates removed, first
// occurrence order preserved. On a columnar-backed relation the result is
// assembled by gather, without touching tuples.
func (r *Relation) Distinct() *Relation {
	bv := r.BatchView()
	n := bv.Len()
	seen := make(map[string]struct{}, n)
	var buf []byte
	sel := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		// One scratch buffer for all rows — encoded from typed columns when
		// the store is columnar; the string(buf) lookup does not allocate,
		// and the key string is materialized only on first occurrence.
		buf = bv.AppendKey(buf[:0], i)
		if _, ok := seen[string(buf)]; ok {
			continue
		}
		seen[string(buf)] = struct{}{}
		sel = append(sel, int32(i))
	}
	if bv.RowBacked() {
		rows := bv.Rows()
		out := make([]tuple.Tuple, len(sel))
		for i, s := range sel {
			out[i] = rows[s]
		}
		return FromRowsShared(r.Schema, out)
	}
	b := bv.Gather(sel)
	b.Schema = r.Schema
	return FromBatch(b)
}

// Contains reports whether r contains a tuple equal to t. The encoded-key
// set is built lazily on first use and reused while the tuple count is
// unchanged, so repeated membership tests are O(1) instead of a scan that
// re-encodes every candidate.
func (r *Relation) Contains(t tuple.Tuple) bool {
	idx := r.keys.Load()
	if idx == nil || idx.n != r.Len() {
		bv := r.BatchView()
		n := bv.Len()
		set := make(map[string]struct{}, n)
		var buf []byte
		for i := 0; i < n; i++ {
			buf = bv.AppendKey(buf[:0], i)
			if _, ok := set[string(buf)]; !ok {
				set[string(buf)] = struct{}{}
			}
		}
		idx = &keyIndex{n: n, set: set}
		r.keys.Store(idx)
	}
	buf := t.Encode(make([]byte, 0, 48))
	_, ok := idx.set[string(buf)]
	return ok
}

// Sort returns a copy of r with tuples in canonical order.
func (r *Relation) Sort() *Relation {
	src := r.Rows()
	out := make([]tuple.Tuple, len(src))
	copy(out, src)
	sort.SliceStable(out, func(i, j int) bool {
		return tuple.Compare(out[i], out[j]) < 0
	})
	return FromRowsShared(r.Schema, out)
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
	bv := r.BatchView()
	n := bv.Len()
	arena := make([]byte, 0, n*16)
	offs := make([]int32, n+1)
	for i := 0; i < n; i++ {
		arena = bv.AppendKey(arena, i)
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
	bv := r.BatchView()
	n := bv.Len()
	out := make(map[string]struct{}, n)
	var buf []byte
	for i := 0; i < n; i++ {
		buf = bv.AppendKey(buf[:0], i)
		if _, ok := out[string(buf)]; !ok {
			out[string(buf)] = struct{}{}
		}
	}
	return out
}

// Intersect returns the set intersection of r and s. r's schema is kept.
func Intersect(r, s *Relation) *Relation {
	b := keySet(s)
	var out []tuple.Tuple
	seen := map[string]struct{}{}
	var buf []byte
	for _, t := range r.Rows() {
		buf = t.Encode(buf[:0])
		if _, dup := seen[string(buf)]; dup {
			continue
		}
		if _, ok := b[string(buf)]; ok {
			out = append(out, t)
			seen[string(buf)] = struct{}{}
		}
	}
	return FromRowsShared(r.Schema, out)
}

// GroupBy partitions the tuples by their values on the given column indexes.
// It returns the distinct group keys in first-appearance order and a map
// from group key to member tuples.
func (r *Relation) GroupBy(indexes []int) (order []string, groups map[string][]tuple.Tuple) {
	// Group membership is accumulated positionally (index map → slice) so
	// the per-row map writes use the no-allocation string(buf) lookup; key
	// strings are materialized once per distinct group.
	idx := make(map[string]int)
	var members [][]tuple.Tuple
	var buf []byte
	bv := r.BatchView()
	rows := r.Rows()
	for i, t := range rows {
		buf = bv.AppendKeyOn(buf[:0], indexes, i)
		gi, ok := idx[string(buf)]
		if !ok {
			k := string(buf)
			gi = len(members)
			idx[k] = gi
			order = append(order, k)
			members = append(members, nil)
		}
		members[gi] = append(members[gi], t)
	}
	groups = make(map[string][]tuple.Tuple, len(order))
	for gi, k := range order {
		groups[k] = members[gi]
	}
	return order, groups
}

// String renders the relation as an aligned ASCII table, rows in canonical
// order, suitable for the REPL and the reproduction harness.
func (r *Relation) String() string { return r.table(r.Sort().Rows()) }

// StoredString renders like String with the rows in stored order: for an
// answer whose order is the statement's (ORDER BY).
func (r *Relation) StoredString() string { return r.table(r.Rows()) }

// table renders rows under r's schema.
func (r *Relation) table(rows []tuple.Tuple) string {
	var b strings.Builder
	names := r.Schema.Names()
	widths := make([]int, len(names))
	for i, n := range names {
		widths[i] = len(n)
	}
	cells := make([][]string, len(rows))
	for i, t := range rows {
		cells[i] = make([]string, len(t))
		for j, v := range t {
			s := v.String()
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
