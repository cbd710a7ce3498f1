package algebra

// The build side of an equi-join, one structure for the row and the batch
// HashJoin: the build rows in build order, indexed by a hash-chained table —
// head maps a 64-bit key hash to a chain of build rows, next links the chain
// in build order — so a probe row meets its matches in build order, the
// order the cross-join-plus-filter plan produced them in.
//
// Key equality is SQL `=` (value.Equal), exactly: numerics meet by their
// float64 value (1 = 1.0, -0.0 = 0.0, and ints beyond 2^53 as AsFloat
// rounds them), other kinds by kind and payload, and NULL and NaN meet
// nothing. Keys are therefore canonicalised before hashing: every numeric
// encodes as the float64 AsFloat gives (−0 as +0), everything else as
// value.Encode. One int key column whose values all lie within ±2^53 — where
// float64 is exact — skips the encoding: each value is its own hash, and a
// probe value maps to the int it equals, if any.

import (
	"bytes"
	"hash/maphash"
	"math"

	"maybms/internal/colbatch"
	"maybms/internal/expr"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

// maxExactInt bounds the ints float64 represents exactly: within ±2^53
// distinct ints stay distinct under AsFloat.
const maxExactInt = 1 << 53

// JoinTable is the hashed build side of a HashJoin. It is read-only once
// built, so one table may serve any number of concurrent probes
// (HashJoin.Build).
type JoinTable struct {
	rows    *colbatch.Batch // build rows, in build order
	seed    maphash.Seed
	arena   []byte   // canonical keys: row r's at arena[offs[r]:offs[r+1]]
	offs    []uint32 // unset in intMode
	head    map[uint64]chainMeta
	next    []int32
	intMode bool // one exact int key column: the key is its own hash
}

// chainMeta is a hash bucket: first and last build row of the chain.
type chainMeta struct{ head, tail int32 }

// BuildJoinTable drains op and hashes its rows on keys: the build side of a
// HashJoin, for a caller that shares one table across joins (HashJoin.Build).
// Like a join's own build it is a drain inside an operator, not a Collect, so
// it ticks no collect counter.
func BuildJoinTable(op Operator, keys []int, outer *expr.Context) (*JoinTable, error) {
	var rows *colbatch.Batch
	if b, _ := vectorize(op); b != nil {
		var err error
		if rows, err = drainToBatch(b, outer); err != nil {
			return nil, err
		}
	} else {
		tuples, err := drainRows(op, outer)
		if err != nil {
			return nil, err
		}
		rows = colbatch.FromRowsShared(op.Schema(), tuples)
	}
	return newJoinTable(rows, keys), nil
}

func newJoinTable(rows *colbatch.Batch, keys []int) *JoinTable {
	n := rows.Len()
	t := &JoinTable{rows: rows, seed: maphash.MakeSeed(), head: make(map[uint64]chainMeta, n), next: make([]int32, n)}
	var ints *colbatch.Col
	if len(keys) == 1 && !rows.RowBacked() {
		ints = rows.Col(keys[0])
		t.intMode = ints.Any == nil && ints.Kind == value.KindInt && exactInts(ints)
	}
	if !t.intMode {
		t.offs = make([]uint32, 1, n+1)
	}
	for i := 0; i < n; i++ {
		var h uint64
		if t.intMode {
			if ints.Null(i) {
				continue
			}
			h = uint64(ints.Ints[i])
		} else {
			start := len(t.arena)
			var ok bool
			if t.arena, ok = appendBatchKey(t.arena, rows, keys, i); !ok {
				t.arena = t.arena[:start]
			}
			t.offs = append(t.offs, uint32(len(t.arena)))
			if !ok {
				continue
			}
			h = maphash.Bytes(t.seed, t.arena[start:])
		}
		t.next[i] = -1
		if c, ok := t.head[h]; ok {
			t.next[c.tail] = int32(i)
			c.tail = int32(i)
			t.head[h] = c
		} else {
			t.head[h] = chainMeta{head: int32(i), tail: int32(i)}
		}
	}
	return t
}

// exactInts reports whether every cell of an int column lies within ±2^53
// (a NULL cell's payload is 0).
func exactInts(c *colbatch.Col) bool {
	for _, v := range c.Ints {
		if v < -maxExactInt || v > maxExactInt {
			return false
		}
	}
	return true
}

// appendKeyValue appends v's canonical key to dst; ok is false for NULL and
// NaN, which equal nothing.
func appendKeyValue(dst []byte, v value.Value) ([]byte, bool) {
	switch v.Kind() {
	case value.KindNull:
		return dst, false
	case value.KindInt, value.KindFloat:
		f := v.AsFloat()
		if f != f {
			return dst, false
		}
		if f == 0 {
			f = 0 // −0 = 0
		}
		u := math.Float64bits(f)
		return append(dst, byte(value.KindFloat), byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
			byte(u>>24), byte(u>>16), byte(u>>8), byte(u)), true
	}
	return v.Encode(dst), true
}

func appendBatchKey(dst []byte, b *colbatch.Batch, cols []int, i int) ([]byte, bool) {
	for _, j := range cols {
		var ok bool
		if dst, ok = appendKeyValue(dst, b.At(i, j)); !ok {
			return dst, false
		}
	}
	return dst, true
}

func appendTupleKey(dst []byte, t tuple.Tuple, cols []int) ([]byte, bool) {
	for _, j := range cols {
		var ok bool
		if dst, ok = appendKeyValue(dst, t[j]); !ok {
			return dst, false
		}
	}
	return dst, true
}

// intProbe maps a probe value to the exact int key it equals under =, if
// any.
func intProbe(v value.Value) (uint64, bool) {
	switch v.Kind() {
	case value.KindInt:
		if i := v.AsInt(); i >= -maxExactInt && i <= maxExactInt {
			return uint64(i), true
		}
		return floatProbe(v.AsFloat())
	case value.KindFloat:
		return floatProbe(v.AsFloat())
	}
	return 0, false
}

// floatProbe maps a float to the int within ±2^53 it equals, if any (NaN
// fails the range test).
func floatProbe(f float64) (uint64, bool) {
	if f >= -maxExactInt && f <= maxExactInt && f == math.Trunc(f) {
		return uint64(int64(f)), true
	}
	return 0, false
}

// chain returns the first build row hashed to h, or -1.
func (t *JoinTable) chain(h uint64) int32 {
	if c, ok := t.head[h]; ok {
		return c.head
	}
	return -1
}

// matches reports whether chain row r's key is the probe key: the chain holds
// every build row with the probe's hash, only byte-equal keys match. In
// intMode the hash is the exact key.
func (t *JoinTable) matches(r int32, key []byte) bool {
	return t.intMode || bytes.Equal(t.arena[t.offs[r]:t.offs[r+1]], key)
}

// probeTuple starts the chain walk for a probe tuple: it returns the probe's
// canonical key (in dst's storage) and the first candidate build row, -1 when
// nothing can match.
func (t *JoinTable) probeTuple(dst []byte, row tuple.Tuple, cols []int) ([]byte, int32) {
	if t.intMode {
		return dst, t.intChain(row[cols[0]])
	}
	key, ok := appendTupleKey(dst, row, cols)
	return key, t.keyChain(key, ok)
}

// probeBatch is probeTuple for row i of a batch whose key column, in
// intMode, is ints.
func (t *JoinTable) probeBatch(dst []byte, b *colbatch.Batch, cols []int, i int, ints *colbatch.Col) ([]byte, int32) {
	if t.intMode {
		if ints.Any == nil && ints.Kind == value.KindInt && (ints.Nulls == nil || !ints.Nulls[i]) {
			if v := ints.Ints[i]; v >= -maxExactInt && v <= maxExactInt {
				return dst, t.chain(uint64(v))
			}
		}
		return dst, t.intChain(ints.Value(i))
	}
	key, ok := appendBatchKey(dst, b, cols, i)
	return key, t.keyChain(key, ok)
}

func (t *JoinTable) intChain(v value.Value) int32 {
	if h, ok := intProbe(v); ok {
		return t.chain(h)
	}
	return -1
}

func (t *JoinTable) keyChain(key []byte, ok bool) int32 {
	if ok {
		return t.chain(maphash.Bytes(t.seed, key))
	}
	return -1
}
