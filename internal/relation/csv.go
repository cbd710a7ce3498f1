package relation

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"maybms/internal/colbatch"
	"maybms/internal/schema"
	"maybms/internal/value"
)

// csvBufSize is the size of the one buffer ReadCSV reads its input through.
const csvBufSize = 64 << 10

// chunkRows is the number of rows whose TEXT cells share one string arena.
const chunkRows = 1024

// The ways a CSV record can be malformed.
var (
	errFieldCount = errors.New("wrong number of fields")
	errBareQuote  = errors.New(`bare " in non-quoted field`)
	errQuote      = errors.New(`extraneous or missing " in quoted-field`)
)

// ReadCSV loads a relation from RFC 4180 CSV, read as encoding/csv reads it
// with TrimLeadingSpace: fields split at commas, double-quoted fields may
// hold commas, `""` escapes and newlines, a \r\n line end reads as \n,
// blank lines are skipped, and a field's leading white space is dropped.
// The first record is the header and becomes the (unqualified) schema;
// every other record must have as many fields. Field values are
// interpreted with value.Parse (NULL, booleans, numbers, else text).
//
// The input streams through one fixed buffer and each field is split in
// place and appended straight into its column's typed vector: a plain
// decimal integer is parsed without building a value, and the TEXT cells
// of each chunk of chunkRows rows are copied into one string arena, so a
// load allocates per column and per chunk, never per row or per cell, and
// a cell pins no bytes but its chunk's text. When r can tell how many bytes
// it holds (a file, an in-memory reader), the columns are sized from the
// bytes per row read so far instead of growing as cells arrive. The
// relation is backed by the assembled columnar batch; rows, if a caller
// ever asks for them, materialize lazily from one slab.
func ReadCSV(r io.Reader) (*Relation, error) {
	left := bytesLeft(r)
	cr := csvReader{in: bufio.NewReaderSize(r, csvBufSize)}
	var header []string
	if _, err := cr.next(func(_ int, f []byte) error {
		header = append(header, string(f))
		return nil
	}); err != nil {
		return nil, fmt.Errorf("relation: reading CSV header: %w", err)
	}
	sch := schema.New(header...)
	l := newColumnLoader(len(header))
	add := l.add
	for {
		n, err := cr.next(add)
		if err == io.EOF {
			break
		}
		if err == nil && n != l.width {
			err = errFieldCount
		}
		if err != nil {
			return nil, fmt.Errorf("relation: reading CSV row: line %d: %w", cr.line, err)
		}
		l.endRow()
		if l.rows%chunkRows == 0 && left > 0 {
			l.size(int(float64(left) / float64(cr.read) * float64(l.rows)))
		}
	}
	l.flush()
	cols := make([]colbatch.Col, l.width)
	for i := range l.cols {
		cols[i] = l.cols[i].Col()
	}
	return FromBatch(colbatch.FromCols(sch, cols, l.rows)), nil
}

// csvReader splits CSV records into fields.
type csvReader struct {
	in     *bufio.Reader
	long   []byte // a line longer than in's buffer, spliced together
	quoted []byte // the unescaped bytes of a quoted field that needed them
	line   int    // lines read so far
	read   int64  // bytes read so far
}

// bytesLeft returns the number of bytes r has left to read when it can tell
// — a regular file, or an in-memory reader — else 0.
func bytesLeft(r io.Reader) int64 {
	switch r := r.(type) {
	case interface{ Len() int }:
		return int64(r.Len())
	case *os.File:
		fi, err := r.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return 0
		}
		off, err := r.Seek(0, io.SeekCurrent)
		if err != nil {
			return 0
		}
		return fi.Size() - off
	}
	return 0
}

// readLine returns the next line with its '\n', valid until the next call:
// a \r\n end reads as \n, and a \r before the end of input is dropped. It
// returns io.EOF only when nothing is left.
func (cr *csvReader) readLine() ([]byte, error) {
	line, err := cr.in.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		cr.long = append(cr.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = cr.in.ReadSlice('\n')
			cr.long = append(cr.long, line...)
		}
		line = cr.long
	}
	cr.read += int64(len(line))
	if len(line) > 0 && err == io.EOF {
		err = nil
		if line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
	}
	cr.line++
	if n := len(line); n >= 2 && line[n-2] == '\r' && line[n-1] == '\n' {
		line[n-2] = '\n'
		line = line[:n-1]
	}
	return line, err
}

// next reads the next record, skipping blank lines, and hands its fields to
// emit in order; a field is valid only during its call. It returns the
// record's field count, or io.EOF when no record is left.
func (cr *csvReader) next(emit func(j int, field []byte) error) (int, error) {
	line, err := cr.readLine()
	for err == nil && len(line) == lengthNL(line) {
		line, err = cr.readLine()
	}
	if err != nil {
		return 0, err
	}
	for j := 0; ; j++ {
		line = trimLeadingSpace(line)
		var field []byte
		more := true
		if len(line) > 0 && line[0] == '"' {
			if field, line, more, err = cr.quotedField(line[1:]); err != nil {
				return j, err
			}
		} else {
			// Fields are short: one pass over the bytes finds the comma
			// and any bare quote.
			i := 0
			for i < len(line) && line[i] != ',' && line[i] != '"' {
				i++
			}
			if i < len(line) && line[i] == '"' {
				return j, errBareQuote
			}
			if i == len(line) {
				i, more = len(line)-lengthNL(line), false
			}
			field, line = line[:i], line[min(i+1, len(line)):]
		}
		if err := emit(j, field); err != nil {
			return j, err
		}
		if !more {
			return j + 1, nil
		}
	}
}

// quotedField reads a quoted field from line, which starts just past its
// opening quote, reading on over line ends until the closing quote. It
// returns the unescaped field, the rest of the line after the field's
// comma, and whether the record goes on after the field. A field on one
// line with no `""` is returned in place.
func (cr *csvReader) quotedField(line []byte) (field, rest []byte, more bool, err error) {
	cr.quoted = cr.quoted[:0]
	for {
		i := bytes.IndexByte(line, '"')
		if i < 0 {
			if len(line) == 0 {
				return nil, nil, false, errQuote
			}
			cr.quoted = append(cr.quoted, line...)
			if line, err = cr.readLine(); err != nil && err != io.EOF {
				return nil, nil, false, err
			}
			continue
		}
		seg := line[:i]
		line = line[i+1:]
		if len(line) > 0 && line[0] == '"' {
			cr.quoted = append(append(cr.quoted, seg...), '"')
			line = line[1:]
			continue
		}
		field = seg
		if len(cr.quoted) > 0 {
			cr.quoted = append(cr.quoted, seg...)
			field = cr.quoted
		}
		switch {
		case len(line) > 0 && line[0] == ',':
			return field, line[1:], true, nil
		case len(line) == lengthNL(line):
			return field, nil, false, nil
		}
		return nil, nil, false, errQuote
	}
}

// lengthNL returns the length of b's trailing '\n': 1 or 0.
func lengthNL(b []byte) int {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return 1
	}
	return 0
}

// trimLeadingSpace drops b's leading unicode.IsSpace runes.
func trimLeadingSpace(b []byte) []byte {
	for len(b) > 0 {
		if c := b[0]; c < utf8.RuneSelf {
			if c != ' ' && (c < '\t' || c > '\r') {
				return b
			}
			b = b[1:]
			continue
		}
		r, size := utf8.DecodeRune(b)
		if !unicode.IsSpace(r) {
			return b
		}
		b = b[size:]
	}
	return b
}

// columnLoader appends fields straight to typed columns. A TEXT cell is
// appended as "" and its bytes wait in arena until the chunk of rows ends,
// when flush turns the arena into one string and sets each TEXT cell to its
// slice of it.
type columnLoader struct {
	width int
	cols  []colbatch.ColBuilder
	text  []textCell // the chunk's TEXT cells
	arena []byte     // their bytes
	rows  int        // rows loaded
	room  int        // rows the columns were last sized for
}

// A textCell is a TEXT cell waiting for its chunk's string: its column, its
// row, and where its bytes lie in the arena.
type textCell struct {
	col, row, start, end int
}

func newColumnLoader(width int) *columnLoader {
	return &columnLoader{width: width, cols: make([]colbatch.ColBuilder, width)}
}

// add appends field j of the current row, parsed as value.Parse parses it.
func (l *columnLoader) add(j int, f []byte) error {
	if j >= l.width {
		return errFieldCount
	}
	b := &l.cols[j]
	if x, ok := plainInt(f); ok {
		b.AppendInt(x)
		return nil
	}
	// The string lives only for the call: Parse keeps its input only in the
	// TEXT value it returns, and that one is copied to the arena instead.
	v := value.Parse(unsafe.String(unsafe.SliceData(f), len(f)))
	if v.Kind() != value.KindString {
		b.Append(v)
		return nil
	}
	start := len(l.arena)
	l.arena = append(l.arena, f...)
	l.text = append(l.text, textCell{col: j, row: l.rows, start: start, end: len(l.arena)})
	b.AppendStr("")
	return nil
}

// size makes room in the columns, when the next chunk would not fit, for
// the est rows the input is estimated to hold, with a sixteenth to spare,
// but at most eightfold at a time: rows longer than the first ones must not
// reserve memory the input cannot fill.
func (l *columnLoader) size(est int) {
	if l.rows+chunkRows <= l.room {
		return
	}
	l.room = max(min(est+est/16, 8*l.rows), l.rows+chunkRows)
	for j := range l.cols {
		l.cols[j].Grow(l.room - l.rows)
	}
}

// endRow ends the current row, flushing a full chunk.
func (l *columnLoader) endRow() {
	if l.rows++; l.rows%chunkRows == 0 {
		l.flush()
	}
}

// flush sets the chunk's TEXT cells, slicing one string.
func (l *columnLoader) flush() {
	arena := string(l.arena)
	for _, t := range l.text {
		l.cols[t.col].SetStr(t.row, arena[t.start:t.end])
	}
	l.text, l.arena = l.text[:0], l.arena[:0]
}

// plainInt parses f when it is a plain decimal integer — an optional sign
// and 1 to 18 digits, which cannot overflow — to the value value.Parse
// gives it.
func plainInt(f []byte) (int64, bool) {
	neg := false
	if len(f) > 0 && (f[0] == '-' || f[0] == '+') {
		neg, f = f[0] == '-', f[1:]
	}
	if len(f) == 0 || len(f) > 18 {
		return 0, false
	}
	var x int64
	for _, c := range f {
		if c < '0' || c > '9' {
			return 0, false
		}
		x = x*10 + int64(c-'0')
	}
	if neg {
		x = -x
	}
	return x, true
}
