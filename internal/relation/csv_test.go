package relation

import (
	"bytes"
	"encoding/csv"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"maybms/internal/tuple"
	"maybms/internal/value"
)

// oracleReadCSV is the loader ReadCSV replaced: encoding/csv with
// TrimLeadingSpace, and value.Parse per field. It returns the header and
// the parsed rows.
func oracleReadCSV(r io.Reader) ([]string, []tuple.Tuple, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, nil, err
	}
	var rows []tuple.Tuple
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return header, rows, nil
		}
		if err != nil {
			return nil, nil, err
		}
		t := make(tuple.Tuple, len(rec))
		for i, f := range rec {
			t[i] = value.Parse(f)
		}
		rows = append(rows, t)
	}
}

// FuzzReadCSV checks ReadCSV against oracleReadCSV (checkReadCSV) on any
// input, read whole and one byte per Read so that every buffer boundary is
// crossed.
func FuzzReadCSV(f *testing.F) {
	for _, s := range loadCSVSeeds {
		f.Add(s.csv)
	}
	for _, s := range []string{
		"0,0,0",
		",0,1\n0,,",
		"A,B\n\"x,y\",1\n\"say \"\"hi\"\"\",2\n",
		"A,B\n\"two\nlines\",1\n\"three\r\nmore\nlines\",\"\"\n",
		"A,B\r\n1,2\r\n3,4\r\n",
		"A,B\n\n1,2\n\n\n3,4\n\n",
		"A,B\n\u00a01,\t2\n \u00a0 x,\v\f\"q\"\n",
		"A,B\n\u0085 1,\u00a0\"q\"\n\xa0w,\xc2\n",
		"A,B\n1,2,3\n",
		"A,B\n1\n",
		"A,B\na\"b,1\n",
		"A,B\n\"a\"b,1\n",
		"A,B\n\"open,1\n",
		"A,B\n1,2",
		"A,B\n1,2\r",
		"A,B,C\n+Inf,-Inf,NaN\n1e5,-0,+7\n1234567890123456789,-9223372036854775808,99999999999999999999\n9999999999999999999,-9223372036854775809,+0999999999999999999\n",
		"A\n\n \n",
		"A,B\nnull,TRUE\nNULL,false\n\"\",x\n",
		"A,B\n1,x\n2.5,y\ntrue,z\n",
	} {
		f.Add(s)
	}
	f.Fuzz(checkReadCSV)
}

// TestReadCSVBoundaries checks ReadCSV against oracleReadCSV where a file
// outgrows the reader's buffer and its chunks: a line longer than the
// buffer, a quoted field across it, and TEXT cells over several chunks.
func TestReadCSVBoundaries(t *testing.T) {
	long := strings.Repeat("x", csvBufSize+7)
	for _, src := range []string{
		"A,B\n" + long + ",1\n2," + long + "\n",
		"A,B\n" + long + ",\"" + strings.Repeat("y\n", csvBufSize/3) + "\"\"\"\n",
		"A\n" + strings.Repeat("7\nw\n", chunkRows+3),
		"A,B\n" + strings.Repeat("1,\"a\nb\"\n", 3*chunkRows) + "x,",
	} {
		checkReadCSV(t, src)
	}
}

// checkReadCSV reads src with ReadCSV, whole and one byte per Read, and
// with oracleReadCSV: the same accept or reject decision, header names and
// row count, and in every cell the same kind and value, floats compared by
// their bits.
func checkReadCSV(t *testing.T, src string) {
	header, rows, oracleErr := oracleReadCSV(strings.NewReader(src))
	for _, in := range []io.Reader{strings.NewReader(src), iotest.OneByteReader(strings.NewReader(src))} {
		rel, err := ReadCSV(in)
		if (err != nil) != (oracleErr != nil) {
			t.Fatalf("ReadCSV err = %v, oracle err = %v", err, oracleErr)
		}
		if err != nil {
			continue
		}
		if got := rel.Schema.Names(); !slices.Equal(got, header) {
			t.Fatalf("header %q, oracle %q", got, header)
		}
		b := rel.Batch()
		if b.Len() != len(rows) {
			t.Fatalf("%d rows, oracle %d", b.Len(), len(rows))
		}
		for i, want := range rows {
			for j, w := range want {
				// Encode is the kind and the payload, a float's by its bits.
				if got := b.At(i, j); !bytes.Equal(got.Encode(nil), w.Encode(nil)) {
					t.Fatalf("row %d column %d: %s %v, oracle %s %v", i, j, got.Kind(), got, w.Kind(), w)
				}
			}
		}
	}
}
