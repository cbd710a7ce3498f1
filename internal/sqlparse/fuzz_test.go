package sqlparse

import (
	"reflect"
	"testing"
)

// FuzzParse checks that String renders every statement Parse accepts as
// text that parses back to the same tree. Both engines key their plan cache
// by that text, so this property is what keeps two different statements
// from sharing one compiled template. The seed corpus (testdata/fuzz) holds
// the paper's Examples 2.1–2.10, the figure scripts and inputs that once
// rendered wrong.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, sql string) {
		st, err := Parse(sql)
		if err != nil {
			return
		}
		text := st.String()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) renders as %q, which fails to parse: %v", sql, text, err)
		}
		if !reflect.DeepEqual(again, st) {
			t.Fatalf("Parse(%q) renders as %q, which parses to a different tree: %#v", sql, text, again)
		}
	})
}

func TestKeywordsFitTheLookupBuffer(t *testing.T) {
	for kw := range keywords {
		if _, ok := keyword(kw); !ok {
			t.Errorf("keyword %q is longer than maxKeywordLen %d", kw, maxKeywordLen)
		}
	}
}
