package sqlparse

import (
	"errors"
	"strings"
	"testing"
)

func parseImportStmt(t *testing.T, in string) *Import {
	t.Helper()
	stmt, err := Parse(in)
	if err != nil {
		t.Fatalf("Parse(%q): %v", in, err)
	}
	imp, ok := stmt.(*Import)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want *Import", in, stmt)
	}
	return imp
}

func TestParseImportBasic(t *testing.T) {
	imp := parseImportStmt(t, "import into t from '/data/file.csv';")
	if imp.Table != "t" || imp.Path != "/data/file.csv" {
		t.Errorf("parsed %+v", imp)
	}
	if imp.NullsChoice || len(imp.RepairKey) > 0 || imp.Weight != "" {
		t.Errorf("unexpected options: %+v", imp)
	}
}

func TestParseImportCopySpelling(t *testing.T) {
	imp := parseImportStmt(t, "copy t from 'x.csv' nulls as choice;")
	if imp.Table != "t" || imp.Path != "x.csv" || !imp.NullsChoice {
		t.Errorf("parsed %+v", imp)
	}
}

func TestParseImportFullOptions(t *testing.T) {
	imp := parseImportStmt(t,
		"IMPORT INTO census FROM 'dirty.csv' NULLS AS CHOICE REPAIR KEY (ssn, name) WEIGHT w;")
	if imp.Table != "census" || !imp.NullsChoice {
		t.Errorf("parsed %+v", imp)
	}
	if len(imp.RepairKey) != 2 || imp.RepairKey[0] != "ssn" || imp.RepairKey[1] != "name" {
		t.Errorf("repair key = %v", imp.RepairKey)
	}
	if imp.Weight != "w" {
		t.Errorf("weight = %q", imp.Weight)
	}
	// Options in either order parse identically.
	imp2 := parseImportStmt(t,
		"import into census from 'dirty.csv' repair key (ssn, name) weight w nulls as choice;")
	if imp2.String() != imp.String() {
		t.Errorf("order-dependent parse: %q vs %q", imp2, imp)
	}
}

func TestParseImportRoundTrip(t *testing.T) {
	for _, in := range []string{
		"IMPORT INTO t FROM 'a.csv'",
		"IMPORT INTO t FROM 'it''s.csv' NULLS AS CHOICE",
		"IMPORT INTO t FROM 'a.csv' REPAIR KEY (k)",
		"IMPORT INTO t FROM 'a.csv' NULLS AS CHOICE REPAIR KEY (a, b) WEIGHT w",
	} {
		imp := parseImportStmt(t, in+";")
		if got := imp.String(); got != in {
			t.Errorf("String() = %q, want %q", got, in)
		}
		again := parseImportStmt(t, imp.String()+";")
		if again.String() != imp.String() {
			t.Errorf("re-parse of %q = %q", imp, again)
		}
	}
}

func TestParseImportErrors(t *testing.T) {
	for _, in := range []string{
		"import t from 'a.csv';",                                      // missing INTO
		"copy into t from 'a.csv';",                                   // COPY takes no INTO
		"import into t from a.csv;",                                   // unquoted path
		"import into t from 'a.csv' nulls choice;",                    // missing AS
		"import into t from 'a.csv' repair (k);",                      // missing KEY
		"import into t from 'a.csv' repair key k;",                    // missing parens
		"import into t from 'a.csv' weight w;",                        // WEIGHT without REPAIR KEY
		"import into t from 'a.csv' nulls as choice nulls as choice;", // duplicate
	} {
		if _, err := Parse(in); !errors.Is(err, ErrParse) {
			t.Errorf("Parse(%q) = %v, want ErrParse", in, err)
		}
	}
}

func TestParseImportPathEscapes(t *testing.T) {
	imp := parseImportStmt(t, "import into t from 'it''s here.csv';")
	if imp.Path != "it's here.csv" {
		t.Errorf("path = %q", imp.Path)
	}
	if !strings.Contains(imp.String(), "'it''s here.csv'") {
		t.Errorf("String() = %q", imp)
	}
}
