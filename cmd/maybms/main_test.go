package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"maybms/internal/core"
	"maybms/internal/wsd"
)

func TestReplSessionFlow(t *testing.T) {
	in := strings.NewReader(`create table R (A, D);
insert into R values ('a1', 1), ('a1', 3);
create table I as select A, D from R
  repair by key A weight D;
\count
select possible D from I;
\worlds
\help
\unknowncmd
\quit
`)
	var out strings.Builder
	db := core.NewSession(true)
	repl(db, in, &out)
	got := out.String()
	for _, frag := range []string{
		"maybms> ",        // prompt
		"   ...> ",        // continuation prompt
		"2 world(s)",      // \count after repair
		"world w1.1",      // \worlds output
		"Meta commands",   // \help
		"unknown command", // bad meta
		"created table I", // statement result
	} {
		if !strings.Contains(got, frag) {
			t.Errorf("repl output missing %q:\n%s", frag, got)
		}
	}
	if db.WorldCount() != 2 {
		t.Errorf("world count after session = %d", db.WorldCount())
	}
}

// TestReplWorldsSorted: the naive \worlds lists each world's relations in
// name order, every time.
func TestReplWorldsSorted(t *testing.T) {
	script := "create table E (X);\ncreate table C (X);\ncreate table A (X);\ncreate table D (X);\ncreate table B (X);\n" +
		strings.Repeat("\\worlds\n", 20)
	var out strings.Builder
	repl(core.NewSession(true), strings.NewReader(script), &out)
	blocks := strings.Split(out.String(), "world w1 (P = 1.0000)\n")[1:]
	if len(blocks) != 20 {
		t.Fatalf("%d \\worlds listings, want 20:\n%s", len(blocks), out.String())
	}
	header := regexp.MustCompile(`(?m)^([A-E]):$`)
	for i, b := range blocks {
		var names []string
		for _, m := range header.FindAllStringSubmatch(b, -1) {
			names = append(names, m[1])
		}
		if got := strings.Join(names, " "); got != "A B C D E" {
			t.Fatalf("listing %d names relations %q, want A B C D E", i, got)
		}
	}
}

func TestReplReportsErrors(t *testing.T) {
	in := strings.NewReader("select * from missing;\n")
	var out strings.Builder
	repl(core.NewSession(true), in, &out)
	if !strings.Contains(out.String(), "error:") {
		t.Errorf("error not reported:\n%s", out.String())
	}
}

func TestReplQuitShortForm(t *testing.T) {
	in := strings.NewReader("\\q\nselect 1;\n")
	var out strings.Builder
	repl(core.NewSession(true), in, &out)
	if strings.Contains(out.String(), "col1") {
		t.Error("statements after \\q must not run")
	}
}

func TestRunScript(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "demo.isql")
	script := `
		create table R (A, B, C, D);
		insert into R values
			('a1', 10, 'c1', 2), ('a1', 15, 'c2', 6),
			('a2', 14, 'c3', 4), ('a2', 20, 'c4', 5),
			('a3', 20, 'c5', 6);
		create table I as select A, B, C from R repair by key A weight D;
		select possible sum(B) from I;
	`
	if err := os.WriteFile(path, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := runScript(core.NewSession(true), path, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"44", "49", "50", "55"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("script output missing %s:\n%s", want, out.String())
		}
	}
}

// TestRunScriptOrderBy: a closure-free SELECT under ORDER BY prints its rows
// in the statement's order on both backends (LIMIT keeping the right rows in
// that order); without ORDER BY, and under a closure, answers are unordered and
// print canonically sorted.
func TestRunScriptOrderBy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "orderby.isql")
	script := `
		create table R (K, V);
		insert into R values (1, 10), (2, 30), (3, 20);
		select K, V from R order by V desc;
		select K, V from R order by V desc limit 2;
		select K, V from R;
		select possible K, V from R order by V desc;
	`
	if err := os.WriteFile(path, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	const head = "K  V\n-  --\n"
	want := head + "2  30\n3  20\n1  10\n" +
		head + "2  30\n3  20\n" +
		head + "1  10\n2  30\n3  20\n" +
		head + "1  10\n2  30\n3  20\n"
	for name, eng := range map[string]core.Engine{
		"naive":   core.NewSession(true),
		"compact": wsd.New(true),
	} {
		var out strings.Builder
		if err := runScript(eng, path, &out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The tables alone: the acknowledgements and the naive shell's world
		// headers start with a lowercase letter.
		var tables strings.Builder
		for _, line := range strings.SplitAfter(out.String(), "\n") {
			if line != "" && (line[0] < 'a' || line[0] > 'z') {
				tables.WriteString(line)
			}
		}
		if got := tables.String(); got != want {
			t.Errorf("%s shell:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

func TestRunScriptErrors(t *testing.T) {
	var out strings.Builder
	if err := runScript(core.NewSession(true), "/nonexistent/file.isql", &out); err == nil {
		t.Error("missing file must error")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.isql")
	if err := os.WriteFile(path, []byte("create table R (A);\nselect * from missing;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runScript(core.NewSession(true), path, &out); err == nil {
		t.Error("bad statement must surface")
	}
	if !strings.Contains(out.String(), "created table R") {
		t.Error("results before the failure must still print")
	}
}

func TestReplCompactBackend(t *testing.T) {
	in := strings.NewReader(`create table R (K, V, W);
insert into R values (0, 0, 1), (0, 1, 2), (1, 0, 1), (1, 1, 3);
create table I as select * from R repair by key K;
create table J as select * from I repair by key K, V;
\count
select conf, K, V from J;
\stats
\worlds
\quit
`)
	var out strings.Builder
	db := wsd.New(true)
	repl(db, in, &out)
	got := out.String()
	for _, frag := range []string{
		"4 world(s)",       // \count after the chained repair
		"merges: 0",        // \stats: the chained repair split, no merge
		"conditional=2",    // \stats: nesting split + tree-fold conf closure
		"plan cache",       // \stats: shared-cache counters
		"WSD{relations: 3", // \worlds prints the decomposition summary
		"created table J",  // chained repair over the uncertain source
	} {
		if !strings.Contains(got, frag) {
			t.Errorf("compact repl output missing %q:\n%s", frag, got)
		}
	}
	if db.WorldCount().String() != "4" {
		t.Errorf("world count after session = %s", db.WorldCount())
	}
}

func TestRunScriptCompact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "compact.isql")
	script := `
		create table R (A, B, C, D);
		insert into R values
			('a1', 10, 'c1', 2), ('a1', 15, 'c2', 6),
			('a2', 14, 'c3', 4), ('a2', 20, 'c4', 5),
			('a3', 20, 'c5', 6);
		create table I as select * from R repair by key A weight D;
		create table S as select possible B from I;
		select certain B from S;
	`
	if err := os.WriteFile(path, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := runScript(wsd.New(true), path, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"created table S", "10", "14", "15", "20"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compact script output missing %s:\n%s", want, out.String())
		}
	}
}

func TestRunScriptCompactAssert(t *testing.T) {
	// A script is parsed whole (ParseScript), so the standalone ASSERT must
	// be a statement of the grammar — on its own line and behind a comment.
	dir := t.TempDir()
	path := filepath.Join(dir, "assert.isql")
	script := `
		create table R (K, V);
		insert into R values (0, 0), (0, 1);
		create table I as select * from R repair by key K;
		-- keep the worlds holding V = 1; the ';' in this comment splits nothing
		ASSERT
			exists (select * from I where V = 1);
	`
	if err := os.WriteFile(path, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := runScript(wsd.New(true), path, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "asserted; 1 world(s) remain") {
		t.Errorf("assert result missing:\n%s", out.String())
	}
}

// TestRunScriptCompactGroupWorlds: the compact backend names no worlds, so
// its GROUP WORLDS BY groups print numbered — with their probability in a
// weighted session — instead of as empty world lists that all look alike.
func TestRunScriptCompactGroupWorlds(t *testing.T) {
	const answers = `group %[1]s:
K
-
0
1
2

group %[2]s:
K
-
0
1
2
group %[1]s:
V
-
1

group %[2]s:
V
--
11
`
	for _, c := range []struct {
		name        string
		db          *wsd.WSD
		rows, split string
		head        [2]string
	}{
		{"weighted", wsd.New(true), "(0, 0, 1), (0, 10, 3), (1, 1, 1), (1, 11, 3), (2, 2, 1), (2, 12, 3)",
			"K, V from MSrc repair by key K weight W", [2]string{"1 (P = 0.2500)", "2 (P = 0.7500)"}},
		{"incomplete", wsd.New(false), "(0, 0, 0), (0, 10, 0), (1, 1, 0), (1, 11, 0), (2, 2, 0), (2, 12, 0)",
			"K, V from MSrc repair by key K", [2]string{"1", "2"}},
	} {
		path := filepath.Join(t.TempDir(), "groups.isql")
		script := "create table MSrc (K, V, W);\n" +
			"insert into MSrc values " + c.rows + ";\n" +
			"create table M as select " + c.split + ";\n" +
			"select certain K from M where K < 3 group worlds by (select V from M where K = 1);\n" +
			"select possible V from M where K = 1 group worlds by (select V from M where K = 1);\n"
		if err := os.WriteFile(path, []byte(script), 0o644); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if err := runScript(c.db, path, &out); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := "created table MSrc\ninserted 6 row(s) into MSrc\ncreated table M: repair of a query source (8 worlds)\n" +
			fmt.Sprintf(answers, c.head[0], c.head[1])
		if got := out.String(); got != want {
			t.Errorf("%s compact shell:\n%s\nwant:\n%s", c.name, got, want)
		}
	}
}
