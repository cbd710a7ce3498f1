package main

import (
	"fmt"
	"math/rand"
	"strings"

	"maybms/internal/relation"
)

// clients is the number of closed-loop clients, one TCP connection each.
// It equals nproc on the reference box and is fixed so that statement
// counts are comparable between machines.
const clients = 2

// nonce marks the place in a statement text where the loader substitutes
// a number it uses once: it sits in a predicate that is always true, so
// the answer stays the same while the text is new to the plan cache.
// roundNonce marks the place in a session name where the loader
// substitutes a number that is new in every round and for every client.
const (
	nonce      = "$N"
	roundNonce = "$R"
)

// A sess is one named server session and the backend that serves it.
type sess struct {
	Name    string
	Backend string // "naive" or "compact"
}

// A stmt is one request of a script.
type stmt struct {
	Sess  int    // index into workload.Sessions
	Class string // the statement's template, for per-class medians and the check
	SQL   string // empty for the "close" class, which closes the session
}

// A workload is a set of sessions, the statements that set them up, and
// one script per client that is run once per round. A client's setup and
// script touch only that client's sessions.
type workload struct {
	Name     string
	Sessions []sess
	Setup    [clients][]stmt
	Scripts  [clients][]stmt
	// Files are the CSV inputs by base name; statements name them as
	// {file:<name>} and the loader substitutes the path it wrote them to.
	Files map[string]string
	// Ingest names the file the traced pass times relation.LoadCSV and
	// wsd.Import on ("" when the workload imports nothing).
	Ingest     string
	IngestOpts relation.ImportOptions
}

// sizes are the knobs a scale sets. Full is calibrated to rounds of about
// one second through the TCP path; smoke keeps every session at or below
// 2^10 worlds so that both backends can run every workload (the answer
// check) and all five finish in seconds (the test).
type sizes struct {
	psStmts int // point.short: statements per client and round

	ccComps, ccNested, ccDim, ccPick, ccMerge, ccRepeat int // closure.compact

	wnGroups, wnCertain, wnRepeat int // worlds.naive

	weRows, weUnc, weConflicts, wePerWorld, weRepeat int // wide.encode

	idRows, idDirty, idNaiveRows, idNaiveGroups, idInsert, idReads int // ingest.dml
}

var scales = map[string]sizes{
	"full": {
		psStmts: 3000,
		ccComps: 1000, ccNested: 100, ccDim: 100, ccPick: 4, ccMerge: 8, ccRepeat: 2,
		wnGroups: 9, wnCertain: 200, wnRepeat: 2,
		weRows: 10000, weUnc: 5000, weConflicts: 4, wePerWorld: 2000, weRepeat: 4,
		idRows: 40000, idDirty: 4, idNaiveRows: 400, idNaiveGroups: 8, idInsert: 200, idReads: 1,
	},
	"smoke": {
		psStmts: 96,
		ccComps: 4, ccNested: 2, ccDim: 10, ccPick: 2, ccMerge: 2, ccRepeat: 1,
		wnGroups: 6, wnCertain: 20, wnRepeat: 1,
		weRows: 200, weUnc: 60, weConflicts: 5, wePerWorld: 40, weRepeat: 1,
		idRows: 300, idDirty: 3, idNaiveRows: 60, idNaiveGroups: 4, idInsert: 10, idReads: 2,
	},
}

var workloadNames = []string{"point.short", "closure.compact", "worlds.naive", "wide.encode", "ingest.dml"}

// generate builds the named workload from the seed alone: the same seed
// and scale give byte-identical scripts and files.
func generate(name string, seed int64, scale string) (*workload, error) {
	sz, ok := scales[scale]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q (want full or smoke)", scale)
	}
	// Each workload draws from its own stream, so changing one generator
	// leaves the others' inputs as they were.
	salt := int64(0)
	for _, c := range name {
		salt = salt*131 + int64(c)
	}
	rng := rand.New(rand.NewSource(seed*1000003 + salt))
	w := &workload{Name: name, Files: map[string]string{}}
	switch name {
	case "point.short":
		genPointShort(w, rng, sz)
	case "closure.compact":
		genClosureCompact(w, rng, sz)
	case "worlds.naive":
		genWorldsNaive(w, rng, sz)
	case "wide.encode":
		genWideEncode(w, rng, sz)
	case "ingest.dml":
		genIngestDML(w, rng, sz)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	return w, nil
}

// flipped returns w with every session on the other backend, for the
// answer check.
func (w *workload) flipped() *workload {
	f := *w
	f.Sessions = make([]sess, len(w.Sessions))
	for i, s := range w.Sessions {
		s.Name += "-flip"
		if s.Backend == "naive" {
			s.Backend = "compact"
		} else {
			s.Backend = "naive"
		}
		f.Sessions[i] = s
	}
	return &f
}

func (w *workload) addSession(name, backend string) int {
	w.Sessions = append(w.Sessions, sess{Name: name, Backend: backend})
	return len(w.Sessions) - 1
}

// insertBatches renders rows as multi-row INSERT statements of at most
// 500 rows, the way a client loads a table over the wire.
func insertBatches(s int, table string, rows []string) []stmt {
	var out []stmt
	for i := 0; i < len(rows); i += 500 {
		j := min(i+500, len(rows))
		out = append(out, stmt{s, "load", "insert into " + table + " values " + strings.Join(rows[i:j], ", ")})
	}
	return out
}

// shuffled repeats texts rep times and shuffles the result.
func shuffled(rng *rand.Rand, texts []stmt, rep int) []stmt {
	var out []stmt
	for i := 0; i < rep; i++ {
		out = append(out, texts...)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// ---- point.short ----

const figure1Rows = `('a1', 10, 'c1', 2), ('a1', 15, 'c2', 6), ('a2', 14, 'c3', 4), ('a2', 20, 'c4', 5), ('a3', 20, 'c5', 6)`

const whaleRows = `('A', 1, 'sperm', 'calf', 'b'), ('A', 2, 'sperm', 'cow', 'c'), ('A', 3, 'orca', 'cow', 'a'), ` +
	`('B', 1, 'sperm', 'calf', 'b'), ('B', 2, 'sperm', 'cow', 'c'), ('B', 3, 'orca', 'bull', 'a'), ` +
	`('C', 1, 'sperm', 'calf', 'b'), ('C', 2, 'sperm', 'bull', 'c'), ('C', 3, 'orca', 'cow', 'a'), ` +
	`('D', 1, 'sperm', 'calf', 'b'), ('D', 2, 'sperm', 'bull', 'c'), ('D', 3, 'orca', 'bull', 'a'), ` +
	`('E', 1, 'sperm', 'calf', 'c'), ('E', 2, 'sperm', 'cow', 'b'), ('E', 3, 'orca', 'cow', 'a'), ` +
	`('F', 1, 'sperm', 'calf', 'c'), ('F', 2, 'sperm', 'bull', 'b'), ('F', 3, 'orca', 'cow', 'a')`

// figure1Stmts draws one statement (or a DML pair that restores the
// state) over the paper's Figure 1 relations.
func figure1Stmts(s int, rng *rand.Rand) []stmt {
	lit := 5 + rng.Intn(20)
	switch rng.Intn(10) {
	case 0:
		return []stmt{{s, "possible.filter", fmt.Sprintf("select possible B from I where B > %d and B <> %s", lit, nonce)}}
	case 1:
		return []stmt{{s, "certain.filter", fmt.Sprintf("select certain A from I where B < %d and B <> %s", lit+10, nonce)}}
	case 2:
		return []stmt{{s, "conf.key", fmt.Sprintf("select A, conf from I where B >= %d and B <> %s", lit, nonce)}}
	case 3:
		return []stmt{{s, "world.filter", fmt.Sprintf("select A, B from I where B > %d and B <> %s", lit, nonce)}}
	case 4:
		return []stmt{{s, "possible.join", fmt.Sprintf("select possible A, E from I, S where I.C = S.C and B > %d and B <> %s", lit-5, nonce)}}
	case 5:
		return []stmt{{s, "explain.possible", fmt.Sprintf("explain select possible B from I where B > %d and B <> %s", lit, nonce)}}
	case 6:
		return []stmt{{s, "conf.sum", fmt.Sprintf("select conf from I where %d > (select sum(B) from I where B <> %s)", 40+lit, nonce)}}
	case 7:
		return []stmt{
			{s, "dml.insert", fmt.Sprintf("insert into S values ('x%d', 'e1')", lit)},
			{s, "dml.delete", fmt.Sprintf("delete from S where C = 'x%d'", lit)},
		}
	case 8:
		return []stmt{
			{s, "dml.add", fmt.Sprintf("update I set B = B + %d where A = 'a3'", lit)},
			{s, "dml.sub", fmt.Sprintf("update I set B = B - %d where A = 'a3'", lit)},
		}
	default:
		return []stmt{{s, "possible.sum", fmt.Sprintf("select possible sum(B) from I where B <> %s", nonce)}}
	}
}

// whaleStmts draws one statement over the whale-watching relations of
// the paper's Section 3.1.
func whaleStmts(s int, rng *rand.Rand) []stmt {
	id := 1 + rng.Intn(3)
	pos := string(rune('a' + rng.Intn(3)))
	switch rng.Intn(7) {
	case 0:
		return []stmt{{s, "w.possible", fmt.Sprintf("select possible 'yes' from I where Id = %d and Pos = '%s' and Id <> %s", id, pos, nonce)}}
	case 1:
		return []stmt{{s, "w.certain", fmt.Sprintf("select certain Species from I where Id = %d and Id <> %s", id, nonce)}}
	case 2:
		return []stmt{{s, "w.conf", fmt.Sprintf("select Gender, conf from I where Id = %d and Id <> %s", id, nonce)}}
	case 3:
		return []stmt{{s, "w.world", fmt.Sprintf("select Id, Gender from I where Pos = '%s' and Id <> %s", pos, nonce)}}
	case 4:
		return []stmt{{s, "explain.conf", fmt.Sprintf("explain select Gender, conf from I where Id = %d and Id <> %s", id, nonce)}}
	case 5:
		return []stmt{
			{s, "w.dml.move", fmt.Sprintf("update I set Pos = 'd' where Id = %d and Pos = '%s'", id, pos)},
			{s, "w.dml.back", fmt.Sprintf("update I set Pos = '%s' where Id = %d and Pos = 'd'", pos, id)},
		}
	default:
		return []stmt{{s, "w.group", fmt.Sprintf("select possible Gender from I where Id = %d and Id <> %s group worlds by (select Pos from I where Id = 2)", id, nonce)}}
	}
}

func genPointShort(w *workload, rng *rand.Rand, sz sizes) {
	for c := 0; c < clients; c++ {
		var mine []int
		for _, backend := range []string{"naive", "compact"} {
			f := w.addSession(fmt.Sprintf("ps-%d-%s-fig1", c, backend), backend)
			w.Setup[c] = append(w.Setup[c],
				stmt{f, "load", "create table R (A, B, C, D)"},
				stmt{f, "load", "insert into R values " + figure1Rows},
				stmt{f, "load", "create table S (C, E)"},
				stmt{f, "load", "insert into S values ('c2', 'e1'), ('c4', 'e1'), ('c4', 'e2')"},
				stmt{f, "load", "create table I as select A, B, C from R repair by key A weight D"})
			wh := w.addSession(fmt.Sprintf("ps-%d-%s-whales", c, backend), backend)
			w.Setup[c] = append(w.Setup[c],
				stmt{wh, "load", "create table W (WID, Id, Species, Gender, Pos)"},
				stmt{wh, "load", "insert into W values " + whaleRows},
				stmt{wh, "load", "create table I as select Id, Species, Gender, Pos from W choice of WID"})
			mine = append(mine, f, wh)
		}
		for len(w.Scripts[c]) < sz.psStmts {
			s := mine[rng.Intn(len(mine))]
			if strings.HasSuffix(w.Sessions[s].Name, "fig1") {
				w.Scripts[c] = append(w.Scripts[c], figure1Stmts(s, rng)...)
			} else {
				w.Scripts[c] = append(w.Scripts[c], whaleStmts(s, rng)...)
			}
		}
	}
}

// ---- closure.compact ----

func genClosureCompact(w *workload, rng *rand.Rand, sz sizes) {
	n := sz.ccComps
	for c := 0; c < clients; c++ {
		s := w.addSession(fmt.Sprintf("cc-%d", c), "compact")
		var src []string
		for k := 0; k < n; k++ {
			for a, alts := 0, 2+rng.Intn(2); a < alts; a++ {
				src = append(src, fmt.Sprintf("(%d, %d, %d, %d)", k, rng.Intn(1000), k%sz.ccDim, 1+rng.Intn(8)))
			}
		}
		var dim []string
		for g := 0; g < sz.ccDim; g++ {
			dim = append(dim, fmt.Sprintf("(%d, 'n%d', %d)", g, g, g%20))
		}
		// The chained repair nests components under U2's alternatives. It
		// has a relation of its own because at this commit any component
		// with children sends every query over its relation down the
		// conditional route, which is some hundred times slower per
		// component than the flat one.
		var src2 []string
		for k := 0; k < sz.ccNested; k++ {
			src2 = append(src2, fmt.Sprintf("(%d, %d, %d)", k, rng.Intn(500), 1+rng.Intn(4)), fmt.Sprintf("(%d, %d, %d)", k, 500+rng.Intn(500), 1+rng.Intn(4)))
		}
		var msrc []string
		for k := 0; k < sz.ccMerge; k++ {
			msrc = append(msrc, fmt.Sprintf("(%d, %d, 1)", k, rng.Intn(50)), fmt.Sprintf("(%d, %d, 3)", k, 50+rng.Intn(50)))
		}
		setup := []stmt{{s, "load", "create table Src (K, V, G, W)"}}
		setup = append(setup, insertBatches(s, "Src", src)...)
		setup = append(setup, stmt{s, "load", "create table Dim (G, Name, Cat)"})
		setup = append(setup, insertBatches(s, "Dim", dim)...)
		setup = append(setup,
			stmt{s, "load", "create table U as select K, V, G from Src repair by key K weight W"},
			stmt{s, "load", "create table Src2 (K, V, W)"})
		setup = append(setup, insertBatches(s, "Src2", src2)...)
		setup = append(setup,
			stmt{s, "load", "create table U2 as select K, V from Src2 repair by key K weight W"},
			stmt{s, "load", "create table N as select K, V from U2 repair by key K, V"},
			stmt{s, "load", "create table Ch (T, X)"},
			stmt{s, "load", "insert into Ch values (0, 0), (1, 10), (2, 20), (3, 30)"},
			stmt{s, "load", fmt.Sprintf("create table Pick as select T, X from Ch where T < %d choice of T", sz.ccPick)},
			stmt{s, "load", "create table MSrc (K, V, W)"})
		setup = append(setup, insertBatches(s, "MSrc", msrc)...)
		setup = append(setup, stmt{s, "load", "create table M as select K, V from MSrc repair by key K weight W"})
		w.Setup[c] = setup

		// Every answer is cut to at most 100 rows by a key range.
		lo := func(width int) int { return rng.Intn(max(1, n-width)) }
		var texts []stmt
		for v := 0; v < 2; v++ {
			a, b, d := lo(40), lo(100), lo(100)
			texts = append(texts,
				stmt{s, "possible.point", fmt.Sprintf("select possible V from U where K = %d", rng.Intn(n))},
				stmt{s, "possible.range", fmt.Sprintf("select possible K, V from U where K >= %d and K < %d and V > %d", a, a+40, 480+rng.Intn(40))},
				stmt{s, "certain.range", fmt.Sprintf("select certain K from U where K >= %d and K < %d", b, b+100)},
				stmt{s, "conf.range", fmt.Sprintf("select K, conf from U where K >= %d and K < %d and V > %d", d, d+100, 680+rng.Intn(40))},
				stmt{s, "join.possible", fmt.Sprintf("select possible Name from U, Dim where U.G = Dim.G and U.K >= %d and U.K < %d and V > %d", b, b+100, 230+rng.Intn(40))},
				stmt{s, "join.conf", fmt.Sprintf("select Cat, conf from U, Dim where U.G = Dim.G and U.K >= %d and U.K < %d and V > %d", d, d+100, 380+rng.Intn(40))},
				stmt{s, "group.pick", fmt.Sprintf("select possible K from U where K < %d and V > %d group worlds by (select T from Pick)", min(n, 400), 900+rng.Intn(20))},
				stmt{s, "approx.range", fmt.Sprintf("select K, approx conf from U where K >= %d and K < %d and V > %d", d, d+100, 480+rng.Intn(40))},
				stmt{s, "world.range", fmt.Sprintf("select K, V from U where K >= %d and K < %d", a, a+30)},
				stmt{s, "nested.conf", fmt.Sprintf("select K, V, conf from N where K < %d and V > %d", min(sz.ccNested, 40), 230+rng.Intn(40))},
			)
		}
		texts = append(texts,
			stmt{s, "nested.point", fmt.Sprintf("select possible V from N where K = %d", rng.Intn(sz.ccNested))},
			stmt{s, "merge.sum", "select possible sum(V) from M"},
			stmt{s, "merge.conf", fmt.Sprintf("select conf from M where %d > (select sum(V) from M)", 50*sz.ccMerge)},
		)
		w.Scripts[c] = shuffled(rng, texts, sz.ccRepeat)
	}
}

// ---- worlds.naive ----

func genWorldsNaive(w *workload, rng *rand.Rand, sz sizes) {
	g := sz.wnGroups
	for c := 0; c < clients; c++ {
		s := w.addSession(fmt.Sprintf("wn-%d", c), "naive")
		var src, dim []string
		for k := 0; k < g; k++ {
			// Each key has a value below 40 and one above 60, and the
			// statements compare with literals between the two: the seed
			// changes the texts and the values, not how many rows a
			// filter keeps.
			src = append(src, fmt.Sprintf("(%d, %d, %d)", k, rng.Intn(40), 1+rng.Intn(4)), fmt.Sprintf("(%d, %d, %d)", k, 60+rng.Intn(40), 1+rng.Intn(4)))
		}
		for k := 0; k < sz.wnCertain; k++ {
			dim = append(dim, fmt.Sprintf("(%d, 'l%d', %d)", k, k%7, k%100))
		}
		setup := []stmt{{s, "load", "create table Src (K, V, W)"}}
		setup = append(setup, insertBatches(s, "Src", src)...)
		setup = append(setup, stmt{s, "load", "create table D (K, Label, X)"})
		setup = append(setup, insertBatches(s, "D", dim)...)
		setup = append(setup, stmt{s, "load", "create table I as select K, V from Src repair by key K weight W"})
		w.Setup[c] = setup

		// Per-world selects and POSSIBLE/CERTAIN closures make up most of
		// the mix, so the median statement is one of them; the heavier
		// forms appear once per variant.
		mid := func() int { return 40 + rng.Intn(20) }
		var texts []stmt
		for v := 0; v < 2; v++ {
			k := rng.Intn(g)
			texts = append(texts,
				stmt{s, "world.low", fmt.Sprintf("select K, V from I where K < 2 and V > %d", mid())},
				stmt{s, "world.high", fmt.Sprintf("select K, V from I where K >= %d and K < %d and V < %d", g-2, g, mid())},
				stmt{s, "possible.point", fmt.Sprintf("select possible V from I where K = %d and V > %d", k, mid())},
				stmt{s, "possible.all", fmt.Sprintf("select possible K from I where V < %d", mid())},
				stmt{s, "certain.all", fmt.Sprintf("select certain K from I where V < %d", 100+mid())},
				stmt{s, "certain.kv", fmt.Sprintf("select certain K, V from I where V > %d", mid())},
				stmt{s, "conf.key", fmt.Sprintf("select K, conf from I where V > %d", mid())},
				stmt{s, "conf.sum", fmt.Sprintf("select conf from I where %d > (select sum(V) from I)", 50*g+rng.Intn(20)-10)},
				stmt{s, "join.possible", fmt.Sprintf("select possible I.K, Label from I, D where I.K = D.K and V > %d and X < %d", mid(), 50+rng.Intn(10))},
				stmt{s, "assert.exists", fmt.Sprintf("select K, V from I where K < 2 assert exists (select * from I where K = %d and V > %d)", k, mid())},
				stmt{s, "group.key", fmt.Sprintf("select possible V from I where K < 3 group worlds by (select V from I where K = %d)", k)},
			)
		}
		w.Scripts[c] = shuffled(rng, texts, sz.wnRepeat)
	}
}

// ---- wide.encode ----

// wideCSV renders rows of (I int, F float, T text, N int or NULL, S text,
// D int), with one row in ten carrying a NULL.
func wideCSV(rng *rand.Rand, rows int) string {
	var b strings.Builder
	b.WriteString("I,F,T,N,S,D\n")
	for i := 0; i < rows; i++ {
		n := fmt.Sprint(rng.Intn(100000))
		if rng.Intn(10) == 0 {
			n = ""
		}
		fmt.Fprintf(&b, "%d,%.4f,t%06d,%s,%s,%d\n", i, rng.Float64()*1000, rng.Intn(1000000), n, words[rng.Intn(len(words))], rng.Intn(50))
	}
	return b.String()
}

var words = []string{"sperm", "orca", "humpback", "minke", "beluga", "narwhal", "fin", "blue"}

// conflictCSV renders rows of (K, V, L, W) in which the first conflicts
// keys appear twice, so REPAIR KEY (K) makes one component of two
// alternatives out of each.
func conflictCSV(rng *rand.Rand, rows, conflicts int) string {
	var b strings.Builder
	b.WriteString("K,V,L,W\n")
	k := 0
	for i := 0; i < rows; k++ {
		reps := 1
		if k < conflicts {
			reps = 2
		}
		for r := 0; r < reps && i < rows; r++ {
			fmt.Fprintf(&b, "%d,%d,%s,%d\n", k, rng.Intn(1000), words[rng.Intn(len(words))], 1+rng.Intn(5))
			i++
		}
	}
	return b.String()
}

func genWideEncode(w *workload, rng *rand.Rand, sz sizes) {
	w.Files["wide.csv"] = wideCSV(rng, sz.weRows)
	w.Files["unc.csv"] = conflictCSV(rng, sz.weUnc, sz.weConflicts)
	w.Files["world16.csv"] = conflictCSV(rng, sz.wePerWorld, 4)
	w.Ingest, w.IngestOpts = "unc.csv", relation.ImportOptions{RepairKey: []string{"K"}, Weight: "W"}
	for c := 0; c < clients; c++ {
		cs := w.addSession(fmt.Sprintf("we-%d-compact", c), "compact")
		ns := w.addSession(fmt.Sprintf("we-%d-naive", c), "naive")
		w.Setup[c] = []stmt{
			{cs, "load", "import into T from '{file:wide.csv}'"},
			{cs, "load", "import into U from '{file:unc.csv}' repair key (K) weight W"},
			{ns, "load", "import into P from '{file:world16.csv}' repair key (K) weight W"},
		}
		texts := []stmt{
			{cs, "scan.all", "select * from T"},
			{cs, "scan.filter", fmt.Sprintf("select I, F, T, S from T where D < 45 and I >= %d", rng.Intn(5))},
			{cs, "possible.all", "select possible * from U"},
			{cs, "conf.all", "select K, V, conf from U"},
			{cs, "world.cond", "select K, V, L from U"},
			{ns, "world.all", "select * from P"},
			{ns, "possible.cols", "select possible K, V, L from P"},
		}
		w.Scripts[c] = shuffled(rng, texts, sz.weRepeat)
	}
}

// ---- ingest.dml ----

// dirtyCSV renders rows of (K, A, Cat, Label, W) in which dirty rows,
// evenly spread, repeat the key of the row before them (a repair group
// of two) and as many others have a NULL Cat (a choice among the four
// categories).
func dirtyCSV(rng *rand.Rand, rows, dirty int) string {
	var b strings.Builder
	b.WriteString("K,A,Cat,Label,W\n")
	every := rows / max(1, dirty)
	k := 0
	for i := 0; i < rows; i++ {
		if i%every != every/2 || i/every >= dirty {
			k++
		}
		cat := fmt.Sprint(rng.Intn(4))
		if i%every == every-1 && i/every < dirty {
			cat = ""
		}
		fmt.Fprintf(&b, "%d,%d,%s,%s,%d\n", k, rng.Intn(1000), cat, words[rng.Intn(len(words))], 1+rng.Intn(5))
	}
	return b.String()
}

func genIngestDML(w *workload, rng *rand.Rand, sz sizes) {
	w.Files["big.csv"] = dirtyCSV(rng, sz.idRows, sz.idDirty)
	w.Files["small.csv"] = conflictCSV(rng, sz.idNaiveRows, sz.idNaiveGroups)
	w.Ingest, w.IngestOpts = "big.csv", relation.ImportOptions{NullsChoice: true, RepairKey: []string{"K"}, Weight: "W"}
	for c := 0; c < clients; c++ {
		// The sessions are new in every round: the round's nonce is part of their
		// names, and the script closes them when it is done.
		cs := w.addSession(fmt.Sprintf("id-%d-compact-%s", c, roundNonce), "compact")
		ns := w.addSession(fmt.Sprintf("id-%d-naive-%s", c, roundNonce), "naive")
		// The compact backend appends to certain relations only, so the
		// multi-row inserts go to a side table. The dirt is a handful of
		// rows because at this commit a read over an imported relation
		// costs its alternatives times its certain rows.
		script := []stmt{
			{cs, "import", "import into B from '{file:big.csv}' nulls as choice repair key (K) weight W"},
			{cs, "ddl", "create table L (K, A, Cat)"},
			{ns, "import", "import into B from '{file:small.csv}' repair key (K) weight W"},
			{ns, "ddl", "create table L (K, V)"},
		}
		top := sz.idRows // keys stay below the row count
		for i := 0; i < sz.idReads; i++ {
			a := rng.Intn(max(1, top/2))
			var ins []string
			for j := 0; j < sz.idInsert; j++ {
				ins = append(ins, fmt.Sprintf("(%d, %d, %d)", a+rng.Intn(200), rng.Intn(1000), rng.Intn(4)))
			}
			script = append(script,
				stmt{cs, "dml.update", fmt.Sprintf("update B set A = A + %d where K >= %d and K < %d", 1+rng.Intn(9), a, a+top/10)},
				stmt{cs, "conf.range", fmt.Sprintf("select K, conf from B where K >= %d and K < %d and A > %d", a, a+60, 240+rng.Intn(20))},
				stmt{cs, "dml.insert", "insert into L values " + strings.Join(ins, ", ")},
				stmt{cs, "possible.range", fmt.Sprintf("select possible Cat from B where K >= %d and K < %d", a, a+200)},
				stmt{cs, "scan.side", fmt.Sprintf("select K, A from L where A > %d", 900+rng.Intn(50))},
				stmt{cs, "dml.delete", fmt.Sprintf("delete from B where K >= %d and K < %d and A < %d", a, a+top/20, 140+rng.Intn(20))},
			)
			na := rng.Intn(max(1, sz.idNaiveRows/2))
			script = append(script,
				stmt{ns, "dml.update", fmt.Sprintf("update B set V = V + %d where K >= %d and K < %d", 1+rng.Intn(9), na, na+20)},
				stmt{ns, "conf.range", fmt.Sprintf("select K, conf from B where K < %d and V > %d", sz.idNaiveGroups+10, 390+rng.Intn(20))},
				stmt{ns, "dml.insert", fmt.Sprintf("insert into L values (%d, %d), (%d, %d)", rng.Intn(sz.idNaiveGroups), rng.Intn(1000), na, rng.Intn(1000))},
				stmt{ns, "possible.join", fmt.Sprintf("select possible B.L from B, L where B.K = L.K and L.V > %d", 240+rng.Intn(20))},
				stmt{ns, "dml.delete", fmt.Sprintf("delete from B where K >= %d and K < %d and V < %d", na, na+10, 140+rng.Intn(20))},
			)
		}
		script = append(script, stmt{cs, "close", ""}, stmt{ns, "close", ""})
		w.Scripts[c] = script
	}
}
