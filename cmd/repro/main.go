// Command repro regenerates every figure and worked example of the paper
// and prints a paper-vs-measured report (markdown). It exits non-zero if
// any check fails; CI runs it and fails unless every check passes.
package main

import (
	"fmt"
	"math"
	"math/big"
	"os"
	"sort"
	"strings"

	"maybms"
)

type check struct {
	id       string
	what     string
	paper    string
	measured string
	pass     bool
}

var checks []check

func record(id, what, paper, measured string, pass bool) {
	checks = append(checks, check{id, what, paper, measured, pass})
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func main() {
	figure1And2()
	examples()
	whales()
	cleaning()
	compact()

	fmt.Println("| ID | What | Paper | Measured | OK |")
	fmt.Println("|---|---|---|---|---|")
	failed := 0
	for _, c := range checks {
		ok := "✓"
		if !c.pass {
			ok = "✗"
			failed++
		}
		fmt.Printf("| %s | %s | %s | %s | %s |\n", c.id, c.what, c.paper, c.measured, ok)
	}
	fmt.Printf("\n%d/%d checks passed\n", len(checks)-failed, len(checks))
	if failed > 0 {
		os.Exit(1)
	}
}

const figure1SQL = `
	create table R (A, B, C, D);
	insert into R values
		('a1', 10, 'c1', 2), ('a1', 15, 'c2', 6),
		('a2', 14, 'c3', 4), ('a2', 20, 'c4', 5),
		('a3', 20, 'c5', 6);
	create table S (C, E);
	insert into S values ('c2', 'e1'), ('c4', 'e1'), ('c4', 'e2');
`

func figure2DB() *maybms.DB {
	db := maybms.Open()
	if _, err := db.ExecScript(figure1SQL); err != nil {
		panic(err)
	}
	db.MustExec(`create table I as select A, B, C from R repair by key A weight D`)
	return db
}

func fmtProbs(ps []float64) string {
	sort.Float64s(ps)
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = fmt.Sprintf("%.2f", p)
	}
	return strings.Join(parts, "/")
}

func figure1And2() {
	db := maybms.Open()
	if _, err := db.ExecScript(figure1SQL); err != nil {
		panic(err)
	}
	r := db.MustExec("select count(*) from R").First().Rows()[0][0].AsInt()
	s := db.MustExec("select count(*) from S").First().Rows()[0][0].AsInt()
	record("Fig.1", "complete DB loads", "R:5, S:3 rows",
		fmt.Sprintf("R:%d, S:%d rows", r, s), r == 5 && s == 3)

	db = figure2DB()
	var probs []float64
	for _, w := range db.Worlds() {
		probs = append(probs, w.Prob)
	}
	want := []float64{1.0 / 9, 1.0 / 3, 5.0 / 36, 5.0 / 12}
	sort.Float64s(probs)
	sort.Float64s(want)
	pass := db.WorldCount() == 4
	for i := range want {
		if i >= len(probs) || !approx(probs[i], want[i]) {
			pass = false
		}
	}
	record("Fig.2/Ex.2.4", "repair by key A weight D", "4 worlds, P=0.11/0.14/0.33/0.42",
		fmt.Sprintf("%d worlds, P=%s", db.WorldCount(), fmtProbs(probs)), pass)
}

func examples() {
	// Ex 2.1: selection not materialized.
	db := figure2DB()
	res := db.MustExec("select * from I where A = 'a3'")
	allOne := len(res.PerWorld) == 4
	for _, wr := range res.PerWorld {
		if wr.Rel.Len() != 1 {
			allOne = false
		}
	}
	record("Ex.2.1", "per-world selection, no materialization", "1 tuple per world; world-set unchanged",
		fmt.Sprintf("%d worlds × %d tuple; still %d worlds", len(res.PerWorld), 1, db.WorldCount()),
		allOne && db.WorldCount() == 4)

	// Ex 2.2: create table D.
	db = figure2DB()
	db.MustExec("create table D as select * from I where A = 'a3'")
	haveD := 0
	for _, w := range db.Worlds() {
		if rel, ok := w.Relations["D"]; ok && rel.Len() == 1 {
			haveD++
		}
	}
	record("Ex.2.2", "create table materializes in each world", "D in all 4 worlds",
		fmt.Sprintf("D in %d worlds", haveD), haveD == 4)

	// Ex 2.3: unweighted repair.
	udb := maybms.OpenIncomplete()
	if _, err := udb.ExecScript(figure1SQL); err != nil {
		panic(err)
	}
	udb.MustExec("create table I as select A, B, C from R repair by key A")
	record("Ex.2.3", "unweighted repair world count", "4 worlds",
		fmt.Sprintf("%d worlds", udb.WorldCount()), udb.WorldCount() == 4)

	// Ex 2.5: assert + renormalization.
	db = figure2DB()
	db.MustExec("create table J as select * from I assert not exists(select * from I where C = 'c1')")
	var probs []float64
	for _, w := range db.Worlds() {
		probs = append(probs, w.Prob)
	}
	sort.Float64s(probs)
	pass := db.WorldCount() == 2 && approx(probs[0], 4.0/9) && approx(probs[1], 5.0/9)
	record("Ex.2.5", "assert drops worlds A,C; renormalizes", "2 worlds, P=0.44/0.56",
		fmt.Sprintf("%d worlds, P=%s", db.WorldCount(), fmtProbs(probs)), pass)

	// Ex 2.6: choice of E.
	db = maybms.Open()
	if _, err := db.ExecScript(figure1SQL); err != nil {
		panic(err)
	}
	res = db.MustExec("select * from S choice of E")
	sizes := []int{}
	for _, wr := range res.PerWorld {
		sizes = append(sizes, wr.Rel.Len())
	}
	sort.Ints(sizes)
	record("Ex.2.6", "choice of E partitions S", "2 worlds (partitions of 2 and 1 tuples)",
		fmt.Sprintf("%d worlds, partition sizes %v", len(res.PerWorld), sizes),
		len(sizes) == 2 && sizes[0] == 1 && sizes[1] == 2)

	// Ex 2.7: choice of A weight D.
	res = db.MustExec("select * from R choice of A weight D")
	probs = probs[:0]
	for _, wr := range res.PerWorld {
		probs = append(probs, wr.Prob)
	}
	sort.Float64s(probs)
	want := []float64{6.0 / 23, 8.0 / 23, 9.0 / 23}
	pass = len(probs) == 3
	for i := range want {
		if !pass || !approx(probs[i], want[i]) {
			pass = false
		}
	}
	record("Ex.2.7", "choice of A weight D", "3 worlds, P=0.26/0.35/0.39",
		fmt.Sprintf("%d worlds, P=%s", len(probs), fmtProbs(probs)), pass)

	// Ex 2.8: possible sum(B).
	db = figure2DB()
	rel := db.MustExec("select possible sum(B) from I").First()
	got := []int{}
	for _, tp := range rel.Rows() {
		got = append(got, int(tp[0].AsInt()))
	}
	sort.Ints(got)
	record("Ex.2.8", "select possible sum(B)", "{44, 49, 50, 55}",
		fmt.Sprintf("%v", got), fmt.Sprintf("%v", got) == "[44 49 50 55]")

	// Ex 2.9: certain E under choice of C.
	db = maybms.Open()
	if _, err := db.ExecScript(figure1SQL); err != nil {
		panic(err)
	}
	rel = db.MustExec("select certain E from S choice of C").First()
	record("Ex.2.9", "select certain E … choice of C", "{e1}",
		fmt.Sprintf("%v", rel.Rows()), rel.Len() == 1 && rel.Rows()[0][0].AsStr() == "e1")

	// Ex 2.10: conf. With Figure 2's data, sum(B) < 50 holds in worlds A
	// and B: 1/9 + 1/3 = 4/9. (The paper prints 0.53 = P(A)+P(D) while
	// citing a Time attribute absent from I; 19/36 ≈ 0.53 is reproduced by
	// the condition selecting exactly worlds A and D.)
	db = figure2DB()
	rel = db.MustExec("select conf from I where 50 > (select sum(B) from I)").First()
	gotConf := rel.Rows()[0][0].AsFloat()
	record("Ex.2.10a", "conf(sum(B)<50), Figure-2 data", "0.44 (worlds A,B; paper prints 0.53 — see Ex.2.10b)",
		fmt.Sprintf("%.4f", gotConf), approx(gotConf, 4.0/9))
	rel = db.MustExec("select conf from I where (select sum(B) from I) = 44 or (select sum(B) from I) = 55").First()
	gotConf = rel.Rows()[0][0].AsFloat()
	record("Ex.2.10b", "conf over worlds {A,D} (the paper's 0.53)", "0.53",
		fmt.Sprintf("%.4f", gotConf), approx(gotConf, 19.0/36))
}

const whaleSQL = `
	create table W (WID, Id, Species, Gender, Pos);
	insert into W values
		('A', 1, 'sperm', 'calf', 'b'), ('A', 2, 'sperm', 'cow', 'c'), ('A', 3, 'orca', 'cow', 'a'),
		('B', 1, 'sperm', 'calf', 'b'), ('B', 2, 'sperm', 'cow', 'c'), ('B', 3, 'orca', 'bull', 'a'),
		('C', 1, 'sperm', 'calf', 'b'), ('C', 2, 'sperm', 'bull', 'c'), ('C', 3, 'orca', 'cow', 'a'),
		('D', 1, 'sperm', 'calf', 'b'), ('D', 2, 'sperm', 'bull', 'c'), ('D', 3, 'orca', 'bull', 'a'),
		('E', 1, 'sperm', 'calf', 'c'), ('E', 2, 'sperm', 'cow', 'b'), ('E', 3, 'orca', 'cow', 'a'),
		('F', 1, 'sperm', 'calf', 'c'), ('F', 2, 'sperm', 'bull', 'b'), ('F', 3, 'orca', 'cow', 'a');
	create table I as select Id, Species, Gender, Pos from W choice of WID;
`

func whaleDB() *maybms.DB {
	db := maybms.OpenIncomplete()
	if _, err := db.ExecScript(whaleSQL); err != nil {
		panic(err)
	}
	return db
}

func whales() {
	db := whaleDB()
	record("Fig.3", "whale world-set", "6 worlds of 3 whales",
		fmt.Sprintf("%d worlds", db.WorldCount()), db.WorldCount() == 6)

	rel := db.MustExec("select possible 'yes' from I where Id=1 and Pos='b'").First()
	record("§3.1 Q", "possible orca-attacks-calf", "{(yes)}",
		fmt.Sprintf("%v", rel.Rows()), rel.Len() == 1 && rel.Rows()[0][0].AsStr() == "yes")

	db.MustExec(`create view Valid as select * from I assert exists
		(select * from I where Gender='cow' and Pos='b')`)
	rel = db.MustExec("select possible 'yes' from Valid where Id=1 and Pos='b'").First()
	relC := db.MustExec("select certain * from Valid").First()
	record("§3.1 Valid", "assert-view keeps world E only", "1 world; Q empty; certain * = I_E (3 tuples)",
		fmt.Sprintf("%d world(s); Q %d rows; certain %d tuples", db.WorldCount(), rel.Len(), relC.Len()),
		db.WorldCount() == 1 && rel.Empty() && relC.Len() == 3)

	db = whaleDB()
	db.MustExec(`create view ValidP as select * from I where exists
		(select * from I where Gender='cow' and Pos='b')`)
	nonEmpty := 0
	for _, w := range db.Worlds() {
		if !w.Relations["ValidP"].Empty() {
			nonEmpty++
		}
	}
	rel = db.MustExec("select certain * from ValidP").First()
	record("§3.1 Valid'", "where-view keeps 6 worlds", "6 worlds; non-empty only in E; certain * = ∅",
		fmt.Sprintf("%d worlds; non-empty in %d; certain %d tuples", db.WorldCount(), nonEmpty, rel.Len()),
		db.WorldCount() == 6 && nonEmpty == 1 && rel.Empty())

	db = whaleDB()
	db.MustExec(`create table Groups as
		select possible i2.Gender as G2, i3.Gender as G3
		from I i2, I i3 where i2.Id = 2 and i3.Id = 3
		group worlds by (select Pos from I where Id = 2)`)
	big4, small2 := 0, 0
	for _, w := range db.Worlds() {
		switch w.Relations["Groups"].Len() {
		case 4:
			big4++
		case 2:
			small2++
		}
	}
	record("Fig.4", "group-worlds-by Groups instances", "4 worlds with 4 combos, 2 with 2",
		fmt.Sprintf("%d with 4 combos, %d with 2", big4, small2), big4 == 4 && small2 == 2)

	res := db.MustExec(`select * from Groups g1, Groups g2
		where not exists (select * from Groups g3 where g3.G2 = g1.G2 and g3.G3 = g2.G3)`)
	indep := true
	for _, wr := range res.PerWorld {
		if !wr.Rel.Empty() {
			indep = false
		}
	}
	record("§3.1 indep", "Groups = πG2 × πG3 in every world", "independent (no missing combos)",
		fmt.Sprintf("independent=%v", indep), indep)
}

func cleaning() {
	db := maybms.OpenIncomplete()
	if _, err := db.ExecScript(`
		create table R (SSN, TEL);
		insert into R values (123, 456), (789, 123);
		create table S as
			select SSN, TEL, SSN as "SSN'", TEL as "TEL'" from R
			union
			select SSN, TEL, TEL as "SSN'", SSN as "TEL'" from R;
	`); err != nil {
		panic(err)
	}
	rel := db.MustExec("select count(*) from S").First()
	record("Fig.5", "swap-closure S", "4 rows",
		fmt.Sprintf("%d rows", rel.Rows()[0][0].AsInt()), rel.Rows()[0][0].AsInt() == 4)

	db.MustExec(`create table T as select "SSN'", "TEL'" from S repair by key SSN, TEL`)
	record("Fig.6", "possible readings T", "4 worlds",
		fmt.Sprintf("%d worlds", db.WorldCount()), db.WorldCount() == 4)

	db.MustExec(`create table U as select * from T assert not exists
		(select 'yes' from T t1, T t2
		 where t1."SSN'" = t2."SSN'" and t1."TEL'" <> t2."TEL'")`)
	record("Fig.7", "FD SSN'→TEL' assert", "3 worlds (reading B dropped)",
		fmt.Sprintf("%d worlds", db.WorldCount()), db.WorldCount() == 3)
}

func compact() {
	// The companion papers' scaling claim: linear representation for
	// exponentially many worlds, with exact confidence.
	cdb := maybms.OpenCompact()
	n := 1000
	rows := make([][]any, 0, 2*n)
	for k := 0; k < n; k++ {
		rows = append(rows, []any{k, 0, 1}, []any{k, 1, 3})
	}
	if err := cdb.Register("Dirty", []string{"K", "V", "W"}, rows); err != nil {
		panic(err)
	}
	cdb.MustExec("create table Repaired as select * from Dirty repair by key K weight W")
	count := cdb.WorldCount()
	wantBits := n + 1
	c := cdb.MustExec("select conf from Repaired where K = 5 and V = 1 and W = 3").First().Rows()[0][0].AsFloat()
	record("WSD scale", "repair of 1000 dirty keys (2 candidates each)",
		"2^1000 worlds in O(n) space; conf(t)=0.75 exact",
		fmt.Sprintf("%d-bit world count, %d alternatives, conf=%.2f", count.BitLen(), cdb.AlternativeCount(), c),
		count.BitLen() == wantBits && cdb.AlternativeCount() == 2*n && approx(c, 0.75))

	// "Complete → incomplete and back" (ref [2]): factorize the explicit
	// Figure-2 world-set back into components.
	ndb := figure2DB()
	compacted, err := ndb.Compact("I")
	if err != nil {
		panic(err)
	}
	cback := compacted.MustExec("select conf from I where A = 'a1' and B = 10 and C = 'c1'").First().Rows()[0][0].AsFloat()
	record("WSD back", "decompose the Figure-2 world-set (ref [2])",
		"2 components + certain part; conf(a1→10) = 0.25",
		fmt.Sprintf("%d components, conf=%.2f", compacted.ComponentCount(), cback),
		compacted.ComponentCount() == 2 && approx(cback, 0.25))

	// "10^10^6 worlds and beyond": a million binary components.
	big6 := maybms.OpenCompact()
	m := 1 << 20
	million := make([][]any, 0, 2*m)
	for k := 0; k < m; k++ {
		million = append(million, []any{k, 0}, []any{k, 1})
	}
	if err := big6.Register("Huge", []string{"K", "V"}, million); err != nil {
		panic(err)
	}
	big6.MustExec("create table HugeR as select * from Huge repair by key K")
	hugeCount := big6.WorldCount()
	digits := float64(hugeCount.BitLen()-1) * math.Log10(2)
	record("10^10^6", "world count of 2^(2^20) ≈ 10^315k worlds",
		"representable and countable (ref [1] title claim)",
		fmt.Sprintf("~10^%.0f worlds from %d alternatives", digits, big6.AlternativeCount()),
		hugeCount.Cmp(big.NewInt(0)) > 0 && digits > 300000)

	// The paper's aggregates on the compact engine: folded by convolution
	// over the independent components, which stay as they are.
	cfig, err := figure2DB().Compact("I")
	if err != nil {
		panic(err)
	}
	sums := []int{}
	for _, tp := range cfig.MustExec("select possible sum(B) from I").First().Rows() {
		sums = append(sums, int(tp[0].AsInt()))
	}
	sort.Ints(sums)
	record("Ex.2.8 WSD", "select possible sum(B), compact engine", "{44, 49, 50, 55}",
		fmt.Sprintf("%v, %d components, route %s", sums, cfig.ComponentCount(), routeOf(cfig)),
		fmt.Sprintf("%v", sums) == "[44 49 50 55]" && cfig.ComponentCount() == 2 && cfig.MergeCount() == 0)
	cconf := cfig.MustExec("select conf from I where 50 > (select sum(B) from I)").First().Rows()[0][0].AsFloat()
	record("Ex.2.10a WSD", "conf(sum(B)<50), compact engine", "0.44 (as Ex.2.10a)",
		fmt.Sprintf("%.4f, %d components, route %s", cconf, cfig.ComponentCount(), routeOf(cfig)),
		approx(cconf, 4.0/9) && cfig.ComponentCount() == 2 && cfig.MergeCount() == 0)

	// The same two statements over 2^1000 worlds: 1 000 independent keys,
	// key k repaired between V = k%10 (weight 1) and 10 + k%10 (weight 3).
	// The sum is 4 500 + 10j where j keys take their second value, so 1 001
	// sums, and below 12 000 iff j < 750.
	p4 := maybms.OpenCompact()
	p4rows := make([][]any, 0, 2*n)
	for k := 0; k < n; k++ {
		p4rows = append(p4rows, []any{k, k % 10, 1}, []any{k, 10 + k%10, 3})
	}
	if err := p4.Register("MSrc", []string{"K", "V", "W"}, p4rows); err != nil {
		panic(err)
	}
	p4.MustExec("create table M as select K, V from MSrc repair by key K weight W")
	nsums := p4.MustExec("select possible sum(V) from M").First().Len()
	p4conf := p4.MustExec("select conf from M where 12000 > (select sum(V) from M)").First().Rows()[0][0].AsFloat()
	want := 0.0
	for j := 0; j < 750; j++ {
		ln, _ := math.Lgamma(float64(n + 1))
		lj, _ := math.Lgamma(float64(j + 1))
		lr, _ := math.Lgamma(float64(n - j + 1))
		want += math.Exp(ln - lj - lr + float64(j)*math.Log(0.75) + float64(n-j)*math.Log(0.25))
	}
	record("P4 scale", "Ex.2.8 and Ex.2.10 over 1000 independent keys", "1001 sums; conf = P(Binomial(1000, 3/4) < 750); no merge",
		fmt.Sprintf("%d sums, conf=%.4f, %d components, %d merges", nsums, p4conf, p4.ComponentCount(), p4.MergeCount()),
		nsums == n+1 && math.Abs(p4conf-want) < 1e-9 && p4.ComponentCount() == n && p4.MergeCount() == 0)
}

// routeOf names the one route a compact database's statements took so far,
// or lists them all.
func routeOf(db *maybms.CompactDB) string {
	var taken []string
	for route, n := range db.RouteCounts() {
		if n > 0 {
			taken = append(taken, route)
		}
	}
	sort.Strings(taken)
	return strings.Join(taken, "+")
}
