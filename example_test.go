package maybms_test

import (
	"fmt"
	"sort"
	"strings"

	"maybms"
)

// ExampleOpen reproduces the paper's Figure 2 workflow: repairing a dirty
// key creates a probabilistic world-set.
func ExampleOpen() {
	db := maybms.Open()
	db.MustExec(`create table R (A, B, C, D)`)
	db.MustExec(`insert into R values
		('a1', 10, 'c1', 2), ('a1', 15, 'c2', 6),
		('a2', 14, 'c3', 4), ('a2', 20, 'c4', 5),
		('a3', 20, 'c5', 6)`)
	db.MustExec(`create table I as select A, B, C from R repair by key A weight D`)

	probs := make([]float64, 0, db.WorldCount())
	for _, w := range db.Worlds() {
		probs = append(probs, w.Prob)
	}
	sort.Float64s(probs)
	fmt.Println("worlds:", db.WorldCount())
	for _, p := range probs {
		fmt.Printf("%.2f\n", p)
	}
	// Output:
	// worlds: 4
	// 0.11
	// 0.14
	// 0.33
	// 0.42
}

// ExampleDB_Exec_possible shows the POSSIBLE closure of Example 2.8.
func ExampleDB_Exec_possible() {
	db := maybms.Open()
	db.MustExec(`create table R (A, B, D)`)
	db.MustExec(`insert into R values
		('a1', 10, 2), ('a1', 15, 6), ('a2', 14, 4), ('a2', 20, 5), ('a3', 20, 6)`)
	db.MustExec(`create table I as select A, B from R repair by key A weight D`)

	res, err := db.Exec(`select possible sum(B) from I`)
	if err != nil {
		panic(err)
	}
	fmt.Print(res.First()) // relations print in canonical order
	// Output:
	// sum
	// ---
	// 44
	// 49
	// 50
	// 55
}

// ExampleDB_Exec_conf computes per-tuple confidences.
func ExampleDB_Exec_conf() {
	db := maybms.Open()
	db.MustExec(`create table R (A, B, D)`)
	db.MustExec(`insert into R values ('a1', 10, 1), ('a1', 15, 3)`)
	db.MustExec(`create table I as select A, B from R repair by key A weight D`)

	res, err := db.Exec(`select B, conf from I`)
	if err != nil {
		panic(err)
	}
	fmt.Print(res.First())
	// Output:
	// B   conf
	// --  ----
	// 10  0.25
	// 15  0.75
}

// ExampleOpenCompact demonstrates the world-set decomposition backend:
// exponentially many worlds, linear space, exact confidence.
func ExampleOpenCompact() {
	cdb := maybms.OpenCompact()
	rows := make([][]any, 0, 200)
	for k := 0; k < 100; k++ {
		rows = append(rows, []any{k, "keep", 3}, []any{k, "drop", 1})
	}
	if err := cdb.Register("Dirty", []string{"K", "V", "W"}, rows); err != nil {
		panic(err)
	}
	cdb.MustExec("create table Clean as select * from Dirty repair by key K weight W")
	fmt.Println("components:", cdb.ComponentCount())
	fmt.Println("world count bits:", cdb.WorldCount().BitLen()) // 2^100
	res, err := cdb.Exec("select conf from Clean where K = 7 and V = 'keep' and W = 3")
	if err != nil {
		panic(err)
	}
	fmt.Printf("conf = %.2f\n", res.First().Rows()[0][0].AsFloat())
	// Output:
	// components: 100
	// world count bits: 101
	// conf = 0.75
}

// ExampleCompactDB_Exec_conf asks for confidences across a join and a
// self-join of a repaired relation. The self-join correlates two customers'
// independent repairs, so the compact engine merges their two components
// once; the naive engine, enumerating the worlds, gives the same answers.
func ExampleCompactDB_Exec_conf() {
	const script = `
		create table Raw (CID, City, W);
		insert into Raw values (1, 'vienna', 3), (1, 'graz', 1),
			(2, 'vienna', 3), (2, 'linz', 1), (3, 'linz', 2);
		create table Customer as select CID, City from Raw repair by key CID weight W;
		create table Region (City, Region);
		insert into Region values ('vienna', 'east'), ('graz', 'south'), ('linz', 'north');
		select CID, Region, conf from Customer C, Region R where C.City = R.City;
		select conf from Customer C1, Region R1, Customer C2, Region R2 where C1.City = R1.City
			and C2.City = R2.City and C1.CID = 1 and C2.CID = 2 and R1.Region = 'east' and R2.Region = 'east';
		select conf from Customer C1, Region R1, Customer C2, Region R2 where C1.City = R1.City
			and C2.City = R2.City and C1.CID = 1 and C2.CID = 2 and R1.Region = 'south' and R2.Region = 'south'`
	// The last three results are the answers; each prints its rows sorted.
	answers := func(results []*maybms.Result) string {
		var b strings.Builder
		for _, r := range results[len(results)-3:] {
			fmt.Fprintln(&b, r.First())
		}
		return b.String()
	}
	cdb := maybms.OpenCompact()
	compact, err := cdb.ExecScript(script)
	if err != nil {
		panic(err)
	}
	naive, err := maybms.Open().ExecScript(script)
	if err != nil {
		panic(err)
	}
	fmt.Print(answers(compact))
	fmt.Println("merges:", cdb.MergeCount())
	fmt.Println("naive engine agrees:", answers(naive) == answers(compact))
	// Output:
	// CID  Region  conf
	// ---  ------  ----
	// 1    east    0.75
	// 1    south   0.25
	// 2    east    0.75
	// 2    north   0.25
	// 3    north   1.0
	//
	// conf
	// ------
	// 0.5625
	//
	// conf
	// ----
	// (empty)
	//
	// merges: 1
	// naive engine agrees: true
}
