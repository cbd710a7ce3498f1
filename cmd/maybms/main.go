// Command maybms is an interactive I-SQL shell over the MayBMS engine.
//
// Usage:
//
//	maybms [-incomplete] [-compact] [-f script.isql]
//
// Without -f it reads statements from stdin (terminated by ';'). The shell
// holds one engine — the naive enumerating one, or with -compact the
// world-set-decomposition one, over world-sets far beyond enumeration — and
// runs every statement through internal/core's statement runner, as the
// server and the embedding API do.
// Besides I-SQL, the shell understands the meta commands:
//
//	\worlds   print the full world-set (naive) / the decomposition summary (compact)
//	\count    print the number of worlds
//	\stats    print engine counters and shared-plan-cache statistics
//	\explain <stmt>  shorthand for EXPLAIN <stmt> (routing + plan tree)
//	\import <table> <file.csv> [options]  shorthand for IMPORT INTO
//	         <table> FROM '<file.csv>' [options] (bulk CSV load; options
//	         as in the statement: NULLS AS CHOICE, REPAIR KEY (…) WEIGHT w)
//	\trace on|off    print each statement's span trace after its result
//	\help     list commands
//	\quit     exit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"

	"maybms/internal/core"
	"maybms/internal/obs"
	"maybms/internal/plan"
	"maybms/internal/wsd"
)

func main() {
	incomplete := flag.Bool("incomplete", false, "open a non-probabilistic (unweighted) database")
	compact := flag.Bool("compact", false, "run on the compact (world-set decomposition) backend")
	script := flag.String("f", "", "execute the statements in this file and exit")
	flag.Parse()

	var eng core.Engine = core.NewSession(!*incomplete)
	if *compact {
		eng = wsd.New(!*incomplete)
	}

	if *script != "" {
		if err := runScript(eng, *script, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "maybms:", err)
			os.Exit(1)
		}
		return
	}

	if *compact {
		fmt.Println("MayBMS/Go — I-SQL shell, compact backend (\\help for commands)")
	} else {
		fmt.Println("MayBMS/Go — I-SQL shell (\\help for commands)")
	}
	repl(eng, os.Stdin, os.Stdout)
}

const helpText = `I-SQL statements end with ';'. Meta commands:
  \worlds  print the full world-set (naive) / the decomposition (compact)
  \count   print the number of worlds
  \stats   print engine counters and shared-plan-cache statistics
  \explain <stmt>  shorthand for EXPLAIN <stmt> (routing + plan tree)
  \import <table> <file.csv> [options]  bulk CSV load (IMPORT INTO shorthand;
           options: NULLS AS CHOICE, REPAIR KEY (cols) WEIGHT w)
  \trace on|off    print each statement's span trace after its result
  \quit    exit`

// printEngine prints the engine-specific lines of \worlds (the naive
// engine's worlds, each relation in name order; the compact engine's
// decomposition summary, never enumerated) or \stats.
func printEngine(eng core.Engine, cmd string, out io.Writer) {
	switch e := eng.(type) {
	case *core.Session:
		if cmd == `\stats` {
			fmt.Fprintf(out, "worlds: %s\n", e.Worlds())
			return
		}
		for _, w := range e.Set().Worlds {
			if e.Weighted() {
				fmt.Fprintf(out, "world %s (P = %.4f)\n", w.Name, w.Prob)
			} else {
				fmt.Fprintf(out, "world %s\n", w.Name)
			}
			for _, name := range w.Names() {
				rel, _ := w.Lookup(name)
				fmt.Fprintf(out, "%s:\n%s", name, rel)
			}
		}
	case *wsd.WSD:
		if cmd == `\stats` {
			fmt.Fprintf(out, "worlds: %s, components: %d, alternatives: %d\n",
				e.WorldCount(), e.ComponentCount(), e.AlternativeCount())
			routes := e.RouteCounts()
			fmt.Fprintf(out, "merges: %d\nroutes:", e.MergeCount())
			for _, word := range slices.Sorted(maps.Keys(routes)) {
				fmt.Fprintf(out, " %s=%d", word, routes[word])
			}
			fmt.Fprintln(out)
			return
		}
		fmt.Fprintln(out, e)
	}
}

// runScript executes a .isql file statement by statement, printing each
// statement's result.
func runScript(eng core.Engine, path string, out io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	results, err := core.ExecScript(eng, string(data))
	for _, res := range results {
		fmt.Fprint(out, res)
	}
	return err
}

// repl reads statements (terminated by ';') and meta commands from in,
// writing results to out, until EOF or \quit.
func repl(eng core.Engine, in io.Reader, out io.Writer) {
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Fprint(out, "maybms> ")
		} else {
			fmt.Fprint(out, "   ...> ")
		}
	}
	tracing := false
	// run executes one statement and prints its result or error, then its
	// span trace when traced.
	run := func(stmt string, traced bool) {
		var tr *obs.Trace
		if traced {
			tr = obs.NewTrace(stmt)
		}
		if res, err := core.ExecTraced(eng, stmt, nil, tr); err != nil {
			fmt.Fprintln(out, "error:", err)
		} else {
			fmt.Fprint(out, res)
		}
		fmt.Fprint(out, tr.Render())
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			fields := strings.Fields(trimmed)
			switch fields[0] {
			case "\\quit", "\\q":
				return
			case "\\help":
				fmt.Fprintln(out, helpText)
			case "\\explain":
				rest := strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(trimmed, "\\explain")), ";")
				if rest == "" {
					fmt.Fprintln(out, "usage: \\explain <statement>")
				} else {
					run("EXPLAIN "+rest, false)
				}
			case "\\import":
				if len(fields) < 3 {
					fmt.Fprintln(out, "usage: \\import <table> <file.csv> [NULLS AS CHOICE] [REPAIR KEY (cols) [WEIGHT w]]")
				} else {
					path := strings.ReplaceAll(fields[2], "'", "''")
					stmt := fmt.Sprintf("IMPORT INTO %s FROM '%s'", fields[1], path)
					if rest := strings.Join(fields[3:], " "); rest != "" {
						stmt += " " + strings.TrimSuffix(rest, ";")
					}
					run(stmt, false)
				}
			case "\\trace":
				switch {
				case len(fields) == 2 && fields[1] == "on":
					tracing = true
					fmt.Fprintln(out, "tracing on")
				case len(fields) == 2 && fields[1] == "off":
					tracing = false
					fmt.Fprintln(out, "tracing off")
				default:
					fmt.Fprintln(out, "usage: \\trace on|off")
				}
			case "\\worlds":
				printEngine(eng, fields[0], out)
			case "\\count":
				fmt.Fprintln(out, eng.Worlds(), "world(s)")
			case "\\stats":
				printEngine(eng, fields[0], out)
				st := plan.SharedCache().Stats()
				fmt.Fprintf(out, "plan cache (shared): hits %d, misses %d, evictions %d\n", st.Hits, st.Misses, st.Evictions)
			default:
				fmt.Fprintln(out, "unknown command; try \\help")
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		if strings.HasSuffix(trimmed, ";") {
			run(buf.String(), tracing)
			buf.Reset()
		}
		prompt()
	}
}
