// Command maybms is an interactive I-SQL shell over the MayBMS engine.
//
// Usage:
//
//	maybms [-incomplete] [-compact] [-f script.isql]
//
// Without -f it reads statements from stdin (terminated by ';'). -compact
// runs the shell on the compact world-set-decomposition backend instead
// of the naive enumerating engine: the statement executor of internal/wsd,
// which the server's compact sessions run too, over world-sets far beyond
// enumeration.
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
	"os"
	"strings"

	"maybms"
	"maybms/internal/sqlparse"
)

func main() {
	incomplete := flag.Bool("incomplete", false, "open a non-probabilistic (unweighted) database")
	compact := flag.Bool("compact", false, "run on the compact (world-set decomposition) backend")
	script := flag.String("f", "", "execute the statements in this file and exit")
	flag.Parse()

	var eng engine
	if *compact {
		if *incomplete {
			eng = &compactShell{db: maybms.OpenCompactIncomplete()}
		} else {
			eng = &compactShell{db: maybms.OpenCompact()}
		}
	} else {
		if *incomplete {
			eng = &naiveShell{db: maybms.OpenIncomplete()}
		} else {
			eng = &naiveShell{db: maybms.Open()}
		}
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

// engine is the backend the shell drives: statement execution plus the
// backend-specific meta commands (\worlds, \count, \stats). The
// backend-independent commands (\quit, \help, unknown) live in repl.
type engine interface {
	exec(stmt string) (*maybms.Result, error)
	// execTraced runs one statement with a fresh span trace installed
	// (driven by \trace on).
	execTraced(stmt string) (*maybms.Result, *maybms.Trace, error)
	// meta handles a backend-specific backslash command; it reports
	// whether the command was recognized.
	meta(cmd string, out io.Writer) bool
}

// printCacheStats renders the shared plan cache counters (common to both
// backends).
func printCacheStats(out io.Writer) {
	st := maybms.SharedPlanCacheStats()
	fmt.Fprintf(out, "plan cache (shared): hits %d, misses %d, evictions %d\n", st.Hits, st.Misses, st.Evictions)
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

// naiveShell drives the enumerating engine.
type naiveShell struct {
	db *maybms.DB
}

func (n *naiveShell) exec(stmt string) (*maybms.Result, error) { return n.db.Exec(stmt) }

func (n *naiveShell) execTraced(stmt string) (*maybms.Result, *maybms.Trace, error) {
	return n.db.ExecTraced(stmt)
}

func (n *naiveShell) meta(cmd string, out io.Writer) bool {
	switch strings.Fields(cmd)[0] {
	case "\\worlds":
		for _, w := range n.db.Worlds() {
			if n.db.Weighted() {
				fmt.Fprintf(out, "world %s (P = %.4f)\n", w.Name, w.Prob)
			} else {
				fmt.Fprintf(out, "world %s\n", w.Name)
			}
			for name, rel := range w.Relations {
				fmt.Fprintf(out, "%s:\n%s", name, rel)
			}
		}
	case "\\count":
		fmt.Fprintln(out, n.db.WorldCount(), "world(s)")
	case "\\stats":
		fmt.Fprintf(out, "worlds: %d\n", n.db.WorldCount())
		printCacheStats(out)
	default:
		return false
	}
	return true
}

// compactShell drives the world-set-decomposition engine. The world-set
// can be astronomically large, so \worlds prints the decomposition
// summary instead of enumerating.
type compactShell struct {
	db *maybms.CompactDB
}

func (c *compactShell) exec(stmt string) (*maybms.Result, error) { return c.db.Exec(stmt) }

func (c *compactShell) execTraced(stmt string) (*maybms.Result, *maybms.Trace, error) {
	return c.db.ExecTraced(stmt)
}

func (c *compactShell) meta(cmd string, out io.Writer) bool {
	switch strings.Fields(cmd)[0] {
	case "\\worlds":
		fmt.Fprintln(out, c.db.String())
	case "\\count":
		fmt.Fprintln(out, c.db.WorldCount(), "world(s)")
	case "\\stats":
		fmt.Fprintf(out, "worlds: %s, components: %d, alternatives: %d\n",
			c.db.WorldCount(), c.db.ComponentCount(), c.db.AlternativeCount())
		fmt.Fprintf(out, "merges: %d, componentwise: %d, conditional: %d\n",
			c.db.MergeCount(), c.db.ComponentwiseCount(), c.db.ConditionalCount())
		printCacheStats(out)
	default:
		return false
	}
	return true
}

// runScript executes a .isql file statement by statement, printing each
// statement's result.
func runScript(eng engine, path string, out io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	stmts, err := sqlparse.ParseScript(string(data))
	if err != nil {
		return err
	}
	for _, stmt := range stmts {
		res, err := eng.exec(stmt.String())
		if err != nil {
			return fmt.Errorf("executing %q: %w", stmt, err)
		}
		fmt.Fprint(out, res)
	}
	return nil
}

// repl reads statements (terminated by ';') and meta commands from in,
// writing results to out, until EOF or \quit.
func repl(eng engine, in io.Reader, out io.Writer) {
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
				} else if res, err := eng.exec("EXPLAIN " + rest); err != nil {
					fmt.Fprintln(out, "error:", err)
				} else {
					fmt.Fprint(out, res)
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
					if res, err := eng.exec(stmt); err != nil {
						fmt.Fprintln(out, "error:", err)
					} else {
						fmt.Fprint(out, res)
					}
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
			default:
				if !eng.meta(trimmed, out) {
					fmt.Fprintln(out, "unknown command; try \\help")
				}
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		if strings.HasSuffix(trimmed, ";") {
			stmt := buf.String()
			buf.Reset()
			if tracing {
				res, tr, err := eng.execTraced(stmt)
				if err != nil {
					fmt.Fprintln(out, "error:", err)
				} else {
					fmt.Fprint(out, res)
				}
				fmt.Fprint(out, tr.Render())
			} else if res, err := eng.exec(stmt); err != nil {
				fmt.Fprintln(out, "error:", err)
			} else {
				fmt.Fprint(out, res)
			}
		}
		prompt()
	}
}
