package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"maybms/internal/server"
)

// A digest folds canonical answers into one value that does not depend
// on the order in which they arrive: clients run side by side, so the
// order of responses differs between runs while the answers do not.
type digest struct {
	sum uint64
	n   int
}

func (d *digest) merge(o digest) { d.sum += o.sum; d.n += o.n }

func (d digest) String() string { return fmt.Sprintf("%016x/%d", d.sum, d.n) }

// fold decodes one response line and adds its canonical form.
func (d *digest) fold(class string, line []byte) error {
	a, err := decodeAnswer(line)
	if err != nil {
		return err
	}
	h := sha256.Sum256([]byte(a.canonical(class)))
	d.sum += binary.LittleEndian.Uint64(h[:8])
	d.n++
	return nil
}

// An answer is a decoded response reduced to what the check compares: a
// list of groups (worlds, world groups, or the one closed relation), each
// a probability and a bag of rows.
type answer struct {
	kind   string
	msg    string
	groups []group
}

type group struct {
	prob float64
	cols []string
	rows [][]any
}

func decodeAnswer(line []byte) (*answer, error) {
	var resp server.Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	if !resp.OK {
		return nil, fmt.Errorf("statement failed: %s", resp.Error)
	}
	a := &answer{kind: resp.Kind, msg: resp.Msg}
	for _, w := range resp.Worlds {
		a.groups = append(a.groups, group{w.Prob, w.Columns, w.Rows.Rows})
	}
	for _, g := range resp.Groups {
		a.groups = append(a.groups, group{g.Prob, g.Columns, g.Rows.Rows})
	}
	return a, nil
}

// cell renders one value; numbers keep nine significant digits, the
// precision to which the backends' confidences agree.
func cell(v any) string {
	switch x := v.(type) {
	case nil:
		return "∅"
	case float64:
		return fmt.Sprintf("%.9g", x)
	case string:
		return "'" + x + "'"
	default:
		return fmt.Sprint(x)
	}
}

func rowKey(row []any) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = cell(v)
	}
	return strings.Join(parts, ",")
}

// key renders a bag of rows independent of their order.
func (g group) key() string {
	keys := make([]string, len(g.rows))
	for i, r := range g.rows {
		keys[i] = rowKey(r)
	}
	sort.Strings(keys)
	return strings.Join(g.cols, ",") + "{" + strings.Join(keys, ";") + "}"
}

// canonical renders the answer independent of row and group order.
// EXPLAIN output quotes the statement, nonce and all, so only its arrival
// is recorded.
func (a *answer) canonical(class string) string {
	if strings.HasPrefix(class, "explain") {
		return "explain"
	}
	keys := make([]string, len(a.groups))
	for i, g := range a.groups {
		keys[i] = fmt.Sprintf("%.9g", g.prob) + g.key()
	}
	sort.Strings(keys)
	return a.kind + "|" + a.msg + "|" + strings.Join(keys, "|")
}

// sameAnswers reports whether a naive and a compact answer to the same
// statement agree, and if not, why. Acknowledgements are worded per
// backend and EXPLAIN describes the backend, so of those only success is
// compared; the effect of DML shows in the reads that follow it.
func sameAnswers(class string, naive, compact *answer) error {
	switch {
	case naive.kind == "ok" || compact.kind == "ok":
		if naive.kind != compact.kind {
			return fmt.Errorf("kinds differ: naive %s, compact %s", naive.kind, compact.kind)
		}
		return nil
	case naive.kind == "worlds" && compact.kind == "closed":
		return sameWorlds(naive, compact)
	case naive.kind != compact.kind:
		return fmt.Errorf("kinds differ: naive %s, compact %s", naive.kind, compact.kind)
	}
	if len(naive.groups) != len(compact.groups) {
		return fmt.Errorf("naive has %d group(s), compact %d", len(naive.groups), len(compact.groups))
	}
	ng, cg := sortedGroups(naive.groups), sortedGroups(compact.groups)
	for i := range ng {
		if math.Abs(ng[i].prob-cg[i].prob) > 1e-9 {
			return fmt.Errorf("group probabilities differ: naive %v, compact %v", ng[i].prob, cg[i].prob)
		}
		if err := sameRows(ng[i].rows, cg[i].rows); err != nil {
			return err
		}
	}
	return nil
}

func sortedGroups(gs []group) []group {
	out := append([]group(nil), gs...)
	sort.Slice(out, func(i, j int) bool { return out[i].key() < out[j].key() })
	return out
}

// sameRows compares two bags of rows, numbers to 1e-9.
func sameRows(a, b [][]any) error {
	if len(a) != len(b) {
		return fmt.Errorf("naive has %d row(s), compact %d", len(a), len(b))
	}
	sorted := func(rows [][]any) [][]any {
		out := append([][]any(nil), rows...)
		sort.Slice(out, func(i, j int) bool { return rowKey(out[i]) < rowKey(out[j]) })
		return out
	}
	a, b = sorted(a), sorted(b)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("row widths differ: naive %v, compact %v", a[i], b[i])
		}
		for j := range a[i] {
			x, xok := a[i][j].(float64)
			y, yok := b[i][j].(float64)
			if xok && yok {
				if math.Abs(x-y) > 1e-9 {
					return fmt.Errorf("rows differ: naive %v, compact %v", a[i], b[i])
				}
			} else if cell(a[i][j]) != cell(b[i][j]) {
				return fmt.Errorf("rows differ: naive %v, compact %v", a[i], b[i])
			}
		}
	}
	return nil
}

// sameWorlds compares the naive backend's per-world answers with the
// compact backend's conditional relation, whose last column holds for each
// row the choices ("c3=1,c7=0") under which it is in the answer. The
// response does not say how many alternatives a component has, so the
// relation is decoded over the alternatives it names plus, per component,
// one that contributes nothing. Every naive world's answer must be among
// the decoded ones, and every decoded answer that uses only named
// alternatives must be some naive world's.
func sameWorlds(naive, compact *answer) error {
	if len(compact.groups) != 1 {
		return fmt.Errorf("compact per-world answer has %d groups, want one relation", len(compact.groups))
	}
	rel := compact.groups[0]
	nw := map[string]bool{}
	for _, g := range naive.groups {
		nw[bagKey(g.rows)] = true
	}
	if n := len(rel.cols); n == 0 || rel.cols[n-1] != "cond" {
		// No condition column: the answer is the same in every world.
		if len(nw) != 1 || !nw[bagKey(rel.rows)] {
			return fmt.Errorf("compact gives one unconditional answer, naive %d distinct one(s)", len(nw))
		}
		return nil
	}

	type choice struct{ comp, alt string }
	var conds [][]choice
	alts := map[string][]string{}
	for _, row := range rel.rows {
		text, _ := row[len(row)-1].(string)
		var cs []choice
		for _, term := range strings.Split(text, ",") {
			if term == "" {
				continue
			}
			comp, alt, ok := strings.Cut(term, "=")
			if !ok {
				return fmt.Errorf("cannot read condition %q", text)
			}
			cs = append(cs, choice{comp, alt})
			if !slices.Contains(alts[comp], alt) {
				alts[comp] = append(alts[comp], alt)
			}
		}
		conds = append(conds, cs)
	}
	comps := make([]string, 0, len(alts))
	worlds := 1
	for comp := range alts {
		comps = append(comps, comp)
		if worlds *= len(alts[comp]) + 1; worlds > 1<<16 {
			return fmt.Errorf("conditional relation spans more than 2^16 decodings")
		}
	}
	sort.Strings(comps)

	decoded := map[string]bool{} // answer → uses only named alternatives
	pick := map[string]string{}
	var walk func(i int, named bool)
	walk = func(i int, named bool) {
		if i == len(comps) {
			var rows [][]any
			for r, cs := range conds {
				in := true
				for _, c := range cs {
					in = in && pick[c.comp] == c.alt
				}
				if in {
					rows = append(rows, rel.rows[r][:len(rel.rows[r])-1])
				}
			}
			k := bagKey(rows)
			decoded[k] = decoded[k] || named
			return
		}
		for _, a := range alts[comps[i]] {
			pick[comps[i]] = a
			walk(i+1, named)
		}
		pick[comps[i]] = "" // an alternative the relation does not name
		walk(i+1, false)
	}
	walk(0, true)

	for k := range nw {
		if _, ok := decoded[k]; !ok {
			return fmt.Errorf("a naive world's answer is not among the %d decoded from the conditional relation", len(decoded))
		}
	}
	for k, named := range decoded {
		if named && !nw[k] {
			return fmt.Errorf("the conditional relation decodes to an answer no naive world has")
		}
	}
	return nil
}

// bagKey renders rows as a set: per-world answers are compared as sets of
// tuples, the granularity at which POSSIBLE and CERTAIN close them.
func bagKey(rows [][]any) string {
	seen := map[string]bool{}
	for _, r := range rows {
		seen[rowKey(r)] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// answerCheck runs the workload at smoke scale, where every session has
// at most 2^10 worlds, on the backends it names and on the opposite ones,
// through the same TCP path, and requires equal answers statement by
// statement. A statement its own backend fails is a failure; one that
// only the compact backend refuses has no counterpart and is skipped.
func answerCheck(o options, name string, res *result) error {
	w, err := generate(name, o.seed, "smoke")
	if err != nil {
		return err
	}
	dataDir := filepath.Join(o.workDir, "data", name+".check")
	if err := w.writeFiles(dataDir); err != nil {
		return err
	}
	srv, err := startServer(o.bin)
	if err != nil {
		return err
	}
	defer srv.stop()
	cn, err := dial(srv.addr)
	if err != nil {
		return err
	}
	defer cn.c.Close()

	f := w.flipped()
	compared, skipped := 0, 0
	for c := 0; c < clients; c++ {
		stmts := append(append([]stmt(nil), w.Setup[c]...), w.Scripts[c]...)
		own, err := w.prepare(stmts, c, 0, nonceBase, dataDir)
		if err != nil {
			return err
		}
		other, err := f.prepare(stmts, c, 0, nonceBase, dataDir)
		if err != nil {
			return err
		}
		for i := range stmts {
			res.Attempted++
			line, err := cn.roundTrip(own[i].line)
			if err != nil {
				return err
			}
			a, err := decodeAnswer(line)
			if err != nil {
				res.fail(1, "answer check: %s: %.120s: %v", own[i].req.Session, own[i].req.Query, err)
				continue
			}
			if line, err = cn.roundTrip(other[i].line); err != nil {
				return err
			}
			b, err := decodeAnswer(line)
			if err != nil {
				if other[i].req.Backend == "compact" {
					skipped++
					continue
				}
				res.fail(1, "answer check: the naive backend fails what the compact one answers: %.120s: %v", own[i].req.Query, err)
				continue
			}
			if own[i].req.Backend == "compact" {
				a, b = b, a
			}
			if err := sameAnswers(stmts[i].Class, a, b); err != nil {
				res.fail(1, "answer check: %.120s: %v", own[i].req.Query, err)
				continue
			}
			compared++
		}
	}
	res.Counts["check_compared"] = float64(compared)
	res.Counts["check_skipped"] = float64(skipped)
	return nil
}
