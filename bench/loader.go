package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"maybms/internal/server"
)

// Every sampleEvery-th script position, from sampleFirst on, has its
// response decoded in full and folded into the answer digest; all others
// are only checked for "ok" and counted. Scripts open with loads and
// acknowledgements, which say little about the data, so sampling starts
// past them.
const (
	sampleEvery = 16
	sampleFirst = 5
)

// A conn is one client's TCP connection to the line protocol.
type conn struct {
	c    net.Conn
	r    *bufio.Reader
	line []byte // reused across responses
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial server: %w", err)
	}
	return &conn{c: c, r: bufio.NewReaderSize(c, 256<<10)}, nil
}

// roundTrip sends one request line and returns the response line, which
// is valid until the next call.
func (c *conn) roundTrip(req []byte) ([]byte, error) {
	if _, err := c.c.Write(req); err != nil {
		return nil, fmt.Errorf("send request: %w", err)
	}
	c.line = c.line[:0]
	for {
		part, err := c.r.ReadSlice('\n')
		c.line = append(c.line, part...)
		if err == nil {
			return c.line, nil
		}
		if !errors.Is(err, bufio.ErrBufferFull) {
			return nil, fmt.Errorf("read response: %w", err)
		}
	}
}

var okPrefix = []byte(`{"ok":true`)

// A request is one statement made ready to send.
type request struct {
	st   *stmt
	req  server.Request
	line []byte
	// twin is the same statement for the traced pass's second server. Its
	// nonce differs, so that a text new to the plan cache is new on both
	// servers although they share the process-wide cache.
	twin *server.Request
}

// Nonces start at these numbers. Both keep nine digits for the 400
// rounds a run can reach, so byte counts do not depend on the round.
const (
	nonceBase     = 100_000_000
	twinNonceBase = 500_000_000
)

// prepare renders client c's statements for one round: it substitutes
// the nonces and the paths of the workload's files. Statement i of round
// r gets nonce base + (r*clients+c)*100000 + i, which no other statement
// of the run gets while scripts stay under 100000 statements.
func (w *workload) prepare(stmts []stmt, c, round, base int, dataDir string) ([]request, error) {
	first := base + (round*clients+c)*100_000
	rn := strconv.Itoa(first)
	out := make([]request, len(stmts))
	for i := range stmts {
		st := &stmts[i]
		s := w.Sessions[st.Sess]
		r := server.Request{Session: strings.ReplaceAll(s.Name, roundNonce, rn), Backend: s.Backend}
		if st.Class == "close" {
			r.Op = server.OpClose
		} else {
			q := strings.ReplaceAll(st.SQL, nonce, strconv.Itoa(first+i))
			if strings.Contains(q, "{file:") {
				for name := range w.Files {
					q = strings.ReplaceAll(q, "{file:"+name+"}", filepath.Join(dataDir, name))
				}
			}
			r.Query = q
		}
		line, err := json.Marshal(&r)
		if err != nil {
			return nil, fmt.Errorf("encode request: %w", err)
		}
		out[i] = request{st: st, req: r, line: append(line, '\n')}
	}
	return out, nil
}

// writeFiles writes the workload's CSV inputs under dataDir.
func (w *workload) writeFiles(dataDir string) error {
	if len(w.Files) == 0 {
		return nil
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return fmt.Errorf("create data directory: %w", err)
	}
	for name, body := range w.Files {
		if err := os.WriteFile(filepath.Join(dataDir, name), []byte(body), 0o644); err != nil {
			return fmt.Errorf("write input: %w", err)
		}
	}
	return nil
}

// A sample is what one client saw of one statement. Its class is the
// statement's template and the backend that ran it: statements of one
// class do the same work on every draw of the seed.
type sample struct {
	class string
	nanos int64
}

// A roundResult is one round as the clients saw it.
type roundResult struct {
	wall      time.Duration
	samples   []sample
	respBytes int64
	stmtBytes int64
	failed    int
	firstErr  string
	digest    digest
}

// afterFunc is called on the client's goroutine after each response; the
// traced pass hangs its second server and its spans on it.
type afterFunc func(rq *request, start time.Time, lat time.Duration)

// runRound runs every client's prepared script once and returns when the
// last one has finished: all clients starting together, or in turn one
// after the other.
func runRound(conns []*conn, reqs [][]request, inTurn bool, after afterFunc) roundResult {
	parts := make([]roundResult, len(conns))
	var wg sync.WaitGroup
	start := make(chan struct{})
	var turn sync.Mutex
	for c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &parts[c]
			p.samples = make([]sample, 0, len(reqs[c]))
			<-start
			if inTurn {
				turn.Lock()
				defer turn.Unlock()
			}
			for i := range reqs[c] {
				rq := &reqs[c][i]
				t0 := time.Now()
				line, err := conns[c].roundTrip(rq.line)
				lat := time.Since(t0)
				p.stmtBytes += int64(len(rq.req.Query))
				if err != nil {
					p.fail(rq, err.Error())
					return // the connection is out of step; give up this client
				}
				p.samples = append(p.samples, sample{rq.st.Class + "@" + rq.req.Backend, lat.Nanoseconds()})
				p.respBytes += int64(len(line))
				if !bytes.HasPrefix(line, okPrefix) {
					p.fail(rq, string(line))
				} else if i%sampleEvery == sampleFirst {
					if err := p.digest.fold(rq.st.Class, line); err != nil {
						p.fail(rq, err.Error())
					}
				}
				if after != nil {
					after(rq, t0, lat)
				}
			}
		}()
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	out := roundResult{wall: time.Since(t0)}
	for _, p := range parts {
		out.samples = append(out.samples, p.samples...)
		out.respBytes += p.respBytes
		out.stmtBytes += p.stmtBytes
		out.failed += p.failed
		if out.firstErr == "" {
			out.firstErr = p.firstErr
		}
		out.digest.merge(p.digest)
	}
	return out
}

func (r *roundResult) fail(rq *request, msg string) {
	r.failed++
	if r.firstErr == "" {
		if len(msg) > 300 {
			msg = msg[:300] + "…"
		}
		r.firstErr = fmt.Sprintf("session %s: %.120s: %s", rq.req.Session, rq.req.Query, strings.TrimSpace(msg))
	}
}

// A driver owns the connections to one server and runs a workload's
// set-up and rounds against it.
type driver struct {
	w       *workload
	dataDir string
	conns   []*conn
	round   int // rounds prepared so far; the nonce derives from it
	// traced is set by the traced pass: each request is prepared for the
	// twin server too, and the clients run in turn, so that a span holds
	// a statement's own time and not its wait for a processor that the
	// other client's statement occupies.
	traced bool
}

func newDriver(w *workload, addr, dataDir string) (*driver, error) {
	d := &driver{w: w, dataDir: dataDir}
	for c := 0; c < clients; c++ {
		cn, err := dial(addr)
		if err != nil {
			d.close()
			return nil, err
		}
		d.conns = append(d.conns, cn)
	}
	return d, nil
}

func (d *driver) close() {
	for _, c := range d.conns {
		c.c.Close()
	}
}

// run prepares and runs one round of the given per-client statements.
func (d *driver) run(stmts [clients][]stmt, after afterFunc) (roundResult, error) {
	reqs := make([][]request, clients)
	for c := range reqs {
		var err error
		if reqs[c], err = d.w.prepare(stmts[c], c, d.round, nonceBase, d.dataDir); err != nil {
			return roundResult{}, err
		}
		if d.traced {
			twins, err := d.w.prepare(stmts[c], c, d.round, twinNonceBase, d.dataDir)
			if err != nil {
				return roundResult{}, err
			}
			for i := range twins {
				reqs[c][i].twin = &twins[i].req
			}
		}
	}
	d.round++
	return runRound(d.conns, reqs, d.traced, after), nil
}

// setUp loads the sessions and runs the warm-up round, which fills the
// plan cache and lets lazy row views materialize. A failed statement in
// either is an error: the workloads are chosen so that none fails.
func (d *driver) setUp(after afterFunc) error {
	for _, stmts := range [][clients][]stmt{d.w.Setup, d.w.Scripts} {
		r, err := d.run(stmts, after)
		if err != nil {
			return err
		}
		if r.failed > 0 {
			return fmt.Errorf("set-up of %s: %d statement(s) failed, first: %s", d.w.Name, r.failed, r.firstErr)
		}
	}
	return nil
}

// stats asks the server for its statistics over the wire.
func (d *driver) stats() (*server.Stats, error) {
	line, err := d.conns[0].roundTrip([]byte(`{"op":"stats"}` + "\n"))
	if err != nil {
		return nil, err
	}
	var resp server.Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return nil, fmt.Errorf("decode stats: %w", err)
	}
	if !resp.OK || resp.Stats == nil {
		return nil, fmt.Errorf("stats refused: %s", resp.Error)
	}
	return resp.Stats, nil
}
