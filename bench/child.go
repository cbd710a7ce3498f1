package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// findRoot returns the directory of the repository this benchmark sits
// in: the nearest one at or above the working directory that holds the
// server's source.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "maybms-serve", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cmd/maybms-serve not found at or above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// buildServer compiles cmd/maybms-serve from the repository's source into
// binDir and returns the binary's path. An unchanged tree is a cache hit.
func buildServer(root, binDir string) (string, error) {
	bin := filepath.Join(binDir, "maybms-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/maybms-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build maybms-serve: %w\n%s", err, out)
	}
	return bin, nil
}

// A child is one running maybms-serve process.
type child struct {
	cmd  *exec.Cmd
	addr string
	done chan error
}

// startServer starts a fresh server on a free loopback port with default
// workers and waits until it reports its address.
func startServer(bin string) (*child, error) {
	cmd := exec.Command(bin, "-tcp", "127.0.0.1:0", "-http", "")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	cmd.Stderr = os.Stderr
	// The server must not outlive a loader that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start maybms-serve: %w", err)
	}
	c := &child{cmd: cmd, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "tcp listening on "); ok {
				addr <- a
			}
		}
		c.done <- cmd.Wait()
	}()
	select {
	case c.addr = <-addr:
		return c, nil
	case err := <-c.done:
		return nil, fmt.Errorf("maybms-serve exited before listening: %v", err)
	case <-time.After(20 * time.Second):
		_ = cmd.Process.Kill()
		<-c.done
		return nil, errors.New("maybms-serve did not report its address within 20 s")
	}
}

// stop asks the server to shut down and waits until the process has
// ended, killing it if it does not within five seconds.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
}

// rssMB reads a line of the process's memory status in megabytes: VmHWM
// is the resident-set high-water mark, VmRSS the resident set now.
func (c *child) rssMB(field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("read %s: %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s line in /proc status", field)
}

// sampleRSS reads the resident set every 20 ms until the returned function
// is called, which returns the mean of the readings in megabytes. The
// high-water mark is one GC cycle's luck; the mean over a run is not.
func (c *child) sampleRSS() (stop func() float64) {
	done := make(chan struct{})
	result := make(chan float64)
	go func() {
		var sum float64
		n := 0
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if mb, err := c.rssMB("VmRSS"); err == nil {
					sum += mb
					n++
				}
			case <-done:
				result <- sum / float64(max(1, n))
				return
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-result
	}
}

// cpuSeconds reads the user and system time the process has used.
func (c *child) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line, in clock ticks of 1/100 s.
	_, rest, ok := strings.Cut(string(data), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, errors.New("cannot read /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("cannot read /proc stat times")
	}
	return (ut + st) / 100, nil
}

// selfCPUSeconds is the user and system time this process has used.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
