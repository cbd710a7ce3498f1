package server

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

func TestGateBoundsConcurrency(t *testing.T) {
	g := newGate(3)
	if g.size() != 3 {
		t.Fatalf("cap = %d", g.size())
	}
	var cur, peak atomic.Int32
	done := make(chan struct{})
	for i := 0; i < 20; i++ {
		go func() {
			if err := g.acquire(context.Background()); err != nil {
				t.Error(err)
				done <- struct{}{}
				return
			}
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			g.release()
			done <- struct{}{}
		}()
	}
	for i := 0; i < 20; i++ {
		<-done
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak concurrency %d exceeds gate", p)
	}
}

func TestGateAcquireHonoursContext(t *testing.T) {
	g := newGate(1)
	if err := g.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := g.acquire(ctx); err == nil {
		t.Fatal("acquire on a full gate must respect the deadline")
	}
	g.release()
	if err := g.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
}
