package casoffinder

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
)

func TestScanChromContextCancelMidFlight(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	specs := randSpecs(rng, 3, 20, 2)
	c := chromOf(rng, 8*arch.DefaultChunk, 0.001)
	e, err := New(specs, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	var after atomic.Int64
	e.chunkHook = func(lo, hi int) {
		once.Do(cancel)
		if ctx.Err() != nil {
			after.Add(1)
		}
	}

	err = e.ScanChrom(ctx, c, func(automata.Report) {})
	if err == nil {
		t.Fatal("want cancellation error, got nil")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if !strings.Contains(err.Error(), "canceled at chunk") {
		t.Fatalf("error does not name the chunk boundary: %v", err)
	}
	if got := after.Load(); got > int64(e.Workers) {
		t.Fatalf("%d chunks started after cancel; want <= %d", got, e.Workers)
	}
}

func TestScanChromContextWorkerPanicIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	specs := randSpecs(rng, 3, 20, 2)
	c := chromOf(rng, 4*arch.DefaultChunk, 0.001)
	e, err := New(specs, 2)
	if err != nil {
		t.Fatal(err)
	}
	e.Workers = 3
	e.chunkHook = func(lo, hi int) {
		if lo > 0 {
			panic("injected worker fault")
		}
	}

	err = e.ScanChrom(context.Background(), c, func(automata.Report) {})
	if err == nil {
		t.Fatal("want panic-derived error, got nil")
	}
	if !strings.Contains(err.Error(), "worker panic on chunk") {
		t.Fatalf("error does not report the panic: %v", err)
	}
	if !strings.Contains(err.Error(), "injected worker fault") {
		t.Fatalf("error does not carry the panic value: %v", err)
	}
}

func TestScanChromContextDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	specs := randSpecs(rng, 2, 20, 1)
	c := chromOf(rng, 4096, 0)
	e, err := New(specs, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	err = e.ScanChrom(ctx, c, func(automata.Report) {})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want wrapped context.DeadlineExceeded, got %v", err)
	}
}
