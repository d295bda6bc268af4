package hscan

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
)

// parallelModes are the modes that fan chunks out across workers and
// therefore exercise arch.ChunkScan's cancellation and panic paths.
var parallelModes = []Mode{ModeBitap, ModeNFA, ModePrefilter}

func sortReports(rs []automata.Report) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].End != rs[j].End {
			return rs[i].End < rs[j].End
		}
		return rs[i].Code < rs[j].Code
	})
}

func TestScanChromContextCancelMidFlight(t *testing.T) {
	for _, mode := range parallelModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(11))
			specs := randSpecs(rng, 3, 20, 2)
			// Enough sequence for many more chunks than workers, so at
			// least one chunk claim necessarily happens after cancel.
			c := chromOf(rng, 8*arch.DefaultChunk, 0.001)
			e, err := New(specs, mode)
			if err != nil {
				t.Fatal(err)
			}
			e.Parallelism = 2

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
			// Prompt termination: workers may finish the chunks already
			// claimed when cancel fired, but must not start many more.
			if got := after.Load(); got > int64(e.Parallelism) {
				t.Fatalf("%d chunks started after cancel; want <= %d (chunk-granularity latency)", got, e.Parallelism)
			}
		})
	}
}

func TestScanChromContextWorkerPanicIsolated(t *testing.T) {
	for _, mode := range parallelModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(12))
			specs := randSpecs(rng, 3, 20, 2)
			c := chromOf(rng, 4*arch.DefaultChunk, 0.001)
			e, err := New(specs, mode)
			if err != nil {
				t.Fatal(err)
			}
			e.Parallelism = 3
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
		})
	}
}

func TestScanChromContextPreCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	specs := randSpecs(rng, 2, 20, 1)
	c := chromOf(rng, 4096, 0)
	for _, mode := range parallelModes {
		e, err := New(specs, mode)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		emitted := 0
		err = e.ScanChrom(ctx, c, func(automata.Report) { emitted++ })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mode %v: want wrapped context.Canceled, got %v", mode, err)
		}
		if emitted != 0 {
			t.Fatalf("mode %v: %d reports emitted after pre-canceled ctx", mode, emitted)
		}
	}
}
