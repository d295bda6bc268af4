package casot

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
)

// TestScanChromContextCancelFromEmit cancels a CasOT scan from inside
// its first emit, on a chromosome five chunks long with a budget that
// accepts every PAM-adjacent window, so every pass emits all along the
// chromosome. The scan must stop at the next check, one chunk on, with
// a wrapped context.Canceled, having emitted at most a quarter of what
// a full scan emits.
func TestScanChromContextCancelFromEmit(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	specs := randSpecs(rng, 2, 20, 20)
	c := chromOf(rng, 5*arch.DefaultChunk, 0)
	naive, err := New(specs, Options{MaxSeedMismatches: 20})
	if err != nil {
		t.Fatal(err)
	}
	// Two-base seeds at budget 2 make every position a candidate.
	index, err := NewIndex(specs, Options{SeedLen: 2, MaxSeedMismatches: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []arch.Engine{naive, index} {
		full := len(collect(t, e, c))
		ctx, cancel := context.WithCancel(context.Background())
		emitted := 0
		err := arch.ScanChrom(ctx, e, c, func(automata.Report) {
			emitted++
			cancel()
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: want wrapped context.Canceled, got %v", e.Name(), err)
		}
		if emitted == 0 || emitted > full/4 {
			t.Fatalf("%s: %d events emitted before stopping, of %d in a full scan", e.Name(), emitted, full)
		}
	}
}

// TestScanChromContextPreCanceled: a scan handed a context that is
// already done does no work and emits nothing.
func TestScanChromContextPreCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	specs := randSpecs(rng, 2, 20, 3)
	c := chromOf(rng, 2*arch.DefaultChunk, 0.001)
	naive, err := New(specs, Options{MaxSeedMismatches: 3})
	if err != nil {
		t.Fatal(err)
	}
	index, err := NewIndex(specs, Options{SeedLen: 8, MaxSeedMismatches: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range []arch.Engine{naive, index} {
		emitted := 0
		err := arch.ScanChrom(ctx, e, c, func(automata.Report) { emitted++ })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: want wrapped context.Canceled, got %v", e.Name(), err)
		}
		if emitted != 0 {
			t.Fatalf("%s: %d events emitted after a pre-canceled ctx", e.Name(), emitted)
		}
	}
}
