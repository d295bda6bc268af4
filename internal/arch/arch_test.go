package arch

import (
	"strings"
	"testing"

	"github.com/cap-repro/crisprscan/internal/dna"
)

func TestPatternSpecWindowRight(t *testing.T) {
	p := PatternSpec{
		Spacer: dna.MustParsePattern("ACGT"),
		PAM:    dna.MustParsePattern("NGG"),
	}
	if p.SiteLen() != 7 {
		t.Errorf("SiteLen = %d", p.SiteLen())
	}
	if got := p.Window().String(); got != "ACGTNGG" {
		t.Errorf("Window = %s", got)
	}
	if p.SpacerOffset() != 0 || p.PAMOffset() != 4 {
		t.Errorf("offsets = %d, %d", p.SpacerOffset(), p.PAMOffset())
	}
}

func TestPatternSpecWindowLeft(t *testing.T) {
	p := PatternSpec{
		Spacer:  dna.MustParsePattern("ACGT"),
		PAM:     dna.MustParsePattern("CCN"),
		PAMLeft: true,
	}
	if got := p.Window().String(); got != "CCNACGT" {
		t.Errorf("Window = %s", got)
	}
	if p.SpacerOffset() != 3 || p.PAMOffset() != 0 {
		t.Errorf("offsets = %d, %d", p.SpacerOffset(), p.PAMOffset())
	}
}

func TestMinusSpec(t *testing.T) {
	plus := PatternSpec{
		Spacer: dna.MustParsePattern("AACG"),
		PAM:    dna.MustParsePattern("NGG"),
		K:      2, Code: 4,
	}
	minus := plus.MinusSpec(5)
	if minus.Spacer.String() != "CGTT" {
		t.Errorf("minus spacer = %s", minus.Spacer)
	}
	if minus.PAM.String() != "CCN" {
		t.Errorf("minus PAM = %s", minus.PAM)
	}
	if !minus.PAMLeft || minus.K != 2 || minus.Code != 5 {
		t.Errorf("minus spec = %+v", minus)
	}
	// The minus window must be the reverse complement of the plus one.
	if got, want := minus.Window().String(), plus.Window().ReverseComplement().String(); got != want {
		t.Errorf("minus window %s != revcomp(plus window) %s", got, want)
	}
	// Double inversion round-trips.
	back := minus.MinusSpec(4)
	if back.Spacer.String() != plus.Spacer.String() || back.PAMLeft {
		t.Errorf("double MinusSpec: %+v", back)
	}
}

func TestBreakdown(t *testing.T) {
	b := Breakdown{Compile: 1, Transfer: 2, Kernel: 3, Report: 4}
	if b.Total() != 10 {
		t.Errorf("Total = %f", b.Total())
	}
	s := b.String()
	for _, want := range []string{"compile=", "kernel=", "total="} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q: %s", want, s)
		}
	}
}

func TestResourceUsage(t *testing.T) {
	r := ResourceUsage{States: 50, Capacity: 100, Passes: 1}
	if r.Utilization() != 0.5 {
		t.Errorf("util = %f", r.Utilization())
	}
	multi := ResourceUsage{States: 250, Capacity: 100, Passes: 3}
	if u := multi.Utilization(); u < 0.82 || u > 0.85 {
		t.Errorf("multi-pass util = %f", u)
	}
	if (ResourceUsage{}).Utilization() != 0 {
		t.Error("zero capacity must not divide by zero")
	}
}

func TestSeconds(t *testing.T) {
	if Seconds(1.5) != "1.5s" {
		t.Errorf("Seconds(1.5) = %s", Seconds(1.5))
	}
	if !strings.Contains(Seconds(0.000002), "µ") && !strings.Contains(Seconds(0.000002), "us") {
		t.Errorf("Seconds(2us) = %s", Seconds(0.000002))
	}
}

func TestBreakdownOnline(t *testing.T) {
	b := Breakdown{Compile: 100, Transfer: 3, Kernel: 2, Report: 1}
	if b.Online() != 6 {
		t.Errorf("Online = %f", b.Online())
	}
	if b.OnlineOverlapped() != 4 { // max(3,2)+1
		t.Errorf("OnlineOverlapped = %f", b.OnlineOverlapped())
	}
	fast := Breakdown{Transfer: 1, Kernel: 5, Report: 0}
	if fast.OnlineOverlapped() != 5 {
		t.Errorf("kernel-bound overlap = %f", fast.OnlineOverlapped())
	}
}
