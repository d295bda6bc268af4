package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/cap-repro/crisprscan/internal/fasta"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/seedindex"
)

// writeFixture synthesizes a small reference and writes it as FASTA.
func writeFixture(t *testing.T, dir string, seed int64) string {
	t.Helper()
	g := genome.Synthesize(genome.SynthConfig{Seed: seed, NumChroms: 2, ChromLen: 800, NRunRate: 40, NRunLen: 15})
	path := filepath.Join(dir, "ref.fa")
	if err := fasta.WriteFile(path, g.ToFasta()); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBuildValidateInspect(t *testing.T) {
	dir := t.TempDir()
	ref := writeFixture(t, dir, 11)
	idx := filepath.Join(dir, "ref.csix")

	var out bytes.Buffer
	if err := run([]string{"build", "-genome", ref, "-o", idx}, &out, &out); err != nil {
		t.Fatalf("build: %v", err)
	}
	if !strings.Contains(out.String(), "2 chromosomes") {
		t.Errorf("build output: %q", out.String())
	}

	out.Reset()
	if err := run([]string{"validate", "-index", idx}, &out, &out); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if !strings.Contains(out.String(), "valid") {
		t.Errorf("validate output: %q", out.String())
	}

	out.Reset()
	if err := run([]string{"validate", "-index", idx, "-genome", ref}, &out, &out); err != nil {
		t.Fatalf("validate -genome: %v", err)
	}
	if !strings.Contains(out.String(), "matches") {
		t.Errorf("validate -genome output: %q", out.String())
	}

	out.Reset()
	if err := run([]string{"inspect", "-index", idx}, &out, &out); err != nil {
		t.Fatalf("inspect: %v", err)
	}
	for _, want := range []string{"seed length\t10", "chromosomes\t2", "chr1\t800", "chr2\t800"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("inspect output missing %q:\n%s", want, out.String())
		}
	}
}

func TestValidateRejectsMutatedReference(t *testing.T) {
	dir := t.TempDir()
	ref := writeFixture(t, dir, 11)
	idx := filepath.Join(dir, "ref.csix")
	var out bytes.Buffer
	if err := run([]string{"build", "-genome", ref, "-o", idx}, &out, &out); err != nil {
		t.Fatal(err)
	}
	// A different reference with the same shape must be rejected by the
	// content hash even though names and lengths line up.
	other := writeFixture(t, t.TempDir(), 12)
	if err := run([]string{"validate", "-index", idx, "-genome", other}, &out, &out); err == nil {
		t.Fatal("validate accepted a mismatched reference")
	} else if !errors.Is(err, seedindex.ErrStale) {
		t.Fatalf("validate error %v is not ErrStale", err)
	}
}

func TestValidateRejectsCorruptIndex(t *testing.T) {
	dir := t.TempDir()
	ref := writeFixture(t, dir, 11)
	idx := filepath.Join(dir, "ref.csix")
	var out bytes.Buffer
	if err := run([]string{"build", "-genome", ref, "-o", idx}, &out, &out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(idx)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(idx, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"validate", "-index", idx}, &out, &out); err == nil {
		t.Fatal("validate accepted a corrupt index")
	}
}

func TestUsageErrors(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{},
		{"frobnicate"},
		{"build", "-o", "x.csix"},
		{"build", "-genome", "x.fa"},
		{"validate"},
		{"inspect"},
	} {
		if err := run(args, &out, &out); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
	if err := run([]string{"help"}, &out, &out); err != nil {
		t.Errorf("help: %v", err)
	}
}

// TestBuildRejectsLongSeed: the direct-address seed table holds 4^L+1
// starts, so -seed-len stops at 12, and the error names the range.
func TestBuildRejectsLongSeed(t *testing.T) {
	dir := t.TempDir()
	ref := writeFixture(t, dir, 11)
	var out bytes.Buffer
	err := run([]string{"build", "-genome", ref, "-o", filepath.Join(dir, "ref.csix"), "-seed-len", "13"}, &out, &out)
	if err == nil || !strings.Contains(err.Error(), "4..12") {
		t.Fatalf("build -seed-len 13: error %v, want one naming 4..12", err)
	}
}
