package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/cap-repro/crisprscan/internal/perfgate"
)

// fixtureModule writes a tiny standalone module with one hotpath kernel
// and returns its root. The clean kernel compiles with zero perfgate
// verdicts: the loop bound is len(s), so BCE removes the check; the
// function inlines; nothing escapes.
func fixtureModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"),
		[]byte("module fixture.test/perfgate\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "kernel"), 0o755); err != nil {
		t.Fatal(err)
	}
	writeKernel(t, dir, kernelClean)
	return dir
}

func writeKernel(t *testing.T, dir, src string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, "kernel", "kernel.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

const kernelClean = `package kernel

// Sum is the fixture hot kernel.
//
//crisprlint:hotpath
func Sum(s []int) int {
	t := 0
	for i := 0; i < len(s); i++ {
		t += s[i]
	}
	return t
}
`

// kernelBounds iterates to a caller-supplied bound, so the compiler
// cannot prove i < len(s) and the bounds check survives.
const kernelBounds = `package kernel

// Sum is the fixture hot kernel.
//
//crisprlint:hotpath
func Sum(s []int, n int) int {
	t := 0
	for i := 0; i < n; i++ {
		t += s[i]
	}
	return t
}
`

// kernelDefer adds a defer to the clean kernel: "cannot inline Sum:
// unhandled op DEFER".
const kernelDefer = `package kernel

// Sum is the fixture hot kernel.
//
//crisprlint:hotpath
func Sum(s []int) int {
	defer func() {}()
	t := 0
	for i := 0; i < len(s); i++ {
		t += s[i]
	}
	return t
}
`

// kernelEscape leaks a local through a package-level sink, forcing a
// heap allocation inside the hot function.
const kernelEscape = `package kernel

// Sink keeps the escape alive across the call.
var Sink *int

// Sum is the fixture hot kernel.
//
//crisprlint:hotpath
func Sum(s []int) int {
	t := 0
	for i := 0; i < len(s); i++ {
		t += s[i]
	}
	Sink = &t
	return t
}
`

func gate(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw strings.Builder
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestGateLifecycle drives the full loop on the fixture module: clean
// baseline, one injected regression per budget class (distinct exit
// codes), update + justification burn-down, and the resolved path.
func TestGateLifecycle(t *testing.T) {
	dir := fixtureModule(t)
	baseline := filepath.Join(dir, "PERF_BASELINE.txt")

	if code, _, errw := gate(t, "-dir", dir, "-update"); code != 0 {
		t.Fatalf("-update on clean fixture = %d\n%s", code, errw)
	}
	b, err := perfgate.ReadBaseline(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Entries) != 0 {
		t.Fatalf("clean fixture should baseline zero verdicts, got %+v", b.Entries)
	}
	if b.GoVersion == "" || !strings.HasPrefix(b.GoVersion, "go") {
		t.Fatalf("baseline not pinned to a toolchain: %q", b.GoVersion)
	}
	if code, _, errw := gate(t, "-dir", dir, "-compare"); code != 0 {
		t.Fatalf("clean compare = %d\n%s", code, errw)
	}

	// Injected bounds-check regression: exit 5.
	writeKernel(t, dir, kernelBounds)
	code, _, errw := gate(t, "-dir", dir, "-compare")
	if code != 5 {
		t.Fatalf("injected bounds regression exit = %d, want 5\n%s", code, errw)
	}
	if !strings.Contains(errw, "Found IsInBounds") {
		t.Fatalf("bounds regression not reported:\n%s", errw)
	}

	// Injected de-inlining via defer: exit 4.
	writeKernel(t, dir, kernelDefer)
	code, _, errw = gate(t, "-dir", dir, "-compare")
	if code != 4 {
		t.Fatalf("injected defer de-inlining exit = %d, want 4\n%s", code, errw)
	}
	if !strings.Contains(errw, "unhandled op DEFER") {
		t.Fatalf("inline regression not reported:\n%s", errw)
	}

	// Injected escape: exit 3.
	writeKernel(t, dir, kernelEscape)
	code, _, errw = gate(t, "-dir", dir, "-compare")
	if code != 3 {
		t.Fatalf("injected escape exit = %d, want 3\n%s", code, errw)
	}
	if !strings.Contains(errw, "escape") {
		t.Fatalf("escape regression not reported:\n%s", errw)
	}

	// Accept the escape: -update writes it with the TODO placeholder,
	// so -compare still fails — with the justification exit code.
	if code, _, errw := gate(t, "-dir", dir, "-update"); code != 0 {
		t.Fatalf("-update = %d\n%s", code, errw)
	}
	code, _, errw = gate(t, "-dir", dir, "-compare")
	if code != 6 {
		t.Fatalf("unjustified baseline entry exit = %d, want 6\n%s", code, errw)
	}
	if !strings.Contains(errw, "lacks a justification") {
		t.Fatalf("missing-justification report absent:\n%s", errw)
	}

	// Write the justification; the gate goes green.
	justify(t, baseline, "t leaks through Sink by design in this fixture")
	if code, out, errw := gate(t, "-dir", dir, "-compare"); code != 0 {
		t.Fatalf("justified compare = %d\n%s%s", code, out, errw)
	}

	// Fixing the kernel leaves the baseline entry unconsumed: reported
	// as resolved, still exit 0.
	writeKernel(t, dir, kernelClean)
	code, out, errw := gate(t, "-dir", dir, "-compare")
	if code != 0 {
		t.Fatalf("compare after fix = %d\n%s", code, errw)
	}
	if !strings.Contains(out, "resolved") {
		t.Fatalf("resolved entry not surfaced:\n%s", out)
	}

	// -update preserves the justification for keys that survive.
	writeKernel(t, dir, kernelEscape)
	if code, _, errw := gate(t, "-dir", dir, "-update"); code != 0 {
		t.Fatalf("-update = %d\n%s", code, errw)
	}
	b, err = perfgate.ReadBaseline(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Entries) == 0 {
		t.Fatal("escape entries missing after -update")
	}
	for _, e := range b.Entries {
		if e.Justification != "t leaks through Sink by design in this fixture" {
			t.Fatalf("justification not preserved across -update: %+v", e)
		}
	}
}

// justify replaces every TODO placeholder in the baseline with reason.
func justify(t *testing.T, baseline, reason string) {
	t.Helper()
	data, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	out := strings.ReplaceAll(string(data), perfgate.TODOJustification, reason)
	if err := os.WriteFile(baseline, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoVersionMismatchRegenerates checks the degrade path: a baseline
// pinned to a different toolchain is regenerated (justifications
// preserved) instead of producing false regressions.
func TestGoVersionMismatchRegenerates(t *testing.T) {
	dir := fixtureModule(t)
	baseline := filepath.Join(dir, "PERF_BASELINE.txt")
	writeKernel(t, dir, kernelEscape)
	if code, _, errw := gate(t, "-dir", dir, "-update"); code != 0 {
		t.Fatalf("-update = %d\n%s", code, errw)
	}
	justify(t, baseline, "fixture escape, accepted")

	// Re-pin the baseline to a toolchain that never existed.
	b, err := perfgate.ReadBaseline(baseline)
	if err != nil {
		t.Fatal(err)
	}
	current := b.GoVersion
	b.GoVersion = "go1.0.0-fixture"
	if err := perfgate.WriteBaseline(baseline, b); err != nil {
		t.Fatal(err)
	}

	code, out, errw := gate(t, "-dir", dir, "-compare")
	if code != 0 {
		t.Fatalf("version-mismatch compare = %d, want 0 (warn-and-regenerate)\n%s", code, errw)
	}
	if !strings.Contains(errw, "regenerating") {
		t.Fatalf("mismatch warning absent:\n%s", errw)
	}
	if !strings.Contains(out, "regenerated") {
		t.Fatalf("regeneration notice absent:\n%s", out)
	}
	b, err = perfgate.ReadBaseline(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if b.GoVersion != current {
		t.Fatalf("regenerated pin = %q, want %q", b.GoVersion, current)
	}
	if len(b.Entries) == 0 {
		t.Fatal("entries missing after regeneration")
	}
	for _, e := range b.Entries {
		if e.Justification != "fixture escape, accepted" {
			t.Fatalf("justification lost across regeneration: %+v", e)
		}
	}
}

// TestClassFilter confirms -class restricts both collection and the
// gated baseline slice.
func TestClassFilter(t *testing.T) {
	dir := fixtureModule(t)
	writeKernel(t, dir, kernelBounds)
	if code, _, errw := gate(t, "-dir", dir, "-update"); code != 0 {
		t.Fatalf("-update = %d\n%s", code, errw)
	}
	// The bounds entry is still TODO-justified: a full compare fails
	// with 6, an escape-only compare ignores it entirely.
	if code, _, _ := gate(t, "-dir", dir, "-compare"); code != 6 {
		t.Fatalf("full compare = %d, want 6", code)
	}
	if code, _, errw := gate(t, "-dir", dir, "-compare", "-class", "escape"); code != 0 {
		t.Fatalf("escape-only compare = %d, want 0\n%s", code, errw)
	}
	// And an escape regression still trips it.
	writeKernel(t, dir, kernelEscape)
	if code, _, _ := gate(t, "-dir", dir, "-compare", "-class", "escape"); code != 3 {
		t.Fatal("escape-only compare missed an escape regression")
	}
	if code, _, errw := gate(t, "-dir", dir, "-compare", "-class", "bogus"); code != 1 || !strings.Contains(errw, "unknown class") {
		t.Fatal("bogus class not rejected")
	}
}
