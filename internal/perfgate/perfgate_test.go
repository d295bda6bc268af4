package perfgate

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		msg   string
		class Class
		norm  string
		ok    bool
	}{
		{"Found IsInBounds", ClassBounds, "Found IsInBounds", true},
		{"Found IsSliceInBounds", ClassBounds, "Found IsSliceInBounds", true},
		{"Found IsSlice3InBounds", ClassBounds, "Found IsSlice3InBounds", true},
		{"cannot inline (*DFA).Scan: function too complex: cost 256 exceeds budget 80",
			ClassInline, "cannot inline: function too complex: cost N exceeds budget N", true},
		{"cannot inline Step: unhandled op DEFER", ClassInline, "cannot inline: unhandled op DEFER", true},
		{"make([]bool, spacerLen) escapes to heap:", ClassEscape, "make([]bool, spacerLen) escapes to heap", true},
		{"func literal escapes to heap", ClassEscape, "func literal escapes to heap", true},
		{"moved to heap: x", ClassEscape, "moved to heap: x", true},
		// streams perfgate does not gate
		{"can inline Sum with cost 26 as: func([]int) int { ... }", "", "", false},
		{"s does not escape", "", "", false},
		{"func literal does not escape", "", "", false},
		{"inlining call to Sum", "", "", false},
		// -m=2 flow-explanation continuations arrive indented
		{"   flow: {heap} = &x:", "", "", false},
	}
	for _, c := range cases {
		class, norm, ok := classify(c.msg)
		if ok != c.ok || class != c.class || norm != c.norm {
			t.Errorf("classify(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.msg, class, norm, ok, c.class, c.norm, c.ok)
		}
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "PERF_BASELINE.txt")
	want := &Baseline{
		GoVersion: "go1.24.0",
		Entries: []Entry{
			{Class: ClassEscape, Pkg: "example.com/m/k", Func: "(*E).Scan.func", Message: "func literal escapes to heap", Count: 2, Justification: "per-chunk closure; amortized over 64Ki positions"},
			{Class: ClassInline, Pkg: "example.com/m/k", Func: "(*E).Scan", Message: "cannot inline: function too complex: cost N exceeds budget N", Count: 1, Justification: "kernel body | called per chunk, not per symbol"},
			{Class: ClassBounds, Pkg: "example.com/m/k", Func: "(*E).Scan", Message: "Found IsInBounds", Count: 3, Justification: ""},
		},
	}
	if err := WriteBaseline(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.GoVersion != want.GoVersion {
		t.Fatalf("GoVersion = %q, want %q", got.GoVersion, want.GoVersion)
	}
	// The writer renders an empty justification as the TODO placeholder.
	want.Entries[2].Justification = TODOJustification
	if !reflect.DeepEqual(got.Entries, want.Entries) {
		t.Fatalf("entries round-trip mismatch:\n got %+v\nwant %+v", got.Entries, want.Entries)
	}
	if un := Unjustified(got); len(un) != 1 || un[0].Message != "Found IsInBounds" {
		t.Fatalf("Unjustified = %+v, want the bounds entry only", un)
	}
	// A justification containing the field separator survives (parser
	// splits at most twice).
	if got.Entries[1].Justification != "kernel body | called per chunk, not per symbol" {
		t.Fatalf("separator-bearing justification mangled: %q", got.Entries[1].Justification)
	}
}

func TestReadBaselineRejectsBadSchema(t *testing.T) {
	for name, tc := range map[string]struct{ data, want string }{
		"other file": {"# some other file\n", "schema header"},
		"legacy allocgate": {"# allocgate escape baseline, schema v1\n" +
			"example.com/m/k (*E).Scan: make([]bool, n) escapes to heap\n", "schema header"},
		// Only the legacy format lacked a toolchain pin; a schema-v1
		// file without one is malformed.
		"no go pin": {SchemaHeader + "\n" +
			"escape p F: moved to heap: s | x1 | kernel state\n", "toolchain pin"},
	} {
		path := filepath.Join(t.TempDir(), "bad.txt")
		if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadBaseline(path); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want %q error, got %v", name, tc.want, err)
		}
	}
}

func TestDiffCountsAsBudgets(t *testing.T) {
	base := &Baseline{Entries: []Entry{
		{Class: ClassBounds, Pkg: "p", Func: "F", Message: "Found IsInBounds", Count: 2, Justification: "x"},
		{Class: ClassEscape, Pkg: "p", Func: "G", Message: "moved to heap: s", Count: 1, Justification: "y"},
	}}
	cur := []Entry{
		{Class: ClassBounds, Pkg: "p", Func: "F", Message: "Found IsInBounds", Count: 3},
		{Class: ClassInline, Pkg: "p", Func: "F", Message: "cannot inline: unhandled op DEFER", Count: 1},
	}
	d := Diff(base, cur)
	if n := d.New[ClassBounds]; len(n) != 1 || n[0].Entry.Count != 3 || n[0].Baseline != 2 {
		t.Fatalf("bounds count growth not flagged: %+v", d.New[ClassBounds])
	}
	if n := d.New[ClassInline]; len(n) != 1 || n[0].Baseline != 0 {
		t.Fatalf("new inline key not flagged: %+v", d.New[ClassInline])
	}
	if len(d.Resolved) != 1 || d.Resolved[0].Func != "G" {
		t.Fatalf("vanished escape entry not resolved: %+v", d.Resolved)
	}

	// No escape *regression* here (the escape entry resolved), so the
	// inline class decides the exit code.
	var out, errw strings.Builder
	if code := d.Report(&out, &errw); code != 4 {
		t.Fatalf("inline outranks bounds in exit codes; got %d", code)
	}
	dEscape := Diff(base, append(cur, Entry{Class: ClassEscape, Pkg: "p", Func: "F", Message: "moved to heap: t", Count: 1}))
	if code := dEscape.Report(&out, &errw); code != 3 {
		t.Fatalf("escape outranks inline and bounds in exit codes; got %d", code)
	}
	dBounds := Diff(base, cur[:1])
	if code := dBounds.Report(&out, &errw); code != 5 {
		t.Fatalf("bounds-only regression exit = %d, want 5", code)
	}
}

func TestPreserveJustifications(t *testing.T) {
	prior := &Baseline{Entries: []Entry{
		{Class: ClassBounds, Pkg: "p", Func: "F", Message: "Found IsInBounds", Count: 2, Justification: "ring-buffer index; masked below"},
	}}
	cur := []Entry{
		{Class: ClassBounds, Pkg: "p", Func: "F", Message: "Found IsInBounds", Count: 4},
		{Class: ClassBounds, Pkg: "p", Func: "H", Message: "Found IsInBounds", Count: 1},
	}
	got := PreserveJustifications(prior, cur)
	if got[0].Justification != "ring-buffer index; masked below" || got[0].Count != 4 {
		t.Fatalf("surviving key lost its justification or count: %+v", got[0])
	}
	if got[1].Justification != "" {
		t.Fatalf("new key should stay unjustified, got %q", got[1].Justification)
	}
}
