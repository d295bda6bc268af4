package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// TestJSONOutputSortedRoundTrip builds a throwaway module with known
// findings, runs the driver with -json, and checks the wire
// contract CI depends on: the output is a JSON array that decodes into
// the finding shape, every element carries its analyzer name and a
// full position, the array is sorted by (file, line, column, analyzer),
// and the decoded value re-encodes to the same bytes (round-trip).
func TestJSONOutputSortedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module github.com/cap-repro/crisprscan\n\ngo 1.22\n")
	write("internal/fix/a.go", `package fix

type res struct{}

func (res) Close() error { return nil }

func open(string) res { return res{} }

func a(paths []string) {
	for _, p := range paths {
		f := open(p)
		defer f.Close()
	}
	for _, p := range paths {
		f := open(p)
		defer f.Close()
	}
}
`)
	write("internal/fix/b.go", `package fix

func b(paths []string) {
	for _, p := range paths {
		f := open(p)
		defer f.Close()
	}
}
`)

	t.Chdir(dir)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "./..."}, &stdout, &stderr); code != 3 {
		t.Fatalf("exit = %d, want 3 (findings present); stderr:\n%s", code, stderr.String())
	}

	var got []jsonFinding
	if err := json.Unmarshal(stdout.Bytes(), &got); err != nil {
		t.Fatalf("decoding -json output: %v\n%s", err, stdout.String())
	}
	if len(got) != 3 {
		t.Fatalf("got %d findings, want 3: %+v", len(got), got)
	}
	for i, f := range got {
		if f.Analyzer != "deferloop" {
			t.Errorf("finding %d: analyzer = %q, want deferloop", i, f.Analyzer)
		}
		if f.File == "" || f.Line == 0 || f.Column == 0 {
			t.Errorf("finding %d: incomplete position: %+v", i, f)
		}
		if f.Message == "" {
			t.Errorf("finding %d: empty message", i)
		}
	}
	sorted := sort.SliceIsSorted(got, func(i, j int) bool {
		a, b := got[i], got[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Analyzer < b.Analyzer
	})
	if !sorted {
		t.Errorf("findings not sorted by (file, line, column, analyzer): %+v", got)
	}

	// Round-trip: decode → encode → decode must be lossless.
	re, err := json.Marshal(got)
	if err != nil {
		t.Fatalf("re-encoding findings: %v", err)
	}
	var again []jsonFinding
	if err := json.Unmarshal(re, &again); err != nil {
		t.Fatalf("decoding re-encoded findings: %v", err)
	}
	if !reflect.DeepEqual(got, again) {
		t.Errorf("round-trip mismatch:\nfirst:  %+v\nsecond: %+v", got, again)
	}
}
