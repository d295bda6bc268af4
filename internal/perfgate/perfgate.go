// Package perfgate is the compiler-feedback performance gate for the
// scan kernels: the engine behind cmd/perfgate. The source-level
// analyzers (hotpath, loopinvariant) flag what a kernel should not do;
// perfgate closes the loop with the compiler's own verdicts, and is the
// only gate on bounds checks. It builds every package containing a
// //crisprlint:hotpath directive with
//
//	go build -gcflags='<pkg>=-m=2 -d=ssa/check_bce/debug=1' <pkg>
//
// and parses the three diagnostic streams that decide whether a kernel
// runs as fast as the hardware allows:
//
//   - escape:  "escapes to heap" / "moved to heap" — state leaves the
//     stack and the kernel allocates;
//   - inline:  "cannot inline <fn>: <reason>" — the per-symbol step
//     stays an out-of-line call;
//   - bounds:  "Found IsInBounds" / "Found IsSliceInBounds" — a slice
//     access keeps its bounds check in the loop.
//
// Verdicts are attributed to the //crisprlint:hotpath function whose
// source span contains them and keyed by (class, package, function,
// message) — never file:line — so unrelated edits do not churn the
// baseline. Inline reasons normalize their cost/budget digits for the
// same reason. Counts are per distinct source position, so adding a
// second bounds check with an identical message is still a regression.
//
// The baseline file is schema-versioned and pinned to the Go toolchain
// that produced it: compiler diagnostics are not stable across
// releases, so on a version mismatch the gate degrades to
// warn-and-regenerate instead of failing falsely. Every entry carries a
// written justification; an entry still reading "TODO: justify" fails
// the comparison with its own exit code.
package perfgate

import (
	"bufio"
	"bytes"
	"fmt"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"github.com/cap-repro/crisprscan/internal/analysis"
)

// SchemaHeader is the first line of a perfgate baseline.
const SchemaHeader = "# perfgate compiler-feedback baseline, schema v1"

// TODOJustification marks an entry whose justification has not been
// written yet; Unjustified treats it the same as an empty one.
const TODOJustification = "TODO: justify"

// Class is one compiler-feedback budget.
type Class string

const (
	// ClassEscape covers heap-escape verdicts ("escapes to heap",
	// "moved to heap").
	ClassEscape Class = "escape"
	// ClassInline covers inlining decisions ("cannot inline ...").
	ClassInline Class = "inline"
	// ClassBounds covers surviving bounds/slice checks reported by
	// -d=ssa/check_bce/debug=1 ("Found IsInBounds" and friends).
	ClassBounds Class = "bounds"
)

// Classes returns the budget classes in report order.
func Classes() []Class { return []Class{ClassEscape, ClassInline, ClassBounds} }

// Entry is one attributed compiler verdict.
type Entry struct {
	Class Class
	// Pkg is the import path of the hot package.
	Pkg string
	// Func is the hot function's display name (closures carry the
	// enclosing declaration's name with a ".func" suffix).
	Func string
	// Message is the normalized diagnostic text.
	Message string
	// Count is the number of distinct source positions carrying this
	// verdict inside the function.
	Count int
	// Justification is the baseline's written reason for accepting the
	// verdict; empty (or TODO) entries fail comparison.
	Justification string
}

// Key identifies an entry for diffing: everything but count and
// justification.
func (e Entry) Key() string {
	return string(e.Class) + " " + e.Pkg + " " + e.Func + ": " + e.Message
}

// String renders the baseline line format:
//
//	<class> <pkg> <func>: <message> | x<count> | <justification>
func (e Entry) String() string {
	j := e.Justification
	if j == "" {
		j = TODOJustification
	}
	return fmt.Sprintf("%s | x%d | %s", e.Key(), e.Count, j)
}

// Baseline is a parsed PERF_BASELINE file.
type Baseline struct {
	// GoVersion is the toolchain pin recorded when the baseline was
	// written ("go1.24.0").
	GoVersion string
	Entries   []Entry
}

// GoVersion reports the toolchain version the go command in dir
// resolves to (the one whose diagnostics the baseline pins).
func GoVersion(dir string) (string, error) {
	cmd := exec.Command("go", "env", "GOVERSION")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("perfgate: go env GOVERSION: %w", err)
	}
	v := strings.TrimSpace(string(out))
	if v == "" {
		return "", fmt.Errorf("perfgate: go env GOVERSION returned nothing")
	}
	return v, nil
}

// hotSpan is the source extent of one //crisprlint:hotpath function.
type hotSpan struct {
	name       string
	start, end int // inclusive line range
}

// Collect loads the module at dir, finds every //crisprlint:hotpath
// function, compiles each package containing one with the three
// diagnostic streams enabled, and returns the attributed entries
// (sorted by key) for the requested classes; a nil class set means all
// three. The build cache replays diagnostics on cache hits, so repeated
// runs are cheap.
func Collect(dir string, classes map[Class]bool) ([]Entry, error) {
	// The compiler prints paths relative to the working directory; the
	// loader records absolute ones. Work in absolute space throughout.
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	prog, err := analysis.Load(fset, dir, "./...")
	if err != nil {
		return nil, err
	}

	spans := make(map[string][]hotSpan) // absolute filename -> hot spans
	var hotPkgs []string
	for path, pkg := range prog.Packages {
		hot := false
		for _, f := range pkg.Files {
			for _, hf := range analysis.HotFuncs(fset, f) {
				pos := fset.Position(hf.Pos)
				spans[pos.Filename] = append(spans[pos.Filename], hotSpan{
					name:  hf.Name,
					start: pos.Line,
					end:   fset.Position(hf.End).Line,
				})
				hot = true
			}
		}
		if hot {
			hotPkgs = append(hotPkgs, path)
		}
	}
	sort.Strings(hotPkgs)
	if len(hotPkgs) == 0 {
		return nil, nil
	}

	counts := make(map[string]*Entry)
	for _, pkgPath := range hotPkgs {
		out, err := diagnostics(dir, pkgPath)
		if err != nil {
			return nil, err
		}
		attribute(dir, prog.Packages[pkgPath].Path, out, spans, classes, counts)
	}
	entries := make([]Entry, 0, len(counts))
	for _, e := range counts {
		entries = append(entries, *e)
	}
	SortEntries(entries)
	return entries, nil
}

// SortEntries orders entries by (class, package, function, message),
// the canonical baseline order.
func SortEntries(entries []Entry) {
	order := map[Class]int{ClassEscape: 0, ClassInline: 1, ClassBounds: 2}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if order[a.Class] != order[b.Class] {
			return order[a.Class] < order[b.Class]
		}
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		return a.Message < b.Message
	})
}

// diagnostics compiles one package with escape analysis, inlining
// decisions and surviving-bounds-check reporting enabled and returns
// the compiler's combined output.
func diagnostics(dir, pkgPath string) (string, error) {
	cmd := exec.Command("go", "build",
		"-gcflags="+pkgPath+"=-m=2 -d=ssa/check_bce/debug=1", pkgPath)
	cmd.Dir = dir
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("perfgate: go build -gcflags '-m=2 -d=ssa/check_bce/debug=1' %s: %w\n%s", pkgPath, err, buf.String())
	}
	return buf.String(), nil
}

// diagLine matches one compiler diagnostic: path:line:col: message.
var diagLine = regexp.MustCompile(`^([^\s:]+\.go):(\d+):(\d+): (.*)$`)

// inlineReason strips the function name out of a "cannot inline"
// message: the name is already the entry's Func key.
var inlineReason = regexp.MustCompile(`^cannot inline [^:]+: (.*)$`)

// costDigits normalizes inline-cost accounting so incidental cost drift
// (an unrelated edit nudging 256 to 260) does not churn the baseline.
var costDigits = regexp.MustCompile(`\b(cost|budget) \d+`)

// classify maps one raw diagnostic message to its budget class and
// normalized text. ok is false for everything perfgate does not gate
// ("can inline", "does not escape", flow explanations, ...).
func classify(msg string) (Class, string, bool) {
	// -m=2 prints each escape verdict twice — once suffixed ":" with
	// indented flow explanation lines after it, once plain. The indented
	// continuations never match here (their text starts with spaces);
	// the ":"-suffixed duplicate normalizes to the plain form and the
	// position-keyed dedupe in attribute collapses the pair.
	if strings.HasPrefix(msg, " ") || strings.HasPrefix(msg, "\t") {
		return "", "", false
	}
	switch msg {
	case "Found IsInBounds", "Found IsSliceInBounds", "Found IsSlice3InBounds":
		return ClassBounds, msg, true
	}
	if m := inlineReason.FindStringSubmatch(msg); m != nil {
		return ClassInline, "cannot inline: " + costDigits.ReplaceAllString(m[1], "$1 N"), true
	}
	norm := strings.TrimSuffix(msg, ":")
	if strings.Contains(norm, "escapes to heap") || strings.HasPrefix(norm, "moved to heap") {
		return ClassEscape, norm, true
	}
	return "", "", false
}

// attribute parses raw compiler output into counts, keeping only
// verdicts of the requested classes that land inside the innermost
// hot-function span containing their line.
func attribute(dir, pkgPath, out string, spans map[string][]hotSpan, classes map[Class]bool, counts map[string]*Entry) {
	seen := make(map[string]bool) // position-level dedupe within one package
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		m := diagLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		class, msg, ok := classify(m[4])
		if !ok || (classes != nil && !classes[class]) {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(dir, file)
		}
		line, _ := strconv.Atoi(m[2])
		fn := innermost(spans[file], line)
		if fn == "" {
			continue
		}
		posKey := file + ":" + m[2] + ":" + m[3] + " " + string(class) + " " + msg
		if seen[posKey] {
			continue
		}
		seen[posKey] = true
		e := Entry{Class: class, Pkg: pkgPath, Func: fn, Message: msg, Count: 1}
		if prev, ok := counts[e.Key()]; ok {
			prev.Count++
		} else {
			counts[e.Key()] = &e
		}
	}
}

// innermost returns the name of the smallest hot span containing line,
// or "" when the line is outside every hot function.
func innermost(spans []hotSpan, line int) string {
	best, bestSize := "", 0
	for _, s := range spans {
		if line < s.start || line > s.end {
			continue
		}
		if size := s.end - s.start; best == "" || size < bestSize {
			best, bestSize = s.name, size
		}
	}
	return best
}

// WriteBaseline writes the baseline under the schema header and
// toolchain pin via temp-file + rename, so a crashed run never leaves a
// truncated baseline behind.
func WriteBaseline(path string, b *Baseline) error {
	var buf bytes.Buffer
	fmt.Fprintln(&buf, SchemaHeader)
	fmt.Fprintf(&buf, "# go: %s\n", b.GoVersion)
	fmt.Fprintln(&buf, "# regenerate with: go run ./cmd/perfgate -update (justifications on surviving entries are preserved)")
	fmt.Fprintln(&buf, "# entry: <class> <pkg> <func>: <message> | x<count> | <justification>")
	for _, e := range b.Entries {
		fmt.Fprintln(&buf, e)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".perfgate-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadBaseline parses a baseline file, enforcing the schema header and
// the "# go:" toolchain pin.
func ReadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) == 0 {
		return nil, fmt.Errorf("%s: empty baseline", path)
	}
	if lines[0] != SchemaHeader {
		return nil, fmt.Errorf("%s: missing or unsupported schema header (want %q)", path, SchemaHeader)
	}
	b := &Baseline{}
	for i, l := range lines[1:] {
		l = strings.TrimSpace(l)
		if v, ok := strings.CutPrefix(l, "# go: "); ok {
			b.GoVersion = strings.TrimSpace(v)
			continue
		}
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		e, err := parseEntry(l)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+2, err)
		}
		b.Entries = append(b.Entries, e)
	}
	if b.GoVersion == "" {
		return nil, fmt.Errorf("%s: missing \"# go: <version>\" toolchain pin", path)
	}
	return b, nil
}

// parseEntry parses one "<class> <pkg> <func>: <message> | x<count> |
// <justification>" line.
func parseEntry(line string) (Entry, error) {
	parts := strings.SplitN(line, " | ", 3)
	if len(parts) != 3 {
		return Entry{}, fmt.Errorf("perfgate: malformed entry (want 'key | xN | justification'): %q", line)
	}
	count, err := strconv.Atoi(strings.TrimPrefix(parts[1], "x"))
	if err != nil || !strings.HasPrefix(parts[1], "x") || count < 1 {
		return Entry{}, fmt.Errorf("perfgate: malformed count %q in %q", parts[1], line)
	}
	key := parts[0]
	sp := strings.IndexByte(key, ' ')
	if sp < 0 {
		return Entry{}, fmt.Errorf("perfgate: malformed key %q", key)
	}
	class := Class(key[:sp])
	switch class {
	case ClassEscape, ClassInline, ClassBounds:
	default:
		return Entry{}, fmt.Errorf("perfgate: unknown class %q in %q", class, line)
	}
	rest := key[sp+1:]
	sp = strings.IndexByte(rest, ' ')
	colon := strings.Index(rest, ": ")
	if sp < 0 || colon < sp {
		return Entry{}, fmt.Errorf("perfgate: malformed key %q", key)
	}
	return Entry{
		Class:         class,
		Pkg:           rest[:sp],
		Func:          rest[sp+1 : colon],
		Message:       rest[colon+2:],
		Count:         count,
		Justification: strings.TrimSpace(parts[2]),
	}, nil
}

// Unjustified returns the baseline entries with no written
// justification (empty or still the TODO placeholder).
func Unjustified(b *Baseline) []Entry {
	var out []Entry
	for _, e := range b.Entries {
		if e.Justification == "" || strings.HasPrefix(e.Justification, "TODO") {
			out = append(out, e)
		}
	}
	return out
}

// Regression is one key whose verdict count grew past the baseline.
type Regression struct {
	Entry    Entry // current state (Count = observed)
	Baseline int   // baselined count (0 when the key is new)
}

// DiffResult is the outcome of comparing current entries to a baseline.
type DiffResult struct {
	// New holds regressions grouped by class.
	New map[Class][]Regression
	// Resolved holds baseline entries (or count surplus) no longer
	// observed — candidates for -update.
	Resolved []Entry
}

// Diff compares the baseline against the current entries by key,
// treating counts as budgets: more occurrences of a baselined message
// is as much a regression as a brand-new message.
func Diff(old *Baseline, cur []Entry) DiffResult {
	res := DiffResult{New: make(map[Class][]Regression)}
	baseByKey := make(map[string]Entry, len(old.Entries))
	for _, e := range old.Entries {
		baseByKey[e.Key()] = e
	}
	curKeys := make(map[string]bool, len(cur))
	for _, e := range cur {
		curKeys[e.Key()] = true
		base, ok := baseByKey[e.Key()]
		if !ok {
			res.New[e.Class] = append(res.New[e.Class], Regression{Entry: e})
			continue
		}
		if e.Count > base.Count {
			res.New[e.Class] = append(res.New[e.Class], Regression{Entry: e, Baseline: base.Count})
		} else if e.Count < base.Count {
			short := base
			short.Count = base.Count - e.Count
			res.Resolved = append(res.Resolved, short)
		}
	}
	for _, e := range old.Entries {
		if !curKeys[e.Key()] {
			res.Resolved = append(res.Resolved, e)
		}
	}
	SortEntries(res.Resolved)
	return res
}

// PreserveJustifications copies the justification of every baseline
// entry onto the matching current entry (by key), returning the updated
// slice. Entries with no prior justification keep the empty string (the
// writer renders it as the TODO placeholder).
func PreserveJustifications(prior *Baseline, cur []Entry) []Entry {
	if prior == nil {
		return cur
	}
	byKey := make(map[string]string, len(prior.Entries))
	for _, e := range prior.Entries {
		if e.Justification != "" {
			byKey[e.Key()] = e.Justification
		}
	}
	for i := range cur {
		if j, ok := byKey[cur[i].Key()]; ok {
			cur[i].Justification = j
		}
	}
	return cur
}

// Report writes the diff in gate order (escape, inline, bounds, then
// resolved entries) and returns the exit code: 3 new escapes, 4 new
// inlining regressions, 5 new bounds checks, 0 clean. Earlier classes
// win when several regress at once.
func (r DiffResult) Report(stdout, stderr io.Writer) int {
	exits := map[Class]int{ClassEscape: 3, ClassInline: 4, ClassBounds: 5}
	code := 0
	for _, class := range Classes() {
		for _, reg := range r.New[class] {
			if reg.Baseline > 0 {
				fmt.Fprintf(stderr, "perfgate: NEW %s regression: %s | x%d (baseline x%d)\n",
					class, reg.Entry.Key(), reg.Entry.Count, reg.Baseline)
			} else {
				fmt.Fprintf(stderr, "perfgate: NEW %s regression: %s | x%d\n",
					class, reg.Entry.Key(), reg.Entry.Count)
			}
			if code == 0 {
				code = exits[class]
			}
		}
	}
	for _, e := range r.Resolved {
		fmt.Fprintf(stdout, "perfgate: resolved (refresh with -update): %s | x%d\n", e.Key(), e.Count)
	}
	return code
}
