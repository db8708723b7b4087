// Package experiments regenerates every table and figure of the paper's
// evaluation (the per-experiment index of DESIGN.md). Each experiment is a
// named generator returning a Result: a table of rows plus notes comparing
// the measured values against what the paper reports. The cmd/photofourier
// binary prints them; bench_test.go wraps each in a benchmark.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Options tunes experiment cost. Quick mode shrinks dataset sizes and
// training epochs so the full suite stays test-friendly; the defaults
// reproduce the full-budget numbers in DESIGN.md's per-experiment index.
type Options struct {
	Quick bool
}

// Result is one regenerated table or figure.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the result as an aligned text table.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(r.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Generator produces one experiment result.
type Generator func(Options) (*Result, error)

var registry = map[string]Generator{}

func register(id string, g Generator) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = g
}

// IDs lists every registered experiment in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id.
func Run(id string, opt Options) (*Result, error) {
	g, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return g(opt)
}

// RunAll executes every experiment in id order, failing fast.
func RunAll(opt Options) ([]*Result, error) {
	var out []*Result
	for _, id := range IDs() {
		r, err := Run(id, opt)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", id, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func si(v float64) string  { return fmt.Sprintf("%.3g", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
