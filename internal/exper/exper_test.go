package exper

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

var (
	hOnce sync.Once
	hh    *Harness
)

func harness(t *testing.T) *Harness {
	t.Helper()
	hOnce.Do(func() {
		h, err := New()
		if err != nil {
			panic(err)
		}
		h.Quick = true
		hh = h
	})
	return hh
}

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "x", Cols: []string{"a", "bb"}}
	tab.Add("1", 2.5)
	tab.Notes = append(tab.Notes, "n")
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== x ==", "a", "bb", "2.500", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table2", "table3", "fig2", "fig8", "fig12", "fig13", "fig14",
		"fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
		"fig22", "fig23", "fig24",
	}
	have := make(map[string]bool)
	for _, n := range Experiments() {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("experiment %s not registered", w)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	h := harness(t)
	if err := h.Run("fig999", &bytes.Buffer{}); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestTables(t *testing.T) {
	h := harness(t)
	// fig18 runs in TestSpaceFiguresPinned, which asserts its cells
	for _, name := range []string{"table2", "table3", "fig8"} {
		var buf bytes.Buffer
		if err := h.Run(name, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", name)
		}
	}
}

// TestSpaceFiguresPinned asserts the counted cells of the search-space
// figures on IPUMK2 at the default constraints — Fig 18's Filtered,
// Optimized and Truncated ft, Fig 17's Plans and Pareto — as
// search.Searcher.Reference counts them. A change to the rule-based
// filters, the temporal-factor enumeration or the reference's
// accounting shows as a changed cell, not as a silently different
// figure.
func TestSpaceFiguresPinned(t *testing.T) {
	h := harness(t)
	for _, tc := range []struct {
		fig  func(*Harness) (*Table, error)
		cols []int
		want map[string][]string // operator → the cells at cols
	}{
		{(*Harness).Fig18, []int{2, 3, 4}, map[string][]string{
			"Conv (ResNet-256)":  {"4999", "9", "828"},
			"MatMul (BERT-16)":   {"5655", "22", "1"},
			"GatherV2 (BERT-16)": {"386", "10", "0"},
			"Pool (ResNet-256)":  {"138", "1", "0"},
			"Sum (ViT-128)":      {"10", "3", "0"},
		}},
		{(*Harness).Fig17, []int{1, 2}, map[string][]string{
			"Conv (ResNet-32)": {"15970", "6"},
			"MatMul (BERT-16)": {"5655", "22"},
			"MatMul (ViT-128)": {"2709", "15"},
			"MatMul (NeRF-1)":  {"1166", "1"},
		}},
	} {
		tab, err := tc.fig(h)
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) != len(tc.want) {
			t.Errorf("%s: %d rows, want %d", tab.Title, len(tab.Rows), len(tc.want))
		}
		for _, row := range tab.Rows {
			want, ok := tc.want[row[0]]
			if !ok {
				t.Errorf("%s: unexpected row %q", tab.Title, row[0])
				continue
			}
			for i, c := range tc.cols {
				if row[c] != want[i] {
					t.Errorf("%s: %s %s = %s, want %s", tab.Title, row[0], tab.Cols[c], row[c], want[i])
				}
			}
		}
	}
}

func TestFig2(t *testing.T) {
	h := harness(t)
	tab, err := h.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Errorf("fig2 rows = %d, want 5 representative ops", len(tab.Rows))
	}
}

func TestFig20TraceHasChosenPoint(t *testing.T) {
	h := harness(t)
	tab, err := h.Fig20()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range tab.Rows {
		if row[len(row)-1] == "★" {
			found = true
		}
	}
	if !found {
		t.Error("no chosen point marked on the trace")
	}
}

func TestFig23LLM(t *testing.T) {
	if testing.Short() {
		t.Skip("LLM sweep in -short mode")
	}
	h := harness(t)
	tab, err := h.Fig23()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < len([]string{"a"})*7 {
		t.Errorf("fig23 rows = %d", len(tab.Rows))
	}
}
