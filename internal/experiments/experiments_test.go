package experiments

import (
	"strings"
	"testing"
)

func TestRegistryListsAllExperiments(t *testing.T) {
	want := []string{"crosslight", "fig10", "fig11", "fig12", "fig13a", "fig13b", "fig13c",
		"fig2", "fig3", "fig6", "fig7", "fig8", "table1", "table3", "table45"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs() = %v, want %v", got, want)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("fig99", Options{}); err == nil {
		t.Error("unknown id should fail")
	}
}

func TestLightExperimentsProduceTables(t *testing.T) {
	for _, id := range []string{"fig2", "fig3", "fig6", "fig8", "fig10", "fig11", "fig12",
		"fig13a", "fig13b", "fig13c", "table3", "table45", "crosslight"} {
		r, err := Run(id, Options{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if r.ID != id {
			t.Errorf("%s: result id %q", id, r.ID)
		}
		if len(r.Header) == 0 || len(r.Rows) == 0 {
			t.Errorf("%s: empty table", id)
		}
		s := r.String()
		if !strings.Contains(s, id) {
			t.Errorf("%s: rendering missing id:\n%s", id, s)
		}
		for _, row := range r.Rows {
			if len(row) != len(r.Header) && len(row) > len(r.Header) {
				t.Errorf("%s: row wider than header: %v", id, row)
			}
		}
	}
}

func TestFig6ReproducesDominanceClaim(t *testing.T) {
	r, err := Run("fig6", Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range r.Notes {
		if strings.Contains(n, "ADC+DAC share") {
			found = true
		}
	}
	if !found {
		t.Error("fig6 should report the ADC+DAC share")
	}
}

func TestTable3MatchesPaperWaveguides(t *testing.T) {
	r, err := Run("table3", Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Columns: #PFCU, CG#wg, CGpaper, ... — ours must equal the paper's.
	for _, row := range r.Rows {
		if row[1] != row[2] {
			t.Errorf("CG waveguides %s != paper %s at NPFCU=%s", row[1], row[2], row[0])
		}
		if row[5] != row[6] {
			t.Errorf("NG waveguides %s != paper %s at NPFCU=%s", row[5], row[6], row[0])
		}
	}
}

func TestResultStringAlignment(t *testing.T) {
	r := &Result{
		ID:     "x",
		Title:  "t",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"wide-cell-content", "b"}},
		Notes:  []string{"n"},
	}
	s := r.String()
	for _, want := range []string{"== x: t ==", "long-header", "wide-cell-content", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestQuickAccuracyExperiments(t *testing.T) {
	// The trained-model experiments in quick mode: structural checks only
	// (full-budget numbers live in DESIGN.md's per-experiment index).
	if testing.Short() {
		t.Skip("trains networks")
	}
	r, err := Run("fig7", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 3 {
		t.Fatalf("fig7 rows: %v", r.Rows)
	}
	if r.Rows[0][0] != "fp psum" {
		t.Errorf("first row should be the fp psum reference, got %v", r.Rows[0])
	}
}
