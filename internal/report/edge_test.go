package report

import (
	"bytes"
	"strings"
	"testing"

	"shortcuts/internal/measure"
)

// TestReportsOnEmptyResults renders every report artifact over a
// campaign that produced nothing: zero rounds, zero observations. No
// writer may panic, error, or emit NaN.
func TestReportsOnEmptyResults(t *testing.T) {
	w, _ := testResults(t)
	empty := measure.NewResults(measure.QuickConfig(1), w)

	renders := []struct {
		name string
		fn   func(*bytes.Buffer) error
	}{
		{"Summary", func(b *bytes.Buffer) error { return Summary(b, empty.Stats(), empty) }},
		{"Fig2", func(b *bytes.Buffer) error { return Fig2(b, empty.Stats()) }},
		{"Fig3", func(b *bytes.Buffer) error { return Fig3(b, empty, 10) }},
		{"Fig4", func(b *bytes.Buffer) error { return Fig4(b, empty, 10) }},
		{"Table1", func(b *bytes.Buffer) error { return Table1(b, empty, 20) }},
		{"Funnel", func(b *bytes.Buffer) error { return Funnel(b, empty) }},
	}
	for _, r := range renders {
		var buf bytes.Buffer
		if err := r.fn(&buf); err != nil {
			t.Errorf("%s on empty results: %v", r.name, err)
			continue
		}
		if buf.Len() == 0 {
			t.Errorf("%s on empty results wrote nothing (want headers at least)", r.name)
		}
		if s := buf.String(); strings.Contains(s, "NaN") || strings.Contains(s, "Inf") {
			t.Errorf("%s on empty results emitted NaN/Inf:\n%s", r.name, s)
		}
	}
}

// TestStreamSummaryOnEmptyStats renders the summary of a stream that
// saw no rounds, with no retained observations: no NaN, and no line
// that needs the observations.
func TestStreamSummaryOnEmptyStats(t *testing.T) {
	var buf bytes.Buffer
	if err := Summary(&buf, new(measure.Stats), nil); err != nil {
		t.Fatalf("Summary on empty stats: %v", err)
	}
	s := buf.String()
	if strings.Contains(s, "NaN") || strings.Contains(s, "Inf") {
		t.Fatalf("Summary on empty stats emitted NaN/Inf:\n%s", s)
	}
	if !strings.Contains(s, "direction symmetry") || strings.Contains(s, "stability") {
		t.Fatalf("Summary without observations must end at direction symmetry:\n%s", s)
	}
}

// TestReportsOnSingleRound renders everything over the smallest legal
// campaign.
func TestReportsOnSingleRound(t *testing.T) {
	w, _ := testResults(t)
	res, err := measure.Run(w, measure.QuickConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	renders := []struct {
		name string
		fn   func(*bytes.Buffer) error
	}{
		{"Summary", func(b *bytes.Buffer) error { return Summary(b, res.Stats(), res) }},
		{"Fig2", func(b *bytes.Buffer) error { return Fig2(b, res.Stats()) }},
		{"Fig3", func(b *bytes.Buffer) error { return Fig3(b, res, 10) }},
		{"Fig4", func(b *bytes.Buffer) error { return Fig4(b, res, 10) }},
		{"Table1", func(b *bytes.Buffer) error { return Table1(b, res, 20) }},
	}
	for _, r := range renders {
		var buf bytes.Buffer
		if err := r.fn(&buf); err != nil {
			t.Errorf("%s on single-round results: %v", r.name, err)
			continue
		}
		if s := buf.String(); strings.Contains(s, "NaN") || strings.Contains(s, "Inf") {
			t.Errorf("%s on single-round results emitted NaN/Inf:\n%s", r.name, s)
		}
	}
}

// TestCSVEmptyRows pins the low-level writers' empty-input behavior:
// headers only, no error.
func TestCSVEmptyRows(t *testing.T) {
	var buf bytes.Buffer
	if err := CSV(&buf, []string{"a", "b"}, nil); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 1 || lines[0] != "a,b" {
		t.Fatalf("CSV with no rows = %q, want header line only", buf.String())
	}
	buf.Reset()
	if err := Table(&buf, []string{"a", "b"}, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "a") {
		t.Fatalf("Table with no rows lost its header: %q", buf.String())
	}
}
