package report

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"shortcuts/internal/measure"
	"shortcuts/internal/sim"
)

var (
	repOnce sync.Once
	repW    *sim.World
	repRes  *measure.Results
	repErr  error
)

func testResults(t *testing.T) (*sim.World, *measure.Results) {
	t.Helper()
	repOnce.Do(func() {
		repW, repErr = sim.Build(sim.SmallWorldParams(4))
		if repErr != nil {
			return
		}
		repRes, repErr = measure.Run(repW, measure.QuickConfig(2))
	})
	if repErr != nil {
		t.Fatal(repErr)
	}
	return repW, repRes
}

func TestTableAlignment(t *testing.T) {
	var buf bytes.Buffer
	err := Table(&buf, []string{"a", "long-header"}, [][]string{
		{"x", "1"},
		{"yy", "22"},
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4", len(lines))
	}
	if !strings.HasPrefix(lines[1], "--") {
		t.Fatalf("missing separator line: %q", lines[1])
	}
	if !strings.Contains(lines[0], "long-header") {
		t.Fatalf("header missing: %q", lines[0])
	}
}

func TestCSVFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := CSV(&buf, []string{"x", "y"}, [][]string{{"1", "2"}, {"3", "4"}}); err != nil {
		t.Fatal(err)
	}
	want := "x,y\n1,2\n3,4\n"
	if buf.String() != want {
		t.Fatalf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestFig1Renders(t *testing.T) {
	w, _ := testResults(t)
	var buf bytes.Buffer
	if err := Fig1(&buf, w.Apnic); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "cutoff_pct,ases,countries" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 22 { // header + cutoffs 0..100 step 5
		t.Fatalf("fig1 has %d lines, want 22", len(lines))
	}
}

func TestFig2Renders(t *testing.T) {
	_, res := testResults(t)
	var buf bytes.Buffer
	if err := Fig2(&buf, res.Stats()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.Contains(lines[0], "cdf_COR") || !strings.Contains(lines[0], "cdf_RAR_eye") {
		t.Fatalf("fig2 header = %q", lines[0])
	}
	if len(lines) < 100 {
		t.Fatalf("fig2 has %d lines", len(lines))
	}
}

func TestFig3AndFig4Render(t *testing.T) {
	_, res := testResults(t)
	var buf3 bytes.Buffer
	if err := Fig3(&buf3, res, 20); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(buf3.String()), "\n"); len(lines) != 21 {
		t.Fatalf("fig3 lines = %d, want 21", len(lines))
	}
	var buf4 bytes.Buffer
	if err := Fig4(&buf4, res, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf4.String(), "COR_top10,COR_all") {
		t.Fatal("fig4 missing top10/all columns")
	}
}

func TestTable1Renders(t *testing.T) {
	_, res := testResults(t)
	var buf bytes.Buffer
	if err := Table1(&buf, res, 20); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Facility Name (PDB ID)") {
		t.Fatalf("table1 header missing: %s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) < 3 {
		t.Fatal("table1 has no rows")
	}
}

func TestSummaryMentionsPaperBaselines(t *testing.T) {
	_, res := testResults(t)
	var buf bytes.Buffer
	if err := Summary(&buf, res.Stats(), res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, needle := range []string{"COR", "RAR_other", "paper", "VoIP", "responsive", "stability", "COR coverage"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("summary missing %q:\n%s", needle, out)
		}
	}
}

func TestFunnelRenders(t *testing.T) {
	_, res := testResults(t)
	var buf bytes.Buffer
	if err := Funnel(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, needle := range []string{"2675", "RTT geolocation", "facilities"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("funnel missing %q:\n%s", needle, out)
		}
	}
}
