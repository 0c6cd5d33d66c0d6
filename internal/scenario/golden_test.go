package scenario

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"spectra/internal/testbed"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden from the current code")

const goldenPath = "testdata/figures.golden"

// goldenHeader documents the columns of figures.golden. Fields are
// tab-separated; "-" marks a value the figure does not have (an infeasible
// bar's time and energy, a Pangloss sentence's time and energy, a
// speech/Latex bar's utility).
const goldenHeader = "# Figures 3-9, one line per bar; regenerate with: go test ./internal/scenario -run TestFiguresGolden -update\n" +
	"# figure\tscenario\tlabel\tchosen\telapsed_ns\tjoules\trelative_utility\tpercentile\n"

// figureLines renders every bar of Figures 3-9 at full float precision.
// Fig. 10 is timed by the wall clock and stays out.
func figureLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	bar := func(fig, scenario string, m Measurement, chosen bool) {
		mark, elapsed, joules := "-", "-", "-"
		if chosen {
			mark = "S"
		}
		if m.Feasible {
			elapsed = strconv.FormatInt(int64(m.Elapsed), 10)
			joules = strconv.FormatFloat(m.EnergyJoules, 'g', 17, 64)
		}
		lines = append(lines, strings.Join([]string{fig, scenario, m.Label, mark, elapsed, joules, "-", "-"}, "\t"))
	}
	scenarioBars := func(fig string, r ScenarioResult) {
		for _, m := range r.Bars {
			bar(fig, r.Scenario, m, m.Chosen)
		}
		bar(fig, r.Scenario, r.Spectra, false)
	}

	speech, err := RunSpeech(testbed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range speech {
		scenarioBars("3,4", r)
	}
	docs, err := RunLatex(testbed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range docs {
		fig := [...]string{"5,7", "6,7"}[i]
		for _, r := range d.Results {
			r.Scenario = d.Document.Name + "/" + r.Scenario
			scenarioBars(fig, r)
		}
	}
	pangloss, err := RunPangloss(testbed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range pangloss {
		for _, s := range r.Sentences {
			lines = append(lines, strings.Join([]string{
				"8,9", r.Scenario, fmt.Sprintf("%gw", s.Words), s.Chosen, "-", "-",
				strconv.FormatFloat(s.RelativeUtility, 'g', 17, 64),
				strconv.FormatFloat(s.Percentile, 'g', 17, 64),
			}, "\t"))
		}
	}
	return lines
}

// TestFiguresGolden pins every bar of the paper's Figures 3-9: a refactor
// that claims to leave the decision and the simulation alone must leave
// this file unchanged. Choices compare exactly; numbers compare to 1e-9
// relative, because platforms that fuse multiply-adds round differently.
func TestFiguresGolden(t *testing.T) {
	got := figureLines(t)
	if *update {
		body := goldenHeader + strings.Join(got, "\n") + "\n"
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("figures have %d bars, golden has %d", len(got), len(want))
	}
	for i := range want {
		if msg := compareBar(want[i], got[i]); msg != "" {
			t.Fatalf("first bar that moved (bar %d): %s\n  want %s\n  got  %s", i+1, msg, want[i], got[i])
		}
	}
}

// compareBar compares one golden line against a fresh one: the figure,
// scenario, label and choice exactly, the numeric columns to 1e-9
// relative. It returns "" when they match.
func compareBar(want, got string) string {
	wf, gf := strings.Split(want, "\t"), strings.Split(got, "\t")
	if len(wf) != len(gf) {
		return "column count differs"
	}
	names := strings.Split(strings.TrimPrefix(strings.Split(goldenHeader, "\n")[1], "# "), "\t")
	for i := range wf {
		if wf[i] == gf[i] {
			continue
		}
		if i < 4 || wf[i] == "-" || gf[i] == "-" {
			return names[i] + " differs"
		}
		w, err1 := strconv.ParseFloat(wf[i], 64)
		g, err2 := strconv.ParseFloat(gf[i], 64)
		if err1 != nil || err2 != nil {
			return names[i] + " is not a number"
		}
		if math.Abs(w-g) > 1e-9*math.Max(math.Abs(w), math.Abs(g)) {
			return names[i] + " moved beyond 1e-9 relative"
		}
	}
	return ""
}
