package viz

import (
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/network"
	"repro/internal/radio"
)

func testWorld(t *testing.T) *network.World {
	t.Helper()
	pos := []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 10}, {X: 20, Y: 0}}
	w, err := network.NewWorld(network.Config{
		Arena:     geom.Square(20),
		Positions: pos,
		Radios:    []radio.Radio{radio.New(15), radio.New(15), radio.New(15)},
		Movers:    []mobility.Mover{mobility.Static{}, mobility.Static{}, mobility.Static{}},
		Gateways:  []network.NodeID{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 0.5, 1}, 10)
	if len([]rune(s)) != 3 {
		t.Fatalf("sparkline runes = %q", s)
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[2] != '█' {
		t.Fatalf("extremes wrong: %q", s)
	}
	if Sparkline(nil, 10) != "" || Sparkline([]float64{1}, 0) != "" {
		t.Fatal("degenerate inputs should render empty")
	}
	// Downsampling caps width.
	long := make([]float64, 1000)
	if n := len([]rune(Sparkline(long, 50))); n > 50 {
		t.Fatalf("width not respected: %d", n)
	}
	// Clamping.
	s = Sparkline([]float64{-5, 7}, 10)
	runes = []rune(s)
	if runes[0] != '▁' || runes[1] != '█' {
		t.Fatalf("clamping wrong: %q", s)
	}
}

func TestHeatmap(t *testing.T) {
	w := testWorld(t)
	out := Heatmap(w, []float64{1, 0.5, 0}, 20, 10)
	if !strings.Contains(out, "G") {
		t.Fatal("gateway marker missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 12 { // 10 rows + 2 borders
		t.Fatalf("heatmap rows = %d", len(lines))
	}
	for _, l := range lines {
		if len([]rune(l)) != 22 {
			t.Fatalf("ragged heatmap line %q", l)
		}
	}
	// Defaults kick in for non-positive dims.
	if Heatmap(w, nil, 0, 0) == "" {
		t.Fatal("default dims failed")
	}
}

func TestBars(t *testing.T) {
	out := Bars([]string{"aa", "b"}, []float64{2, 1}, 10)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("bars lines = %d", len(lines))
	}
	if strings.Count(lines[0], "█") != 10 {
		t.Fatalf("max bar should span width: %q", lines[0])
	}
	if strings.Count(lines[1], "█") != 5 {
		t.Fatalf("half bar wrong: %q", lines[1])
	}
	if Bars([]string{"a"}, []float64{1, 2}, 10) != "" {
		t.Fatal("mismatched inputs should render empty")
	}
	if Bars(nil, nil, 10) != "" {
		t.Fatal("empty inputs should render empty")
	}
	// All-zero values: no panic, no bars.
	if strings.Count(Bars([]string{"z"}, []float64{0}, 10), "█") != 0 {
		t.Fatal("zero values should have no bars")
	}
}

func TestChart(t *testing.T) {
	out := Chart([]string{"up", "down"},
		[][]float64{{0, 0.5, 1}, {1, 0.5, 0}}, 30, 8)
	if !strings.Contains(out, "*=up") || !strings.Contains(out, "o=down") {
		t.Fatalf("legend missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 10 { // 8 rows + axis + legend
		t.Fatalf("chart rows = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "1.0 |") || !strings.HasPrefix(lines[7], "0.0 |") {
		t.Fatalf("axis labels wrong:\n%s", out)
	}
	if Chart(nil, nil, 10, 5) != "" {
		t.Fatal("empty chart should render empty")
	}
	if Chart([]string{"a"}, [][]float64{{}}, 10, 5) != "" {
		t.Fatal("empty series should render empty")
	}
}

func TestChartSingleColumn(t *testing.T) {
	// width 1 exercises the division guard.
	out := Chart([]string{"s"}, [][]float64{{0.5}}, 1, 3)
	if out == "" {
		t.Fatal("single-column chart failed")
	}
}
