// Package viz renders simulation state and results for terminals. The
// paper's Java harness shipped "a graphical view and plots"; this is the
// equivalent for a CLI-first reproduction: arena heat maps, series
// sparklines, line charts, and horizontal bar charts, all plain text.
package viz

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/network"
)

// ramp is the density ramp used by heat maps and sparklines.
var ramp = []rune(" ·:-=+*#%@")

// sparkRamp is the block-character ramp for sparklines.
var sparkRamp = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders a series as one line of block characters, downsampled
// to at most width cells. Values are clamped to [0, 1].
func Sparkline(xs []float64, width int) string {
	if len(xs) == 0 || width <= 0 {
		return ""
	}
	stride := (len(xs) + width - 1) / width
	var b strings.Builder
	for i := 0; i < len(xs); i += stride {
		v := clamp01(xs[i])
		b.WriteRune(sparkRamp[int(v*float64(len(sparkRamp)-1)+0.5)])
	}
	return b.String()
}

// Heatmap renders per-node values over the world's arena as a character
// grid: each cell shows the maximum value of the nodes inside it, using a
// density ramp. Gateways are drawn as 'G' regardless of value. values is
// indexed by node ID and expected in [0, 1].
func Heatmap(w *network.World, values []float64, cols, rows int) string {
	if cols <= 0 {
		cols = 60
	}
	if rows <= 0 {
		rows = 20
	}
	grid := make([]float64, cols*rows)
	for i := range grid {
		grid[i] = math.NaN()
	}
	gateway := make([]bool, cols*rows)
	arenaW, arenaH, minX, minY := arenaDims(w)
	for u := 0; u < w.N(); u++ {
		p := w.Pos(network.NodeID(u))
		cx := int((p.X - minX) / arenaW * float64(cols))
		cy := int((p.Y - minY) / arenaH * float64(rows))
		if cx >= cols {
			cx = cols - 1
		}
		if cy >= rows {
			cy = rows - 1
		}
		if cx < 0 {
			cx = 0
		}
		if cy < 0 {
			cy = 0
		}
		idx := cy*cols + cx
		v := 0.0
		if u < len(values) {
			v = clamp01(values[u])
		}
		if math.IsNaN(grid[idx]) || v > grid[idx] {
			grid[idx] = v
		}
		if w.IsGateway(network.NodeID(u)) {
			gateway[idx] = true
		}
	}
	var b strings.Builder
	b.WriteString("+" + strings.Repeat("-", cols) + "+\n")
	// Render top row last so y grows upward, like the arena.
	for cy := rows - 1; cy >= 0; cy-- {
		b.WriteByte('|')
		for cx := 0; cx < cols; cx++ {
			idx := cy*cols + cx
			switch {
			case gateway[idx]:
				b.WriteByte('G')
			case math.IsNaN(grid[idx]):
				b.WriteByte(' ')
			default:
				b.WriteRune(ramp[int(grid[idx]*float64(len(ramp)-1)+0.5)])
			}
		}
		b.WriteString("|\n")
	}
	b.WriteString("+" + strings.Repeat("-", cols) + "+\n")
	return b.String()
}

// arenaDims extracts the bounding box of the node positions (worlds do
// not export their arena; positions are what matters for display).
func arenaDims(w *network.World) (width, height, minX, minY float64) {
	minX, minY = math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for u := 0; u < w.N(); u++ {
		p := w.Pos(network.NodeID(u))
		minX = math.Min(minX, p.X)
		minY = math.Min(minY, p.Y)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	width = maxX - minX
	height = maxY - minY
	if width <= 0 {
		width = 1
	}
	if height <= 0 {
		height = 1
	}
	return width, height, minX, minY
}

// Bars renders labelled values as a horizontal bar chart, scaled so the
// largest value spans width characters.
func Bars(labels []string, values []float64, width int) string {
	if len(labels) != len(values) || len(labels) == 0 {
		return ""
	}
	if width <= 0 {
		width = 40
	}
	maxLabel, maxVal := 0, 0.0
	for i, l := range labels {
		if len(l) > maxLabel {
			maxLabel = len(l)
		}
		if values[i] > maxVal {
			maxVal = values[i]
		}
	}
	var b strings.Builder
	for i, l := range labels {
		n := 0
		if maxVal > 0 {
			n = int(values[i] / maxVal * float64(width))
		}
		fmt.Fprintf(&b, "%-*s %s %.3g\n", maxLabel, l, strings.Repeat("█", n), values[i])
	}
	return b.String()
}

// Chart renders one or more series as a multi-row ASCII line chart with a
// y-axis from 0 to 1. Each series gets a distinct glyph.
func Chart(names []string, series [][]float64, width, height int) string {
	if len(series) == 0 || width <= 0 || height <= 0 {
		return ""
	}
	glyphs := []byte{'*', 'o', '+', 'x', '~', '^'}
	cells := make([][]byte, height)
	for i := range cells {
		cells[i] = []byte(strings.Repeat(" ", width))
	}
	maxLen := 0
	for _, s := range series {
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	if maxLen == 0 {
		return ""
	}
	for si, s := range series {
		g := glyphs[si%len(glyphs)]
		for col := 0; col < width; col++ {
			idx := col * (maxLen - 1) / max(1, width-1)
			if idx >= len(s) {
				idx = len(s) - 1
			}
			if idx < 0 {
				continue
			}
			row := int(clamp01(s[idx]) * float64(height-1))
			cells[height-1-row][col] = g
		}
	}
	var b strings.Builder
	for i, row := range cells {
		label := "      "
		if i == 0 {
			label = "1.0 | "
		} else if i == height-1 {
			label = "0.0 | "
		} else {
			label = "    | "
		}
		b.WriteString(label)
		b.Write(row)
		b.WriteByte('\n')
	}
	b.WriteString("      " + strings.Repeat("-", width) + "\n")
	var legend []string
	for i, n := range names {
		legend = append(legend, fmt.Sprintf("%c=%s", glyphs[i%len(glyphs)], n))
	}
	b.WriteString("      " + strings.Join(legend, "  ") + "\n")
	return b.String()
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
