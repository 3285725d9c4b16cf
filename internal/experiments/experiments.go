// Package experiments defines one reproducible experiment per table/figure
// in the paper's evaluation (Figs 1–11) plus the extensions DESIGN.md
// commits to (stigmergic routing, the epsilon fix, overhead baselines,
// packet-level validation). Each experiment builds the paper-scale
// workload, runs it over independent seeded runs, and returns a Report
// containing the regenerated series, a results table, and shape checks
// that compare the outcome against the paper's qualitative claims.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Config tunes an experiment run.
type Config struct {
	// Runs is the number of independent runs per parameter setting
	// (the paper uses 40). 0 means 40.
	Runs int
	// Seed is the root seed; all randomness derives from it. 0 means 1.
	Seed uint64
	// RunWorkers is the number of independent replications each RunMany
	// batch may execute concurrently (0/1 = sequential). Aggregates are
	// bit-identical at any value; see internal/parallel for the shared
	// budget that keeps nested pools from oversubscribing.
	RunWorkers int
	// Quick shrinks workloads (fewer runs, smaller sweeps) for smoke
	// runs; reports note when it is set.
	Quick bool
}

func (c Config) withDefaults() Config {
	if c.Runs <= 0 {
		c.Runs = 40
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Quick && c.Runs > 8 {
		c.Runs = 8
	}
	return c
}

// Table is a formatted result table.
type Table struct {
	Columns []string
	Rows    [][]string
}

// Series is a named curve (one value per simulation step).
type Series struct {
	Name   string
	Values []float64
}

// Check records whether one of the paper's qualitative claims held.
// Known marks an expected, documented deviation (see EXPERIMENTS.md):
// it is reported but does not count as a reproduction failure.
type Check struct {
	Name   string
	OK     bool
	Known  bool
	Detail string
}

// Report is the output of one experiment.
type Report struct {
	ID         string
	Title      string
	PaperClaim string
	Params     string
	Table      Table
	Series     []Series
	Checks     []Check
}

// String renders the report for terminals.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.ID, r.Title)
	fmt.Fprintf(&b, "paper: %s\n", r.PaperClaim)
	fmt.Fprintf(&b, "setup: %s\n\n", r.Params)
	b.WriteString(r.Table.String())
	if len(r.Checks) > 0 {
		b.WriteString("\nshape checks:\n")
		for _, c := range r.Checks {
			status := "OK "
			if !c.OK {
				status = "DEV"
				if c.Known {
					status = "dev (known)"
				}
			}
			fmt.Fprintf(&b, "  [%s] %-40s %s\n", status, c.Name, c.Detail)
		}
	}
	return b.String()
}

// String renders the table with aligned columns.
func (t Table) String() string {
	if len(t.Columns) == 0 {
		return ""
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// TSV renders all series side by side (step column first, shorter series
// padded with their final value), ready for plotting.
func (r Report) TSV() string {
	if len(r.Series) == 0 {
		return ""
	}
	maxLen := 0
	for _, s := range r.Series {
		if len(s.Values) > maxLen {
			maxLen = len(s.Values)
		}
	}
	var b strings.Builder
	b.WriteString("step")
	for _, s := range r.Series {
		b.WriteByte('\t')
		b.WriteString(s.Name)
	}
	b.WriteByte('\n')
	for t := 0; t < maxLen; t++ {
		fmt.Fprintf(&b, "%d", t)
		for _, s := range r.Series {
			v := 0.0
			switch {
			case t < len(s.Values):
				v = s.Values[t]
			case len(s.Values) > 0:
				v = s.Values[len(s.Values)-1]
			}
			fmt.Fprintf(&b, "\t%.4f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// runner executes one experiment.
type runner func(Config) (Report, error)

var registry = map[string]struct {
	title string
	run   runner
}{
	"fig1":  {"single agent, Minar agents (random vs conscientious)", fig1},
	"fig2":  {"single agent with stigmergy", fig2},
	"fig3":  {"15 cooperating conscientious agents (Minar)", fig3},
	"fig4":  {"15 cooperating stigmergic conscientious agents", fig4},
	"fig5":  {"conscientious vs super-conscientious across populations (Minar)", fig5},
	"fig6":  {"conscientious vs super-conscientious, stigmergic", fig6},
	"fig7":  {"connectivity over time, 100 oldest-node agents", fig7},
	"fig8":  {"connectivity vs population size", fig8},
	"fig9":  {"connectivity vs history size", fig9},
	"fig10": {"direct communication, random agents", fig10},
	"fig11": {"direct communication, oldest-node agents", fig11},
	"extA":  {"extension: stigmergy in dynamic routing (future work)", extA},
	"extB":  {"extension: epsilon randomness fix for super-conscientious", extB},
	"extC":  {"extension: overhead vs flooding and distance-vector baselines", extC},
	"extD":  {"extension: packet delivery validates connectivity", extD},
	"extE":  {"extension: remapping a battery-degraded network", extE},
	"extF":  {"extension: team diversity (mixed agent types)", extF},
	"extG":  {"extension: agent memory sweep (mapping)", extG},
	"extH":  {"ablation: mobility models (constant vs random vs waypoint)", extH},
	"extI":  {"ablation: radio-range heterogeneity (Minar's env vs the paper's)", extI},
	"extJ":  {"comparison: deliberate agents vs ant colony vs distance-vector", extJ},
	"extK":  {"ablation: node placement (uniform vs clustered vs grid)", extK},
	"extL":  {"robustness: node churn — graceful degradation and stranded agents", extL},
	"extM":  {"robustness: gateway failure and partitions — reconvergence", extM},
}

// IDs returns the registered experiment IDs in a stable order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		fi, fj := strings.HasPrefix(ids[i], "fig"), strings.HasPrefix(ids[j], "fig")
		if fi != fj {
			return fi
		}
		if fi {
			return figNum(ids[i]) < figNum(ids[j])
		}
		return ids[i] < ids[j]
	})
	return ids
}

func figNum(id string) int {
	n := 0
	fmt.Sscanf(id, "fig%d", &n)
	return n
}

// Title returns the registered title for an experiment ID.
func Title(id string) string { return registry[id].title }

// Run executes the experiment with the given ID.
func Run(id string, cfg Config) (Report, error) {
	e, ok := registry[id]
	if !ok {
		return Report{}, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	rep, err := e.run(cfg.withDefaults())
	if err != nil {
		return Report{}, fmt.Errorf("experiments: %s: %w", id, err)
	}
	rep.ID = id
	rep.Title = e.title
	return rep, nil
}

// NormalizeID canonicalises user input for an experiment ID: "1" and
// "fig1" name Figure 1; "A" and "extA" name extension A.
func NormalizeID(s string) string {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "fig") || strings.HasPrefix(s, "ext") {
		return s
	}
	if len(s) == 1 && s[0] >= 'A' && s[0] <= 'Z' {
		return "ext" + s
	}
	return "fig" + s
}

// check builds a Check from a comparison.
func check(name string, ok bool, format string, args ...any) Check {
	return Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)}
}

// f1 formats a float at one decimal, f3 at three.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// Markdown renders the report as a GitHub-flavoured Markdown section:
// heading, claim, setup, result table, and check list.
func (r Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", r.ID, r.Title)
	fmt.Fprintf(&b, "**Paper:** %s\n\n", r.PaperClaim)
	fmt.Fprintf(&b, "**Setup:** %s\n\n", r.Params)
	if len(r.Table.Columns) > 0 {
		b.WriteString("| " + strings.Join(r.Table.Columns, " | ") + " |\n")
		sep := make([]string, len(r.Table.Columns))
		for i := range sep {
			sep[i] = "---"
		}
		b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
		for _, row := range r.Table.Rows {
			b.WriteString("| " + strings.Join(row, " | ") + " |\n")
		}
		b.WriteByte('\n')
	}
	for _, c := range r.Checks {
		mark := "✓"
		if !c.OK {
			mark = "✗ (known deviation)"
			if !c.Known {
				mark = "✗"
			}
		}
		fmt.Fprintf(&b, "- %s %s — %s\n", mark, c.Name, c.Detail)
	}
	b.WriteByte('\n')
	return b.String()
}
