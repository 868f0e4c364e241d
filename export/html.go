package export

import (
	"fmt"
	"html/template"
	"io"
	"math"

	"strings"

	darco "darco"
)

// Dashboard palette: the validated reference categorical order (slots
// 1..7) with its dark-surface steps. Fig. 4 uses the first three slots
// (IM/BBM/SBM); Fig. 7 uses all seven for the overhead categories.
// Light-mode contrast warnings on slots 3–5 are relieved by the full
// table view at the bottom of the page.
var (
	seriesLight = []string{"#2a78d6", "#eb6834", "#1baf7a", "#eda100", "#e87ba4", "#008300", "#4a3aa7"}
	seriesDark  = []string{"#3987e5", "#d95926", "#199e70", "#c98500", "#d55181", "#008300", "#9085e9"}
)

// chart geometry (pixels)
const (
	chartLabelW = 150 // left gutter for row labels
	chartPlotW  = 560 // plot width
	chartRowH   = 20  // row pitch
	chartBarH   = 14  // bar thickness (spec: <= 24)
	chartGap    = 2   // surface gap between stacked segments
	chartAxisH  = 22  // bottom axis band
	chartTopPad = 6
)

// barSeg is one rendered segment of a horizontal bar.
type barSeg struct {
	Path  string // SVG path (rounded data end only on the last segment)
	Color int    // 1-based series slot, matching --series-<n>
	Title string // native tooltip text
}

type chartRow struct {
	Label  string
	Segs   []barSeg
	Value  string // selective direct label at the bar end ("" = none)
	ValX   float64
	LabelY float64 // baseline for the row label text
}

type tick struct {
	X     float64
	Label string
}

type chartData struct {
	Title      string
	Subtitle   string
	W, H       int
	LabelX     float64 // right-aligned row-label anchor
	AxisY      float64 // gridline bottom
	AxisLabelY float64 // tick-label baseline
	Rows       []chartRow
	Ticks      []tick
	Legend     []legendItem // empty for single-series charts
}

type legendItem struct {
	Name  string
	Color int
}

// barPath renders a horizontal bar segment. The data end (rightmost
// segment) gets a 4px rounded cap; baseline and interior edges stay
// square.
func barPath(x, y, w, h float64, rounded bool) string {
	if w <= 0 {
		return ""
	}
	r := 4.0
	if !rounded || w < 2*r {
		return fmt.Sprintf("M%.1f,%.1f h%.1f v%.1f h%.1f Z", x, y, w, h, -w)
	}
	return fmt.Sprintf("M%.1f,%.1f h%.1f q%.1f,0 %.1f,%.1f v%.1f q0,%.1f %.1f,%.1f h%.1f Z",
		x, y, w-r, r, r, r, h-2*r, r, -r, r, -(w - r))
}

// niceMax rounds v up to a clean axis maximum (1/2/5 × 10^k).
func niceMax(v float64) float64 {
	if v <= 0 {
		return 1
	}
	mag := math.Pow(10, math.Floor(math.Log10(v)))
	for _, m := range []float64{1, 2, 5, 10} {
		if v <= m*mag {
			return m * mag
		}
	}
	return 10 * mag
}

func fmtNum(v float64) string {
	switch {
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// stackedChart builds a horizontal stacked-bar chart on a 0..100 % axis.
func stackedChart(title, subtitle string, rows []Row, names []string,
	values func(*Row) []float64) chartData {
	c := chartData{
		Title: title, Subtitle: subtitle,
		LabelX: chartLabelW - 8,
		W:      chartLabelW + chartPlotW + 60,
	}
	for i, n := range names {
		c.Legend = append(c.Legend, legendItem{Name: n, Color: i + 1})
	}
	for i := 0; i <= 4; i++ {
		frac := float64(i) / 4
		c.Ticks = append(c.Ticks, tick{X: chartLabelW + frac*chartPlotW, Label: fmt.Sprintf("%.0f%%", frac*100)})
	}
	y := float64(chartTopPad)
	for i := range rows {
		row := chartRow{Label: rows[i].Label(), LabelY: y + 11}
		vals := values(&rows[i])
		last := -1
		for s, v := range vals {
			if v > 0 {
				last = s
			}
		}
		// The 2px surface gap comes out of each interior segment's
		// width, so the stack's total span stays true to the axis.
		x := float64(chartLabelW)
		for s, v := range vals {
			w := v / 100 * chartPlotW
			if w <= 0 {
				continue
			}
			gap := 0.0
			if s != last {
				gap = chartGap
			}
			row.Segs = append(row.Segs, barSeg{
				Path:  barPath(x, y, math.Max(w-gap, 0.5), chartBarH, s == last),
				Color: s + 1,
				Title: fmt.Sprintf("%s — %s: %.1f%%", rows[i].Label(), names[s], v),
			})
			x += w
		}
		y += chartRowH
		c.Rows = append(c.Rows, row)
	}
	c.AxisY = y + 4
	c.AxisLabelY = c.AxisY + 14
	c.H = int(y) + chartAxisH
	return c
}

// barChart builds a single-series horizontal bar chart with a value
// label at every bar tip (the axis still carries the scale).
func barChart(title, subtitle string, rows []Row, unit string, value func(*Row) float64) chartData {
	c := chartData{
		Title: title, Subtitle: subtitle,
		LabelX: chartLabelW - 8,
		W:      chartLabelW + chartPlotW + 60,
	}
	maxV := 0.0
	for i := range rows {
		if v := value(&rows[i]); v > maxV {
			maxV = v
		}
	}
	axisMax := niceMax(maxV)
	for i := 0; i <= 4; i++ {
		frac := float64(i) / 4
		c.Ticks = append(c.Ticks, tick{X: chartLabelW + frac*chartPlotW, Label: fmtNum(frac * axisMax)})
	}
	y := float64(chartTopPad)
	for i := range rows {
		v := value(&rows[i])
		w := v / axisMax * chartPlotW
		row := chartRow{
			Label:  rows[i].Label(),
			LabelY: y + 11,
			Value:  fmtNum(v),
			ValX:   chartLabelW + w + 6,
		}
		row.Segs = append(row.Segs, barSeg{
			Path:  barPath(chartLabelW, y, w, chartBarH, true),
			Color: 1,
			Title: fmt.Sprintf("%s: %s%s", rows[i].Label(), fmtNum(v), unit),
		})
		y += chartRowH
		c.Rows = append(c.Rows, row)
	}
	c.AxisY = y + 4
	c.AxisLabelY = c.AxisY + 14
	c.H = int(y) + chartAxisH
	return c
}

// Label is the row's display name in charts and tables.
func (r *Row) Label() string { return r.Scenario }

type statTile struct {
	Value string
	Name  string
}

type dashboard struct {
	Title       string
	SeriesLight template.CSS
	SeriesDark  template.CSS
	Stats       []statTile
	Charts      []chartData
	Header      []string
	Records     [][]string
	HasErrors   bool
}

// overheadNames are Fig. 7's display names in canonical category order.
func overheadNames() []string {
	names := make([]string, len(overheadCats))
	for i, oc := range overheadCats {
		names[i] = oc.cat.String()
	}
	return names
}

// suiteOverheadRows aggregates the Fig. 7 breakdown per suite, in first-
// appearance order of suites across the campaign.
func suiteOverheadRows(rows []Row) []Row {
	var order []string
	agg := map[string]*Row{}
	for i := range rows {
		s := rows[i].Suite
		if s == "" || rows[i].Error != "" {
			continue
		}
		a, ok := agg[s]
		if !ok {
			a = &Row{Scenario: s, Overhead: map[string]uint64{}}
			agg[s] = a
			order = append(order, s)
		}
		for _, oc := range overheadCats {
			a.Overhead[oc.slug] += rows[i].Overhead[oc.slug]
		}
	}
	out := make([]Row, 0, len(order))
	for _, s := range order {
		out = append(out, *agg[s])
	}
	return out
}

func overheadShares(r *Row) []float64 {
	var total float64
	for _, oc := range overheadCats {
		total += float64(r.Overhead[oc.slug])
	}
	out := make([]float64, len(overheadCats))
	if total == 0 {
		return out
	}
	for i, oc := range overheadCats {
		out[i] = 100 * float64(r.Overhead[oc.slug]) / total
	}
	return out
}

// WriteHTML writes a self-contained static dashboard: headline tiles,
// the paper's Fig. 4–7 views as inline-SVG bar charts, and the full
// scenario table. No external assets or scripts; light and dark mode
// follow prefers-color-scheme.
func WriteHTML(w io.Writer, rep *darco.CampaignReport, opts ...Option) error {
	return WriteHTMLRows(w, Rows(rep, opts...), opts...)
}

// WriteHTMLRows renders the dashboard from pre-flattened rows — the
// same document WriteHTML produces for the report those rows came
// from. The options select table columns (WithWallTimes) but the row
// values are rendered as given.
func WriteHTMLRows(w io.Writer, rows []Row, opts ...Option) error {
	cfg := newConfig(opts)

	ok := make([]Row, 0, len(rows))
	var guestTotal uint64
	failed := 0
	for i := range rows {
		if rows[i].Error != "" {
			failed++
			continue
		}
		ok = append(ok, rows[i])
		guestTotal += rows[i].GuestInsns
	}

	d := dashboard{
		Title:       "DARCO campaign dashboard",
		SeriesLight: seriesCSS(seriesLight),
		SeriesDark:  seriesCSS(seriesDark),
		Stats: []statTile{
			{Value: fmt.Sprintf("%d", len(rows)), Name: "scenarios"},
			{Value: humanCount(guestTotal), Name: "guest instructions"},
			{Value: fmt.Sprintf("%d", failed), Name: "failed"},
		},
		HasErrors: failed > 0,
	}
	if len(ok) > 0 {
		d.Charts = append(d.Charts,
			stackedChart("Execution-mode distribution", "dynamic guest instructions per TOL mode (paper Fig. 4)",
				ok, []string{"IM", "BBM", "SBM"},
				func(r *Row) []float64 { return []float64{r.IMPct, r.BBMPct, r.SBMPct} }),
			barChart("Emulation cost in SBM", "host instructions per guest instruction in superblock mode (paper Fig. 5)",
				ok, " host/guest", func(r *Row) float64 { return r.SBMCost }),
			barChart("TOL overhead share", "translation layer share of the host instruction stream, % (paper Fig. 6)",
				ok, "%", func(r *Row) float64 { return r.TOLPct }),
			stackedChart("TOL overhead breakdown by suite", "share of TOL host instructions per activity (paper Fig. 7)",
				suiteOverheadRows(ok), overheadNames(), overheadShares),
		)
	}
	d.Header = csvHeader(&cfg)
	line := csvLine{raw: true}
	for i := range rows {
		line.record(&rows[i], &cfg)
		d.Records = append(d.Records, line.fields())
	}
	return dashTmpl.Execute(w, &d)
}

// seriesCSS renders the palette slots as CSS custom properties.
func seriesCSS(colors []string) template.CSS {
	var b strings.Builder
	for i, c := range colors {
		fmt.Fprintf(&b, "--series-%d:%s;", i+1, c)
	}
	return template.CSS(b.String())
}

func humanCount(v uint64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.1fB", float64(v)/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", float64(v)/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", float64(v)/1e3)
	}
	return fmt.Sprintf("%d", v)
}

var dashTmpl = template.Must(template.New("dash").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{{.Title}}</title>
<style>
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --surface-2: #f0efec;
  --grid: #e3e2de;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  {{.SeriesLight}}
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --surface-2: #262625;
    --grid: #383835;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    {{.SeriesDark}}
  }
}
body { margin: 0; }
.viz-root {
  background: var(--surface-1);
  color: var(--text-primary);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
  padding: 24px 32px 48px;
  max-width: 860px;
  margin: 0 auto;
}
h1 { font-size: 20px; font-weight: 600; margin: 0 0 4px; }
.sub { color: var(--text-secondary); margin: 0 0 20px; }
.stats { display: flex; gap: 12px; flex-wrap: wrap; margin-bottom: 28px; }
.tile {
  background: var(--surface-2); border-radius: 8px;
  padding: 12px 18px; min-width: 120px;
}
.tile .v { font-size: 24px; font-weight: 600; }
.tile .n { color: var(--text-secondary); font-size: 12px; }
figure { margin: 0 0 32px; }
figcaption { margin-bottom: 2px; }
figcaption .t { font-weight: 600; }
figcaption .s { color: var(--text-secondary); font-size: 12px; }
.legend { display: flex; gap: 14px; flex-wrap: wrap; margin: 6px 0 4px; font-size: 12px; color: var(--text-secondary); }
.legend .sw { display: inline-block; width: 10px; height: 10px; border-radius: 2px; margin-right: 5px; vertical-align: -1px; }
svg { display: block; max-width: 100%; height: auto; }
svg text { fill: var(--text-secondary); font: 11px system-ui, sans-serif; }
svg .rowlabel { fill: var(--text-primary); }
svg .grid { stroke: var(--grid); stroke-width: 1; }
table { border-collapse: collapse; font-size: 12px; width: 100%; overflow-x: auto; display: block; }
th, td { text-align: right; padding: 3px 8px; border-bottom: 1px solid var(--grid); white-space: nowrap; }
th:first-child, td:first-child, th:nth-child(2), td:nth-child(2), th:nth-child(4), td:nth-child(4) { text-align: left; }
th { color: var(--text-secondary); font-weight: 500; position: sticky; top: 0; background: var(--surface-1); }
.err { color: var(--text-secondary); }
h2 { font-size: 15px; margin: 36px 0 8px; }
</style>
</head>
<body>
<div class="viz-root">
<h1>{{.Title}}</h1>
<p class="sub">paper figures regenerated from one campaign &mdash; deterministic counters, scenario order</p>
<div class="stats">
{{range .Stats}}  <div class="tile"><div class="v">{{.Value}}</div><div class="n">{{.Name}}</div></div>
{{end}}</div>
{{range .Charts}}<figure>
<figcaption><span class="t">{{.Title}}</span><br><span class="s">{{.Subtitle}}</span></figcaption>
{{if gt (len .Legend) 1}}<div class="legend">{{range .Legend}}<span><span class="sw" style="background:var(--series-{{.Color}})"></span>{{.Name}}</span>{{end}}</div>{{end}}
<svg viewBox="0 0 {{.W}} {{.H}}" width="{{.W}}" height="{{.H}}" role="img" aria-label="{{.Title}}">
{{$c := .}}{{range .Ticks}}  <line class="grid" x1="{{.X}}" y1="0" x2="{{.X}}" y2="{{$c.AxisY}}"></line>
  <text x="{{.X}}" y="{{$c.AxisLabelY}}" text-anchor="middle">{{.Label}}</text>
{{end}}{{range .Rows}}  <text class="rowlabel" x="{{$c.LabelX}}" y="{{.LabelY}}" text-anchor="end">{{.Label}}</text>
{{range .Segs}}  <path d="{{.Path}}" fill="var(--series-{{.Color}})"><title>{{.Title}}</title></path>
{{end}}{{if .Value}}  <text x="{{.ValX}}" y="{{.LabelY}}">{{.Value}}</text>
{{end}}{{end}}</svg>
</figure>
{{end}}
<h2>All scenarios</h2>
<table>
<thead><tr>{{range .Header}}<th>{{.}}</th>{{end}}</tr></thead>
<tbody>
{{range .Records}}<tr>{{range .}}<td>{{.}}</td>{{end}}</tr>
{{end}}</tbody>
</table>
</div>
</body>
</html>
`))
