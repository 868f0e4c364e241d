package perf

import (
	"fmt"
	"html/template"
	"io"
	"math"
	"strings"
)

// Trend dashboard palette: the validated reference categorical order
// with its dark-surface steps, shared with the export dashboard so the
// two documents read as one system. Series beyond seven cycle.
var (
	trendSeriesLight = []string{"#2a78d6", "#eb6834", "#1baf7a", "#eda100", "#e87ba4", "#008300", "#4a3aa7"}
	trendSeriesDark  = []string{"#3987e5", "#d95926", "#199e70", "#c98500", "#d55181", "#008300", "#9085e9"}
)

// chart geometry (pixels)
const (
	trendGutterW = 64  // left gutter for y tick labels
	trendPlotW   = 560 // plot width
	trendPlotH   = 170 // plot height
	trendTopPad  = 10
	trendAxisH   = 30 // bottom axis band for BENCH_<n> labels
)

type trendPt struct {
	X, Y    float64
	Title   string
	Flagged bool // a gate verdict fired at this point
}

type trendSeries struct {
	Name   string
	Color  int // 1-based palette slot
	Path   string
	Pts    []trendPt
	Single bool // one point only: marker-only series
}

type trendTick struct {
	X, Y  float64
	Label string
}

type trendChart struct {
	Title     string
	Subtitle  string
	W, H      int
	PlotX     float64
	PlotW     float64
	PlotRight float64
	AxisY     float64
	Series    []trendSeries
	XTicks    []trendTick
	YTicks    []trendTick
}

// rawSeries is a series in data space: snapshot index -> value.
type rawSeries struct {
	name  string
	pts   map[int]float64
	flags map[int]string // snapshot index -> gate-failure annotation
}

// buildLineChart maps raw series into SVG space. xLabels carries one
// label per snapshot.
func buildLineChart(title, subtitle string, series []rawSeries, xLabels []string,
	yFmt func(float64) string) *trendChart {
	c := &trendChart{
		Title: title, Subtitle: subtitle,
		W:     trendGutterW + trendPlotW + 24,
		H:     trendTopPad + trendPlotH + trendAxisH,
		PlotX: trendGutterW, PlotW: trendPlotW,
		PlotRight: trendGutterW + trendPlotW,
		AxisY:     trendTopPad + trendPlotH,
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	any := false
	for _, s := range series {
		for _, v := range s.pts {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
			any = true
		}
	}
	if !any {
		return nil
	}
	if hi == lo {
		hi = lo + 1
	}
	pad := (hi - lo) * 0.08
	lo, hi = lo-pad, hi+pad

	n := len(xLabels)
	xAt := func(i int) float64 {
		if n <= 1 {
			return trendGutterW + trendPlotW/2
		}
		return trendGutterW + float64(i)/float64(n-1)*trendPlotW
	}
	yAt := func(v float64) float64 {
		return trendTopPad + (hi-v)/(hi-lo)*trendPlotH
	}

	for i, lbl := range xLabels {
		c.XTicks = append(c.XTicks, trendTick{X: xAt(i), Y: c.AxisY + 16, Label: lbl})
	}
	for i := 0; i <= 4; i++ {
		v := lo + (hi-lo)*float64(i)/4
		c.YTicks = append(c.YTicks, trendTick{X: trendGutterW - 8, Y: yAt(v), Label: yFmt(v)})
	}

	for si, s := range series {
		ts := trendSeries{Name: s.name, Color: si%len(trendSeriesLight) + 1}
		var path strings.Builder
		count := 0
		for i := range n {
			v, ok := s.pts[i]
			if !ok {
				continue
			}
			x, y := xAt(i), yAt(v)
			if count == 0 {
				fmt.Fprintf(&path, "M%.1f,%.1f", x, y)
			} else {
				fmt.Fprintf(&path, " L%.1f,%.1f", x, y)
			}
			count++
			pt := trendPt{X: x, Y: y, Title: fmt.Sprintf("%s @ %s: %s", s.name, xLabels[i], yFmt(v))}
			if note, bad := s.flags[i]; bad {
				pt.Flagged = true
				pt.Title += " — " + note
			}
			ts.Pts = append(ts.Pts, pt)
		}
		if count == 0 {
			continue
		}
		ts.Path = path.String()
		ts.Single = count == 1
		c.Series = append(c.Series, ts)
	}
	if len(c.Series) == 0 {
		return nil
	}
	return c
}

type trendStat struct {
	Value string
	Name  string
}

type trendDoc struct {
	Title       string
	SeriesLight template.CSS
	SeriesDark  template.CSS
	Stats       []trendStat
	Charts      []*trendChart
	Verdicts    []string // gate-failure annotations, newest first
	Header      []string
	Records     [][]string
	Latest      string
}

// WriteTrend renders the perf-trend dashboard over the snapshot
// history: per-bench allocation series normalized to each bench's
// first appearance, absolute cache-hit-rate series from the schema-2
// engine counters, and gate-verdict annotations wherever a
// machine-independent signal moved between adjacent snapshots. Wall
// time across snapshots is cross-machine weather and is not plotted.
// Rows that share another row's measured cost (the Fig. 4–7 views of
// the one campaign) are plotted once, through the row that owns the
// measurement.
func WriteTrend(w io.Writer, hist []HistoryEntry) error {
	if len(hist) == 0 {
		return fmt.Errorf("perf: no BENCH snapshots to plot")
	}
	xLabels := make([]string, len(hist))
	for i, h := range hist {
		xLabels[i] = fmt.Sprintf("BENCH_%d", h.N)
	}

	// Union of bench names, first-appearance order by snapshot then name.
	var names []string
	seen := map[string]bool{}
	for _, h := range hist {
		for _, n := range h.Snap.BenchNames() {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}

	// Adjacent-snapshot gate verdicts for annotations: only hard
	// failures of deterministic signals annotate a point.
	flags := make([]map[string]string, len(hist))
	var verdicts []string
	for i := 1; i < len(hist); i++ {
		flags[i] = map[string]string{}
		gr := Gate(hist[i-1].Snap, hist[i].Snap, GatePolicy{})
		for _, chk := range gr.Checks {
			if chk.OK || chk.Class == ClassAdvisory {
				continue
			}
			note := fmt.Sprintf("%s: %s drifted (%v → %v)", chk.Bench, chk.Signal, chk.Base, chk.Cand)
			if prev := flags[i][chk.Bench]; prev == "" {
				flags[i][chk.Bench] = note
			}
			verdicts = append(verdicts, fmt.Sprintf("%s → %s: %s", xLabels[i-1], xLabels[i], note))
		}
	}

	costOwned := func(b *Bench) bool { return !b.SharesCost() }
	series := func(value func(*Bench) (float64, bool), withFlags bool) []rawSeries {
		var out []rawSeries
		for _, name := range names {
			rs := rawSeries{name: name, pts: map[int]float64{}, flags: map[int]string{}}
			for i, h := range hist {
				b, ok := h.Snap.Benches[name]
				if !ok {
					continue
				}
				if v, ok := value(&b); ok {
					rs.pts[i] = v
					if withFlags && flags[i] != nil {
						if note, bad := flags[i][name]; bad {
							rs.flags[i] = note
						}
					}
				}
			}
			if len(rs.pts) > 0 {
				out = append(out, rs)
			}
		}
		return out
	}
	normalize := func(ss []rawSeries) []rawSeries {
		for _, s := range ss {
			var base float64
			for i := range len(hist) {
				if v, ok := s.pts[i]; ok {
					base = v
					break
				}
			}
			if base == 0 {
				continue
			}
			for i, v := range s.pts {
				s.pts[i] = v / base
			}
		}
		return ss
	}

	ratioFmt := func(v float64) string { return fmt.Sprintf("%.2fx", v) }
	pctFmt := func(v float64) string { return fmt.Sprintf("%.1f%%", v) }

	var charts []*trendChart
	if c := buildLineChart(
		"Allocations, relative to first appearance",
		"per-bench allocs/op ÷ the bench's first snapshot; deterministic — flat lines are the expectation, steps are code changes",
		normalize(series(func(b *Bench) (float64, bool) { return b.AllocsPerOp, costOwned(b) && b.AllocsPerOp > 0 }, true)),
		xLabels, ratioFmt); c != nil {
		charts = append(charts, c)
	}
	if c := buildLineChart(
		"Decode-cache hit rate",
		"per-page predecode cache hits ÷ lookups, from the schema-2 engine counters (deterministic)",
		series(func(b *Bench) (float64, bool) {
			if b.Counters == nil || b.Counters.DecodeHits+b.Counters.DecodeMisses == 0 {
				return 0, false
			}
			return 100 * b.Counters.DecodeHitRate(), true
		}, false),
		xLabels, pctFmt); c != nil {
		charts = append(charts, c)
	}
	if c := buildLineChart(
		"Block-cache hit rate",
		"translated-region lookups served from cache in the TOL dispatch loop (deterministic)",
		series(func(b *Bench) (float64, bool) {
			if b.Counters == nil || b.Counters.BlockHits+b.Counters.BlockMisses == 0 {
				return 0, false
			}
			return 100 * b.Counters.BlockHitRate(), true
		}, false),
		xLabels, pctFmt); c != nil {
		charts = append(charts, c)
	}

	latest := hist[len(hist)-1]
	doc := trendDoc{
		Title:       "DARCO perf trend",
		SeriesLight: trendCSS(trendSeriesLight),
		SeriesDark:  trendCSS(trendSeriesDark),
		Charts:      charts,
		Verdicts:    verdicts,
		Latest:      xLabels[len(xLabels)-1],
	}
	doc.Stats = append(doc.Stats,
		trendStat{Value: fmt.Sprintf("%d", len(hist)), Name: "snapshots"},
		trendStat{Value: fmt.Sprintf("%d", len(names)), Name: "benches tracked"},
	)
	if b, ok := latest.Snap.Benches["TableSpeedFunctional"]; ok && b.Counters != nil {
		doc.Stats = append(doc.Stats, trendStat{
			Value: fmt.Sprintf("%.2f%%", 100*b.Counters.DecodeHitRate()), Name: "decode hit rate"})
	}

	doc.Header = []string{"bench", "ns/op", "allocs/op", "decode-hit%", "block-hit%", "cost"}
	for _, name := range latest.Snap.BenchNames() {
		b := latest.Snap.Benches[name]
		rec := []string{name, "", "", "", "", "measured"}
		if b.SharesCost() {
			rec[5] = "shares " + b.CostShared
		} else {
			rec[1] = fmt.Sprintf("%.0f", b.NsPerOp)
			rec[2] = fmt.Sprintf("%.0f", b.AllocsPerOp)
		}
		if b.Counters != nil {
			rec[3] = fmt.Sprintf("%.2f", 100*b.Counters.DecodeHitRate())
			rec[4] = fmt.Sprintf("%.2f", 100*b.Counters.BlockHitRate())
		}
		doc.Records = append(doc.Records, rec)
	}
	return trendTmpl.Execute(w, &doc)
}

func trendCSS(colors []string) template.CSS {
	var b strings.Builder
	for i, c := range colors {
		fmt.Fprintf(&b, "--series-%d:%s;", i+1, c)
	}
	return template.CSS(b.String())
}

var trendTmpl = template.Must(template.New("trend").Parse(`<!DOCTYPE html>
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
  --flag: #b42318;
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
    --flag: #f97066;
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
.tile { background: var(--surface-2); border-radius: 8px; padding: 12px 18px; min-width: 120px; }
.tile .v { font-size: 24px; font-weight: 600; }
.tile .n { color: var(--text-secondary); font-size: 12px; }
figure { margin: 0 0 36px; }
figcaption { margin-bottom: 2px; }
figcaption .t { font-weight: 600; }
figcaption .s { color: var(--text-secondary); font-size: 12px; }
.legend { display: flex; gap: 14px; flex-wrap: wrap; margin: 6px 0 4px; font-size: 12px; color: var(--text-secondary); }
.legend .sw { display: inline-block; width: 10px; height: 10px; border-radius: 2px; margin-right: 5px; vertical-align: -1px; }
svg { display: block; max-width: 100%; height: auto; }
svg text { fill: var(--text-secondary); font: 11px system-ui, sans-serif; }
svg .grid { stroke: var(--grid); stroke-width: 1; }
svg .line { fill: none; stroke-width: 2; stroke-linejoin: round; stroke-linecap: round; }
svg .flagpt { fill: var(--flag); }
.verdicts { background: var(--surface-2); border-radius: 8px; padding: 10px 16px; margin: 0 0 28px; font-size: 13px; }
.verdicts li { margin: 2px 0; }
table { border-collapse: collapse; font-size: 12px; width: 100%; }
th, td { text-align: right; padding: 3px 8px; border-bottom: 1px solid var(--grid); white-space: nowrap; }
th:first-child, td:first-child, th:last-child, td:last-child { text-align: left; }
th { color: var(--text-secondary); font-weight: 500; }
h2 { font-size: 15px; margin: 36px 0 8px; }
</style>
</head>
<body>
<div class="viz-root">
<h1>{{.Title}}</h1>
<p class="sub">the committed BENCH trajectory &mdash; deterministic signals only; wall time across snapshots is machine weather and is not plotted</p>
<div class="stats">
{{range .Stats}}  <div class="tile"><div class="v">{{.Value}}</div><div class="n">{{.Name}}</div></div>
{{end}}</div>
{{if .Verdicts}}<div class="verdicts"><strong>Gate verdicts along the trajectory</strong><ul>
{{range .Verdicts}}<li>{{.}}</li>
{{end}}</ul></div>{{end}}
{{range .Charts}}<figure>
<figcaption><span class="t">{{.Title}}</span><br><span class="s">{{.Subtitle}}</span></figcaption>
<div class="legend">{{range .Series}}<span><span class="sw" style="background:var(--series-{{.Color}})"></span>{{.Name}}</span>{{end}}</div>
<svg viewBox="0 0 {{.W}} {{.H}}" width="{{.W}}" height="{{.H}}" role="img" aria-label="{{.Title}}">
{{$c := .}}{{range .YTicks}}  <line class="grid" x1="{{$c.PlotX}}" y1="{{.Y}}" x2="{{$c.PlotRight}}" y2="{{.Y}}"></line>
  <text x="{{.X}}" y="{{.Y}}" text-anchor="end" dominant-baseline="middle">{{.Label}}</text>
{{end}}{{range .XTicks}}  <text x="{{.X}}" y="{{.Y}}" text-anchor="middle">{{.Label}}</text>
{{end}}{{range .Series}}{{$s := .}}{{if not .Single}}  <path class="line" d="{{.Path}}" stroke="var(--series-{{.Color}})"></path>
{{end}}{{range .Pts}}  <circle cx="{{.X}}" cy="{{.Y}}" r="{{if .Flagged}}4.5{{else}}3{{end}}"{{if .Flagged}} class="flagpt"{{else}} fill="var(--series-{{$s.Color}})"{{end}}><title>{{.Title}}</title></circle>
{{end}}{{end}}</svg>
</figure>
{{end}}
<h2>Latest snapshot ({{.Latest}})</h2>
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
