// Package plot is a dependency-free SVG chart emitter for the repo's
// CLI and CI tooling: replay timelines (cmd/fleet -replay … -plot) and
// sweep figures (cmd/fleet -sweep … -plot) render through it, so figures
// attach to CI runs without pulling a plotting library into the module.
//
// The model is deliberately small: a figure is a titled column of
// panels sharing one width; each panel is either a line panel (one or
// more series over a shared integer x-axis, each autoscaled to the
// panel's value range) or a bar panel (one labeled value per row,
// lengths proportional to the panel maximum, exact values printed at
// the bar ends so linear scaling cannot hide a reading).
package plot

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is one polyline in a line panel: y values over x = 0..n-1.
type Series struct {
	Name   string
	Values []float64
}

// Panel is one chart row of a figure. Leave Bars nil for a line panel;
// a non-nil Bars (with matching Labels) renders horizontal bars and
// ignores Series.
type Panel struct {
	Title  string
	Unit   string // y-axis unit label, e.g. "W", "s", "ns/op"
	Series []Series
	Labels []string
	Bars   []float64
}

// Geometry shared by every figure (pixels).
const (
	figWidth    = 860
	panelHeight = 150
	marginLeft  = 64
	marginRight = 16
	panelTop    = 28 // per-panel title strip
	panelGap    = 18
	titleStrip  = 30 // figure title strip
	barRow      = 22
)

// seriesPalette cycles for line series within a panel.
var seriesPalette = []string{"#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"}

// WriteSVG renders the figure as a standalone SVG document.
func WriteSVG(w io.Writer, title string, panels []Panel) error {
	height := titleStrip
	for _, p := range panels {
		height += panelHeightOf(p) + panelGap
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" font-family="sans-serif">`+"\n",
		figWidth, height, figWidth, height)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	fmt.Fprintf(&b, `<text x="%d" y="20" font-size="15" font-weight="bold">%s</text>`+"\n", marginLeft, escape(title))
	y := titleStrip
	for _, p := range panels {
		renderPanel(&b, p, y)
		y += panelHeightOf(p) + panelGap
	}
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// panelHeightOf sizes bar panels by row count; line panels are fixed.
func panelHeightOf(p Panel) int {
	if p.Bars != nil {
		return panelTop + barRow*len(p.Bars) + 8
	}
	return panelTop + panelHeight
}

func renderPanel(b *strings.Builder, p Panel, top int) {
	fmt.Fprintf(b, `<text x="%d" y="%d" font-size="12" font-weight="bold">%s</text>`+"\n",
		marginLeft, top+14, escape(p.Title))
	if p.Bars != nil {
		renderBars(b, p, top+panelTop)
		return
	}
	renderLines(b, p, top+panelTop)
}

// renderLines draws the panel frame, min/max y labels, and one
// polyline per series with a right-edge legend.
func renderLines(b *strings.Builder, p Panel, top int) {
	plotW := figWidth - marginLeft - marginRight
	lo, hi := math.Inf(1), math.Inf(-1)
	n := 0
	for _, s := range p.Series {
		for _, v := range s.Values {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		if len(s.Values) > n {
			n = len(s.Values)
		}
	}
	if n == 0 {
		fmt.Fprintf(b, `<text x="%d" y="%d" font-size="11" fill="#888">(no data)</text>`+"\n", marginLeft, top+20)
		return
	}
	if lo > 0 && lo < 0.25*hi {
		lo = 0 // anchor near-zero ranges at zero instead of a sliver
	}
	if hi == lo {
		hi = lo + 1
	}
	xAt := func(i int) float64 {
		if n == 1 {
			return float64(marginLeft)
		}
		return float64(marginLeft) + float64(i)/float64(n-1)*float64(plotW)
	}
	yAt := func(v float64) float64 {
		return float64(top) + (1-(v-lo)/(hi-lo))*float64(panelHeight-10) + 5
	}
	fmt.Fprintf(b, `<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="#ccc"/>`+"\n",
		marginLeft, top, plotW, panelHeight)
	fmt.Fprintf(b, `<text x="%d" y="%d" font-size="10" text-anchor="end" fill="#555">%s</text>`+"\n",
		marginLeft-6, top+10, escape(fmtVal(hi)+p.Unit))
	fmt.Fprintf(b, `<text x="%d" y="%d" font-size="10" text-anchor="end" fill="#555">%s</text>`+"\n",
		marginLeft-6, top+panelHeight, escape(fmtVal(lo)+p.Unit))
	for si, s := range p.Series {
		color := seriesPalette[si%len(seriesPalette)]
		var pts strings.Builder
		for i, v := range s.Values {
			if i > 0 {
				pts.WriteByte(' ')
			}
			fmt.Fprintf(&pts, "%.1f,%.1f", xAt(i), yAt(v))
		}
		if len(s.Values) == 1 {
			fmt.Fprintf(b, `<circle cx="%.1f" cy="%.1f" r="2.5" fill="%s"/>`+"\n", xAt(0), yAt(s.Values[0]), color)
		} else {
			fmt.Fprintf(b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>`+"\n", pts.String(), color)
		}
		fmt.Fprintf(b, `<text x="%d" y="%d" font-size="10" text-anchor="end" fill="%s">%s</text>`+"\n",
			figWidth-marginRight-4, top+12+12*si, color, escape(s.Name))
	}
}

// renderBars draws horizontal bars scaled to the panel maximum, each
// labeled on the left and annotated with its exact value.
func renderBars(b *strings.Builder, p Panel, top int) {
	const labelW = 330
	plotW := figWidth - marginLeft - marginRight - labelW
	hi := 0.0
	for _, v := range p.Bars {
		hi = math.Max(hi, v)
	}
	if hi == 0 {
		hi = 1
	}
	for i, v := range p.Bars {
		y := top + i*barRow
		label := ""
		if i < len(p.Labels) {
			label = p.Labels[i]
		}
		width := v / hi * float64(plotW)
		fmt.Fprintf(b, `<text x="%d" y="%d" font-size="10" text-anchor="end" fill="#333">%s</text>`+"\n",
			marginLeft+labelW-8, y+14, escape(label))
		fmt.Fprintf(b, `<rect x="%d" y="%d" width="%.1f" height="%d" fill="#1f77b4"/>`+"\n",
			marginLeft+labelW, y+4, width, barRow-8)
		fmt.Fprintf(b, `<text x="%.1f" y="%d" font-size="10" fill="#333">%s</text>`+"\n",
			float64(marginLeft+labelW)+width+4, y+14, escape(fmtVal(v)+p.Unit))
	}
}

// fmtVal prints a value compactly: SI-style thousands grouping for
// large magnitudes, trimmed decimals for small ones.
func fmtVal(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1e9:
		return trimZero(fmt.Sprintf("%.2fG", v/1e9))
	case av >= 1e6:
		return trimZero(fmt.Sprintf("%.2fM", v/1e6))
	case av >= 1e4:
		return trimZero(fmt.Sprintf("%.1fk", v/1e3))
	case av >= 10 || v == math.Trunc(v):
		return trimZero(fmt.Sprintf("%.1f", v))
	default:
		return trimZero(fmt.Sprintf("%.3f", v))
	}
}

// trimZero drops a trailing ".0"/".00" fraction, keeping any suffix.
func trimZero(s string) string {
	suffix := ""
	if n := len(s); n > 0 && (s[n-1] == 'G' || s[n-1] == 'M' || s[n-1] == 'k') {
		suffix, s = s[n-1:], s[:n-1]
	}
	if i := strings.IndexByte(s, '.'); i >= 0 {
		s = strings.TrimRight(strings.TrimRight(s, "0"), ".")
	}
	return s + suffix
}

// escape sanitizes text nodes (labels come from benchmark names and
// user-provided scenario names).
func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
