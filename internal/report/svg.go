package report

import "dynunlock/internal/svgchart"

// Chart rendering lives in internal/svgchart (extracted so the /live
// dashboard in internal/metrics shares the report's visual language
// without an import cycle). These aliases keep the report-internal call
// sites unchanged; the rendered markup is byte-identical to the
// pre-extraction output, which html_test.go's determinism check pins.

// series is one polyline (or bar group) on a chart, in data coordinates.
type series = svgchart.Series

// lineChart renders the series as one inline SVG element.
func lineChart(caption, xLabel, yLabel string, ss []series) string {
	return svgchart.LineChart(caption, xLabel, yLabel, ss)
}
