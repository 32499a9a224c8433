package report

import (
	"bytes"
	"strings"
	"testing"
	"unicode/utf8"

	"dynunlock/internal/anatomy"
	"dynunlock/internal/flight"
)

const committedBundle = "../../bench/bundles/table2/table2_s5378"

func openCommitted(t *testing.T, dir string) *anatomy.Report {
	t.Helper()
	r, err := anatomy.FromDir(dir)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return r
}

func TestWriteHTMLSelfContainedAndDeterministic(t *testing.T) {
	b := openCommitted(t, committedBundle)
	ledger, err := flight.ReadBenchFile("../../BENCH_attack.json")
	if err != nil {
		t.Fatalf("read ledger: %v", err)
	}
	opts := HTMLOptions{Ledger: ledger, LedgerPath: "BENCH_attack.json"}
	var r1, r2 bytes.Buffer
	if err := WriteHTML(&r1, []*anatomy.Report{b}, opts); err != nil {
		t.Fatal(err)
	}
	if err := WriteHTML(&r2, []*anatomy.Report{b}, opts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1.Bytes(), r2.Bytes()) {
		t.Fatal("report must render byte-identically for the same inputs")
	}
	out := r1.String()
	if !utf8.ValidString(out) {
		t.Fatal("report must be valid UTF-8")
	}
	for _, want := range []string{
		"<!DOCTYPE html>",
		"<svg", "</svg>",
		"Rank / seed-space curve",
		"Per-iteration solve time",
		"Oracle scan cycles per session",
		"Solver conflicts per iteration",
		"Solver hotspots (top 3 of 3 iterations by difficulty)",
		"Cross-run comparison",
		"Benchmark ledger (BENCH_attack.json)",
		"Per-stage wall time across runs",
		"Solver work across runs",
		"DIP difficulty across runs",
		"Avg attack seconds per ledger row",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Self-contained: no external scripts, stylesheets, or images.
	for _, forbid := range []string{"<script", "<link", "<img", "src=\"http", "href=\"http"} {
		if strings.Contains(out, forbid) {
			t.Errorf("report must be self-contained; found %q", forbid)
		}
	}
	// The insight replay must produce a populated rank chart, not the
	// empty-data placeholder.
	rankSection := out[strings.Index(out, "Rank / seed-space curve"):]
	rankSVG := rankSection[:strings.Index(rankSection, "</svg>")]
	if !strings.Contains(rankSVG, "<polyline") {
		t.Error("rank chart has no polylines — insight replay produced no points")
	}
	if strings.Contains(rankSVG, "no data") {
		t.Error("rank chart rendered the empty placeholder")
	}
}

func TestWriteHTMLOneSectionPerBundle(t *testing.T) {
	bundles := []*anatomy.Report{
		openCommitted(t, "../../bench/bundles/table2/table2_s5378"),
		openCommitted(t, "../../bench/bundles/table2/table2_b20"),
	}
	var buf bytes.Buffer
	if err := WriteHTML(&buf, bundles, HTMLOptions{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{`id="bundle-0"`, `id="bundle-1"`} {
		if strings.Count(out, id) != 1 {
			t.Errorf("want exactly one %s section", id)
		}
	}
	// Overview table: one linked row per bundle.
	if got := strings.Count(out, `<td><a href="#bundle-`); got != len(bundles) {
		t.Errorf("overview rows = %d, want %d", got, len(bundles))
	}
}

func TestWriteHTMLProfileLinks(t *testing.T) {
	b := openCommitted(t, committedBundle)
	var without bytes.Buffer
	if err := WriteHTML(&without, []*anatomy.Report{b}, HTMLOptions{}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(without.String(), "<h3>Profiles</h3>") {
		t.Fatal("v1 bundle must not render profile links")
	}
	b.Bundle.Manifest.Profiles = []string{"cpu.pprof", "heap.pprof"}
	var with bytes.Buffer
	if err := WriteHTML(&with, []*anatomy.Report{b}, HTMLOptions{}); err != nil {
		t.Fatal(err)
	}
	out := with.String()
	if !strings.Contains(out, "<h3>Profiles</h3>") ||
		!strings.Contains(out, "cpu.pprof") || !strings.Contains(out, "heap.pprof") {
		t.Fatalf("profile links missing: %q", out[len(out)-600:])
	}
}

func TestLineChartEmptySeries(t *testing.T) {
	svg := lineChart("empty", "x", "y", nil)
	if !strings.Contains(svg, "no data") {
		t.Fatalf("empty chart must render a placeholder: %s", svg)
	}
	if !strings.Contains(svg, "<svg") || !strings.Contains(svg, "</svg>") {
		t.Fatal("placeholder must still be a complete SVG element")
	}
}
