package flight_test

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dynunlock/internal/anatomy"
	"dynunlock/internal/flight"
	"dynunlock/internal/metrics"
)

// fuzzFiles are the bundle files FuzzOpenBundle replaces, one per input.
var fuzzFiles = []string{
	flight.ManifestFile, flight.ResultFile, flight.OracleFile,
	flight.DIPsFile, flight.TraceFile,
}

// FuzzOpenBundle replaces one of a committed bundle's five files with
// fuzzed bytes and checks the reader contract: Open, OpenPartial and
// ReadTrace return their result or an error wrapping ErrCorrupt, never a
// panic; every oracle.jsonl record of a bundle that opens has the
// manifest's key and chain widths and the first record's PI and PO
// widths; and the bundle derives its anatomy report, hardest DIPs and
// outcome row without panicking. Design() is left out: it rebuilds a
// circuit per input, and lock.MaxKeyBits bounds the width it can be asked
// for. Two seeds replace the trace's closing sample's lbd_counts with an
// ill-typed value and with one count too many, and two cut 5 bits off a
// transcript record's scanOut and put an 'x' in it.
//
// Run it with a bounded minimisation budget — almost every mutation of a
// JSON file is "interesting", and the default 60 s per input stalls the run:
//
//	go test -run '^$' -fuzz '^FuzzOpenBundle$' -fuzztime 30s -fuzzminimizetime 100x ./internal/flight
func FuzzOpenBundle(f *testing.F) {
	src := filepath.Join("..", "..", "bench", "bundles", "table2", "table2_s5378")
	orig := map[string][]byte{}
	for i, name := range fuzzFiles {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			f.Fatal(err)
		}
		orig[name] = data
		f.Add(uint8(i), data)
		f.Add(uint8(i), data[:len(data)/2])
	}
	trace := string(orig[flight.TraceFile])
	at := strings.LastIndex(trace, `"lbd_counts":[`)
	if at < 0 {
		f.Fatal("committed trace has no closing sample with lbd_counts")
	}
	at += len(`"lbd_counts":[`)
	for _, counts := range []string{`"many"`, strings.Repeat("1,", len(metrics.LBDBuckets)+1) + "1"} {
		end := at + strings.IndexByte(trace[at:], ']')
		f.Add(uint8(slices.Index(fuzzFiles, flight.TraceFile)), []byte(trace[:at-1]+"["+counts+"]"+trace[end+1:]))
	}
	oracle := string(orig[flight.OracleFile])
	at = strings.Index(oracle, `"scanOut":"`) + len(`"scanOut":"`)
	end := at + strings.IndexByte(oracle[at:], '"')
	for _, scanOut := range []string{oracle[at : end-5], "x" + oracle[at+1:end]} {
		f.Add(uint8(slices.Index(fuzzFiles, flight.OracleFile)), []byte(oracle[:at]+scanOut+oracle[end:]))
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		dir := t.TempDir()
		target := fuzzFiles[int(which)%len(fuzzFiles)]
		for _, name := range fuzzFiles {
			content := orig[name]
			if name == target {
				content = data
			}
			if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		corrupt := func(what string, err error) {
			if err != nil && !errors.Is(err, flight.ErrCorrupt) {
				t.Fatalf("%s with fuzzed %s: error does not wrap ErrCorrupt: %v", what, target, err)
			}
		}
		tr, err := flight.ReadTrace(dir)
		corrupt("ReadTrace", err)
		for _, open := range []struct {
			name string
			fn   func(string) (*flight.Bundle, error)
		}{{"Open", flight.Open}, {"OpenPartial", flight.OpenPartial}} {
			b, err := open.fn(dir)
			corrupt(open.name, err)
			if err != nil {
				continue
			}
			li := b.Manifest.Lock
			for i, s := range b.Sessions {
				first := b.Sessions[0]
				if len(s.TestKey) != li.KeyBits || len(s.ScanIn) != li.ChainLength || len(s.ScanOut) != li.ChainLength ||
					len(s.PIs) == 0 || len(s.PIs) != len(s.POs) {
					t.Fatalf("%s with fuzzed %s opened session %d of the wrong shape: %+v", open.name, target, i, s)
				}
				for j := range s.PIs {
					if len(s.PIs[j]) != len(first.PIs[0]) || len(s.POs[j]) != len(first.POs[0]) {
						t.Fatalf("%s with fuzzed %s opened session %d with PI/PO widths %d/%d, first record %d/%d",
							open.name, target, i, len(s.PIs[j]), len(s.POs[j]), len(first.PIs[0]), len(first.POs[0]))
					}
				}
			}
			r := anatomy.Derive(b, tr)
			r.Hardest(5)
			r.Hardest(len(r.DIPs) + 1)
			flight.BenchRowFrom(b)
		}
	})
}
