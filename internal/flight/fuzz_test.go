package flight_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dynunlock/internal/anatomy"
	"dynunlock/internal/flight"
)

// fuzzFiles are the bundle files FuzzOpenBundle replaces, one per input.
var fuzzFiles = []string{
	flight.ManifestFile, flight.ResultFile, flight.OracleFile,
	flight.DIPsFile, flight.TraceFile, flight.AnatomyFile,
}

// FuzzOpenBundle replaces one of a committed bundle's six files with
// fuzzed bytes and checks the reader contract: Open and OpenPartial return
// a bundle or an error wrapping ErrCorrupt (so do ReadTrace and
// ReadAnatomy), never a panic, and a bundle that opens derives its anatomy
// report, hardest DIPs and ledger row without panicking. Design() is left
// out: it rebuilds a circuit per input, and lock.MaxKeyBits bounds the
// width it can be asked for.
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
		spans, err := flight.ReadTrace(dir)
		corrupt("ReadTrace", err)
		_, err = flight.ReadAnatomy(dir)
		corrupt("ReadAnatomy", err)
		for _, open := range []struct {
			name string
			fn   func(string) (*flight.Bundle, error)
		}{{"Open", flight.Open}, {"OpenPartial", flight.OpenPartial}} {
			b, err := open.fn(dir)
			corrupt(open.name, err)
			if err != nil {
				continue
			}
			r := anatomy.Derive(b, spans)
			r.Hardest(5)
			r.Hardest(len(r.DIPs) + 1)
			flight.BenchRowFrom(b)
		}
	})
}
