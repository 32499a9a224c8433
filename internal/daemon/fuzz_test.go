package daemon

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzSubmitSpec fuzzes decodeSpec, the POST /jobs body parser, against a
// data directory holding one resumable job ("job-0001", a committed
// bundle). Every body must come back as a spec or an error, never a
// panic; an accepted fresh spec names a benchmark and a positive key
// width; and Config must expand every accepted spec.
func FuzzSubmitSpec(f *testing.F) {
	dataDir := f.TempDir()
	src := filepath.Join("..", "..", "bench", "bundles", "table2", "table2_s5378")
	dst := filepath.Join(dataDir, "job-0001")
	if err := os.Mkdir(dst, 0o755); err != nil {
		f.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			f.Fatal(err)
		}
	}
	for _, body := range []string{
		// The job bodies the CI daemon steps submit.
		`{"benchmark":"s5378","keyBits":128,"trials":2}`,
		`{"benchmark":"s13207","keyBits":128,"trials":2}`,
		`{"benchmark":"s13207","keyBits":128,"trials":6}`,
		`{"benchmark":"s13207","keyBits":128,"trials":12}`,
		`{"benchmark":"s5378","keyBits":128,"trials":1}`,
		// A resume of the job in the data directory, and one that escapes it.
		`{"resume":"job-0001"}`,
		`{"resume":"../job-0001"}`,
		// Enumerate limits core.AttackCtx refuses: the job fails, the
		// parser accepts.
		`{"benchmark":"s5378","keyBits":64,"scale":16,"limit":-1}`,
		`{"benchmark":"s5378","keyBits":64,"scale":16,"limit":1000000000000}`,
		`{"benchmark":"s5378","keyBits":16,"policy":"static","mode":"direct"}`,
		`{"benchmark":"s5378","keyBits":16,"extra":1}`,
		`[]`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, resumedFrom, err := decodeSpec(dataDir, strings.NewReader(string(body)))
		if err != nil {
			return
		}
		if spec.Resume == "" && (spec.Benchmark == "" || spec.KeyBits <= 0) {
			t.Fatalf("accepted fresh spec %+v lacks a benchmark or a positive key width", spec)
		}
		if spec.Resume != resumedFrom {
			t.Fatalf("spec resumes %q, decodeSpec reports %q", spec.Resume, resumedFrom)
		}
		spec.Config()
	})
}
