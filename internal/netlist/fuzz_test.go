package netlist

import (
	"bytes"
	"testing"
)

// FuzzParseBench feeds arbitrary bytes to the .bench parser: every input
// yields a netlist or an error, never a panic.
func FuzzParseBench(f *testing.F) {
	f.Add([]byte(s27ish))
	f.Add([]byte("INPUT(a)\nOUTPUT(z)\nz = AND(a, a)\n"))
	f.Add([]byte("INPUT(a)\nOUTPUT(z)\nc = CONST1()\nz = MUX(a, c, a)\n"))
	f.Add([]byte("OUTPUT(q)\nq = DFF(q)\n"))
	f.Add([]byte("INPUT(a\nz = FOO(a)\n"))
	f.Add([]byte("z = AND(\n"))
	f.Add([]byte("OUTPUT(x)\n# x is never assigned\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := ParseBench(bytes.NewReader(data), "fuzz")
		if (err == nil) == (n == nil) {
			t.Fatalf("ParseBench returned netlist %v and error %v", n != nil, err)
		}
	})
}
