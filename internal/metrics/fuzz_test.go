package metrics

import (
	"bytes"
	"os"
	"testing"
)

// FuzzParseOpenMetrics feeds arbitrary text to the exposition parser. Input
// the parser accepts must be writable, and the written exposition must
// parse again: a snapshot the parser hands out can never make the writer
// panic (a histogram series short of buckets) or depend on map order (two
// series labels).
func FuzzParseOpenMetrics(f *testing.F) {
	for _, path := range []string{"testdata/golden.om", "testdata/selftest.om"} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("# TYPE h histogram\nh_sum{rank=\"0\"} 0\n# EOF\n"))
	f.Add([]byte("# TYPE c counter\nc_total{rank=\"0\",tier=\"pfs\"} 1\n# EOF\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := ParseOpenMetrics(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteOpenMetrics(&out, snap); err != nil {
			t.Fatalf("write of a parsed snapshot failed: %v", err)
		}
		if _, err := ParseOpenMetrics(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("re-parse of written exposition failed: %v\n%s", err, out.Bytes())
		}
	})
}
