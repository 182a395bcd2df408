package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// vtFamily is the synthetic gauge the exporter emits first so the snapshot
// virtual time survives a write/parse round trip.
const vtFamily = "ftmr_virtual_time_seconds"

// formatValue renders a float the way the exposition format pins it:
// shortest representation that round-trips ('g', precision -1), so integral
// values print without a decimal point and re-parsing is byte-exact.
func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// seriesName renders name plus the optional single label.
func seriesName(name, labelKey, labelValue string) string {
	if labelValue == "" {
		return name
	}
	return name + `{` + labelKey + `="` + labelValue + `"}`
}

// bucketName renders a histogram bucket line name with its le (and
// optional series) label.
func bucketName(name, labelKey, labelValue, le string) string {
	if labelValue == "" {
		return name + `_bucket{le="` + le + `"}`
	}
	return name + `_bucket{` + labelKey + `="` + labelValue + `",le="` + le + `"}`
}

// WriteOpenMetrics renders the snapshot in OpenMetrics text format: a
// synthetic ftmr_virtual_time_seconds gauge first, then each family as
// "# HELP" / "# TYPE" lines followed by its series (counters gain the
// _total suffix; histograms expose cumulative _bucket lines plus _count and
// _sum), ending with "# EOF". Output is byte-deterministic for equal
// snapshots.
func WriteOpenMetrics(w io.Writer, snap Snapshot) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# HELP %s Virtual time of this snapshot.\n", vtFamily)
	fmt.Fprintf(bw, "# TYPE %s gauge\n", vtFamily)
	fmt.Fprintf(bw, "%s %s\n", vtFamily, formatValue(snap.VTSeconds))
	for i := range snap.Families {
		f := &snap.Families[i]
		fmt.Fprintf(bw, "# HELP %s %s\n", f.Name, f.Help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.Name, f.Kind)
		for j := range f.Series {
			s := &f.Series[j]
			switch f.Kind {
			case KindCounter:
				fmt.Fprintf(bw, "%s %s\n",
					seriesName(f.Name+"_total", f.Label, s.LabelValue), formatValue(s.Value))
			case KindGauge:
				fmt.Fprintf(bw, "%s %s\n",
					seriesName(f.Name, f.Label, s.LabelValue), formatValue(s.Value))
			case KindHistogram:
				var cum uint64
				for bi, bound := range f.Buckets {
					cum += s.Counts[bi]
					fmt.Fprintf(bw, "%s %d\n",
						bucketName(f.Name, f.Label, s.LabelValue, formatValue(bound)), cum)
				}
				cum += s.Counts[len(f.Buckets)]
				fmt.Fprintf(bw, "%s %d\n", bucketName(f.Name, f.Label, s.LabelValue, "+Inf"), cum)
				fmt.Fprintf(bw, "%s %d\n", seriesName(f.Name+"_count", f.Label, s.LabelValue), s.Count)
				fmt.Fprintf(bw, "%s %s\n", seriesName(f.Name+"_sum", f.Label, s.LabelValue), formatValue(s.Sum))
			}
		}
	}
	fmt.Fprintln(bw, "# EOF")
	return bw.Flush()
}

// parseFamily accumulates one family while parsing.
type parseFamily struct {
	fs      FamilySnapshot
	series  map[string]*parseSeries
	order   []string
	bounds  []float64
	boundsK map[string]bool // bounds seen, keyed by their written form
}

// parseSeries accumulates one series while parsing.
type parseSeries struct {
	ss  SeriesSnapshot
	cum []uint64 // cumulative bucket counts in line order
}

// ParseOpenMetrics reads text previously produced by WriteOpenMetrics (a
// practical subset of the OpenMetrics format: single optional label, no
// escape sequences in label values, exemplar-free) back into a Snapshot.
// The synthetic ftmr_virtual_time_seconds gauge becomes Snapshot.VTSeconds.
// A write→parse→write round trip is byte-identical, and every snapshot it
// returns can be written: input with two series labels on one sample, or a
// histogram series whose bucket lines do not cover every bound of its
// family plus +Inf, is rejected.
func ParseOpenMetrics(r io.Reader) (Snapshot, error) {
	snap := Snapshot{}
	fams := map[string]*parseFamily{}
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	sawEOF := false
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if line == "" {
			continue
		}
		if sawEOF {
			return snap, fmt.Errorf("metrics: line %d: content after # EOF", lineno)
		}
		if strings.HasPrefix(line, "#") {
			switch {
			case line == "# EOF":
				sawEOF = true
			case strings.HasPrefix(line, "# HELP "):
				name, rest, _ := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
				if name != vtFamily {
					pf := getParseFamily(fams, &order, name)
					pf.fs.Help = rest
				}
			case strings.HasPrefix(line, "# TYPE "):
				name, rest, _ := strings.Cut(strings.TrimPrefix(line, "# TYPE "), " ")
				if name == vtFamily {
					continue
				}
				pf := getParseFamily(fams, &order, name)
				switch rest {
				case "counter":
					pf.fs.Kind = KindCounter
				case "gauge":
					pf.fs.Kind = KindGauge
				case "histogram":
					pf.fs.Kind = KindHistogram
				default:
					return snap, fmt.Errorf("metrics: line %d: unknown type %q", lineno, rest)
				}
			default:
				return snap, fmt.Errorf("metrics: line %d: unrecognized comment %q", lineno, line)
			}
			continue
		}
		name, labels, val, err := parseSampleLine(line)
		if err != nil {
			return snap, fmt.Errorf("metrics: line %d: %v", lineno, err)
		}
		if name == vtFamily {
			snap.VTSeconds = val
			continue
		}
		if err := addSample(fams, name, labels, val); err != nil {
			return snap, fmt.Errorf("metrics: line %d: %v", lineno, err)
		}
	}
	if err := sc.Err(); err != nil {
		return snap, err
	}
	if !sawEOF {
		return snap, fmt.Errorf("metrics: missing # EOF terminator")
	}
	for _, name := range order {
		pf := fams[name]
		if pf.fs.Kind == KindHistogram {
			pf.fs.Buckets = pf.bounds
		}
		for _, lv := range pf.order {
			ps := pf.series[lv]
			if pf.fs.Kind == KindHistogram {
				if len(ps.cum) != len(pf.bounds)+1 {
					return snap, fmt.Errorf("metrics: histogram %q series %q has %d buckets, want %d",
						name, lv, len(ps.cum), len(pf.bounds)+1)
				}
				ps.ss.Counts = decumulate(ps.cum)
			}
			pf.fs.Series = append(pf.fs.Series, ps.ss)
		}
		snap.Families = append(snap.Families, pf.fs)
	}
	return snap, nil
}

// getParseFamily returns (creating if needed) the in-progress family.
func getParseFamily(fams map[string]*parseFamily, order *[]string, name string) *parseFamily {
	pf, ok := fams[name]
	if !ok {
		pf = &parseFamily{series: map[string]*parseSeries{}, boundsK: map[string]bool{}}
		pf.fs.Name = name
		fams[name] = pf
		*order = append(*order, name)
	}
	return pf
}

// getParseSeries returns (creating if needed) the in-progress series,
// recording its label key on the family.
func (pf *parseFamily) getParseSeries(labelKey, labelVal string) *parseSeries {
	if labelKey != "" && labelKey != "le" {
		pf.fs.Label = labelKey
	}
	if pf.fs.Label == "" {
		pf.fs.Label = "rank"
	}
	ps, ok := pf.series[labelVal]
	if !ok {
		ps = &parseSeries{}
		ps.ss.LabelValue = labelVal
		pf.series[labelVal] = ps
		pf.order = append(pf.order, labelVal)
	}
	return ps
}

// addSample routes one sample line into the right family/series slot based
// on the metric-name suffix.
func addSample(fams map[string]*parseFamily, name string, labels map[string]string, val float64) error {
	base, part := name, ""
	for _, suf := range []string{"_total", "_bucket", "_count", "_sum"} {
		if b, ok := strings.CutSuffix(name, suf); ok && fams[b] != nil {
			base, part = b, suf
			break
		}
	}
	pf := fams[base]
	if pf == nil {
		return fmt.Errorf("sample %q has no preceding # TYPE", name)
	}
	labelKey, labelVal := "", ""
	for k, v := range labels {
		if k == "le" {
			continue
		}
		if labelKey != "" {
			return fmt.Errorf("sample %q has more than one series label", name)
		}
		labelKey, labelVal = k, v
	}
	ps := pf.getParseSeries(labelKey, labelVal)
	switch {
	case pf.fs.Kind == KindCounter && part == "_total",
		pf.fs.Kind == KindGauge && part == "":
		ps.ss.Value = val
	case pf.fs.Kind == KindHistogram && part == "_bucket":
		le, ok := labels["le"]
		if !ok {
			return fmt.Errorf("bucket sample %q missing le label", name)
		}
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			return fmt.Errorf("bad le value %q", le)
		}
		if key := formatValue(bound); !math.IsInf(bound, 1) && !pf.boundsK[key] {
			pf.boundsK[key] = true
			pf.bounds = append(pf.bounds, bound)
			sort.Float64s(pf.bounds)
		}
		ps.cum = append(ps.cum, uint64(val))
	case pf.fs.Kind == KindHistogram && part == "_count":
		ps.ss.Count = uint64(val)
	case pf.fs.Kind == KindHistogram && part == "_sum":
		ps.ss.Sum = val
	default:
		return fmt.Errorf("sample %q does not match %s family %q", name, pf.fs.Kind, base)
	}
	return nil
}

// decumulate converts cumulative bucket counts (in ascending-le line order,
// +Inf last) back to per-bucket counts.
func decumulate(cum []uint64) []uint64 {
	out := make([]uint64, len(cum))
	var prev uint64
	for i, c := range cum {
		out[i] = c - prev
		prev = c
	}
	return out
}

// parseSampleLine splits `name{k="v",...} value` into its parts. Label
// values must be quote-and-backslash-free (all this exporter emits).
func parseSampleLine(line string) (name string, labels map[string]string, val float64, err error) {
	nameEnd := strings.IndexAny(line, "{ ")
	if nameEnd < 0 {
		return "", nil, 0, fmt.Errorf("malformed sample %q", line)
	}
	name = line[:nameEnd]
	rest := line[nameEnd:]
	labels = map[string]string{}
	if rest[0] == '{' {
		close := strings.IndexByte(rest, '}')
		if close < 0 {
			return "", nil, 0, fmt.Errorf("unterminated labels in %q", line)
		}
		for _, pair := range strings.Split(rest[1:close], ",") {
			k, v, ok := strings.Cut(pair, "=")
			if !ok || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				return "", nil, 0, fmt.Errorf("malformed label %q", pair)
			}
			v = v[1 : len(v)-1]
			if strings.ContainsAny(v, `"\`) {
				return "", nil, 0, fmt.Errorf("unsupported escape in label %q", pair)
			}
			labels[k] = v
		}
		rest = rest[close+1:]
	}
	rest = strings.TrimSpace(rest)
	val, err = strconv.ParseFloat(rest, 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value %q", rest)
	}
	return name, labels, val, nil
}
