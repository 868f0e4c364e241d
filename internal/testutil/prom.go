package testutil

import (
	"bufio"
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// ValidatePrometheus checks a text-format (0.0.4) metrics exposition
// for the structural invariants a Prometheus scraper relies on:
//
//   - every sample's family is declared by a # TYPE line first, and
//     each family is declared exactly once, contiguously (no samples
//     of family A, then B, then A again);
//   - metric and label names are well-formed, label values are
//     correctly quoted, sample values parse as floats;
//   - histograms are complete: a _bucket series with le="+Inf" whose
//     cumulative count equals the _count sample, buckets cumulative
//     and in ascending le order, _sum present.
//
// Both daemons' /metrics handlers and the CI smoke test run their
// output through this before asserting on individual series.
func ValidatePrometheus(exposition []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(exposition))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	v := &promChecker{
		typed: make(map[string]string),
		hist:  make(map[string]*histCheck),
	}
	line := 0
	for sc.Scan() {
		line++
		if err := v.line(strings.TrimRight(sc.Text(), "\r")); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return v.finish()
}

var (
	promMetricRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

type histCheck struct {
	buckets []promBucket // in exposition order
	sum     *float64
	count   *float64
}

type promBucket struct {
	le    float64
	count float64
}

type promChecker struct {
	typed  map[string]string // family -> type
	hist   map[string]*histCheck
	family string // family of the previous sample, for contiguity
	seen   map[string]bool
}

func (v *promChecker) line(s string) error {
	switch {
	case strings.TrimSpace(s) == "":
		return nil
	case strings.HasPrefix(s, "# TYPE "):
		fields := strings.Fields(s)
		if len(fields) != 4 {
			return fmt.Errorf("malformed TYPE line %q", s)
		}
		name, typ := fields[2], fields[3]
		if !promMetricRe.MatchString(name) {
			return fmt.Errorf("invalid metric name %q", name)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q for %s", typ, name)
		}
		if _, dup := v.typed[name]; dup {
			return fmt.Errorf("family %s declared twice", name)
		}
		v.typed[name] = typ
		if typ == "histogram" {
			v.hist[name] = &histCheck{}
		}
		return nil
	case strings.HasPrefix(s, "#"):
		return nil // HELP and comments: free-form
	}
	return v.sample(s)
}

// sample parses one "name{labels} value" line.
func (v *promChecker) sample(s string) error {
	nameEnd := strings.IndexAny(s, "{ ")
	if nameEnd < 0 {
		return fmt.Errorf("malformed sample %q", s)
	}
	name := s[:nameEnd]
	if !promMetricRe.MatchString(name) {
		return fmt.Errorf("invalid metric name %q", name)
	}
	rest := s[nameEnd:]
	labels := map[string]string{}
	if rest[0] == '{' {
		end, err := parseLabels(rest, labels)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rest = rest[end:]
	}
	valStr := strings.TrimSpace(rest)
	// A timestamp may follow the value; the registry never emits one,
	// but the validator accepts the format.
	if i := strings.IndexByte(valStr, ' '); i >= 0 {
		ts := valStr[i+1:]
		valStr = valStr[:i]
		if _, err := strconv.ParseInt(strings.TrimSpace(ts), 10, 64); err != nil {
			return fmt.Errorf("%s: bad timestamp %q", name, ts)
		}
	}
	val, err := strconv.ParseFloat(valStr, 64)
	if err != nil {
		return fmt.Errorf("%s: bad value %q", name, valStr)
	}

	family := name
	suffix := ""
	for _, sfx := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, sfx)
		if base != name && v.typed[base] == "histogram" {
			family, suffix = base, sfx
			break
		}
	}
	typ, ok := v.typed[family]
	if !ok {
		return fmt.Errorf("sample %s has no preceding # TYPE %s line", name, family)
	}
	if typ == "histogram" && suffix == "" {
		return fmt.Errorf("histogram %s exposes bare sample %s (want _bucket/_sum/_count)", family, name)
	}

	// Families must be contiguous blocks.
	if v.seen == nil {
		v.seen = make(map[string]bool)
	}
	if family != v.family && v.seen[family] {
		return fmt.Errorf("family %s reappears after other families", family)
	}
	v.family = family
	v.seen[family] = true

	if h := v.hist[family]; h != nil {
		switch suffix {
		case "_bucket":
			leStr, ok := labels["le"]
			if !ok {
				return fmt.Errorf("%s_bucket sample without le label", family)
			}
			le, err := strconv.ParseFloat(leStr, 64)
			if err != nil && leStr != "+Inf" {
				return fmt.Errorf("%s_bucket: bad le %q", family, leStr)
			}
			if leStr == "+Inf" {
				le = inf()
			}
			h.buckets = append(h.buckets, promBucket{le: le, count: val})
		case "_sum":
			h.sum = &val
		case "_count":
			h.count = &val
		}
	}
	return nil
}

func inf() float64 { v := 0.0; return 1 / v }

// parseLabels consumes a {name="value",...} block, returning the index
// just past the closing brace.
func parseLabels(s string, out map[string]string) (int, error) {
	i := 1 // past '{'
	for {
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label block")
		}
		if s[i] == '}' {
			return i + 1, nil
		}
		j := strings.IndexByte(s[i:], '=')
		if j < 0 {
			return 0, fmt.Errorf("label without '=' in %q", s)
		}
		lname := s[i : i+j]
		if !promLabelRe.MatchString(lname) {
			return 0, fmt.Errorf("invalid label name %q", lname)
		}
		i += j + 1
		if i >= len(s) || s[i] != '"' {
			return 0, fmt.Errorf("label %s value not quoted", lname)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return 0, fmt.Errorf("unterminated label value for %s", lname)
			}
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return 0, fmt.Errorf("dangling escape in label %s", lname)
				}
				switch s[i+1] {
				case '\\', '"':
					val.WriteByte(s[i+1])
				case 'n':
					val.WriteByte('\n')
				default:
					return 0, fmt.Errorf("bad escape \\%c in label %s", s[i+1], lname)
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		out[lname] = val.String()
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}

// finish runs the whole-exposition checks that need every line first.
func (v *promChecker) finish() error {
	for name, h := range v.hist {
		if len(h.buckets) == 0 {
			return fmt.Errorf("histogram %s has no _bucket samples", name)
		}
		last := h.buckets[len(h.buckets)-1]
		if last.le != inf() {
			return fmt.Errorf("histogram %s: last bucket le=%g, want +Inf", name, last.le)
		}
		for i := 1; i < len(h.buckets); i++ {
			if h.buckets[i].le <= h.buckets[i-1].le {
				return fmt.Errorf("histogram %s: bucket le values not ascending", name)
			}
			if h.buckets[i].count < h.buckets[i-1].count {
				return fmt.Errorf("histogram %s: bucket counts not cumulative", name)
			}
		}
		if h.count == nil {
			return fmt.Errorf("histogram %s missing _count", name)
		}
		if h.sum == nil {
			return fmt.Errorf("histogram %s missing _sum", name)
		}
		if *h.count != last.count {
			return fmt.Errorf("histogram %s: _count %g != +Inf bucket %g", name, *h.count, last.count)
		}
	}
	return nil
}

// PromFamilies keeps an exposition's "# HELP" and "# TYPE" lines in
// order: the family list, names, help texts and types, without the
// values. It is what the daemons' /metrics goldens pin.
func PromFamilies(exposition []byte) []byte {
	var out bytes.Buffer
	for line := range strings.SplitSeq(string(exposition), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			out.WriteString(line)
			out.WriteByte('\n')
		}
	}
	return out.Bytes()
}
