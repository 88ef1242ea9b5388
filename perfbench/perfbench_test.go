package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// metricName is the character set metric names may use.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// runTiny runs one workload at the smoke-test size and returns its
// result, printed output and work directory.
func runTiny(t *testing.T, workload string, traced, corrupt bool) (*result, string, string) {
	t.Helper()
	dir := t.TempDir()
	cfg := config{workload: workload, seed: 1, seconds: 1, traced: traced, workdir: dir, size: "tiny", corrupt: corrupt}
	var out bytes.Buffer
	res, err := run(cfg, &out)
	if err != nil {
		t.Fatalf("%s traced=%v: %v\n%s", workload, traced, err, out.String())
	}
	return res, out.String(), dir
}

// printed finds the "# name value unit" table line of a metric.
func printed(out, name string) (value float64, unit string, ok bool) {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 4 && f[0] == "#" && f[1] == name {
			v, err := strconv.ParseFloat(f[2], 64)
			return v, f[3], err == nil
		}
	}
	return 0, "", false
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	for _, w := range []string{"ingest", "serve", "scan"} {
		for _, traced := range []bool{false, true} {
			res, out, dir := runTiny(t, w, traced, false)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", w, traced, res.Correct, res.Attempted, res.Failed, out)
			}
			if v, unit, ok := printed(out, "ops_failed_ratio"); !ok || v != 0 || unit != "ratio" {
				t.Errorf("%s: ops_failed_ratio printed as %v %q (found=%v), want 0 ratio", w, v, unit, ok)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics in the result, want %d", w, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if !metricName.MatchString(d.Name) {
					t.Errorf("metric name %q uses characters outside [A-Za-z0-9_.-]", d.Name)
				}
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s: result metric %s = %+v (present=%v), want unit %s", w, d.Name, m, ok, d.Unit)
				}
				if _, unit, ok := printed(out, d.Name); !ok || unit != d.Unit {
					t.Errorf("%s: %s not printed with unit %s", w, d.Name, d.Unit)
				}
			}
			if traced {
				var dump struct {
					TraceEvents []map[string]any `json:"traceEvents"`
				}
				b, err := os.ReadFile(filepath.Join(dir, "traces", w+"-seed1.json"))
				if err != nil || json.Unmarshal(b, &dump) != nil || len(dump.TraceEvents) == 0 {
					t.Errorf("%s: no Chrome trace events written (%v)", w, err)
				}
			}
		}
	}
}

func TestCorruptedExpectedHashIsCaught(t *testing.T) {
	for _, w := range []string{"ingest", "serve", "scan"} {
		res, out, _ := runTiny(t, w, false, true)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a corrupted expected hash went unnoticed (correct=%v failed=%d)", w, res.Correct, res.Failed)
		}
		if v, _, _ := printed(out, "ops_failed_ratio"); v <= 0 {
			t.Errorf("%s: ops_failed_ratio = %v after a caught mismatch, want > 0", w, v)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables in step with the
// repository's BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		spec, got []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", c.name, len(c.spec), len(c.got))
			continue
		}
		for i := range c.spec {
			if c.spec[i] != c.got[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark reports %+v", c.name, i, c.spec[i], c.got[i])
			}
		}
	}
}
