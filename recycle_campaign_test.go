package darco_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"darco"
	"darco/export"
	"darco/internal/codecache"
	"darco/internal/tol"
	"darco/internal/workload"
	"darco/obs"
)

// A finished session's working memory goes to the next session the
// process runs: guest pages and directories, decoded blocks and the
// table's slot arrays, translated code and block records, profile
// entries. These tests hold what that must not change: every result and
// export of a campaign, at any parallelism and whatever the free lists
// held when it started, and whatever a caller kept of a finished run.

// recycleScenarios is a small roster with four times the profiles'
// static code, under a code cache of one and a half chunks: each
// scenario's translations fill it several times, so blocks sit in
// several chunks when a flush drops them all. Each scenario counts into
// counters of its own, so its Result.Obs is its own.
func recycleScenarios(t *testing.T) []darco.Scenario {
	t.Helper()
	var scs []darco.Scenario
	for _, name := range []string{"429.mcf", "433.milc", "400.perlbench", "470.lbm"} {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no profile %s", name)
		}
		p.Funcs *= 4
		cfg := tol.DefaultConfig()
		cfg.CacheSize = 3 * codecache.ChunkInsts / 2
		cfg.Counters = &obs.EngineCounters{}
		scs = append(scs, darco.Scenario{Profile: p, Scale: 0.05, Options: []darco.Option{darco.WithTOL(cfg)}})
	}
	return scs
}

// resultKey is everything a scenario's result says about the simulated
// run: its statistics, the modelled overhead, the synchronizations, the
// guest's output and exit code, and its decode and block-cache counters.
func resultKey(r *darco.Result) string {
	return fmt.Sprintf("%+v %v app=%d val=%d xfer=%d sync=%d exit=%d out=%x obs=%+v",
		r.Stats, r.Overhead.Cat, r.HostAppInsns, r.Validations, r.PageTransfers, r.SyscallSyncs, r.ExitCode, r.Output, *r.Obs)
}

// runCampaign runs scs at parallelism par and fails the test on any
// scenario error.
func runCampaign(t *testing.T, scs []darco.Scenario, par int) *darco.CampaignReport {
	t.Helper()
	eng, err := darco.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.RunCampaign(context.Background(), scs, darco.WithParallelism(par))
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Results {
		if sr := &rep.Results[i]; sr.Err != nil {
			t.Fatalf("parallelism %d: %s: %v", par, sr.Scenario.Profile.Name, sr.Err)
		}
	}
	return rep
}

var updateRecycled = flag.Bool("update", false, "rewrite the recycling tests' goldens under testdata from this tree")

// recycledGolden holds the roster's result keys, one line per scenario,
// as the code before decoded blocks, directories, profiles and block
// records were recycled produced them.
const recycledGolden = "testdata/recycled_campaign.golden"

// TestRecycledCampaignMatchesFirst runs one campaign twice in a process,
// serially and then on two workers, the second run's sessions on the
// memory, decoded blocks, code, block records and profiles the first
// run's released, and requires every result, its decode and block-cache
// counters included, to equal the committed golden: a recycled object
// that is not what a fresh one would be moves a result, even when it
// moves it the same way in both runs.
func TestRecycledCampaignMatchesFirst(t *testing.T) {
	var keys []string
	flushes := uint64(0)
	for _, par := range []int{1, 2} {
		rep := runCampaign(t, recycleScenarios(t), par)
		for i := range rep.Results {
			sr := &rep.Results[i]
			keys = append(keys, resultKey(sr.Result))
			flushes += sr.Result.Obs.CodeFlushes
		}
	}
	if n := 2 * 2 * uint64(len(keys)/2); flushes < n {
		t.Fatalf("%d code cache flushes over two runs; the test needs at least %d", flushes, n)
	}
	first := strings.Join(keys[:len(keys)/2], "\n") + "\n"
	if *updateRecycled {
		if err := os.WriteFile(recycledGolden, []byte(first), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(recycledGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for i, key := range keys {
		if w := want[i%len(want)]; key != w {
			t.Errorf("run %d, scenario %d:\n got %s\nwant %s", i/len(want), i%len(want), key, w)
		}
	}
}

// TestParallelCampaignExportsMatchSerial runs the roster on two workers,
// which release and take slabs at once, and requires the same CSV and
// JSON exports as a serial run of it.
func TestParallelCampaignExportsMatchSerial(t *testing.T) {
	var want [2][]byte
	for run, par := range []int{1, 2, 2} {
		rep := runCampaign(t, recycleScenarios(t), par)
		var csv, js bytes.Buffer
		if err := export.WriteCSV(&csv, rep); err != nil {
			t.Fatal(err)
		}
		if err := export.WriteJSON(&js, rep); err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			want = [2][]byte{csv.Bytes(), js.Bytes()}
			continue
		}
		if !bytes.Equal(csv.Bytes(), want[0]) {
			t.Errorf("run %d (parallelism %d): CSV export differs from the serial run's:\n%s\nwant\n%s", run, par, csv.Bytes(), want[0])
		}
		if !bytes.Equal(js.Bytes(), want[1]) {
			t.Errorf("run %d (parallelism %d): JSON export differs from the serial run's", run, par)
		}
	}
}

// TestResultOutlivesRecycledSessions runs a session with the timing and
// power simulators attached through Engine.Run, which releases it, and
// keeps a deep copy of its Result and export row. Three more sessions
// then run on what it released; the Result and row must still equal
// their copies, so nothing either reaches came from a slab.
func TestResultOutlivesRecycledSessions(t *testing.T) {
	run := func(name string) (*darco.Result, darco.Scenario) {
		t.Helper()
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no profile %s", name)
		}
		sc := darco.Scenario{Profile: p, Scale: 0.05}
		im, err := workload.CachedImage(p.Scale(sc.Scale))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := darco.NewEngine(darco.WithConfig(darco.TimingConfig()), darco.WithObsCounters(&obs.EngineCounters{}))
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(context.Background(), im)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res, sc
	}
	res, sc := run("429.mcf")
	row := export.NewRow(&darco.ScenarioResult{Scenario: sc, Result: res})
	wantRes, wantRow := deepDump(res), deepDump(row)
	for _, name := range []string{"433.milc", "400.perlbench", "429.mcf"} {
		run(name)
	}
	if got := deepDump(res); got != wantRes {
		t.Errorf("the Result changed after three more sessions:\n%s", firstDiff(got, wantRes))
	}
	if got := deepDump(row); got != wantRow {
		t.Errorf("the export row changed after three more sessions:\n%s", firstDiff(got, wantRow))
	}
}

// deepDump renders everything reachable from v, unexported fields
// included, following pointers (a pointer seen before prints as a
// back-reference, numbered in the order the walk met it): two dumps are
// equal when the values they reach are.
func deepDump(v any) string {
	var b strings.Builder
	seen := make(map[uintptr]int)
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Invalid:
			b.WriteString("<invalid>")
		case reflect.Bool:
			fmt.Fprint(&b, v.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			fmt.Fprint(&b, v.Int())
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			fmt.Fprint(&b, v.Uint())
		case reflect.Float32, reflect.Float64:
			fmt.Fprintf(&b, "%x", v.Float())
		case reflect.Complex64, reflect.Complex128:
			fmt.Fprint(&b, v.Complex())
		case reflect.String:
			fmt.Fprintf(&b, "%q", v.String())
		case reflect.Pointer:
			if v.IsNil() {
				b.WriteString("nil")
				return
			}
			if n, ok := seen[v.Pointer()]; ok {
				fmt.Fprintf(&b, "<ref %d>", n)
				return
			}
			seen[v.Pointer()] = len(seen)
			b.WriteString("&")
			walk(v.Elem())
		case reflect.Interface:
			if v.IsNil() {
				b.WriteString("nil")
				return
			}
			fmt.Fprintf(&b, "(%s)", v.Elem().Type())
			walk(v.Elem())
		case reflect.Struct:
			b.WriteString("{")
			for i := 0; i < v.NumField(); i++ {
				fmt.Fprintf(&b, "%s:", v.Type().Field(i).Name)
				walk(v.Field(i))
				b.WriteString(" ")
			}
			b.WriteString("}")
		case reflect.Slice, reflect.Array:
			if v.Kind() == reflect.Slice && v.IsNil() {
				b.WriteString("nil")
				return
			}
			b.WriteString("[")
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
				b.WriteString(",")
			}
			b.WriteString("]")
		case reflect.Map:
			var kvs []string
			for it := v.MapRange(); it.Next(); {
				kvs = append(kvs, deepDump(it.Key().Interface())+"="+deepDumpValue(it.Value()))
			}
			slices.Sort(kvs)
			fmt.Fprintf(&b, "map%v", kvs)
		case reflect.Func, reflect.Chan, reflect.UnsafePointer:
			fmt.Fprintf(&b, "<%s nil=%v>", v.Kind(), v.IsNil())
		}
	}
	walk(reflect.ValueOf(v))
	return b.String()
}

// deepDumpValue is deepDump of a map value, which may be unexported.
func deepDumpValue(v reflect.Value) string {
	if v.CanInterface() {
		return deepDump(v.Interface())
	}
	return fmt.Sprintf("<%s>", v.Type())
}

// firstDiff shows where two dumps first differ.
func firstDiff(got, want string) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-80)
	return fmt.Sprintf("at byte %d:\n got …%s\nwant …%s", i, got[lo:min(len(got), i+80)], want[lo:min(len(want), i+80)])
}
