// Command perfbench is the repository's request-path benchmark. It runs one
// named workload through the serving stack in a single process over
// loopback, checks every answer bit-for-bit against a per-row reference
// Engine.Infer built from the same config, and prints each metric by name
// and unit. The last line of standard output is the JSON result.
//
// Run it from the repository root (run.sh builds it first):
//
//	bash perfbench/run.sh --workload fleet-bulk-w512 --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// pushes the same seeded inputs down a ladder — Engine.Infer, Model.Do,
// direct HTTP, the cluster router — and reports per-layer metrics; a
// layer's self time is the difference between adjacent rungs. --workload
// all runs every workload in turn.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// outDir, relative to the directory the benchmark runs from, receives each
// run's full record and its spans.
const outDir = ".bench_build/perfbench"

type options struct {
	workload string
	seed     int64
	dur      time.Duration // the measured window
	trace    bool
	tiny     bool   // smoke test: a 2-layer offline model
	corrupt  bool   // smoke test: flip one bit of the first answer
	out      string // where records and spans go; "" writes none
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the caller parses.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	opts := options{out: outDir}
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.StringVar(&opts.workload, "workload", "", "workload name, or all")
	fl.Int64Var(&opts.seed, "seed", 1, "seed for inputs and arrivals")
	secs := fl.Int("seconds", 20, "measured seconds per run")
	trace := fl.Int("trace", 0, "1: the traced per-layer run")
	if err := fl.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	opts.dur = time.Duration(*secs) * time.Second
	opts.trace = *trace == 1

	names := []string{opts.workload}
	if opts.workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	// A run that hangs must still end, without a result.
	time.AfterFunc(time.Duration(len(names))*(opts.dur+120*time.Second), func() {
		fmt.Fprintln(os.Stderr, "perfbench: timed out")
		os.Exit(3)
	})
	code := 0
	for _, name := range names {
		w, ok := findWorkload(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", name)
			os.Exit(2)
		}
		o := opts
		o.workload = name
		res, err := run(context.Background(), w, o, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		if !res.Correct {
			code = 1
		}
	}
	os.Exit(code)
}

// run measures one workload, prints every metric and the result line to
// out, and writes the full record and spans under opts.out.
func run(ctx context.Context, w workload, opts options, out io.Writer) (result, error) {
	b, err := newBench(w, opts)
	if err != nil {
		return result{}, err
	}
	st := makeStamp(w, b, opts)
	steal0, total0 := hostCPU()
	host := hostState{ProbeBeforeMs: probe()}
	defs := endToEnd
	var vals map[string]float64
	var spans []spanRec
	if opts.trace {
		defs = perLayer
		vals, spans, err = b.traced(ctx)
	} else {
		vals, err = b.measure(ctx)
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	host.ProbeAfterMs = probe()
	steal1, total1 := hostCPU()
	host.StealFrac = float64(steal1-steal0) / float64(max(total1-total0, 1))
	res := result{
		Correct:   b.wrong.Load() == 0,
		Attempted: b.attempts.Load(),
		Failed:    b.failures.Load(),
		Metrics:   map[string]metricValue{},
	}
	stampJSON, err := json.Marshal(st)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "stamp %s\n", stampJSON)
	fmt.Fprintf(out, "%s attempted=%d failed=%d failed_frac=%.6f wrong=%d host_cpu_steal_frac=%.4f host_probe_ms=%.3f/%.3f\n",
		w.name, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)), b.wrong.Load(),
		host.StealFrac, host.ProbeBeforeMs, host.ProbeAfterMs)
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("%s: metric %s has no value", w.name, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		if d.moves != "" {
			fmt.Fprintf(out, "%-34s %14.6g %-8s moves %s\n", d.name, v, d.unit, d.moves)
		} else {
			fmt.Fprintf(out, "%-34s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	if err := writeRecord(opts, st, res, host, spans); err != nil {
		return result{}, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return res, nil
}

// stamp is what a reader needs to reproduce a record: the code, the host,
// and the run's parameters.
type stamp struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	Params     map[string]any `json:"params"`
	GitSHA     string         `json:"git_sha"`
	SourceSHA  string         `json:"source_sha256"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	CPUModel   string         `json:"cpu_model"`
}

func makeStamp(w workload, b *bench, opts options) stamp {
	return stamp{
		Workload: w.name, Seed: opts.seed, Seconds: opts.dur.Seconds(), Trace: opts.trace,
		Params: map[string]any{
			"config": b.cfg.String(), "widths": b.cfg.LayerWidths(), "perturb": w.perturb,
			"rows_per_request": w.rows, "input_rows": w.inputs, "clients": w.clients,
			"rate_per_s": w.rate, "backends": w.backends, "routed": w.routed,
			"engines_per_model": enginesPerModel, "profile_every": profileEvery,
			"setup_reps": setupReps, "rate_slice_requests": rateSlice, "tiny": opts.tiny,
		},
		GitSHA:     gitSHA(),
		SourceSHA:  sourceSHA(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
	}
}

// gitSHA is the commit the binary was built from, when it was built inside
// a git checkout.
func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceSHA hashes every Go source and go.mod under the working directory,
// identifying the code where no git metadata exists.
func sourceSHA() string {
	var files []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	slices.Sort(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", p, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hostState is what a run saw of its host: the share of CPU time the
// hypervisor stole, and a fixed single-threaded task's time before and
// after the run, which moves when the host's speed does (a busy sibling
// hyperthread, a lower clock) without any time being stolen.
type hostState struct {
	StealFrac     float64 `json:"cpu_steal_frac"`
	ProbeBeforeMs float64 `json:"probe_before_ms"`
	ProbeAfterMs  float64 `json:"probe_after_ms"`
}

// probe times a fixed single-threaded task: the least of five SHA-256
// passes over 4 MiB of zeros.
func probe() float64 {
	buf := make([]byte, 4<<20)
	best := math.Inf(1)
	for range 5 {
		t := time.Now()
		sha256.Sum256(buf)
		best = min(best, ms(time.Since(t)))
	}
	return best
}

// hostCPU returns the host's CPU time stolen from this machine by the
// hypervisor, and all CPU time, in clock ticks; zeros where /proc/stat is
// missing. The share stolen during a run says how far a shared host
// disturbed it.
func hostCPU() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user.
	for i, f := range fields[1:min(9, len(fields))] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeRecord writes the stamped result, with each metric's description,
// and the traced run's spans, as JSON lines.
func writeRecord(opts options, st stamp, res result, host hostState, spans []spanRec) error {
	if opts.out == "" {
		return nil
	}
	if err := os.MkdirAll(opts.out, 0o755); err != nil {
		return err
	}
	kind := "untraced"
	moves := map[string]string{}
	if st.Trace {
		kind = "traced"
		for _, d := range perLayer {
			moves[d.name] = d.moves
		}
	}
	base := filepath.Join(opts.out, fmt.Sprintf("%s-seed%d-%s", st.Workload, st.Seed, kind))
	rec, err := json.MarshalIndent(struct {
		Stamp  stamp             `json:"stamp"`
		Result result            `json:"result"`
		Host   hostState         `json:"host"`
		Moves  map[string]string `json:"moves,omitempty"`
	}{st, res, host, moves}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", rec, 0o644); err != nil {
		return err
	}
	if len(spans) == 0 {
		return nil
	}
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return errors.Join(bw.Flush(), f.Close())
}
