// Command benchjson converts `go test -bench` text output into a JSON
// benchmark artifact. CI runs the smoke benchmarks through it and
// uploads BENCH_smoke.fresh.json on every push, so the perf trajectory
// of the stage engine accumulates run over run.
//
// Each entry keeps the raw benchmark line verbatim: joining the `raw`
// fields of two artifacts reconstructs files benchstat accepts, so the
// JSON is both machine-queryable and benchstat-parseable. Input that
// repeats a (name, GOMAXPROCS) row — several runs concatenated — is
// folded to the run with the median ns/op, so one noisy run neither
// sets a baseline nor fails a gate.
//
// The -diff mode is the benchmark-regression gate: it compares a
// fresh run (text or JSON) against a committed baseline artifact and
// exits non-zero when any benchmark regresses beyond the tolerance,
// or silently disappears. CI's bench-smoke job runs it against the
// committed BENCH_*.json on every push, so the perf trajectory is
// enforced, not just recorded. Rows are keyed by name and GOMAXPROCS,
// so each row of a `-cpu 1,2` run is gated against its own baseline.
//
// Usage:
//
//	go test -run='^$' -bench=StudyRun -benchtime=1x . | benchjson [-out FILE]
//	benchjson -in bench.txt -out BENCH_smoke.json
//	benchjson -diff -baseline BENCH_smoke.json -in bench.txt [-tolerance 0.30]
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark without the "Benchmark" prefix or -P suffix.
	Name string `json:"name"`
	// Procs is GOMAXPROCS at run time (the -P suffix; 1 if absent).
	Procs int `json:"procs"`
	// Iterations is b.N.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the headline metric.
	NsPerOp float64 `json:"ns_per_op"`
	// Extra holds any further unit pairs (B/op, allocs/op, ...).
	Extra map[string]float64 `json:"extra,omitempty"`
	// Raw is the untouched benchmark line, so the artifact can be
	// reassembled into benchstat input.
	Raw string `json:"raw"`
}

// Artifact is the output document.
type Artifact struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	in := flag.String("in", "", "benchmark input, text or JSON artifact (default stdin)")
	out := flag.String("out", "", "JSON output file (default stdout)")
	diff := flag.Bool("diff", false, "compare the input against -baseline instead of emitting JSON")
	baseline := flag.String("baseline", "", "baseline JSON artifact for -diff")
	tolerance := flag.Float64("tolerance", 0.30, "fractional ns/op regression allowed by -diff")
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		// Read-only: a close error cannot lose data.
		defer func() { _ = f.Close() }()
		r = f
	}
	art, err := load(r)
	if err != nil {
		fatal(err)
	}
	if len(art.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark result lines found in input"))
	}

	if *diff {
		if *baseline == "" {
			fatal(fmt.Errorf("-diff requires -baseline"))
		}
		bf, err := os.Open(*baseline)
		if err != nil {
			fatal(err)
		}
		base, err := load(bf)
		_ = bf.Close() // read-only: a close error cannot lose data
		if err != nil {
			fatal(err)
		}
		report, failed := diffArtifacts(base, art, *tolerance)
		fmt.Print(report)
		if failed {
			os.Exit(1)
		}
		return
	}

	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		// The artifact usually lands in a shell redirection; a short
		// write must fail the run, not silently truncate the JSON.
		if _, err := os.Stdout.Write(data); err != nil {
			fatal(err)
		}
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
}

// load reads either raw `go test -bench` text or an already-converted
// JSON artifact, sniffing by the first non-space byte, and folds
// repeated rows to their medians.
func load(r io.Reader) (*Artifact, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	art := &Artifact{}
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '{' {
		if err := json.Unmarshal(trimmed, art); err != nil {
			return nil, fmt.Errorf("parsing JSON artifact: %w", err)
		}
	} else if art, err = parse(bytes.NewReader(data)); err != nil {
		return nil, err
	}
	art.Benchmarks = medianRows(art.Benchmarks)
	return art, nil
}

// medianRows folds repeated (name, procs) rows — input that
// concatenates several runs of the same benchmarks — into the row with
// the median ns/op, in first-appearance order. The kept row is one
// real run, raw line and extra units included; for an even count it is
// the lower median.
func medianRows(rows []Benchmark) []Benchmark {
	groups := make(map[rowKey][]Benchmark, len(rows))
	var order []rowKey
	for _, b := range rows {
		k := b.key()
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], b)
	}
	out := make([]Benchmark, 0, len(order))
	for _, k := range order {
		g := groups[k]
		sort.SliceStable(g, func(i, j int) bool { return g[i].NsPerOp < g[j].NsPerOp })
		out = append(out, g[(len(g)-1)/2])
	}
	return out
}

// rowKey identifies one row of an artifact: a `-cpu 1,2` run reports
// the same benchmark name once per GOMAXPROCS value.
type rowKey struct {
	name  string
	procs int
}

func (b Benchmark) key() rowKey { return rowKey{b.Name, b.Procs} }

// label renders the row's name as go test prints it, with the -P
// suffix when procs is above one.
func (b Benchmark) label() string {
	if b.Procs > 1 {
		return fmt.Sprintf("%s-%d", b.Name, b.Procs)
	}
	return b.Name
}

// diffArtifacts compares current against base row by row, pairing
// rows by (name, procs). A row fails the gate when its ns/op exceeds
// the baseline by more than the tolerance fraction, or when it exists
// in the baseline but not in the current run (a silently-dropped
// benchmark must not pass). Rows new in the current run are reported,
// not failed. When a name has exactly one row on each side, the two
// pair even if their procs differ, so a baseline recorded at one core
// count still gates a run at another.
//
// Extra units present in the baseline are gated too: a unit missing
// from the current run fails (a dropped metric must not pass), a
// positive baseline value is held to the same relative tolerance as
// ns/op, and a zero baseline value is held absolutely (current may not
// exceed the tolerance itself — the shed_rate gate: baseline 0 means
// "a shed rate above the tolerance fraction is a regression"). All
// gates are one-sided; improvements always pass.
func diffArtifacts(base, cur *Artifact, tolerance float64) (string, bool) {
	curBy := make(map[rowKey]Benchmark, len(cur.Benchmarks))
	curByName := make(map[string][]Benchmark, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		curBy[b.key()] = b
		curByName[b.Name] = append(curByName[b.Name], b)
	}
	baseRows := make(map[string]int, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseRows[b.Name]++
	}
	matched := make(map[rowKey]bool, len(base.Benchmarks))

	var sb strings.Builder
	failed := false
	fmt.Fprintf(&sb, "%-34s %15s %15s %9s\n", "benchmark", "baseline ns/op", "current ns/op", "delta")
	for _, b := range base.Benchmarks {
		c, ok := curBy[b.key()]
		if !ok && baseRows[b.Name] == 1 && len(curByName[b.Name]) == 1 {
			c, ok = curByName[b.Name][0], true
		}
		if !ok {
			failed = true
			fmt.Fprintf(&sb, "%-34s %15.0f %15s %9s  FAIL (missing from current run)\n",
				b.label(), b.NsPerOp, "-", "-")
			continue
		}
		matched[c.key()] = true
		delta := 0.0
		if b.NsPerOp > 0 {
			delta = (c.NsPerOp - b.NsPerOp) / b.NsPerOp
		}
		verdict := "ok"
		if delta > tolerance {
			failed = true
			verdict = fmt.Sprintf("FAIL (> %+.0f%% tolerance)", tolerance*100)
		}
		if c.Procs != b.Procs {
			verdict += fmt.Sprintf(" (current run at procs %d)", c.Procs)
		}
		fmt.Fprintf(&sb, "%-34s %15.0f %15.0f %+8.1f%%  %s\n",
			b.label(), b.NsPerOp, c.NsPerOp, delta*100, verdict)
		for _, unit := range sortedUnits(b.Extra) {
			bv := b.Extra[unit]
			label := b.label() + " " + unit
			cv, ok := c.Extra[unit]
			if !ok {
				failed = true
				fmt.Fprintf(&sb, "%-34s %15g %15s %9s  FAIL (unit missing from current run)\n",
					label, bv, "-", "-")
				continue
			}
			verdict := "ok"
			switch {
			case bv > 0:
				// Relative gate, same shape as ns/op.
				delta := (cv - bv) / bv
				if delta > tolerance {
					failed = true
					verdict = fmt.Sprintf("FAIL (> %+.0f%% tolerance)", tolerance*100)
				}
				fmt.Fprintf(&sb, "%-34s %15g %15g %+8.1f%%  %s\n",
					label, bv, cv, delta*100, verdict)
			default:
				// Zero baseline: no relative scale exists, so the
				// tolerance itself is the absolute ceiling.
				if cv > tolerance {
					failed = true
					verdict = fmt.Sprintf("FAIL (> %g absolute ceiling)", tolerance)
				}
				fmt.Fprintf(&sb, "%-34s %15g %15g %9s  %s\n",
					label, bv, cv, "-", verdict)
			}
		}
	}
	for _, c := range cur.Benchmarks {
		if !matched[c.key()] {
			fmt.Fprintf(&sb, "%-34s %15s %15.0f %9s  new (not in baseline)\n",
				c.label(), "-", c.NsPerOp, "-")
		}
	}
	if failed {
		fmt.Fprintf(&sb, "benchmark regression gate FAILED (tolerance %.0f%%)\n", tolerance*100)
	} else {
		fmt.Fprintf(&sb, "benchmark regression gate passed (tolerance %.0f%%)\n", tolerance*100)
	}
	return sb.String(), failed
}

// sortedUnits returns the extra-unit names in deterministic order, so
// the diff report (and its failure lines) are byte-stable run to run.
func sortedUnits(extra map[string]float64) []string {
	units := make([]string, 0, len(extra))
	for u := range extra {
		units = append(units, u)
	}
	sort.Strings(units)
	return units
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// parse reads `go test -bench` output: header key: value lines, then
// result lines of the form
//
//	BenchmarkName-8   	      10	 123456789 ns/op	[more unit pairs]
func parse(r io.Reader) (*Artifact, error) {
	art := &Artifact{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			art.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			art.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:") && art.Pkg == "":
			// A multi-package run repeats the header per package; the
			// artifact keeps the first, the package its run led with.
			art.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			art.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, err := parseLine(line)
			if err != nil {
				return nil, err
			}
			art.Benchmarks = append(art.Benchmarks, b)
		}
	}
	return art, sc.Err()
}

func parseLine(line string) (Benchmark, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, fmt.Errorf("short benchmark line %q", line)
	}
	b := Benchmark{Raw: line, Procs: 1}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			b.Procs = p
			name = name[:i]
		}
	}
	b.Name = name
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("bad iteration count in %q: %w", line, err)
	}
	b.Iterations = iters
	// The remainder is value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("bad value in %q: %w", line, err)
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			b.NsPerOp = v
			continue
		}
		if b.Extra == nil {
			b.Extra = make(map[string]float64)
		}
		b.Extra[unit] = v
	}
	if b.NsPerOp == 0 {
		return Benchmark{}, fmt.Errorf("no ns/op in %q", line)
	}
	return b, nil
}
