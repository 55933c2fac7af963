package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// machineStamp describes the machine a run measured on, so a noisy run
// can be told apart from a slow change: a busy neighbour shows in the
// load average, a starved VM in the steal delta.
type machineStamp struct {
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	CPUModel   string    `json:"cpu_model"`
	LoadAvg    []float64 `json:"loadavg"`
	// StealTicks is the /proc/stat steal delta over the run, in
	// USER_HZ ticks summed over CPUs: time the hypervisor ran someone
	// else while this machine wanted the CPU.
	StealTicks int64 `json:"steal_ticks"`
	// SpeedProbeMS times a fixed CPU kernel at the start and the end of
	// the run: contention that steal does not show (a busy sibling
	// hyperthread, memory bandwidth) shows here.
	SpeedProbeMS [2]float64 `json:"speed_probe_ms"`
}

func stampMachine() machineStamp {
	return machineStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		LoadAvg:    loadAvg(),
		StealTicks: stealTicks(),
	}
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

func loadAvg() []float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return nil
	}
	fields := strings.Fields(string(b))
	if len(fields) < 3 {
		return nil
	}
	var out []float64
	for _, f := range fields[:3] {
		v, _ := strconv.ParseFloat(f, 64)
		out = append(out, v)
	}
	return out
}

// stealTicks reads the aggregate steal counter (the eighth value of the
// "cpu" line); -1 when unavailable.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// speedProbeMS times SHA-256 over 8 MiB on one core, best of three.
func speedProbeMS() float64 {
	buf := make([]byte, 1<<20)
	best := time.Duration(math.MaxInt64)
	for range 3 {
		t0 := time.Now()
		for range 8 {
			sha256.Sum256(buf)
		}
		best = min(best, time.Since(t0))
	}
	return ms(best)
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// runtimeSample is a reading of the Go runtime counters a layer's
// allocation and GC cost are measured from, as before/after deltas.
type runtimeSample struct {
	allocBytes uint64
	gcCPU      float64 // seconds
}

var runtimeMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readRuntime() runtimeSample {
	metrics.Read(runtimeMetrics)
	return runtimeSample{
		allocBytes: runtimeMetrics[0].Value.Uint64(),
		gcCPU:      runtimeMetrics[1].Value.Float64(),
	}
}

// allocMB is the allocation between two samples, in MiB.
func allocMB(a, b runtimeSample) float64 {
	return float64(b.allocBytes-a.allocBytes) / (1 << 20)
}

// gcCycles is the number of collections the process has completed.
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapLiveMB forces a collection and reads the live heap, in MiB: the
// memory the process's caches and data hold after a run.
func heapLiveMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// checkRepeat compares a pass's exact counts with the record the
// previous run of the same workload, seed, length and pass kind left
// in dir, then stores these counts as the new record. Counts that
// differ mean the workload's behaviour depended on timing — the run
// fails. An empty dir disables the check.
func checkRepeat(dir, key string, counts map[string]int64) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, key+".json")
	if prev, err := os.ReadFile(path); err == nil {
		var was map[string]int64
		if err := json.Unmarshal(prev, &was); err != nil {
			return fmt.Errorf("repeat record %s: %v", path, err)
		}
		if diff := diffCounts(was, counts); diff != "" {
			return fmt.Errorf("exact counts differ from the previous run: %s", diff)
		}
	}
	b, err := json.Marshal(counts)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func diffCounts(was, now map[string]int64) string {
	all := maps.Clone(was)
	maps.Copy(all, now)
	var diffs []string
	for _, k := range slices.Sorted(maps.Keys(all)) {
		a, inA := was[k]
		b, inB := now[k]
		if a != b || inA != inB {
			diffs = append(diffs, fmt.Sprintf("%s %d→%d", k, a, b))
		}
	}
	return strings.Join(diffs, ", ")
}
