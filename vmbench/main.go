// Command vmbench is the repository's benchmark: three seeded workloads
// driven through the VM's public API from one process, every result
// checked against a model the benchmark keeps, every metric printed by
// name with its unit. Run it from the repository root through run.sh:
//
//	bash vmbench/run.sh --workload fork|mapped-read|swap --seed N --seconds S --trace 0|1
//
// A run repeats rounds until S seconds have passed. A round builds a fresh
// system (timed as set-up), runs the workload's fixed number of ops on
// the same seeded input, and tears the system down, so counts, simulated
// time and heap size repeat from round to round and run to run. Timings
// are medians over the rounds. With --trace 1 the rounds alternate
// between untraced and traced; traced rounds time every call at the
// program's seams and report per-layer metrics and a waterfall. The last
// line of output is one JSON object: correct, attempted, failed, metrics.
// See NOTES.md for what each workload and metric is for.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// workdir holds the rounds' temporary files, under the directory the
// benchmark runs in; run.sh builds into the same place.
const workdir = ".bench_build"

// system is one workload instance, built by set-up and used for one round.
type system interface {
	// run performs the round's ops and returns their latencies and how
	// many failed (an error, or bytes the model did not predict).
	// The op phase begins at start; each client logs its ops.
	run(start time.Time) (ops []*opLog, failed int64, err error)
	// counters returns cumulative counts read from the program's public
	// stats; a round reports the difference across run.
	counters() counts
	// simNanos is the simulated clock's total.
	simNanos() int64
	close() error
}

// workload generates a seeded input once per run; setup builds a system
// over that input, with seam wrappers installed when t is non-nil.
type workload struct {
	name  string
	ops   int // ops per round
	input func(seed int64, ops int) (setup func(dir string, t *tracer) (system, error))
	// procs, when set, is the run's GOMAXPROCS. On one P the program's
	// own goroutines (pager, engine workers, tier migrator) and the GC
	// hand off to the clients without waking a thread on the other CPU;
	// on a shared virtual machine that wake-up's latency varies more than
	// anything the program does, and the run would measure it.
	procs int
	// gcPercent, when set, is the run's GOGC.
	gcPercent int
}

var workloads = []workload{
	// fork keeps the runtime's defaults: run alternately with one P, it
	// spread no less from run to run.
	{name: "fork", ops: 3000, input: forkInput},
	{name: "mapped-read", ops: 40000, input: mappedInput, procs: 1},
	// swap allocates about 600 KB per op (a flate.Writer per compressed
	// page); at the default GOGC the collector would scan the heap every
	// 20 or so ops and the run would measure the machine's memory
	// bandwidth more than the program.
	{name: "swap", ops: 10000, input: swapInput, procs: 1, gcPercent: 400},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// round is what one round measured.
type round struct {
	traced    bool
	setup     time.Duration
	ops       int64
	failed    int64
	windows   []window
	simNanos  int64
	heapBytes uint64
	delta     counts // program counters over the ops, plus go.* counts
	tr        *tracer
}

// runRound builds a system, runs its ops and tears it down.
func runRound(setup func(string, *tracer) (system, error), workdir string, traced bool) (round, error) {
	r := round{traced: traced}
	if traced {
		r.tr = newTracer()
	}
	dir, err := os.MkdirTemp(workdir, "round-")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	runtime.GC()

	t0 := time.Now()
	sys, err := setup(dir, r.tr)
	if err != nil {
		return r, fmt.Errorf("set-up: %w", err)
	}
	r.setup = time.Since(t0)

	before, sim0 := sys.counters(), sys.simNanos()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	r.tr.arm(true)
	t1 := time.Now()
	logs, failed, err := sys.run(t1)
	r.tr.arm(false)
	if err != nil {
		return r, err
	}
	runtime.ReadMemStats(&ms1)
	r.delta = sys.counters().sub(before)
	r.simNanos = sys.simNanos() - sim0
	for _, l := range logs {
		r.ops += int64(len(l.ops))
	}
	r.failed, r.windows = failed, windows(logs...)
	logs = nil // the heap below is the system's, not the op log's
	r.delta["go.allocs"] = float64(ms1.Mallocs - ms0.Mallocs)
	r.delta["go.alloc_bytes"] = float64(ms1.TotalAlloc - ms0.TotalAlloc)
	r.delta["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)

	runtime.GC()
	runtime.ReadMemStats(&ms1)
	r.heapBytes = ms1.HeapAlloc
	if err := sys.close(); err != nil {
		return r, fmt.Errorf("teardown: %w", err)
	}
	return r, nil
}

// minRounds is the fewest rounds of each kind a run makes, so that every
// reported median has at least three values under it.
const minRounds = 3

func run(w workload, seed int64, seconds int, trace bool, workdir string) (result, string, error) {
	setup := w.input(seed, w.ops)
	var plain, traced []round
	start := time.Now()
	for i := 0; ; i++ {
		want := len(plain) < minRounds || (trace && len(traced) < minRounds)
		if !want && time.Since(start) >= time.Duration(seconds)*time.Second {
			break
		}
		r, err := runRound(setup, workdir, trace && i%2 == 1)
		if err != nil {
			return result{}, "", err
		}
		if r.traced {
			traced = append(traced, r)
		} else {
			r.delta = nil // only traced rounds report counts; keep the heap flat
			plain = append(plain, r)
		}
	}

	res := result{Metrics: metrics{}}
	for _, r := range append(append([]round(nil), plain...), traced...) {
		res.Attempted += r.ops
		res.Failed += r.failed
	}
	res.Correct = res.Failed == 0
	if !trace {
		endToEnd(res.Metrics, plain)
		return res, "", nil
	}
	report := perLayer(res.Metrics, w.name, plain, traced, res.Failed, res.Attempted)
	return res, report, nil
}

// windowMedians is the median over every window of the rounds of the
// throughput (ops/s) and of the latency percentiles (us).
func windowMedians(rs []round) (rate, p50, p99 float64) {
	var rates, p50s, p99s []float64
	for _, r := range rs {
		for _, w := range r.windows {
			rates = append(rates, w.rate)
			p50s = append(p50s, w.p50/1e3)
			p99s = append(p99s, w.p99/1e3)
		}
	}
	return median(rates), median(p50s), median(p99s)
}

// endToEnd reports the user-visible metrics: throughput and latency as
// medians over the windows of every round, the rest as medians over the
// rounds.
func endToEnd(m metrics, rs []round) {
	var sim, heap, setup []float64
	for _, r := range rs {
		sim = append(sim, float64(r.simNanos)/float64(r.ops)/1e6)
		heap = append(heap, float64(r.heapBytes)/(1<<20))
		setup = append(setup, r.setup.Seconds())
	}
	rate, p50, p99 := windowMedians(rs)
	m.set("ops_per_s", rate, "1/s")
	m.set("op_p50_us", p50, "us")
	m.set("op_p99_us", p99, "us")
	m.set("sim_ms_per_op", median(sim), "ms")
	m.set("heap_mb", median(heap), "MB")
	m.set("setup_s", median(setup), "s")
}

func main() {
	name := flag.String("workload", "", "workload: fork, mapped-read or swap")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "how long to keep starting rounds")
	trace := flag.Int("trace", 0, "1: alternate untraced and traced rounds and report per-layer metrics")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "vmbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		flag.Usage()
		os.Exit(2)
	}
	// A wedged round (a lost wakeup, a deadlock) must not hang the run:
	// fail loudly instead, without printing a result.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "vmbench: run exceeded its time limit")
		os.Exit(3)
	})
	defer watchdog.Stop()

	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	if w.gcPercent > 0 {
		debug.SetGCPercent(w.gcPercent)
	}
	dir, err := filepath.Abs(workdir)
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "vmbench: %v\n", err)
		os.Exit(1)
	}
	res, report, err := run(w, *seed, *seconds, *trace == 1, dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vmbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	fmt.Print(report)
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "vmbench: %v\n", err)
		os.Exit(1)
	}
}
