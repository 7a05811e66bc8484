// Command e2ebench is the end-to-end benchmark of the AccQOC pulse
// service. It boots the shipped accqoc-server with its default flags
// (plus a workload's own deployment setting), drives it with closed-loop
// clients that send QASM printed from internal/workload circuits, checks
// every response, and prints the metrics as one JSON object on the last
// line of standard output.
//
// With -trace 1 it runs the workload again and then replays the served
// request stream in-process through the service's public functions, one
// span per call, to report per-layer numbers (see replay.go).
//
// Build and run it through run.sh from the repository root:
//
//	bash e2ebench/run.sh --workload warm_hits --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"accqoc/internal/precompile"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRepeats is how many times an untraced run boots and warms a
// server; setup_s is the median.
const setupRepeats = 3

func main() {
	var (
		name    = flag.String("workload", "", "workload name: warm_hits | mixed_circuits")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "timed-phase length")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		bin     = flag.String("server", "", "accqoc-server binary")
		out     = flag.String("out", ".", "directory for trace files")
	)
	flag.Parse()
	// One scheduler thread: the load generator never needs a whole core,
	// and idle threads spinning for work would take CPU from the server.
	runtime.GOMAXPROCS(1)
	// Collect only near a fixed heap size: a warm run keeps ~100k results
	// and makes ~20 MB/s of HTTP garbage, and the default pacing then
	// collects several times a second, each cycle slowing the requests in
	// flight. Those stalls belong to the load generator, not the server,
	// yet they land in p99_ms.
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(256 << 20)
	s, ok := specByName(*name)
	if !ok || *bin == "" || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: need -workload (one of warm_hits, mixed_circuits), -server and -seconds ≥ 1")
		os.Exit(2)
	}
	rep, err := run(s, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *bin, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runState carries one run's served results into the metric code.
type runState struct {
	spec     spec
	seed     int64
	progs    []*program
	setupS   []float64
	warmIter int
	warmN    int
	phases   []phaseStats
	timed    []*result
	// segments is how many segments the timed phase's figures are
	// taken over (see segmentStats).
	segments int
	// cpu samples the host's CPU time through the timed phase.
	cpu      []cpuSample
	rssMB    float64
	before   libCounters
	after    libCounters
	failures []string
	// lib is the warmed library read back from the server before the
	// timed phase (traced runs only).
	lib []*precompile.Entry
	// physics summarizes the waveform verification of mixed_circuits.
	physics physicsResult
}

// libDelta is the timed phase's store and seed-index counter delta.
func (st *runState) libDelta() libCounters { return st.after.sub(st.before) }

func (st *runState) fail(format string, args ...any) {
	st.failures = append(st.failures, fmt.Sprintf(format, args...))
}

func run(s spec, seed int64, dur time.Duration, traced bool, bin, out string) (*report, error) {
	progs := s.universe()
	b, err := newBodies(s, progs)
	if err != nil {
		return nil, err
	}
	st := &runState{spec: s, seed: seed, progs: progs}

	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	var srv *serverProc
	defer func() { srv.stop() }()
	for i := 0; i < repeats; i++ {
		srv.stop()
		t0 := time.Now()
		srv, err = bootServer(bin, s.flags())
		if err != nil {
			srv = nil
			return nil, err
		}
		list := make([]draw, s.warm)
		for j := range list {
			list[j] = draw{prog: j}
		}
		rs := runList(srv, b, list)
		ps := decode("setup", rs, s.circuits)
		st.phases = append(st.phases, ps)
		if ps.succeeded != ps.attempted {
			return nil, fmt.Errorf("set-up warm-up: %s", ps)
		}
		st.warmIter, st.warmN = 0, len(rs)
		for _, r := range rs {
			st.warmIter += r.compile.TrainingIterations
		}
		st.setupS = append(st.setupS, time.Since(t0).Seconds())
	}
	if traced {
		if st.lib, err = importLibrary(srv, progs[:s.warm]); err != nil {
			return nil, err
		}
	}

	if st.before, err = snap(srv); err != nil {
		return nil, err
	}
	seq := newSequence(s, seed, len(progs), dur)
	st.timed, st.cpu = runTimed(srv, b, s.clients, seq, dur)
	st.segments = 1
	if s.segment > 0 {
		st.segments = max(1, int(dur/s.segment))
	}
	st.phases = append(st.phases, decode("timed", st.timed, s.circuits))
	if st.after, err = snap(srv); err != nil {
		return nil, err
	}
	if st.rssMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	srv.stop()
	srv = nil

	check(st)
	rep := &report{Attempted: len(st.timed), Metrics: map[string]metric{}}
	for _, p := range st.phases {
		rep.Failed += p.failed + p.refused
		fmt.Println(p)
	}
	if traced {
		if err := perLayer(st, rep.Metrics, bin, out); err != nil {
			return nil, err
		}
	} else {
		endToEnd(st, rep.Metrics)
	}
	for _, f := range st.failures {
		fmt.Println("CHECK FAILED:", f)
	}
	rep.Correct = len(st.failures) == 0 && rep.Failed == 0
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	return rep, nil
}

// endToEnd computes the user-visible metrics of an untraced run.
func endToEnd(st *runState, m map[string]metric) {
	var ok, groups, failedGroups, iters, priced int
	var logSum float64
	for _, r := range st.timed {
		if !r.ok() {
			continue
		}
		c := r.compile
		ok++
		groups += c.TotalGroups
		failedGroups += c.FailedGroups
		iters += c.TrainingIterations
		// A program of frame gates alone takes no time either way.
		if c.GateLatencyNs > 0 && c.QOCLatencyNs > 0 {
			priced++
			logSum += math.Log(c.GateLatencyNs / c.QOCLatencyNs)
		}
	}
	p50, p99, rps := segmentStats(st.timed, st.segments, st.cpu)
	m["setup_s"] = metric{median(st.setupS), "s"}
	m["p50_ms"] = metric{p50, "ms"}
	m["p99_ms"] = metric{p99, "ms"}
	m["throughput_rps"] = metric{rps, "req/s"}
	m["server_rss_mb"] = metric{st.rssMB, "MB"}
	if priced > 0 {
		m["latency_reduction"] = metric{math.Exp(logSum / float64(priced)), "x"}
	}
	if groups > 0 {
		m["qoc_group_share"] = metric{1 - float64(failedGroups)/float64(groups), "share"}
	}
	// grape_iters is the workload's compile cost: iterations per timed
	// request, or per set-up program when the timed phase never trains.
	switch {
	case st.spec.hitsOnly:
		m["grape_iters"] = metric{float64(st.warmIter) / float64(max(st.warmN, 1)), "iterations"}
	case ok > 0:
		m["grape_iters"] = metric{float64(iters) / float64(ok), "iterations"}
	}
	propertyShares(st)
	if st.physics.checked > 0 {
		fmt.Printf("physics: %d inlined waveforms verified with cmat.Expm, worst infidelity %.3g (target %.0e)\n",
			st.physics.checked, st.physics.worst, targetInfidelity)
	}
}

// propertyShares prints each workload's measured share of the property it
// is built around.
func propertyShares(st *runState) {
	d := st.libDelta()
	lookups := d.Hits + d.Misses
	n := max(len(st.timed), 1)
	warm := 0
	for _, r := range st.timed {
		if r.ok() && r.compile.WarmServed {
			warm++
		}
	}
	fmt.Printf("property: unique-group hit share %.4f (%d/%d), warm-served requests %d/%d, evictions/request %.3f\n",
		ratio(float64(d.Hits), float64(lookups)), d.Hits, lookups, warm, len(st.timed), float64(d.Evictions)/float64(n))
}

// segmentStats returns p50_ms, p99_ms and throughput_rps of a timed
// phase cut into n segments (see cutSegments), taken over the segments
// during which the hypervisor stole at most quietSteal of this machine's
// CPU time, or over the quarter of them it stole least from if fewer were
// that quiet: the median and tail of their requests' latencies pooled,
// and their completions over their summed time. With one segment they
// are the whole phase's.
//
// On a shared host the hypervisor takes a tenth to a third of the CPU
// time for stretches of seconds to minutes. While it does, warm_hits'
// requests stall for whole scheduler slices: its p99 rose from 1.3 ms to
// 3-14 ms and its throughput fell by up to two thirds, while its p50
// moved by a tenth, and whole-run figures moved by a third between runs
// with the host, not the server. The stolen share is read from the
// kernel's counters (see sampleCPU), so which segments are kept does not
// depend on the requests in them: a tail the server makes, such as a
// stall every few seconds, is in the kept segments at its own rate. On a
// quiet host every segment is kept. mixed_circuits takes one segment,
// the whole phase: its fixed work cannot be split into like parts.
func segmentStats(rs []*result, n int, cpu []cpuSample) (p50, p99, rps float64) {
	type part struct {
		sg    segment
		steal float64
	}
	var parts []part
	stealKnown := true
	for _, sg := range cutSegments(rs, n) {
		p := part{sg, stealShare(cpu, sg.from, sg.to)}
		stealKnown = stealKnown && p.steal >= 0
		parts = append(parts, p)
	}
	shares := make([]float64, len(parts))
	for i, p := range parts {
		shares[i] = p.steal
	}
	kept := parts
	if len(parts) > 1 && stealKnown {
		sort.SliceStable(kept, func(i, j int) bool { return kept[i].steal < kept[j].steal })
		quiet := sort.Search(len(kept), func(i int) bool { return kept[i].steal > quietSteal })
		kept = kept[:max(quiet, (len(kept)+3)/4)]
	}
	var pool []*result
	var busy time.Duration
	for _, p := range kept {
		pool = append(pool, p.sg.results...)
		busy += p.sg.to - p.sg.from
	}
	lat := latenciesMs(pool)
	q, beyond := tailPercentile(len(lat))
	ok := 0
	for _, r := range pool {
		if r.ok() {
			ok++
		}
	}
	fmt.Printf("stolen CPU share per segment: %s\n", fmtList(shares))
	fmt.Printf("p50_ms, p99_ms and throughput_rps over the %d of %d segments with the least stolen CPU time: %d requests in %.2f s, p99 is p%.1f (%d beyond it)\n",
		len(kept), len(parts), len(lat), busy.Seconds(), q, beyond)
	return percentile(lat, 50), percentile(lat, q), float64(ok) / busy.Seconds()
}

// quietSteal is the largest share of the host's CPU time the hypervisor
// may steal during a segment that counts as undisturbed (two clock ticks
// in a second of two cores). At 2% warm_hits' p99 was already a fifth
// above its undisturbed value.
const quietSteal = 0.01

// segment is a run of consecutive completions of a timed phase, from the
// previous segment's last completion (the phase start for the first) to
// its own last completion, as offsets from the phase start.
type segment struct {
	results  []*result
	from, to time.Duration
}

// cutSegments orders rs by completion and cuts them into n runs of equal
// count (the last takes the remainder).
func cutSegments(rs []*result, n int) []segment {
	done := func(r *result) time.Duration { return r.start + r.latency }
	byDone := append([]*result(nil), rs...)
	sort.SliceStable(byDone, func(i, j int) bool { return done(byDone[i]) < done(byDone[j]) })
	n = max(1, min(n, len(byDone)))
	size := len(byDone) / n
	var out []segment
	var prev time.Duration
	for k := 0; k < n; k++ {
		end := (k + 1) * size
		if k == n-1 {
			end = len(byDone)
		}
		part := byDone[k*size : end]
		last := max(done(part[len(part)-1]), prev+time.Microsecond)
		out = append(out, segment{results: part, from: prev, to: last})
		prev = last
	}
	return out
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// latencyMs is a request's latency in ms; a failed or refused request
// counts as missing every limit (+Inf).
func latencyMs(r *result) float64 {
	if !r.ok() {
		return math.Inf(1)
	}
	return float64(r.latency) / float64(time.Millisecond)
}

// latenciesMs returns the sorted latencies of rs.
func latenciesMs(rs []*result) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		out = append(out, latencyMs(r))
	}
	sort.Float64s(out)
	return out
}

// tailPercentile is the highest percentile (capped at 99) with at least
// ten samples beyond it, and the number beyond.
func tailPercentile(n int) (float64, int) {
	if n <= 20 {
		return 50, n / 2
	}
	q := math.Min(99, math.Floor(1000*(1-10/float64(n)))/10)
	return q, n - int(math.Ceil(float64(n)*q/100))
}

// percentile interpolates linearly in sorted xs. A percentile landing on a
// failed request reports 1e9.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 1e9
	}
	pos := q / 100 * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	v := xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 1e9
	}
	return v
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeTrace stores the spans of a traced replay under out/traces.
func writeTrace(out, name string, seed int64, spans []span) error {
	dir := filepath.Join(out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(spans), strings.TrimPrefix(path, out+string(filepath.Separator)))
	return nil
}

var errNoResponse = errors.New("no successful response")
