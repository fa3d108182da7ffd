package main

import (
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// countingListener wraps a listener the benchmark hands to a server and
// counts every byte read or written on the connections it accepts — both
// directions of the real protocol, framing included.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, bytes: l.bytes}, nil
}

// countingConn forwards everything (deadlines included — the servers set
// their own on every frame) and adds the byte counts.
type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p) //cryptolint:nodeadline (pass-through wrapper: the server that owns the conn sets a deadline before every frame)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p) //cryptolint:nodeadline (pass-through wrapper: the server that owns the conn sets a deadline before every frame)
	c.bytes.Add(int64(n))
	return n, err
}

// listen opens a loopback listener whose traffic is added to bytes.
func listen(bytes *atomic.Int64) (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return countingListener{Listener: ln, bytes: bytes}, nil
}

// usage is a snapshot of the process's resource counters. Client, servers,
// replication and players all live in this process, so process CPU is the
// whole system's CPU.
type usage struct {
	cpu      time.Duration // user + system
	switches int64         // voluntary + involuntary context switches
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{cpu: tv(ru.Utime) + tv(ru.Stime), switches: int64(ru.Nvcsw + ru.Nivcsw)}
}

// quantile returns the q-quantile of sorted (nearest rank); 0 when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median sorts a copy of xs and returns its middle (mean of the two middle
// values for an even count); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// opFunc runs op k of the workload's stream on behalf of one caller: the
// client API call, client-side validation and the oracle check. It returns
// the op's class (an index into the deployment's class names) and nil only
// when the result was checked correct.
type opFunc func(k int64, caller int) (class int, err error)

// window is one slice of the measured phase: from the instant the callers
// are let go until the ops in flight at its deadline have drained. Every op
// runs inside exactly one window.
type window struct {
	start, end time.Time
	cpu        time.Duration
	ops        int
	host       float64 // host speed: mean of the slices just before and just after
}

// scale is what a rate measured in the window is multiplied by, and a time
// divided by, to state it at the reference host speed; 1 when not stated.
func (w *window) scale(stated bool) float64 {
	if !stated || w.host <= 0 {
		return 1
	}
	return referenceSpeed / w.host
}

// sample is one completed op.
type sample struct {
	k      int64
	class  int
	window int
	start  time.Time
	dur    time.Duration
}

// loadResult is what one closed-loop phase observed.
type loadResult struct {
	windows   []window
	slices    []float64 // host speed before, between and after the windows
	samples   []sample  // checked-ok ops only
	attempted int64
	failed    int64
	errs      []string // first few failures
	mallocs   uint64
	wire      int64
	switches  int64
	gcShare   float64
}

// ok is the number of ops that passed every check.
func (r *loadResult) ok() int64 { return r.attempted - r.failed }

// rates returns every window's checked-ok ops per second, as measured or
// stated at the reference host speed.
func (r *loadResult) rates(stated bool) []float64 {
	out := make([]float64, len(r.windows))
	for i, w := range r.windows {
		out[i] = float64(w.ops) / w.end.Sub(w.start).Seconds() * w.scale(stated)
	}
	return out
}

// cpusMsPerOp returns every window's process CPU per op.
func (r *loadResult) cpusMsPerOp(stated bool) []float64 {
	out := make([]float64, len(r.windows))
	for i, w := range r.windows {
		out[i] = ratio(float64(w.cpu)/1e6, float64(w.ops)) / w.scale(stated)
	}
	return out
}

// latenciesMs returns the sorted latencies of the ops of one class (-1:
// all), pooled over the whole phase.
func (r *loadResult) latenciesMs(class int, stated bool) []float64 {
	out := make([]float64, 0, len(r.samples))
	for _, s := range r.samples {
		if class < 0 || s.class == class {
			out = append(out, float64(s.dur)/1e6/r.windows[s.window].scale(stated))
		}
	}
	sort.Float64s(out)
	return out
}

// maxFailuresKept bounds the failure messages a phase keeps; a broken tree
// fails every op and the first few say why.
const maxFailuresKept = 5

// runLoad drives op from callers goroutines in a closed loop (each caller
// blocks on its reply before sending the next op — the shape of users
// waiting on the SEM) for windows windows of winDur and returns per-window
// counts plus every op's latency. Before the first window, between windows
// and after the last the callers are held at a gate, the ops in flight
// drain, and idle measures the host speed on the idle system; that time
// belongs to no window. A forced GC precedes the first window. wire reads
// the deployment's byte counter. The op index k is shared, so the stream of
// ops issued is the generated sequence in order regardless of caller count.
func runLoad(op opFunc, callers, windows int, winDur time.Duration, idle func() float64, wire func() int64) *loadResult {
	var (
		next, failed atomic.Int64
		stop         atomic.Bool
		gate         sync.RWMutex // callers hold it for reading during an op
		wg           sync.WaitGroup
		errMu        sync.Mutex
	)
	res := &loadResult{windows: make([]window, windows)}
	perCaller := make([][]sample, callers)
	current := 0 // the window the callers run in; written only while they are held

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	gc0, total0 := gcCPU()
	wire0, sw0 := wire(), readUsage().switches

	gate.Lock()
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			samples := make([]sample, 0, 1<<14)
			for {
				gate.RLock()
				if stop.Load() {
					gate.RUnlock()
					break
				}
				k, win := next.Add(1)-1, current
				t0 := time.Now()
				class, err := op(k, c)
				dur := time.Since(t0)
				gate.RUnlock()
				if err != nil {
					if failed.Add(1) <= maxFailuresKept {
						errMu.Lock()
						res.errs = append(res.errs, err.Error())
						errMu.Unlock()
					}
					continue
				}
				samples = append(samples, sample{k: k, class: class, window: win, start: t0, dur: dur})
			}
			perCaller[c] = samples
		}()
	}
	res.slices = append(res.slices, idle())
	for i := range res.windows {
		// The host-speed kernel allocates; the ops are charged only with
		// what is allocated while they run.
		current = i
		runtime.ReadMemStats(&ms0)
		start, cpu0 := time.Now(), readUsage().cpu
		gate.Unlock()
		time.Sleep(winDur)
		gate.Lock() // returns once the ops in flight have finished
		res.windows[i] = window{start: start, end: time.Now(), cpu: readUsage().cpu - cpu0}
		runtime.ReadMemStats(&ms1)
		res.mallocs += ms1.Mallocs - ms0.Mallocs
		res.slices = append(res.slices, idle())
		res.windows[i].host = (res.slices[i] + res.slices[i+1]) / 2
	}
	stop.Store(true)
	res.switches = readUsage().switches - sw0
	res.wire = wire() - wire0
	if gc1, total1 := gcCPU(); total1 > total0 {
		res.gcShare = (gc1 - gc0) / (total1 - total0)
	}
	gate.Unlock()
	wg.Wait()

	res.attempted = next.Load()
	res.failed = failed.Load()
	for _, samples := range perCaller {
		res.samples = append(res.samples, samples...)
		for _, s := range samples {
			res.windows[s.window].ops++
		}
	}
	return res
}
