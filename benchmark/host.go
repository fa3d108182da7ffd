package main

import (
	"math/big"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Host speed. On this shared 2-core VM the same binary runs a third slower
// or faster from one hour, minute and second to the next (neighbours on
// the shared cores; steal stays under 1 %, so process CPU time inflates
// with wall time): ten runs of unmodified code spread 14-38 % with plain
// estimators. So every run measures how fast the host is *while it runs*,
// in short slices just before and just after everything it times, with a
// kernel that uses nothing from this repository — a change to the system
// cannot move it — and states each timing at a fixed reference host speed.
// The values as measured are printed beside the stated ones.

// kernelRate runs the calibration kernel (a 1024-bit modular
// exponentiation, math/big only) on every proc for d and returns kernel
// ops per second per proc.
func kernelRate(d time.Duration) float64 {
	base := new(big.Int).Lsh(big.NewInt(0x5eed), 1000)
	base.Add(base, big.NewInt(12345))
	mod := new(big.Int).Lsh(big.NewInt(1), 1024)
	mod.Sub(mod, big.NewInt(105)) // odd, so Exp takes the Montgomery path
	exp := new(big.Int).Lsh(big.NewInt(1), 255)
	exp.Sub(exp, big.NewInt(19))

	procs := runtime.GOMAXPROCS(0)
	var total atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := new(big.Int)
			n := int64(0)
			for time.Since(start) < d {
				out.Exp(base, exp, mod)
				n++
			}
			total.Add(n)
		}()
	}
	wg.Wait()
	return float64(total.Load()) / time.Since(start).Seconds() / float64(procs)
}

// cpuTicks reads the aggregate cpu line of /proc/stat: (steal, total) in
// clock ticks. Both are 0 where /proc/stat is unavailable.
func cpuTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already inside user, so the first eight sum to total.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
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

// gcCPU returns the runtime's cumulative (GC, total) CPU-seconds estimates.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// referenceSpeed is the host speed timing metrics are stated at, in kernel
// ops per second per proc: about what the 2-core box this benchmark was
// built on does when its neighbours are quiet. It only fixes the scale, so
// that a stated rate reads like a rate on that box.
const referenceSpeed = 8000.0

// hostMeter takes the host-speed slices of one run, always with the
// system under test idle: before and after the set-up, and before, between
// and after the windows of the measured phase while the callers are held.
type hostMeter struct {
	slice time.Duration
	rates []float64
}

// measure runs the kernel for one slice and returns its rate.
func (m *hostMeter) measure() float64 {
	m.rates = append(m.rates, kernelRate(m.slice))
	return m.rates[len(m.rates)-1]
}

// hostInfo is printed with every result.
type hostInfo struct {
	GoVersion  string
	GOMAXPROCS int
	NumCPU     int
	Speed      float64 // kernel ops/s per proc, median slice
	Slices     []float64
	StealShare float64
}

// hostProbe brackets one workload run.
type hostProbe struct {
	meter        hostMeter
	steal, total float64
}

func startHostProbe(slice time.Duration) *hostProbe {
	p := &hostProbe{meter: hostMeter{slice: slice}}
	p.steal, p.total = cpuTicks()
	return p
}

func (p *hostProbe) finish() hostInfo {
	info := hostInfo{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Speed:      median(p.meter.rates),
		Slices:     p.meter.rates,
	}
	if steal, total := cpuTicks(); total > p.total {
		info.StealShare = (steal - p.steal) / (total - p.total)
	}
	return info
}
