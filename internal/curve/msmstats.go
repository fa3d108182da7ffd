package curve

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// MSM kernel accounting: how large the multi-scalar sums are in production
// and what the kernel costs decide whether the Pippenger machinery pays for
// itself outside benchmarks, so the serving daemons export them (same
// pattern as the pairing engine counters). Recording is a handful of
// uncontended atomic adds per MSM call — never per point. A call the
// interleaved ladder served (at most msmLadderMax terms) records its points
// and latency with zero windows and zero window bits.
var msmCounters struct {
	calls      atomic.Uint64                 // MSM invocations
	points     atomic.Uint64                 // contributing (nonzero) terms across calls
	windows    atomic.Uint64                 // Pippenger windows processed across calls
	windowBits atomic.Int64                  // window width chosen by the last call
	latency    atomic.Pointer[obs.Histogram] // kernel latency, set by RegisterMSMMetrics
}

// hashToPointCalls counts try-and-increment hashes onto the curve
// (HashToPoint and HashToPointUncleared alike). At paper size one hash with
// its cofactor clearing costs about as much as a pairing, so the count per
// served operation says whether a caller is re-deriving a per-identity
// constant it could have kept.
var hashToPointCalls atomic.Uint64

// HashToPointCalls returns the number of hash-to-curve evaluations so far.
func HashToPointCalls() uint64 { return hashToPointCalls.Load() }

// recordMSM logs one kernel invocation.
func recordMSM(points, windows, windowBits int, d time.Duration) {
	msmCounters.calls.Add(1)
	msmCounters.points.Add(uint64(points))
	msmCounters.windows.Add(uint64(windows))
	msmCounters.windowBits.Store(int64(windowBits))
	if h := msmCounters.latency.Load(); h != nil {
		h.Observe(d)
	}
}

// MSMStats is a snapshot of the MSM kernel counters.
type MSMStats struct {
	// Calls counts MSM invocations (including empty sums).
	Calls uint64
	// Points counts the contributing terms across all calls; Points/Calls
	// is the mean input size, the quantity that decides the Pippenger
	// window width.
	Points uint64
	// Windows counts processed Pippenger windows across all calls.
	Windows uint64
	// WindowBits is the bucket-index width the most recent call selected
	// (0 when the ladder served it).
	WindowBits int
}

// KernelStats returns the current MSM counters.
func KernelStats() MSMStats {
	return MSMStats{
		Calls:      msmCounters.calls.Load(),
		Points:     msmCounters.points.Load(),
		Windows:    msmCounters.windows.Load(),
		WindowBits: int(msmCounters.windowBits.Load()),
	}
}

// RegisterMSMMetrics exports the MSM counters, the kernel latency histogram
// and the hash-to-curve counter through reg. Idempotent — the registry
// deduplicates series — so every instrumented component may call it without
// coordination.
func RegisterMSMMetrics(reg *obs.Registry) {
	reg.CounterFunc("curve_msm_calls_total", "MSM kernel invocations (interleaved ladder or Pippenger)",
		func() uint64 { return msmCounters.calls.Load() })
	reg.CounterFunc("curve_msm_points_total", "scalar-point terms summed across MSM invocations",
		func() uint64 { return msmCounters.points.Load() })
	reg.CounterFunc("curve_msm_windows_total", "Pippenger windows processed across MSM invocations",
		func() uint64 { return msmCounters.windows.Load() })
	reg.GaugeFunc("curve_msm_window_bits", "Pippenger window width selected by the most recent MSM call (0: the ladder served it)",
		func() int64 { return msmCounters.windowBits.Load() })
	msmCounters.latency.Store(reg.Histogram("curve_msm_seconds", "MSM kernel latency"))
	reg.CounterFunc("curve_hash_to_point_total", "hash-to-curve evaluations (HashToPoint and HashToPointUncleared)",
		hashToPointCalls.Load)
}
