package sem

import (
	"time"

	"repro/internal/curve"
	"repro/internal/fp"
	"repro/internal/obs"
	"repro/internal/pairing"
	"repro/internal/parallel"
)

// Metric naming (see DESIGN.md §8): the server exports under the sem_
// prefix, the client pool under semclient_ and sempool_, and every per-op
// series carries an op="..." label whose value is the Op name. Label values
// are always protocol constants — never identities, reasons or payloads —
// so no request-controlled (or secret-tainted) data can reach the metric
// namespace.

// serverMetrics is the SEM daemon's instrumentation. All series are
// registered at server construction, one per opTable / statusTable row; the
// per-request record path is two array lookups and a handful of atomic
// adds — no locks, no allocation (asserted by TestServerRecordPathZeroAlloc).
// Op bytes outside opTable (refused as bad requests) account under
// op="other", which is row 0 — the byte no op uses.
type serverMetrics struct {
	requests [numOps]*obs.Counter      // sem_requests_total{op=...}
	latency  [numOps]*obs.Histogram    // sem_service_seconds{op=...}
	errors   [numStatuses]*obs.Counter // sem_errors_total{code=...}
	inflight *obs.Gauge                // sem_inflight_requests

	connects  *obs.Counter        // sem_connections_total{version="2"}
	batchSize *obs.ValueHistogram // sem_batch_size
	rxBytes   *obs.ValueHistogram // sem_frame_bytes{dir="rx"}
	txBytes   *obs.ValueHistogram // sem_frame_bytes{dir="tx"}
}

// newServerMetrics registers the server's series. reg may be nil (the
// metrics stay live but unexported). The queue-depth, connection-count and
// cache gauges are function-backed: they sample the server at scrape time
// instead of adding bookkeeping to the serving path.
func newServerMetrics(reg *obs.Registry, s *Server) *serverMetrics {
	m := &serverMetrics{}
	for op := range opTable {
		name := opTable[op].name
		if name == "" {
			name = "other"
		}
		l := obs.Label{Key: "op", Value: string(name)}
		m.requests[op] = reg.Counter("sem_requests_total", "requests dispatched, by protocol op", l)
		m.latency[op] = reg.Histogram("sem_service_seconds", "request service time (dispatch, excluding queue wait)", l)
	}
	for st := range statusTable {
		if st == int(statusOK) {
			continue
		}
		m.errors[st] = reg.Counter("sem_errors_total", "failed requests, by protocol error code",
			obs.Label{Key: "code", Value: statusTable[st].code})
	}
	m.inflight = reg.Gauge("sem_inflight_requests", "requests currently executing in the worker pool")

	m.connects = reg.Counter("sem_connections_total", "accepted client connections, by protocol version",
		obs.Label{Key: "version", Value: "2"})
	m.batchSize = reg.ValueHistogram("sem_batch_size", "ops per received frame")
	m.rxBytes = reg.ValueHistogram("sem_frame_bytes", "protocol frame sizes in bytes, by direction",
		obs.Label{Key: "dir", Value: "rx"})
	m.txBytes = reg.ValueHistogram("sem_frame_bytes", "protocol frame sizes in bytes, by direction",
		obs.Label{Key: "dir", Value: "tx"})

	reg.GaugeFunc("sem_queue_depth", "requests waiting in the worker-pool queue",
		func() int64 { return int64(len(s.jobs)) })
	reg.GaugeFunc("sem_open_connections", "live client connections",
		func() int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return int64(len(s.conns))
		})
	reg.Gauge("sem_workers", "size of the request-execution pool").Set(int64(s.cfg.Workers))

	if s.cfg.IBE != nil {
		s.cfg.IBE.InstrumentPairerCache(reg)
	}
	if s.cfg.Threshold != nil {
		s.cfg.Threshold.InstrumentPairerCache(reg)
	}
	pairing.RegisterEngineMetrics(reg)
	curve.RegisterMSMMetrics(reg)
	parallel.RegisterPoolMetrics(reg)
	// Every service time above is field multiplications, and their price
	// depends on which kernel the host selected: two hosts' histograms are
	// comparable only knowing this label.
	reg.Gauge("fp_kernel", "constant 1, labeled with the field multiplication kernel in use (fp.Kernel)",
		obs.Label{Key: "impl", Value: fp.Kernel()}).Set(1)
	return m
}

// frameRx records the wire size of one received frame (0, from a failed
// read, records nothing).
func (m *serverMetrics) frameRx(n int) {
	if n > 0 {
		m.rxBytes.Observe(n)
	}
}

// frameTx records the wire size of one sent frame.
func (m *serverMetrics) frameTx(n int) {
	if n > 0 {
		m.txBytes.Observe(n)
	}
}

// observe records one dispatched (or refused) item: its op byte, the status
// it was answered with, and the service time.
func (m *serverMetrics) observe(op, status byte, d time.Duration) {
	if opName(op) == "" {
		op = 0
	}
	m.requests[op].Inc()
	m.latency[op].Observe(d)
	if status != statusOK {
		m.errors[status].Inc()
	}
}
