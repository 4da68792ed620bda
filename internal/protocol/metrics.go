package protocol

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"ldphh/internal/proto"
)

// Metrics is the server's operability surface: a set of atomic counters
// threaded through the ingest, identify, snapshot and checkpoint paths.
// Every update on a hot path is a single atomic add — no locks, no
// allocation. Report counts are not metered at all: they are read from
// the aggregator's own TotalReports, the one count that every frame,
// merged snapshot and in-process absorb updates once, under the adapter
// lock. Rendering (Prometheus text, /healthz JSON) happens only when a
// scraper asks.
type Metrics struct {
	protocol  string
	startNano int64
	total     func() int // the aggregator's TotalReports

	connsAccepted atomic.Int64
	connsActive   atomic.Int64

	batchesAbsorbed atomic.Int64 // mega-batch commands completed
	absorbErrors    atomic.Int64 // absorb/decode failures (batch and merge paths)
	windowDepth     atomic.Int64 // ingest windows currently folding into the aggregator

	identifies        atomic.Int64
	identifyErrors    atomic.Int64
	identifyNanos     atomic.Int64 // cumulative wall time inside Identify
	lastIdentifyNanos atomic.Int64

	topkQueries     atomic.Int64 // continuous top-k queries answered over the wire
	topkQueryErrors atomic.Int64 // top-k queries rejected (unsupported protocol, bad k)

	roundsAdvanced atomic.Int64 // interactive round transitions committed over the wire
	roundErrors    atomic.Int64 // round commands rejected (unsupported protocol, failed advance)

	snapshotsServed atomic.Int64
	mergesAbsorbed  atomic.Int64

	checkpoints         atomic.Int64 // successful checkpoint saves this run
	checkpointErrors    atomic.Int64
	checkpointSeq       atomic.Uint64
	checkpointUnixNano  atomic.Int64 // wall clock of the last successful save (or the recovered file)
	checkpointBytes     atomic.Int64
	reportsAtCheckpoint atomic.Int64 // total sampled just before the last checkpoint's snapshot (or at recovery)
	recoveredReports    atomic.Int64 // reports rehydrated from disk at startup

	draining    atomic.Bool
	lastCkptErr atomic.Value // string; "" when the last checkpoint attempt succeeded
}

// newMetrics builds the metrics of a server for the named protocol; total
// is its aggregator's TotalReports.
func newMetrics(protocol string, total func() int) *Metrics {
	m := &Metrics{protocol: protocol, startNano: time.Now().UnixNano(), total: total}
	m.lastCkptErr.Store("")
	return m
}

// ReportsAbsorbed returns the number of reports the aggregator has
// absorbed since the server started (frames, merged snapshot contents and
// in-process absorbs): its TotalReports less the RecoveredReports
// rehydrated from the on-disk checkpoint.
func (m *Metrics) ReportsAbsorbed() int64 { return m.absorbed(int64(m.total())) }

// absorbed is ReportsAbsorbed at the aggregator total.
func (m *Metrics) absorbed(total int64) int64 { return total - m.recoveredReports.Load() }

// RecoveredReports returns the number of reports rehydrated from the
// on-disk checkpoint at startup (0 on a fresh start).
func (m *Metrics) RecoveredReports() int64 { return m.recoveredReports.Load() }

// CheckpointLag returns how many absorbed reports are not yet covered by a
// durable checkpoint. It reads the aggregator's TotalReports, so it takes
// the adapter lock once.
func (m *Metrics) CheckpointLag() int64 { return m.lag(int64(m.total())) }

// lag is CheckpointLag at the aggregator total.
func (m *Metrics) lag(total int64) int64 { return total - m.reportsAtCheckpoint.Load() }

// CheckpointAge returns the time since the last durable checkpoint, or -1
// when none has been taken (and none was recovered).
func (m *Metrics) CheckpointAge() time.Duration {
	at := m.checkpointUnixNano.Load()
	if at == 0 {
		return -1
	}
	return time.Duration(time.Now().UnixNano() - at)
}

// noteCheckpoint records one successful checkpoint save (or the recovered
// checkpoint at startup). totalBefore is the aggregator's TotalReports
// sampled just before the snapshot (or after the recovery), so the lag
// metric never undercounts.
func (m *Metrics) noteCheckpoint(seq uint64, unixNano int64, bytes int, totalBefore int64) {
	m.checkpointSeq.Store(seq)
	m.checkpointUnixNano.Store(unixNano)
	m.checkpointBytes.Store(int64(bytes))
	m.reportsAtCheckpoint.Store(totalBefore)
	m.lastCkptErr.Store("")
}

func (m *Metrics) noteCheckpointError(err error) {
	m.checkpointErrors.Add(1)
	m.lastCkptErr.Store(err.Error())
}

// uptime returns seconds since the server started.
func (m *Metrics) uptime() float64 {
	return float64(time.Now().UnixNano()-m.startNano) / 1e9
}

// writeProm renders the Prometheus text exposition format. resident is the
// aggregator's TotalReports at scrape time (it includes recovered and
// merged state), read once so every count in a scrape agrees; listenerErr
// reports permanent listener death; stream is the continuous-query
// position for streaming aggregators (nil for batch protocols, which have
// no stream series); round is the interactive-protocol round position (nil
// for single-round protocols).
func (m *Metrics) writeProm(w *bufio.Writer, resident int, listenerErr error, stream *proto.StreamStats, round *proto.RoundState) {
	p := m.protocol
	up := 1
	if listenerErr != nil {
		up = 0
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s{protocol=%q} %d\n", name, help, name, name, p, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s{protocol=%q} %g\n", name, help, name, name, p, v)
	}
	// counterF is the float-valued counter flavor for cumulative quantities
	// that are not integer event counts (e.g. summed wall time). Prometheus
	// naming requires every `_total` series to be TYPE counter — and only
	// those — which TestMetricsTextLint enforces over the whole exposition.
	counterF := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s{protocol=%q} %g\n", name, help, name, name, p, v)
	}
	gauge("ldphh_up", "1 while the listener accepts connections, 0 after permanent death.", float64(up))
	gauge("ldphh_uptime_seconds", "Seconds since the server started.", m.uptime())
	gauge("ldphh_draining", "1 while a graceful shutdown drains in-flight connections.", b2f(m.draining.Load()))

	counter("ldphh_connections_accepted_total", "Connections accepted by the listener.", m.connsAccepted.Load())
	gauge("ldphh_connections_active", "Connections currently being served.", float64(m.connsActive.Load()))

	absorbed := m.absorbed(int64(resident))
	counter("ldphh_reports_absorbed_total", "Reports absorbed into the aggregator since startup (frames, merged snapshots and in-process absorbs; recovered reports excluded).", absorbed)
	gauge("ldphh_reports_resident", "Reports resident in the aggregator, including recovered and merged state.", float64(resident))
	gauge("ldphh_reports_per_second", "Mean absorption rate over the server lifetime (use rate() on the _total for windows).",
		float64(absorbed)/maxf(m.uptime(), 1e-9))
	counter("ldphh_batches_absorbed_total", "Mega-batch commands absorbed.", m.batchesAbsorbed.Load())
	counter("ldphh_absorb_errors_total", "Report batches or snapshot merges rejected mid-absorption.", m.absorbErrors.Load())
	gauge("ldphh_ingest_window_depth", "Ingest windows currently folding into the aggregator.", float64(m.windowDepth.Load()))

	counter("ldphh_identify_total", "Identify commands served.", m.identifies.Load())
	counter("ldphh_identify_errors_total", "Identify commands that failed (including client-disconnect cancellations).", m.identifyErrors.Load())
	counterF("ldphh_identify_seconds_total", "Cumulative wall time spent in Identify.", float64(m.identifyNanos.Load())/1e9)
	gauge("ldphh_identify_last_seconds", "Wall time of the most recent Identify.", float64(m.lastIdentifyNanos.Load())/1e9)

	counter("ldphh_topk_queries_total", "Continuous top-k queries answered over the wire.", m.topkQueries.Load())
	counter("ldphh_topk_query_errors_total", "Continuous top-k queries rejected.", m.topkQueryErrors.Load())
	if stream != nil {
		gauge("ldphh_stream_window", "Zero-based index of the current ingest window.", float64(stream.Window))
		gauge("ldphh_stream_windows", "Configured per-user budget split w (per-report budget is eps/w).", float64(stream.Windows))
		gauge("ldphh_stream_warmup", "1 while the bounded structure is in its filling warmup phase.", b2f(stream.Warmup))
		counter("ldphh_stream_evictions_total", "Cells evicted from the bounded structure by decay.", stream.Evictions)
	}
	if round != nil {
		gauge("ldphh_round", "Zero-based index of the open interactive round.", float64(round.Round))
		gauge("ldphh_rounds", "Configured interactive round count (the user-group count g).", float64(round.Rounds))
		gauge("ldphh_round_candidates", "Candidate prefixes broadcast for the open round.", float64(len(round.Candidates)))
		gauge("ldphh_round_group_size", "Reports absorbed into the open round's group so far.", float64(round.GroupReports))
		gauge("ldphh_round_done", "1 once the final round committed and Identify is answerable.", b2f(round.Done))
		counter("ldphh_rounds_advanced_total", "Interactive round transitions committed over the wire.", m.roundsAdvanced.Load())
		counter("ldphh_round_errors_total", "Round commands rejected.", m.roundErrors.Load())
	}

	counter("ldphh_snapshots_served_total", "Snapshot commands served to parent aggregators.", m.snapshotsServed.Load())
	counter("ldphh_snapshot_merges_total", "Child snapshots merged into this aggregator.", m.mergesAbsorbed.Load())

	counter("ldphh_checkpoints_total", "Durable checkpoints written this run.", m.checkpoints.Load())
	counter("ldphh_checkpoint_errors_total", "Checkpoint attempts that failed.", m.checkpointErrors.Load())
	gauge("ldphh_checkpoint_seq", "Sequence number of the newest durable checkpoint.", float64(m.checkpointSeq.Load()))
	// CheckpointAge returns the -1 "never" sentinel until the first durable
	// save; the age series is omitted then (a negative age would poison
	// min()/alerting math) and the _taken flag tells the two states apart
	// from a plain zero-age scrape.
	age := m.CheckpointAge()
	gauge("ldphh_checkpoint_taken", "1 once a durable checkpoint exists (written this run or recovered).", b2f(age >= 0))
	if age >= 0 {
		gauge("ldphh_checkpoint_age_seconds", "Seconds since the newest durable checkpoint.", age.Seconds())
	}
	gauge("ldphh_checkpoint_lag_reports", "Absorbed reports not yet covered by a durable checkpoint.", float64(m.lag(int64(resident))))
	gauge("ldphh_checkpoint_bytes", "Payload size of the newest durable checkpoint.", float64(m.checkpointBytes.Load()))
	gauge("ldphh_recovered_reports", "Reports rehydrated from the on-disk checkpoint at startup.", float64(m.recoveredReports.Load()))
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// metricsServer is the HTTP operability sidecar: /healthz for liveness
// probes and load balancers, /metrics for Prometheus scrapes. It listens on
// its own address so the report wire and the control plane never share a
// port, and it shuts down with the server.
type metricsServer struct {
	ln  net.Listener
	srv *http.Server
}

func startMetricsServer(addr string, s *Server) (*metricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("protocol: metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	// Live profiling rides the operability sidecar: the metrics address is
	// already the non-ingest control plane, so `go tool pprof
	// http://<metrics-addr>/debug/pprof/profile` works against a running
	// aggregation server with no extra flag or port. Registered explicitly —
	// the sidecar uses its own mux, so the net/http/pprof init-time
	// DefaultServeMux registrations would not be reachable.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ms := &metricsServer{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go ms.srv.Serve(ln) //nolint:errcheck // exits on Close
	return ms, nil
}

func (ms *metricsServer) close() {
	if ms == nil {
		return
	}
	ms.srv.Close() //nolint:errcheck // teardown
}

// handleHealthz answers liveness/readiness probes: 200 with a JSON summary
// while the server accepts traffic, 503 while draining or after the
// listener died — so a load balancer stops routing to a server that can no
// longer absorb reports, and an operator's curl shows why.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	m := s.metrics
	status, code := "ok", http.StatusOK
	var listenerErr string
	if m.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	if err := s.Err(); err != nil {
		status, code = "listener-dead", http.StatusServiceUnavailable
		listenerErr = err.Error()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// Before the first durable checkpoint CheckpointAge returns the -1
	// sentinel; the JSON reports a NaN-safe 0 plus an explicit taken flag,
	// so a probe never parses a negative age as a real duration.
	age, taken := 0.0, false
	if a := m.CheckpointAge(); a >= 0 {
		age, taken = a.Seconds(), true
	}
	stream := ""
	if cq, ok := proto.AsContinuousQuerier(s.agg); ok {
		st := cq.StreamStats()
		stream = fmt.Sprintf(`,"stream_window":%d,"stream_windows":%d,"stream_warmup":%t,"stream_evictions":%d,"topk_queries":%d`,
			st.Window, st.Windows, st.Warmup, st.Evictions, m.topkQueries.Load())
	}
	round := ""
	if it, ok := proto.AsInteractive(s.agg); ok {
		rs := it.RoundState()
		round = fmt.Sprintf(`,"round":%d,"rounds":%d,"round_candidates":%d,"round_group_size":%d,"round_done":%t`,
			rs.Round, rs.Rounds, len(rs.Candidates), rs.GroupReports, rs.Done)
	}
	resident := int64(s.agg.TotalReports())
	fmt.Fprintf(w, `{"status":%q,"protocol":%q,"uptime_seconds":%.3f,"absorbed":%d,"resident":%d,"checkpoint_seq":%d,"checkpoint_taken":%t,"checkpoint_age_seconds":%.3f,"checkpoint_lag_reports":%d,"last_checkpoint_error":%q,"listener_error":%q%s%s}`+"\n",
		status, m.protocol, m.uptime(), m.absorbed(resident), resident,
		m.checkpointSeq.Load(), taken, age, m.lag(resident),
		m.lastCkptErr.Load().(string), listenerErr, stream, round)
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var stream *proto.StreamStats
	if cq, ok := proto.AsContinuousQuerier(s.agg); ok {
		st := cq.StreamStats()
		stream = &st
	}
	var round *proto.RoundState
	if it, ok := proto.AsInteractive(s.agg); ok {
		rs := it.RoundState()
		round = &rs
	}
	bw := bufio.NewWriter(w)
	s.metrics.writeProm(bw, s.agg.TotalReports(), s.Err(), stream, round)
	bw.Flush() //nolint:errcheck // client gone
}
