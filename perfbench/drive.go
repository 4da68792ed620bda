package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"ldphh"
)

// fleet is one round's servers, indexed by the benchmark-local server id
// the spans carry.
type fleet struct {
	servers []*ldphh.Server
	aggs    []ldphh.Aggregator // the bare aggregators behind the servers
	dir     string             // checkpoint directory, if any
}

// serve starts a loopback server around agg, wrapping it in a tracedAgg
// when the round is traced, and registers it under the next server id. The
// construction is a client span of the given name.
func (f *fleet) serve(rec *recorder, name string, agg ldphh.Aggregator, opts ...ldphh.ServerOption) (*ldphh.Server, error) {
	id := len(f.servers)
	var handed ldphh.Aggregator = agg
	if rec != nil {
		t, err := newTracedAgg(agg, rec, id)
		if err != nil {
			return nil, err
		}
		handed = t
	}
	var srv *ldphh.Server
	err := rec.client(name, id, func() error {
		var err error
		srv, err = ldphh.NewAggregationServer(handed, "127.0.0.1:0", opts...)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("perfbench: starting server %d: %w", id, err)
	}
	f.servers = append(f.servers, srv)
	f.aggs = append(f.aggs, agg)
	return srv, nil
}

// close shuts every server down that is not yet retired; a server already
// shut down returns its earlier result again.
func (f *fleet) close() {
	for _, s := range f.servers {
		if s != nil {
			s.Close()
		}
	}
}

// retire shuts server id down and drops the fleet's references to it and
// its aggregator, so their memory can be collected; it returns the
// reports the server absorbed.
func (f *fleet) retire(id int) int {
	n := f.servers[id].Absorbed()
	f.servers[id].Close()
	f.servers[id], f.aggs[id] = nil, nil
	return n
}

// laneTarget is one connection: the server it sends to and its share of
// the pre-encoded frames.
type laneTarget struct {
	server int
	addr   string
	slab   []byte
}

// ingestStats is one closed-loop ingest phase over all connections.
type ingestStats struct {
	wall     time.Duration
	acked    []int // reports acknowledged per lane
	batches  int   // acknowledged batches
	attempts int   // batches sent
	failed   int   // batches that failed or were refused
	lat      []float64
	errs     []error

	start, end time.Time // first send, last ack
}

func (s ingestStats) total() int {
	n := 0
	for _, a := range s.acked {
		n += a
	}
	return n
}

// ingest sends every lane's frames in closed loop over one connection per
// lane: a connection sends its next batch of batchFrames frames when the
// previous ack arrives, and the lanes take their turns one after another,
// so one sender and one server handler are busy at a time on a two-vCPU
// host. Connections are dialed before the clock starts; the phase runs
// from the first send to the last ack.
func ingest(ctx context.Context, kind ldphh.Kind, lanes []laneTarget, batchFrames, frameLen int, rec *recorder) (ingestStats, error) {
	conns := make([]*ldphh.IngestConn, len(lanes))
	for i, l := range lanes {
		c, err := ldphh.DialIngest(ctx, l.addr, kind)
		if err != nil {
			for _, c := range conns[:i] {
				c.Close()
			}
			return ingestStats{}, fmt.Errorf("perfbench: dialing server %d: %w", l.server, err)
		}
		conns[i] = c
	}
	st := ingestStats{acked: make([]int, len(lanes)), errs: make([]error, len(lanes))}
	step := batchFrames * frameLen
	for _, l := range lanes {
		st.lat = slices.Grow(st.lat, len(l.slab)/step+1)
	}
	st.start = time.Now()
	for i, l := range lanes {
		for off := 0; off < len(l.slab); off += step {
			batch := l.slab[off:min(off+step, len(l.slab))]
			st.attempts++
			t0 := time.Now()
			err := rec.clientOn("client.send", l.server, i, func() error { return conns[i].SendEncoded(ctx, batch) })
			if err != nil {
				st.errs[i] = fmt.Errorf("perfbench: batch at frame %d to server %d: %w", off/frameLen, l.server, err)
				st.failed++
				break // the connection is dead after any error
			}
			st.lat = append(st.lat, ms(time.Since(t0)))
			st.acked[i] += len(batch) / frameLen
			st.batches++
		}
	}
	st.end = time.Now()
	st.wall = st.end.Sub(st.start)
	for _, c := range conns {
		c.Close()
	}
	return st, nil
}

// replay absorbs the population in process into a fresh aggregator and
// identifies.
func replay(ctx context.Context, agg ldphh.Aggregator, pop *population) ([]ldphh.Estimate, error) {
	if err := feed(agg, pop); err != nil {
		return nil, err
	}
	return agg.Identify(ctx)
}

// feed absorbs every report of the population into agg in server-sized
// windows through the Aggregator surface.
func feed(agg ldphh.Aggregator, pop *population) error {
	const window = 4096
	views := make([]ldphh.WireReport, 0, window)
	for i := 0; i < pop.devices(); i += window {
		views = views[:0]
		for j := i; j < min(i+window, pop.devices()); j++ {
			views = append(views, pop.frame(j))
		}
		if err := agg.AbsorbBatch(views); err != nil {
			return fmt.Errorf("perfbench: in-process replay: %w", err)
		}
	}
	return nil
}

// sameEstimates reports whether two answers are bit-identical: same items
// in the same order with the same float64 bits.
func sameEstimates(a, b []ldphh.Estimate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if string(a[i].Item) != string(b[i].Item) || math.Float64bits(a[i].Count) != math.Float64bits(b[i].Count) {
			return false
		}
	}
	return true
}
