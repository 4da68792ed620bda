package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"ldphh"
)

// span is one timed call at a layer boundary. Client spans wrap the calls
// the benchmark makes into the facade; aggregator spans wrap the calls the
// server makes into the aggregator it was handed. Parent and Req link an
// aggregator span to the client call it served; link fills them in after
// the round.
type span struct {
	ID     int // index in the recorder
	Name   string
	Server int   // benchmark-local server id
	Conn   int   // client connection (ingest lane), or -1
	Start  int64 // ns since the recorder's base
	End    int64
	Parent int   // ID of the client span this one served, or -1
	Req    int64 // request id: the client call's id, or -1
	Bytes  int   // payload size where the call moves one (snapshots)
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps a round's spans in memory. It is shared by the client
// goroutine and the servers' connection handlers, so appends lock.
type recorder struct {
	base time.Time

	mu       sync.Mutex
	spans    []span
	req      int64
	children map[int][]span // by parent ID, filled by link
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), spans: make([]span, 0, 1<<15)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	s.ID = len(r.spans)
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// client times one client call as a span with a fresh request id. A nil
// recorder runs the call untimed, which is how untraced rounds share the
// code.
func (r *recorder) client(name string, server int, fn func() error) error {
	return r.clientOn(name, server, -1, fn)
}

// clientOn is client for a call on ingest connection conn.
func (r *recorder) clientOn(name string, server, conn int, fn func() error) error {
	if r == nil {
		return fn()
	}
	start := r.now()
	err := fn()
	end := r.now()
	r.mu.Lock()
	r.req++
	r.spans = append(r.spans, span{ID: len(r.spans), Name: name, Server: server, Conn: conn,
		Start: start, End: end, Parent: -1, Req: r.req})
	r.mu.Unlock()
	return err
}

// link fills Parent and Req of every aggregator span from the client span
// on the same server whose interval contains it. The benchmark's client
// calls take their turns (one ingest lane at a time, then the answer's
// calls in sequence), so at most one contains it; a span two calls contain
// stays unattributed. Only the last few client spans starting before an
// aggregator span are checked.
func (r *recorder) link() {
	const maxConns = 4
	r.mu.Lock()
	defer r.mu.Unlock()
	clients := map[int][]int{} // server -> client span indexes by start
	for i, s := range r.spans {
		if isClient(s.Name) {
			clients[s.Server] = append(clients[s.Server], i)
		}
	}
	for _, idx := range clients {
		sort.Slice(idx, func(a, b int) bool { return r.spans[idx[a]].Start < r.spans[idx[b]].Start })
	}
	r.children = map[int][]span{}
	for i := range r.spans {
		s := &r.spans[i]
		if isClient(s.Name) {
			continue
		}
		s.Parent, s.Req = -1, -1
		idx := clients[s.Server]
		k := sort.Search(len(idx), func(a int) bool { return r.spans[idx[a]].Start > s.Start })
		var fits []int
		for a := k - 1; a >= 0 && a >= k-maxConns; a-- {
			if c := r.spans[idx[a]]; c.End >= s.End {
				fits = append(fits, idx[a])
			}
		}
		if len(fits) == 1 {
			s.Parent, s.Req = fits[0], r.spans[fits[0]].Req
			r.children[s.Parent] = append(r.children[s.Parent], *s)
		}
	}
}

func isClient(name string) bool { return len(name) > 7 && name[:7] == "client." }

// writeTo appends the spans to path as tab-separated lines, one per span.
func (r *recorder) writeTo(path string, round int) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	r.mu.Lock()
	for _, s := range r.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			round, s.ID, s.Name, s.Server, s.Conn, s.Start, s.End, s.Parent, s.Req, s.Bytes)
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// named returns the spans with the given name (on server, or any server
// when server < 0), in start order.
func (r *recorder) named(name string, server int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name && (server < 0 || s.Server == server) {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// childrenOf returns the aggregator spans link attributed to client span s.
func (r *recorder) childrenOf(s span) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.children[s.ID]
}

// tracedAgg is the benchmark's wrapper around an aggregator handed to
// NewAggregationServer. It implements every capability the server looks
// for on PES and Hashtogram aggregators (Aggregator, Mergeable, Calibrated
// and the Fingerprint method checkpoints stamp) by delegation, and records
// a span around each AbsorbBatch, Snapshot, Restore, MergeSnapshot and
// Identify the server makes.
type tracedAgg struct {
	inner  ldphh.Aggregator
	merge  ldphh.Mergeable
	cal    ldphh.Calibrated
	fp     interface{ Fingerprint() uint64 }
	rec    *recorder
	server int
}

func newTracedAgg(inner ldphh.Aggregator, rec *recorder, server int) (*tracedAgg, error) {
	m, ok := ldphh.AsMergeable(inner)
	cal, okCal := inner.(ldphh.Calibrated)
	fp, okFP := inner.(interface{ Fingerprint() uint64 })
	if !ok || !okCal || !okFP {
		return nil, fmt.Errorf("perfbench: %T lacks a capability the wrapper delegates", inner)
	}
	return &tracedAgg{inner: inner, merge: m, cal: cal, fp: fp, rec: rec, server: server}, nil
}

// timed records fn as a span; fn returns the payload size it moved.
func (t *tracedAgg) timed(name string, fn func() (int, error)) error {
	start := t.rec.now()
	n, err := fn()
	t.rec.add(span{Name: name, Server: t.server, Conn: -1, Start: start, End: t.rec.now(),
		Parent: -1, Req: -1, Bytes: n})
	return err
}

func (t *tracedAgg) ProtocolID() byte                 { return t.inner.ProtocolID() }
func (t *tracedAgg) Absorb(wr ldphh.WireReport) error { return t.inner.Absorb(wr) }
func (t *tracedAgg) TotalReports() int                { return t.inner.TotalReports() }
func (t *tracedAgg) SketchBytes() int                 { return t.inner.SketchBytes() }
func (t *tracedAgg) BytesPerReport() int              { return t.inner.BytesPerReport() }
func (t *tracedAgg) MinRecoverableFrequency() float64 { return t.cal.MinRecoverableFrequency() }
func (t *tracedAgg) Fingerprint() uint64              { return t.fp.Fingerprint() }

func (t *tracedAgg) AbsorbBatch(wrs []ldphh.WireReport) error {
	return t.timed("agg.absorb", func() (int, error) { return 0, t.inner.AbsorbBatch(wrs) })
}

func (t *tracedAgg) Snapshot() ([]byte, error) {
	var snap []byte
	err := t.timed("agg.snapshot", func() (int, error) {
		var err error
		snap, err = t.merge.Snapshot()
		return len(snap), err
	})
	return snap, err
}

func (t *tracedAgg) Restore(buf []byte) error {
	return t.timed("agg.restore", func() (int, error) { return len(buf), t.merge.Restore(buf) })
}

func (t *tracedAgg) MergeSnapshot(buf []byte) error {
	return t.timed("agg.merge", func() (int, error) { return len(buf), t.merge.MergeSnapshot(buf) })
}

func (t *tracedAgg) Identify(ctx context.Context) ([]ldphh.Estimate, error) {
	var est []ldphh.Estimate
	err := t.timed("agg.identify", func() (int, error) {
		var err error
		est, err = t.inner.Identify(ctx)
		return 0, err
	})
	return est, err
}
