package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// metric is one named figure with its unit, as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndUnits lists the end-to-end metrics of an untraced run.
var endToEndUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ingest_rps", "reports/s"},
	{"ack_p50_ms", "ms"},
	{"ack_p95_ms", "ms"},
	{"answer_s", "s"},
	{"recall", "ratio"},
	{"peak_heap_mb", "MB"},
}

// layerUnits lists the per-layer metrics of a traced run. A layer a
// workload bypasses reads 0.
var layerUnits = []struct{ name, unit string }{
	{"device.encode_ns", "ns"},
	{"core.decode_ns", "ns"},
	{"agg.absorb_ns", "ns"},
	{"agg.absorb_busy", "ratio"},
	{"agg.absorb_calls", "count"},
	{"protocol.self_ms", "ms"},
	{"protocol.batches", "count"},
	{"proto.wire_bytes", "B/report"},
	{"checkpoint.saves", "count"},
	{"checkpoint.snapshot_ms", "ms"},
	{"checkpoint.save_ms", "ms"},
	{"checkpoint.stall_ms", "ms"},
	{"checkpoint.bytes_per_report", "B/report"},
	{"checkpoint.recover_ms", "ms"},
	{"checkpoint.load_ms", "ms"},
	{"checkpoint.restore_ms", "ms"},
	{"snapshot.encode_ms", "ms"},
	{"snapshot.bytes", "B"},
	{"snapshot.transfer_ms", "ms"},
	{"snapshot.merge_ms", "ms"},
	{"identify.ms", "ms"},
	{"identify.finalize_ms", "ms"},
	{"identify.confirm_ms", "ms"},
	{"identify.scan_decode_ms", "ms"},
	{"identify.candidates", "count"},
	{"runtime.allocs_per_report", "allocs/report"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
}

// endToEnd reduces the untraced rounds to the end-to-end metrics. The
// ingest figures pool every round: ingest_rps is all acknowledged reports
// over all ingest wall time, and the ack percentiles are taken over every
// round's batches together, so a run's figure rests on all of its batches
// rather than on the ~0.2 s ingest phase of one PES round. answer_s,
// recall and peak_heap_mb are medians over rounds. It also returns the
// pooled ack sample count.
func endToEnd(setups []float64, rounds []*round) (map[string]float64, int) {
	var lat, answers, recalls, peaks []float64
	acked, wall := 0, 0.0
	for _, r := range rounds {
		acked += r.ing.total()
		wall += r.ing.wall.Seconds()
		lat = append(lat, r.ing.lat...)
		answers = append(answers, r.answer.Seconds())
		recalls = append(recalls, r.recall)
		peaks = append(peaks, r.peakHeapMB)
	}
	return map[string]float64{
		"setup_s":      median(setups),
		"ingest_rps":   float64(acked) / wall,
		"ack_p50_ms":   quantile(lat, 0.5),
		"ack_p95_ms":   quantile(lat, 0.95),
		"answer_s":     median(answers),
		"recall":       median(recalls),
		"peak_heap_mb": median(peaks),
	}, len(lat)
}

func durs(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur())
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// covered returns the length of the union of spans clipped to [lo, hi].
func covered(spans []span, lo, hi int64) int64 {
	type ival struct{ a, b int64 }
	var iv []ival
	for _, s := range spans {
		if a, b := max(s.Start, lo), min(s.End, hi); a < b {
			iv = append(iv, ival{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].a < iv[j].a })
	var total, end int64
	end = lo
	for _, v := range iv {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// roundLayers computes one traced round's span-derived per-layer figures.
// Keys starting with "_" are intermediate sums the run-level assembly
// combines with the probes.
func roundLayers(r *round, frameLen, lanes int, checkpointing bool) map[string]float64 {
	rec := r.rec
	m := map[string]float64{}
	acked := float64(r.ing.total())
	absorbs := rec.named("agg.absorb", -1)
	m["agg.absorb_ns"] = sum(durs(absorbs)) / acked
	m["agg.absorb_calls"] = float64(len(absorbs))

	lo, hi := int64(r.ing.start.Sub(rec.base)), int64(r.ing.end.Sub(rec.base))
	sends := rec.named("client.send", -1)
	m["agg.absorb_busy"] = float64(covered(absorbs, lo, hi)) / float64(hi-lo)

	var selfs, ckptAcks, plainAcks []float64
	for _, s := range sends {
		children := rec.childrenOf(s)
		selfs = append(selfs, float64(s.dur()-covered(children, s.Start, s.End)))
		if checkpointing {
			if hasSpan(children, "agg.snapshot") {
				ckptAcks = append(ckptAcks, float64(s.dur()))
			} else {
				plainAcks = append(plainAcks, float64(s.dur()))
			}
		}
	}
	m["protocol.self_ms"] = median(selfs) / 1e6
	m["protocol.batches"] = float64(len(sends))
	m["proto.wire_bytes"] = (float64(frameLen)*acked + 5*float64(len(sends)) + float64(lanes)) / acked

	if checkpointing {
		snaps := rec.named("agg.snapshot", 0)
		m["checkpoint.saves"] = float64(len(snaps))
		m["checkpoint.snapshot_ms"] = median(durs(snaps)) / 1e6
		if len(ckptAcks) > 0 && len(plainAcks) > 0 {
			m["checkpoint.stall_ms"] = (median(ckptAcks) - median(plainAcks)) / 1e6
		}
		for _, s := range snaps {
			m["_ckpt_bytes"] += float64(s.Bytes)
		}
		m["checkpoint.recover_ms"] = sum(durs(rec.named("client.restart", -1))) / 1e6
		m["checkpoint.restore_ms"] = sum(durs(rec.named("agg.restore", -1))) / 1e6
	} else if merges := rec.named("agg.merge", -1); len(merges) > 0 {
		var leafSnaps []span
		for leaf := 0; leaf < lanes; leaf++ {
			leafSnaps = append(leafSnaps, rec.named("agg.snapshot", leaf)...)
		}
		m["snapshot.encode_ms"] = median(durs(leafSnaps)) / 1e6
		bytes := 0.0
		for _, s := range leafSnaps {
			bytes += float64(s.Bytes)
		}
		m["snapshot.bytes"] = bytes / float64(len(leafSnaps))
		moved := sum(durs(rec.named("client.pull", -1))) + sum(durs(rec.named("client.push", -1)))
		m["snapshot.transfer_ms"] = (moved - sum(durs(leafSnaps)) - sum(durs(merges))) / 1e6
		m["snapshot.merge_ms"] = median(durs(merges)) / 1e6
	}
	m["identify.ms"] = sum(durs(rec.named("agg.identify", -1))) / 1e6
	m["identify.candidates"] = float64(len(r.est))
	return m
}

func hasSpan(spans []span, name string) bool {
	for _, s := range spans {
		if s.Name == name {
			return true
		}
	}
	return false
}

// layerMetrics assembles the traced run's per-layer metrics: medians of the
// traced rounds' span figures, the runtime counters of the bare rounds,
// the set-up's encode time and the direct probes.
func layerMetrics(pop *population, rounds []*round, lanes int, checkpointing bool, pr probeResult) map[string]float64 {
	per := map[string][]float64{}
	var allocs, cycles, pauses []float64
	for _, r := range rounds {
		if r.traced {
			for k, v := range roundLayers(r, pop.frameLen, lanes, checkpointing) {
				per[k] = append(per[k], v)
			}
			continue
		}
		allocs = append(allocs, float64(r.rtIngest.mallocs)/float64(r.ing.total()))
		cycles = append(cycles, float64(r.rtTimed.numGC))
		pauses = append(pauses, float64(r.rtTimed.pauseTot)/1e6)
	}
	m := map[string]float64{}
	for _, l := range layerUnits {
		m[l.name] = median(per[l.name])
	}
	m["device.encode_ns"] = float64(pop.encodeNs) / float64(pop.devices())
	m["core.decode_ns"] = pr.decodeNs
	m["checkpoint.save_ms"] = pr.saveMs
	m["checkpoint.load_ms"] = pr.loadMs
	m["identify.finalize_ms"] = pr.finalizeMs
	m["identify.confirm_ms"] = pr.confirmMs
	m["identify.scan_decode_ms"] = pr.scanDecodeMs
	if checkpointing {
		files := m["checkpoint.saves"]
		m["checkpoint.bytes_per_report"] = (median(per["_ckpt_bytes"]) + files*float64(pr.fileOverhead)) / float64(pop.devices())
	}
	m["runtime.allocs_per_report"] = median(allocs)
	m["runtime.gc_cycles"] = median(cycles)
	m["runtime.gc_pause_ms"] = median(pauses)
	return m
}

// clientLayer names the layer a client span's self time belongs to, once
// the probed checkpoint save and load inside it are split out.
var clientLayer = map[string]string{
	"client.send":     "protocol",
	"client.pull":     "protocol",
	"client.push":     "protocol",
	"client.identify": "protocol",
	"client.shutdown": "protocol",
	"client.new":      "ldphh.New",
	"client.restart":  "server.start",
}

// aggLayer names the layer of an aggregator span.
func aggLayer(name string, checkpointing bool) string {
	switch name {
	case "agg.snapshot":
		if checkpointing {
			return "checkpoint.snapshot"
		}
		return "snapshot.encode"
	case "agg.merge":
		return "snapshot.merge"
	case "agg.restore":
		return "checkpoint.restore"
	}
	return name
}

// closure sums, over the traced rounds, each phase's wall time and the
// self time of every layer on its blocking path: the ingest sends, which
// the lanes make one after another, and the sequence of client calls that
// make the answer.
// A client span's time splits into the aggregator spans link attributed to
// it and its own self time, from which the probes' checkpoint save (after
// a checkpoint snapshot) and load (in a restart) are split out, since the
// server runs those inside the call. Client-loop time between spans on the
// path is left unattributed.
type closure struct {
	pr     probeResult
	wall   map[string]int64
	layers map[string]map[string]int64
}

func newClosure(pr probeResult) *closure {
	return &closure{pr: pr, wall: map[string]int64{}, layers: map[string]map[string]int64{}}
}

func (c *closure) add(phase, layer string, ns int64) {
	if c.layers[phase] == nil {
		c.layers[phase] = map[string]int64{}
	}
	c.layers[phase][layer] += ns
}

// path attributes each client span's time to the aggregator spans it
// caused and to its own layer for the rest.
func (c *closure) path(phase string, rec *recorder, spans []span, checkpointing bool) {
	for _, s := range spans {
		children := rec.childrenOf(s)
		byName := map[string][]span{}
		for _, a := range children {
			byName[a.Name] = append(byName[a.Name], a)
		}
		for name, group := range byName {
			c.add(phase, aggLayer(name, checkpointing), covered(group, s.Start, s.End))
		}
		self := s.dur() - covered(children, s.Start, s.End)
		split := func(layer string, probeMs float64) {
			ns := min(self, int64(probeMs*1e6))
			c.add(phase, layer, ns)
			self -= ns
		}
		if checkpointing && len(byName["agg.snapshot"]) > 0 {
			split("checkpoint.save", c.pr.saveMs)
		}
		if s.Name == "client.restart" {
			split("checkpoint.load", c.pr.loadMs)
		}
		c.add(phase, clientLayer[s.Name], self)
	}
}

func (c *closure) addRound(r *round, checkpointing bool) {
	rec := r.rec
	c.wall["ingest"] += int64(r.ing.wall)
	c.path("ingest", rec, rec.named("client.send", -1), checkpointing)
	c.wall["answer"] += int64(r.answer)
	var answer []span
	rec.mu.Lock()
	for _, s := range rec.spans {
		if isClient(s.Name) && s.Name != "client.send" && s.Start >= r.answerFrom {
			answer = append(answer, s)
		}
	}
	rec.mu.Unlock()
	c.path("answer", rec, answer, checkpointing)
}

// print writes one closure line per phase. The traced Identify is split
// in the shares the probes measured for finalize, confirm and the rest of
// a whole Identify, since the probes ran at another time of the run.
func (c *closure) print(out io.Writer, workload string, rounds int) {
	pr := c.pr
	for _, phase := range []string{"ingest", "answer"} {
		wall := c.wall[phase]
		layers := c.layers[phase]
		if id, ok := layers["agg.identify"]; ok {
			whole := pr.finalizeMs + pr.confirmMs + pr.scanDecodeMs
			share := func(probeMs float64) int64 { return int64(float64(id) * probeMs / whole) }
			delete(layers, "agg.identify")
			layers["identify.finalize"] = share(pr.finalizeMs)
			layers["identify.confirm"] = share(pr.confirmMs)
			layers["identify.scan_decode"] = share(pr.scanDecodeMs)
		}
		names := make([]string, 0, len(layers))
		var attributed int64
		for name, ns := range layers {
			names = append(names, name)
			attributed += ns
		}
		sort.Strings(names)
		var parts []string
		for _, name := range names {
			parts = append(parts, fmt.Sprintf("%s %.1f ms (%.1f%%)", name, float64(layers[name])/1e6, 100*float64(layers[name])/float64(wall)))
		}
		share := float64(attributed) / float64(wall)
		verdict := "within 10%"
		if share < 0.9 || share > 1.1 {
			verdict = "OUTSIDE 10%"
		}
		fmt.Fprintf(out, "closure %s %s: wall %.1f ms over %d traced rounds; %s; unattributed client time %.1f ms; layers on the blocking path %.1f%% of wall (%s)\n",
			workload, phase, float64(wall)/1e6, rounds, strings.Join(parts, ", "), float64(wall-attributed)/1e6, 100*share, verdict)
	}
}

// overhead compares the traced and bare rounds of a traced run.
func overhead(out io.Writer, rounds []*round) {
	var ingBare, ingTraced, ansBare, ansTraced []float64
	for _, r := range rounds {
		if r.traced {
			ingTraced = append(ingTraced, r.ing.wall.Seconds())
			ansTraced = append(ansTraced, r.answer.Seconds())
		} else {
			ingBare = append(ingBare, r.ing.wall.Seconds())
			ansBare = append(ansBare, r.answer.Seconds())
		}
	}
	pct := func(t, b []float64) float64 { return 100 * (median(t)/median(b) - 1) }
	fmt.Fprintf(out, "tracing overhead: ingest %+.1f%% (traced %.1f ms vs untraced %.1f ms), answer %+.1f%% (traced %.1f ms vs untraced %.1f ms); medians of %d traced and %d untraced rounds\n",
		pct(ingTraced, ingBare), 1e3*median(ingTraced), 1e3*median(ingBare),
		pct(ansTraced, ansBare), 1e3*median(ansTraced), 1e3*median(ansBare), len(ingTraced), len(ingBare))
}
