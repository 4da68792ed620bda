//go:build perftrace

package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ldphh/internal/checkpoint"
	"ldphh/internal/core"
	"ldphh/internal/freqoracle"
	"ldphh/internal/par"
	"ldphh/internal/proto"
)

// The traced build times the layers the server calls internally directly,
// on the run's own reports and payloads. Only this file imports
// ldphh/internal/..., so an internal refactor can break the traced probes
// but never the untraced run's build.
const traceBuilt = true

// sink keeps probe results observable so the timed loops are not elided.
var sink float64

// Repetitions of each probe; each reports its median.
const (
	decodePasses = 3
	finalizeReps = 3
	confirmReps  = 5
	saveReps     = 25
	loadReps     = 15
)

func runProbes(ctx context.Context, in probeInput) (probeResult, error) {
	agg, err := in.newAgg()
	if err != nil {
		return probeResult{}, err
	}
	switch a := agg.(type) {
	case *core.PESWire:
		return probePES(ctx, a.Protocol(), in)
	case *freqoracle.HashtogramWire:
		return probeHashtogram(ctx, a, in)
	default:
		return probeResult{}, fmt.Errorf("perfbench: no probes for %T", agg)
	}
}

// timeIdentify times Identify on a fresh aggregator fed every report, the
// whole that the finalize and confirm probes split.
func timeIdentify(ctx context.Context, in probeInput) (float64, error) {
	agg, err := in.newAgg()
	if err != nil {
		return 0, err
	}
	if err := feed(agg, in.pop); err != nil {
		return 0, err
	}
	runtime.GC()
	t0 := time.Now()
	est, err := agg.Identify(ctx)
	sink += float64(len(est))
	return ms(time.Since(t0)), err
}

// timeDecode is the median over passes of the per-report time of decode
// over every pre-encoded report.
func timeDecode(pop *population, decode func(proto.WireReport) (float64, error)) (float64, error) {
	var per []float64
	for pass := 0; pass < decodePasses; pass++ {
		t0 := time.Now()
		for i := 0; i < pop.devices(); i++ {
			v, err := decode(proto.WireReport(pop.frame(i)))
			if err != nil {
				return 0, err
			}
			sink += v
		}
		per = append(per, float64(time.Since(t0))/float64(pop.devices()))
	}
	return median(per), nil
}

// probePES times core.DecodeReportWire and splits Identify: the M
// per-coordinate DirectHistogram finalizes at Identify's worker bound, and
// the confirmation oracle's finalize plus the answer's estimates, on
// oracles built like the protocol's and fed the same reports. Each
// repetition finalizes fresh copies of the fed oracles, then times a whole
// Identify on a fresh aggregator fed the same reports; the scan and
// list-recovery decode are what that Identify spends beyond the two.
func probePES(ctx context.Context, pr *core.Protocol, in probeInput) (probeResult, error) {
	var res probeResult
	var err error
	res.decodeNs, err = timeDecode(in.pop, func(wr proto.WireReport) (float64, error) {
		rep, err := core.DecodeReportWire(wr)
		return float64(rep.M), err
	})
	if err != nil {
		return res, err
	}
	params := pr.Params()
	cells := params.CellsPerCoordinate(pr.Code().ZBits())
	direct := make([]*freqoracle.DirectHistogram, params.M)
	for m := range direct {
		if direct[m], err = freqoracle.NewDirectHistogram(params.Eps/2, cells); err != nil {
			return res, err
		}
	}
	conf, err := freqoracle.NewHashtogram(pr.ConfOracleParams())
	if err != nil {
		return res, err
	}
	for i := 0; i < in.pop.devices(); i++ {
		rep, err := core.DecodeReportWire(proto.WireReport(in.pop.frame(i)))
		if err != nil {
			return res, err
		}
		if err := direct[rep.M].Absorb(rep.Dir); err != nil {
			return res, err
		}
		if err := conf.Absorb(rep.Conf); err != nil {
			return res, err
		}
	}
	// Identify's rule: one finalize worker when a coordinate is large.
	finWorkers := params.Workers
	if cells > 1<<20 {
		finWorkers = 1
	}
	var fin, confirm, scan []float64
	for rep := 0; rep < finalizeReps; rep++ {
		fresh := make([]*freqoracle.DirectHistogram, params.M)
		for m, d := range direct {
			fresh[m] = d.NewAccumulator()
			if err := fresh[m].Merge(d); err != nil {
				return res, err
			}
		}
		runtime.GC() // no collection left running from the copies into the timed part
		t0 := time.Now()
		par.Range(params.M, finWorkers, func(m int) { fresh[m].Finalize() })
		fin = append(fin, ms(time.Since(t0)))

		c := conf.NewAccumulator()
		if err := c.Merge(conf); err != nil {
			return res, err
		}
		runtime.GC()
		t0 = time.Now()
		c.FinalizeWorkers(params.Workers)
		for _, e := range in.answer {
			sink += c.Estimate(e.Item)
		}
		confirm = append(confirm, ms(time.Since(t0)))

		whole, err := timeIdentify(ctx, in)
		if err != nil {
			return res, err
		}
		scan = append(scan, whole-fin[rep]-confirm[rep])
	}
	res.finalizeMs, res.confirmMs, res.scanDecodeMs = median(fin), median(confirm), median(scan)
	return res, nil
}

// probeHashtogram times the Hashtogram frame decode, the oracle work of
// Identify (finalize plus an estimate per dictionary candidate) on an
// oracle fed the same reports, paired with a whole Identify on a fresh
// aggregator fed them, and checkpoint.Manager Save and LoadNewest on that
// oracle's snapshot and the run's own checkpoint directory.
func probeHashtogram(ctx context.Context, a *freqoracle.HashtogramWire, in probeInput) (probeResult, error) {
	var res probeResult
	var err error
	decode := func(wr proto.WireReport) (freqoracle.HashtogramReport, error) {
		if err := proto.CheckHeader(wr, proto.IDHashtogram); err != nil {
			return freqoracle.HashtogramReport{}, err
		}
		return freqoracle.DecodeHashtogramReport(wr.Payload())
	}
	res.decodeNs, err = timeDecode(in.pop, func(wr proto.WireReport) (float64, error) {
		rep, err := decode(wr)
		return float64(rep.Row), err
	})
	if err != nil {
		return res, err
	}
	h, err := freqoracle.NewHashtogram(a.Oracle().Params())
	if err != nil {
		return res, err
	}
	for i := 0; i < in.pop.devices(); i++ {
		rep, err := decode(proto.WireReport(in.pop.frame(i)))
		if err != nil {
			return res, err
		}
		if err := h.Absorb(rep); err != nil {
			return res, err
		}
	}
	payload, err := h.Snapshot()
	if err != nil {
		return res, err
	}
	var confirm, rest []float64
	for rep := 0; rep < confirmReps; rep++ {
		c := h.NewAccumulator()
		if err := c.Merge(h); err != nil {
			return res, err
		}
		runtime.GC()
		t0 := time.Now()
		c.Finalize()
		for _, cand := range in.candidates {
			sink += c.Estimate(cand)
		}
		confirm = append(confirm, ms(time.Since(t0)))

		whole, err := timeIdentify(ctx, in)
		if err != nil {
			return res, err
		}
		rest = append(rest, whole-confirm[rep])
	}
	res.confirmMs, res.scanDecodeMs = median(confirm), median(rest)

	fp := a.Fingerprint()
	dir := filepath.Join(in.scratch, "probe-save")
	mgr, err := checkpoint.Open(dir, checkpoint.WithFingerprint(fp))
	if err != nil {
		return res, err
	}
	var saves []float64
	for i := 0; i < saveReps; i++ {
		t0 := time.Now()
		info, err := mgr.Save(payload)
		if err != nil {
			return res, err
		}
		saves = append(saves, ms(time.Since(t0)))
		st, err := os.Stat(info.Path)
		if err != nil {
			return res, err
		}
		res.fileOverhead = int(st.Size()) - len(payload)
	}
	res.saveMs = median(saves)
	if err := os.RemoveAll(dir); err != nil {
		return res, err
	}
	if in.ckptDir == "" {
		return res, fmt.Errorf("perfbench: no checkpoint directory to load from")
	}
	loader, err := checkpoint.Open(in.ckptDir, checkpoint.WithFingerprint(fp))
	if err != nil {
		return res, err
	}
	var loads []float64
	for i := 0; i < loadReps; i++ {
		t0 := time.Now()
		got, _, err := loader.LoadNewest()
		if err != nil {
			return res, err
		}
		sink += float64(len(got))
		loads = append(loads, ms(time.Since(t0)))
	}
	res.loadMs = median(loads)
	return res, nil
}
