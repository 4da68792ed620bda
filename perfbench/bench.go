package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"ldphh"
)

// workload is one traffic mix: it builds its population from the seed,
// starts a round's servers, and drives a round's timed phases.
type workload interface {
	kind() ldphh.Kind
	newAgg() (ldphh.Protocol, error)
	// populate builds the device side and every device's report.
	populate(seed uint64) (*population, error)
	// start constructs one round's aggregators and servers.
	start(rec *recorder, round int) (*fleet, error)
	// run drives one round's ingest and answer phases and checks them.
	run(ctx context.Context, b *bench, f *fleet, rec *recorder) (*round, error)
	// probeTarget names what the traced run's direct probes measure.
	probeTarget() probeInput
}

// round is one replica of a workload's timed phases on fresh servers.
type round struct {
	traced     bool
	ing        ingestStats
	answer     time.Duration
	answerFrom int64 // answer phase start in recorder time (traced rounds)
	est        []ldphh.Estimate
	recall     float64
	heavy      int
	peakHeapMB float64
	rtIngest   runtimeCounters
	rtTimed    runtimeCounters
	rec        *recorder
}

// bench carries one run's tallies: every operation attempted and failed,
// and every failed correctness check.
type bench struct {
	opts      options
	scratch   string
	attempted int
	failed    int
	problems  []string
}

// op counts one client operation against attempts.
func (b *bench) op(err error) error {
	b.attempted++
	if err != nil {
		b.failed++
		b.problems = append(b.problems, err.Error())
	}
	return err
}

// check records a failed correctness check.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// countIngest folds an ingest phase's sends into the tallies.
func (b *bench) countIngest(ing ingestStats) {
	b.attempted += ing.attempts
	b.failed += ing.failed
	for _, err := range ing.errs {
		if err != nil {
			b.problems = append(b.problems, err.Error())
		}
	}
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 3

// runRounds performs the set-up repetitions, one untimed warm-up round
// (the process's heap grows to its working size there, not in a timed
// phase), then rounds on fresh servers until the run's time is spent: at
// least minRounds, and traced runs alternate untraced and traced rounds
// in pairs.
func (b *bench) runRounds(ctx context.Context, w workload) (setups []float64, pop *population, rounds []*round, err error) {
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		t0 := time.Now()
		pop, err = w.populate(b.opts.seed)
		if err != nil {
			return nil, nil, nil, err
		}
		f, err := w.start(nil, -1-rep)
		if err != nil {
			return nil, nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		f.close()
	}
	if _, err := b.round(ctx, w, nil, 0); err != nil {
		return nil, nil, nil, err
	}
	minRounds := 3
	if b.opts.trace {
		minRounds = 4
	}
	deadline := time.Now().Add(time.Duration(b.opts.seconds * float64(time.Second)))
	var last time.Duration
	for i := 0; ; i++ {
		traced := b.opts.trace && i%2 == 1
		pairDone := !b.opts.trace || i%2 == 0
		if i >= minRounds && pairDone && time.Now().Add(last).After(deadline) {
			break
		}
		t0 := time.Now()
		var rec *recorder
		if traced {
			rec = newRecorder()
		}
		r, err := b.round(ctx, w, rec, i+1)
		if err != nil {
			return nil, nil, nil, err
		}
		rounds = append(rounds, r)
		last = time.Since(t0)
	}
	return setups, pop, rounds, nil
}

// round starts fresh servers, collects garbage, drives one round and shuts
// the servers down. The previous round's garbage is collected before the
// new servers are built too, so their aggregators reuse the memory the last
// round's released instead of growing the heap into fresh pages.
func (b *bench) round(ctx context.Context, w workload, rec *recorder, i int) (*round, error) {
	runtime.GC()
	f, err := w.start(rec, i)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	r, err := w.run(ctx, b, f, rec)
	f.close()
	if err != nil {
		return nil, err
	}
	r.traced = rec != nil
	if r.traced {
		rec.link()
	}
	return r, nil
}

// checkReplay compares the rounds' answer with an in-process replay of the
// same reports into a fresh aggregator, run after the timed phases.
func (b *bench) checkReplay(ctx context.Context, w workload, pop *population, rounds []*round) {
	agg, err := w.newAgg()
	if err != nil {
		b.op(err)
		return
	}
	est, err := replay(ctx, agg, pop)
	if b.op(err) != nil {
		return
	}
	for i, r := range rounds {
		b.check(sameEstimates(r.est, est), "round %d answer (%d estimates) differs from the in-process replay (%d estimates)",
			i, len(r.est), len(est))
	}
}
