package main

import "ldphh"

// probeInput is what the traced run's direct probes measure on: a fresh
// aggregator of the workload's parameters, the run's pre-encoded reports,
// the items Identify confirms, and the run's checkpoint directory.
type probeInput struct {
	newAgg     func() (ldphh.Protocol, error)
	pop        *population
	answer     []ldphh.Estimate // PES: the answer the confirmation oracle re-estimates
	candidates [][]byte         // Hashtogram: the dictionary Identify estimates
	ckptDir    string           // Hashtogram: the newest round's checkpoint directory
	scratch    string
}

// probeResult holds the direct timings of layers the server calls
// internally (zero where a workload bypasses the layer).
type probeResult struct {
	decodeNs     float64
	finalizeMs   float64
	confirmMs    float64
	scanDecodeMs float64 // Identify minus finalize and confirm, paired per repetition
	saveMs       float64
	loadMs       float64
	fileOverhead int // LCKF header and trailer bytes per checkpoint file
}
