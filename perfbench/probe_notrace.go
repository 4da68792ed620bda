//go:build !perftrace

package main

import (
	"context"
	"errors"
)

// The untraced build links no probe: it imports only the ldphh facade.
const traceBuilt = false

func runProbes(context.Context, probeInput) (probeResult, error) {
	return probeResult{}, errors.New("perfbench: the direct probes need the perftrace build tag")
}
