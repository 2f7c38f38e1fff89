package main

import (
	"runtime/metrics"
)

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocMB, gcCycles, gcCPU, totalCPU float64
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeSample{
		allocMB:  float64(s[0].Value.Uint64()) / 1e6,
		gcCycles: float64(s[1].Value.Uint64()),
		gcCPU:    s[2].Value.Float64(),
		totalCPU: s[3].Value.Float64(),
	}
}

// sub returns the counters accumulated between r0 and r.
func (r runtimeSample) sub(r0 runtimeSample) runtimeSample {
	return runtimeSample{
		allocMB:  r.allocMB - r0.allocMB,
		gcCycles: r.gcCycles - r0.gcCycles,
		gcCPU:    r.gcCPU - r0.gcCPU,
		totalCPU: r.totalCPU - r0.totalCPU,
	}
}

// gcCPUFraction is the share of the runtime's available CPU time spent
// in garbage collection over the interval.
func (r runtimeSample) gcCPUFraction() float64 {
	if r.totalCPU <= 0 {
		return 0
	}
	return r.gcCPU / r.totalCPU
}
