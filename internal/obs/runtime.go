package obs

import (
	"runtime"
	"sync"
	"time"
)

// DefaultRuntimeSampleInterval is how often the background sampler
// refreshes the runtime gauges.
const DefaultRuntimeSampleInterval = 10 * time.Second

// SampleRuntime reads the Go runtime's self-description — scheduler,
// heap, and garbage collector — into gauges of r. One call is one
// consistent sample; the background sampler (StartRuntimeSampler) calls
// it on a ticker, and `mdw metrics` calls it once before dumping so a
// one-shot process still exports its runtime state.
//
// The GC pause total is monotonic in the runtime but exported as a
// gauge: a gauge Set is idempotent under re-sampling, while a counter
// would need delta tracking for no benefit.
func SampleRuntime(r *Registry) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.SetHelp("mdw_runtime_goroutines", "Live goroutines (runtime.NumGoroutine).")
	r.Gauge("mdw_runtime_goroutines").Set(int64(runtime.NumGoroutine()))
	r.SetHelp("mdw_runtime_heap_alloc_bytes", "Bytes of allocated heap objects (MemStats.HeapAlloc).")
	r.Gauge("mdw_runtime_heap_alloc_bytes").Set(int64(ms.HeapAlloc))
	r.SetHelp("mdw_runtime_heap_inuse_bytes", "Bytes in in-use heap spans (MemStats.HeapInuse).")
	r.Gauge("mdw_runtime_heap_inuse_bytes").Set(int64(ms.HeapInuse))
	r.SetHelp("mdw_runtime_gc_pause_ns_total", "Cumulative GC stop-the-world pause (MemStats.PauseTotalNs).")
	r.Gauge("mdw_runtime_gc_pause_ns_total").Set(int64(ms.PauseTotalNs))
}

// StartRuntimeSampler samples the runtime into the default registry now
// and then every interval (<= 0 selects DefaultRuntimeSampleInterval)
// until the returned stop function is called. Stop is idempotent.
func StartRuntimeSampler(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = DefaultRuntimeSampleInterval
	}
	SampleRuntime(defaultRegistry)
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				SampleRuntime(defaultRegistry)
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}
