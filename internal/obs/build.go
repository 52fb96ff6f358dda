package obs

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
)

// BuildVersion returns the binary's module version (falling back to the
// VCS revision, then "devel") and the Go toolchain that built it — the
// identity every daemon reports in /stats, -version, and the
// <ns>_build_info metric.
func BuildVersion() (version, goVersion string) {
	version = "devel"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if v := bi.Main.Version; v != "" && v != "(devel)" {
			version = v
		} else {
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" && len(s.Value) >= 12 {
					version = s.Value[:12]
					break
				}
			}
		}
	}
	return version, runtime.Version()
}

// RegisterBuildInfo registers the conventional build-info gauge
// (<ns>_build_info{version,go} 1), an uptime gauge driven by
// uptimeSeconds, and what the process costs the Go runtime, read from
// runtime/metrics at scrape time: GC CPU time, heap allocation (bytes
// and objects) and the live heap.
func RegisterBuildInfo(reg *Registry, uptimeSeconds func() float64) {
	version, goVersion := BuildVersion()
	reg.GaugeVec("build_info", "Build identity; value is always 1.", "version", "go").
		With(version, goVersion).Set(1)
	if uptimeSeconds != nil {
		reg.GaugeFunc("uptime_seconds", "Seconds since the daemon started.", uptimeSeconds)
	}
	reg.CounterFunc("go_gc_cpu_seconds_total", "CPU time the garbage collector has spent, estimated by the runtime.",
		runtimeMetric("/cpu/classes/gc/total:cpu-seconds"))
	reg.CounterFunc("go_heap_alloc_bytes_total", "Bytes allocated on the heap.",
		runtimeMetric("/gc/heap/allocs:bytes"))
	reg.CounterFunc("go_heap_alloc_objects_total", "Objects allocated on the heap.",
		runtimeMetric("/gc/heap/allocs:objects"))
	reg.GaugeFunc("go_heap_live_bytes", "Heap bytes the last garbage collection found live.",
		runtimeMetric("/gc/heap/live:bytes"))
}

// runtimeMetric returns a reader of one runtime/metrics sample; a name
// the running toolchain does not know reads 0.
func runtimeMetric(name string) func() float64 {
	return func() float64 {
		s := []metrics.Sample{{Name: name}}
		metrics.Read(s)
		switch s[0].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[0].Value.Uint64())
		case metrics.KindFloat64:
			return s[0].Value.Float64()
		}
		return 0
	}
}
